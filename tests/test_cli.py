"""Tests for the command-line harness."""

import dataclasses
import errno
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvbench import __version__, cli
from cvbench.info import discord_oracle, entropy, gaussian_discord
from cvbench.network import ThreeModeProtocol, bs_symplectic, matched_probe, run_three_mode
from cvbench.speckle import BenchConfig, run_bench
from cvbench.states import (
    SingleModeSpec,
    SymplecticOp,
    apply_symplectic,
    partial_trace,
    symplectic_eigenvalues,
)
from cvbench.stats import cm_to_intensity_corr


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestConfig:
    def test_defaults(self):
        cfg = cli.load_config()
        assert cfg["bench"]["modes"] == 100
        assert cfg["bench"]["frames"] == 100000
        assert cfg["source"]["mean_photons"] == 1.0
        assert cfg["analysis"]["ci_level"] == 0.99
        assert cfg["bench"]["seed"] == 42

    def test_file_overlay(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[bench]\nframes = 2000\nseed = 7\n")
        cfg = cli.load_config(path)
        assert cfg["bench"]["frames"] == 2000
        assert cfg["bench"]["seed"] == 7
        assert cfg["bench"]["modes"] == 100  # untouched default

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("[bench]\nframes = 2000\nthis is not a key value pair\n")
        with pytest.raises(cli.ConfigError, match="line"):
            cli.load_config(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"[bench]\nframes = \xff\n")
        with pytest.raises(cli.ConfigError, match="UTF-8"):
            cli.load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[bench]\nfarmes = 2000\n")
        with pytest.raises(cli.ConfigError, match="unknown config key"):
            cli.load_config(path)

    def test_bad_type_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[bench]\nframes = many\n")
        with pytest.raises(cli.ConfigError, match="frames"):
            cli.load_config(path)

    def test_source_and_bench_are_the_bench_config(self):
        cfg = cli.load_config()
        fields = set(BenchConfig.__dataclass_fields__)
        assert set(cfg["source"]) | set(cfg["bench"]) == fields
        assert len(cfg["source"]) + len(cfg["bench"]) == len(fields)
        assert BenchConfig(**cfg["source"], **cfg["bench"]) == BenchConfig()

    @pytest.mark.parametrize("taus, bad", [("0.1%", "0.1%"), ("0.5, abc", "abc")])
    def test_unparseable_tau_names_the_key(self, tmp_path, capsys, taus, bad):
        # values are literal text, so a % is an unparseable tau and not a
        # configparser interpolation error
        path = tmp_path / "sweep.cfg"
        path.write_text(f"[sweep]\ntaus = {taus}\n")
        code = cli.main(["sweep-discord", "--config", str(path), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"error: [sweep] taus: cannot parse {bad!r} as float"]
        assert list(tmp_path.iterdir()) == [path]

    def test_no_reference_between_keys(self, tmp_path, capsys):
        # %(frames)s is not filled in from [bench] frames; it is refused as a seed
        path = tmp_path / "bench.cfg"
        path.write_text("[bench]\nseed = %(frames)s\n")
        out = str(tmp_path / "t.csv")
        code = cli.main(["tables", "--config", str(path), "--frames", "2000", "--out", out])
        assert code == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == ["error: [bench] seed: cannot parse '%(frames)s' as int"]
        assert list(tmp_path.iterdir()) == [path]


def run_main(args):
    return cli.main(args)


class TestTables:
    def test_ideal_quick_run(self, tmp_path):
        out = tmp_path / "tables.csv"
        code = run_main(["tables", "--frames", "4000", "--out", str(out), "--seed", "42"])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["pair", "c_in", "ci_in_lo", "ci_in_hi", "c_out", "ci_out_lo", "ci_out_hi"]
        assert [r[0] for r in rows] == ["1-2", "1-3", "2-3"]
        values = {r[0]: [float(x) for x in r[1:]] for r in rows}
        assert abs(values["1-2"][0]) <= 0.05
        assert values["2-3"][0] >= 0.99
        assert values["1-3"][3] == pytest.approx(0.5, abs=0.05)
        # all CI bounds inside [-1, 1]
        for row in values.values():
            for bound in (row[1], row[2], row[4], row[5]):
                assert -1.0 <= bound <= 1.0
        # fixed six-decimal formatting
        assert all(len(cell.split(".")[1]) == 6 for r in rows for cell in r[1:])

    def test_bit_identical_across_workers(self, tmp_path):
        blobs = []
        for workers in (1, 2, 8):
            out = tmp_path / f"tables_w{workers}.csv"
            run_main(["tables", "--frames", "2000", "--workers", str(workers), "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_full_transmission_leaves_correlations(self, tmp_path):
        out = tmp_path / "tables_tau1.csv"
        run_main(["tables", "--frames", "4000", "--tau", "1.0", "--out", str(out)])
        _, rows = read_rows(out)
        for row in rows:
            c_in, c_out = float(row[1]), float(row[4])
            assert abs(c_out - c_in) <= 0.05

    def test_mode_matching_ceiling(self, tmp_path):
        out = tmp_path / "tables_eta.csv"
        run_main(["tables", "--frames", "20000", "--eta", "0.97", "--out", str(out)])
        _, rows = read_rows(out)
        c23_in = float(rows[2][1])
        assert c23_in == pytest.approx(0.97, abs=0.02)


class TestManifest:
    def test_roundtrip_reproduces_csv(self, tmp_path):
        out = tmp_path / "tables.csv"
        run_main(["tables", "--frames", "3000", "--out", str(out), "--seed", "5"])
        manifest_path = tmp_path / "tables.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "tables"
        assert manifest["seed"] == 5
        assert manifest["outputs"] == [str(out)]
        replay = cli.run_from_manifest(manifest_path, tmp_path / "replay.csv")
        assert replay.read_bytes() == out.read_bytes()

    def test_erasure_roundtrip(self, tmp_path):
        out = tmp_path / "erasure.csv"
        run_main(["erasure", "--frames", "2000", "--out", str(out)])
        replay = cli.run_from_manifest(tmp_path / "erasure.csv.manifest.json", tmp_path / "r.csv")
        assert replay.read_bytes() == out.read_bytes()


    def _tables_manifest(self, tmp_path):
        out = tmp_path / "tables.csv"
        run_main(["tables", "--frames", "1000", "--out", str(out)])
        path = tmp_path / "tables.csv.manifest.json"
        return out, path, json.loads(path.read_text())

    def test_records_versions(self, tmp_path):
        _, _, manifest = self._tables_manifest(tmp_path)
        assert manifest["version"] == __version__
        assert manifest["numpy_version"] == np.__version__
        assert manifest["sampler"] == "bartlett-gram-2"

    def test_other_version_refused(self, tmp_path):
        _, path, manifest = self._tables_manifest(tmp_path)
        manifest["version"] = "9.9"
        path.write_text(json.dumps(manifest))
        with pytest.raises(cli.ConfigError, match="9.9"):
            cli.run_from_manifest(path, tmp_path / "replay.csv")
        assert not (tmp_path / "replay.csv").exists()

    def test_other_sampler_refused(self, tmp_path):
        # a manifest of another sampler would replay into different bytes
        _, path, manifest = self._tables_manifest(tmp_path)
        manifest["sampler"] = "philox-fields"
        path.write_text(json.dumps(manifest))
        with pytest.raises(cli.ConfigError, match="'philox-fields'"):
            cli.run_from_manifest(path, tmp_path / "replay.csv")
        assert not (tmp_path / "replay.csv").exists()

    def test_missing_sampler_refused(self, tmp_path):
        _, path, manifest = self._tables_manifest(tmp_path)
        del manifest["sampler"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(cli.ConfigError, match="sampler None"):
            cli.run_from_manifest(path, tmp_path / "replay.csv")
        assert not (tmp_path / "replay.csv").exists()

    def test_config_typed_like_config_files(self, tmp_path):
        out, path, manifest = self._tables_manifest(tmp_path)
        manifest["config"]["bench"]["frames"] = "1000"
        path.write_text(json.dumps(manifest))
        assert cli.run_from_manifest(path, tmp_path / "r.csv").read_bytes() == out.read_bytes()
        for bad in ("many", 1000.5):
            manifest["config"]["bench"]["frames"] = bad
            path.write_text(json.dumps(manifest))
            with pytest.raises(cli.ConfigError, match="frames"):
                cli.run_from_manifest(path, tmp_path / "r.csv")
        manifest["config"]["bench"]["farmes"] = 1000
        path.write_text(json.dumps(manifest))
        with pytest.raises(cli.ConfigError, match="unknown config key"):
            cli.run_from_manifest(path, tmp_path / "r.csv")

    def test_top_level_list_refused(self, tmp_path):
        _, path, manifest = self._tables_manifest(tmp_path)
        path.write_text(json.dumps([manifest]))
        with pytest.raises(cli.ConfigError, match="JSON object"):
            cli.run_from_manifest(path, tmp_path / "r.csv")

    def test_non_json_refused(self, tmp_path):
        path = tmp_path / "tables.csv.manifest.json"
        path.write_text("command = tables\n")
        with pytest.raises(cli.ConfigError, match="not valid JSON"):
            cli.run_from_manifest(path)

    def test_missing_manifest_refused(self, tmp_path):
        with pytest.raises(cli.ConfigError, match="cannot read manifest"):
            cli.run_from_manifest(tmp_path / "nope.json")

    def test_non_utf8_manifest_refused(self, tmp_path):
        path = tmp_path / "tables.csv.manifest.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(cli.ConfigError, match="not valid JSON"):
            cli.run_from_manifest(path)

    def test_missing_outputs_refused(self, tmp_path):
        _, path, manifest = self._tables_manifest(tmp_path)
        del manifest["outputs"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(cli.ConfigError, match="no output"):
            cli.run_from_manifest(path)

    def test_empty_outputs_refused(self, tmp_path):
        out, path, manifest = self._tables_manifest(tmp_path)
        manifest["outputs"] = []
        path.write_text(json.dumps(manifest))
        before = out.read_bytes()
        with pytest.raises(cli.ConfigError, match="no output"):
            cli.run_from_manifest(path)
        assert out.read_bytes() == before


class TestErasure:
    def test_row_layout_and_v_warning(self, tmp_path, capsys):
        out = tmp_path / "erasure.csv"
        code = run_main(["erasure", "--frames", "3000", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "basis=V" in captured.err  # the V pattern is flagged as model-defined
        header, rows = read_rows(out)
        assert header == ["basis", "pair", "c_out", "ci_lo", "ci_hi"]
        assert [(r[0], r[1]) for r in rows] == [
            ("none", "1-2"),
            ("deg45", "1-2"),
            ("deg45", "1-3"),
            ("deg45", "2-3"),
            ("V", "1-2"),
            ("V", "1-3"),
            ("V", "2-3"),
        ]
        values = {(r[0], r[1]): float(r[2]) for r in rows}
        assert values[("none", "1-2")] >= 0.99
        assert abs(values[("deg45", "1-2")]) <= 0.1
        assert values[("V", "2-3")] >= 0.99

    def test_all_bases_read_one_bench_run(self, tmp_path, monkeypatch):
        calls = []

        def counting(config):
            calls.append(config)
            return run_bench(config)

        monkeypatch.setattr(cli, "run_bench", counting)
        out = tmp_path / "erasure.csv"
        assert run_main(["erasure", "--basis", "all", "--frames", "2000", "--out", str(out)]) == 0
        assert len(calls) == 1
        assert len(read_rows(out)[1]) == 7

    def test_single_basis_selection(self, tmp_path):
        out = tmp_path / "erasure45.csv"
        run_main(["erasure", "--frames", "2000", "--basis", "deg45", "--out", str(out)])
        _, rows = read_rows(out)
        assert [r[0] for r in rows] == ["deg45"] * 3

    def test_unknown_basis_exit_code(self, tmp_path, capsys):
        out = tmp_path / "erasure.csv"
        assert run_main(["erasure", "--frames", "500", "--basis", "H", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error:") and "'H'" in err[0]
        assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_columns_and_monotonicity(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[sweep]\nn_points = 12\nn_source_min = 0.05\nn_source_max = 20.0\n")
        out = tmp_path / "sweep.csv"
        code = run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["tau", "n_source", "discord", "c13_out", "c23_out"]
        taus = sorted({r[0] for r in rows})
        assert taus == ["0.150000", "0.500000", "0.850000"]
        by_tau = {t: [r for r in rows if r[0] == t] for t in taus}
        for series in by_tau.values():
            discord = [float(r[2]) for r in series]
            c13 = [float(r[3]) for r in series]
            c23 = [float(r[4]) for r in series]
            assert all(a < b for a, b in zip(discord, discord[1:]))
            assert all(a < b for a, b in zip(c13, c13[1:]))
            assert all(a < b for a, b in zip(c23, c23[1:]))
        # raising the mixing transmissivity favors the 2-3 pair over 1-3
        for low_row, high_row in zip(by_tau["0.150000"], by_tau["0.850000"]):
            assert float(high_row[4]) > float(low_row[4])
            assert float(high_row[3]) < float(low_row[3])

    def test_discord_vanishes_with_source(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[sweep]\nn_points = 5\nn_source_min = 0.0001\nn_source_max = 0.01\ntaus = 0.5\n")
        out = tmp_path / "sweep.csv"
        run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)])
        _, rows = read_rows(out)
        assert float(rows[0][2]) < 1e-4

    def test_t_split_sweep_param(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "[sweep]\nn_points = 4\nn_source_min = 0.5\nn_source_max = 4.0\n"
            "taus = 0.15,0.85\nsweep_param = t_split\n"
        )
        out = tmp_path / "sweep.csv"
        assert run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 8

    @pytest.mark.parametrize("sweep_param", ["tau_mix", "t_split"])
    def test_stacked_sweep_equals_per_point_calls(self, tmp_path, sweep_param):
        # the command evaluates each series as one stack; the CSV must be the
        # bytes of one scalar pipeline per point
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "[sweep]\nn_points = 1000\nn_source_min = 0.001\nn_source_max = 1000.0\n"
            f"taus = 0.05,0.7\nsweep_param = {sweep_param}\n"
        )
        out = tmp_path / "sweep.csv"
        assert run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)]) == 0
        lines = ["tau,n_source,discord,c13_out,c23_out"]
        for tau in (0.05, 0.7):
            t_split, tau_mix = (0.5, tau) if sweep_param == "tau_mix" else (tau, 0.5)
            for n_source in np.geomspace(0.001, 1000.0, 1000).tolist():
                source = SingleModeSpec(n_source)
                protocol = ThreeModeProtocol(
                    matched_probe(source, t_split), source, t_split, tau_mix
                )
                state_in, state_out = run_three_mode(protocol)
                row = (
                    tau,
                    n_source,
                    gaussian_discord(partial_trace(state_in, (1, 2))),
                    cm_to_intensity_corr(state_out, 0, 2, shot_noise=True),
                    cm_to_intensity_corr(state_out, 1, 2, shot_noise=True),
                )
                lines.append(",".join(f"{v:.6f}" for v in row))
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")

    @pytest.mark.parametrize(
        "flag",
        [
            ["--seed", "3"],
            ["--frames", "10"],
            ["--modes", "2"],
            ["--eta", "0.5"],
            ["--workers", "2"],
            ["--ci-level", "0.9"],
            ["--quick"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_bench_flags_rejected(self, tmp_path, flag):
        # the sweep reads only [sweep], t_split and tau_mix; a flag it would ignore is refused
        with pytest.raises(SystemExit) as exc:
            run_main(["sweep-discord", *flag, "--out", str(tmp_path / "sweep.csv")])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "sweep_param, taus, bad",
        [
            ("t_split", "0.001,0.999,1.0,0.0", "1.0"),
            ("tau_mix", "0.5,1.5", "1.5"),
            ("t_split", "-0.2,0.5", "-0.2"),
            ("t_split", "0.5,0.0", "0.0"),
        ],
    )
    def test_unevaluable_tau_rejected_up_front(self, tmp_path, capsys, sweep_param, taus, bad):
        # a tau the series cannot evaluate is named in one error line before
        # any series runs, and nothing is written
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"[sweep]\nn_points = 4\ntaus = {taus}\nsweep_param = {sweep_param}\n")
        out = tmp_path / "sweep.csv"
        assert run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith(f"error: sweep tau {bad} ")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("t_split, beam", [("1.0", 3), ("0.0", 2)])
    def test_dark_t_split_rejected_up_front(self, tmp_path, capsys, t_split, beam):
        # a fixed t_split of 0 or 1 leaves a beam without photons in every series
        out = tmp_path / "sweep.csv"
        assert run_main(["sweep-discord", "--t-split", t_split, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"error: sweep t_split {t_split} sends no photons into beam {beam}"]
        assert list(tmp_path.iterdir()) == []

    def test_invalid_grid_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        out = tmp_path / "sweep.csv"
        # the second grid reaches beyond the stated photon range, SWEEP_N_MAX
        for grid in ("n_points = 1", "n_source_max = 1.5e7"):
            cfg.write_text(f"[sweep]\n{grid}\n")
            assert run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err.strip().split("\n")
            assert len(err) == 1 and err[0].startswith("error: sweep "), grid
            assert list(tmp_path.iterdir()) == [cfg]

    def test_bright_t_split_sweep_runs(self, tmp_path):
        # the whole stated photon range: intermediate states are not eigen-checked
        # again, so rounding in a bright congruence is not read as unphysical
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            f"[sweep]\nn_points = 2000\nn_source_max = {cli.SWEEP_N_MAX!r}\n"
            "taus = 0.15,0.3,0.5,0.7,0.85\nsweep_param = t_split\n"
        )
        out = tmp_path / "sweep.csv"
        assert run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 10_000 and float(rows[-1][1]) == cli.SWEEP_N_MAX

    def test_unevaluable_discord_is_one_error_line(self, tmp_path, capsys):
        # a valid bright grid at a tiny t_split exits 2 with one error line that
        # names the failing point, not only its batch member (tau index, point
        # index), with that point's own value (the discord's minimum, -5.72e-8,
        # lies at point 1991), and writes nothing
        cfg = tmp_path / "sweep.cfg"
        out = tmp_path / "sweep.csv"
        clamp = "discord evaluated to -8.07906e-09"
        for taus, tau, what, member, n_source in (
            # the closed-form discord falls below its -1e-9 clamp
            ("1e-10", "1e-10", "discord evaluated to -1.32271e-09", (0, 1794), "1.28206e+06"),
            ("1e-09", "1e-09", clamp, (0, 1944), "5.76313e+06"),
            # the same point behind a tau that runs: the tau index names the failing series
            ("0.3,1e-09", "1e-09", clamp, (1, 1944), "5.76313e+06"),
        ):
            cfg.write_text(
                f"[sweep]\nsweep_param = t_split\ntaus = {taus}\nn_source_max = 1e7\n"
                "n_points = 2000\n"
            )
            assert run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err.strip().split("\n")
            assert len(err) == 1 and err[0].startswith(f"error: {what}"), err
            assert err[0].endswith(f"(batch member {member}) at tau {tau}, n_source {n_source}")
            assert list(tmp_path.iterdir()) == [cfg]

    def test_tiny_t_split_runs(self, tmp_path):
        # the probe reads its marginal off the split's congruence, so rounding
        # 1 - t_split no longer sets it off mode 2 at a tiny t_split
        cfg = tmp_path / "sweep.cfg"
        out = tmp_path / "sweep.csv"
        cfg.write_text(
            "[sweep]\nsweep_param = t_split\ntaus = 1e-8\nn_source_max = 1e7\nn_points = 2000\n"
        )
        assert run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 2000 and {row[0] for row in rows} == {"0.000000"}

    @pytest.mark.parametrize("swept, flag", [("tau_mix", "--tau"), ("t_split", "--t-split")])
    def test_flag_of_the_swept_setting_refused(self, tmp_path, capsys, swept, flag):
        # the swept setting takes its values from [sweep] taus, so its flag
        # would be ignored
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"[sweep]\nsweep_param = {swept}\n")
        out = tmp_path / "sweep.csv"
        assert run_main(["sweep-discord", "--config", str(cfg), flag, "0.3", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"error: {flag} sets {swept}, which this sweep takes from [sweep] taus"]
        assert list(tmp_path.iterdir()) == [cfg]

    def test_config_file_may_set_the_swept_setting(self, tmp_path):
        # one file may serve tables and a sweep: its [bench] tau_mix is not refused
        cfg = tmp_path / "both.cfg"
        cfg.write_text("[bench]\ntau_mix = 0.3\n[sweep]\nn_points = 3\n")
        out = tmp_path / "sweep.csv"
        assert run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [row[0] for row in rows] == ["0.150000"] * 3 + ["0.500000"] * 3 + ["0.850000"] * 3


#: one line of ``validate``: verdict, check, what it measured and where, worst value, bound
VALIDATE_LINE = re.compile(r"(PASS|FAIL) ([a-z-]+): (.+) (\S+) \(bound (\S+)\)")


def validate_lines(text):
    """(verdict, name, what, worst, bound) of each line ``validate`` printed."""
    matches = [VALIDATE_LINE.fullmatch(line) for line in text.strip().split("\n")]
    assert all(matches), text
    return [(m[1], m[2], m[3], float(m[4]), float(m[5])) for m in matches]


def assert_suite_passes(text):
    """One PASS line per check, each with its worst value within its bound."""
    lines = validate_lines(text)
    assert [(verdict, name) for verdict, name, *_ in lines] == [
        ("PASS", name) for name, _ in cli._CHECKS
    ]
    assert all(worst <= bound for *_, worst, bound in lines)


class TestValidate:
    def test_quick_suite_passes(self, capsys):
        assert run_main(["validate", "--quick"]) == 0
        assert_suite_passes(capsys.readouterr().out)

    def test_failing_check_sets_exit_code(self, capsys, monkeypatch):
        # a raising check prints one FAIL line, and the others still run
        def broken(quick):
            raise AssertionError("synthetic failure")

        def silent(quick):
            raise ZeroDivisionError  # no message: the line names the exception

        checks = (("synthetic", broken), ("silent", silent)) + cli._CHECKS[:1]
        monkeypatch.setattr(cli, "_CHECKS", checks)
        assert cli.run_validate(quick=True) == 1
        assert capsys.readouterr().out.split("\n") == [
            "FAIL synthetic: synthetic failure",
            "FAIL silent: ZeroDivisionError",
            "PASS physicality-gate: corrupted CMs accepted 0 (bound 0)",
            "",
        ]

    @pytest.mark.parametrize(
        "worst, verdict",
        [
            (1.0, "PASS"), (0.5, "PASS"),
            (1.0 + 1e-12, "FAIL"), (math.nan, "FAIL"), (math.inf, "FAIL"),
        ],
    )
    def test_verdict_is_worst_at_most_bound(self, capsys, monkeypatch, worst, verdict):
        # run_validate alone compares: a NaN is never within its bound
        monkeypatch.setattr(cli, "_CHECKS", (("stub", lambda quick: ("worst value", worst, 1.0)),))
        assert cli.run_validate(quick=True) == (verdict == "FAIL")
        assert capsys.readouterr().out == f"{verdict} stub: worst value {worst:.3g} (bound 1)\n"

    def test_nan_in_a_check_fails_it(self, capsys, monkeypatch):
        # a NaN anywhere among a check's values is its worst value
        def one_nan(state):
            nu = symplectic_eigenvalues(state)
            nu[7] = np.nan
            return nu

        monkeypatch.setattr(cli, "symplectic_eigenvalues", one_nan)
        monkeypatch.setattr(cli, "_CHECKS", (cli._CHECKS[1],))
        assert cli.run_validate(quick=True) == 1
        [(verdict, name, what, worst, bound)] = validate_lines(capsys.readouterr().out)
        assert (verdict, name, math.isnan(worst), bound) == ("FAIL", "purity-identity", True, 1e-10)

    def test_identity_interference_runs_the_congruence(self, capsys, monkeypatch):
        # a two-mode squeezer is symplectic but not passive: it correlates
        # identical inputs, so a check that mixes them must fail. (A sign flip
        # would not do: every orthogonal mixing leaves identical inputs unchanged.)
        def squeezer(tau):
            c, s = math.cosh(0.3), math.sinh(0.3)
            z = np.diag([1.0, -1.0])
            matrix = np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])
            # one per tau, as bs_symplectic gives for an array of taus
            return SymplecticOp(np.broadcast_to(matrix, np.shape(tau) + (4, 4)))

        monkeypatch.setattr(cli, "bs_symplectic", squeezer)
        assert run_main(["validate", "--quick"]) == 1
        lines = validate_lines(capsys.readouterr().out)
        assert [line[0] for line in lines].count("FAIL") == 1
        verdict, name, what, worst, bound = lines[2]
        assert (verdict, name, what, bound) == (
            "FAIL", "identity-interference", "change of the pair at tau 0.15", 1e-12
        )
        assert worst > 1.0

    def test_output_blocks_read_the_mixer(self, capsys, monkeypatch):
        # a mixer placed on the pair (modes 2 and 3) instead of on the probe
        # and mode 2 leaves the probe uncorrelated with mode 3
        def misplaced(protocol):
            state_in, _ = run_three_mode(protocol)
            mixer = bs_symplectic(protocol.tau_mix).matrix  # one per member
            op = np.broadcast_to(np.eye(6), mixer.shape[:-2] + (6, 6)).copy()
            op[..., 2:, 2:] = mixer
            return state_in, apply_symplectic(state_in, SymplecticOp(op))

        monkeypatch.setattr(cli, "run_three_mode", misplaced)
        assert run_main(["validate", "--quick"]) == 1
        lines = validate_lines(capsys.readouterr().out)
        # the MC check's CM prediction comes from the same mixer, so it fails too
        failed = [name for verdict, name, *_ in lines if verdict == "FAIL"]
        assert failed == ["three-mode-output-blocks", "mc-vs-analytic-correlations"]
        verdict, name, what, worst, bound = lines[3]
        assert (verdict, name, bound) == ("FAIL", "three-mode-output-blocks", 1e-12)
        assert what.startswith("error of output block ") and worst > 0.1

    def test_purity_identity_reads_the_spectrum(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "symplectic_eigenvalues", lambda state: symplectic_eigenvalues(state) + 1e-9
        )
        monkeypatch.setattr(cli, "_CHECKS", (cli._CHECKS[1],))
        assert cli.run_validate(quick=True) == 1
        [(verdict, name, what, worst, bound)] = validate_lines(capsys.readouterr().out)
        assert (verdict, name, bound) == ("FAIL", "purity-identity", 1e-10)
        assert what.startswith("relative error of nu^2 at n_tot ") and worst > 1e-9

    def test_entropy_identities_read_the_entropy(self, capsys, monkeypatch):
        # an entropy off by 10 times the thermal bound; the mutual information
        # is computed in info, so only the thermal identities see it
        monkeypatch.setattr(cli, "entropy", lambda state: entropy(state) + 1e-11)
        assert run_main(["validate", "--quick"]) == 1
        lines = validate_lines(capsys.readouterr().out)
        assert [name for verdict, name, *_ in lines if verdict == "FAIL"] == ["entropy-identities"]
        verdict, name, what, worst, bound = lines[5]
        assert what.startswith("error / bound of the thermal entropy at N ") and worst > 9.0
        # acceptance criterion C04a runs the same check, so it fails too
        _, worst, bound = cli._check_entropy_identities(np.array([0.1, 1.0, 10.0]))
        assert worst > bound

    def test_oracle_check_fails_on_an_offset_oracle(self, capsys, monkeypatch):
        assert run_main(["validate"]) == 0
        assert_suite_passes(capsys.readouterr().out)

        def offset_by(shift):
            def offset(state):
                result = discord_oracle(state)
                return dataclasses.replace(result, value=result.value + shift)

            return offset

        # every member off, then only the last of the ten
        for shift, member in ((1e-5, r"\d"), (np.eye(10)[9] * 1e-5, "9")):
            monkeypatch.setattr(cli, "discord_oracle", offset_by(shift))
            assert run_main(["validate"]) == 1
            lines = capsys.readouterr().out.strip().split("\n")
            assert [line.split()[0] for line in lines].count("FAIL") == 1
            assert re.fullmatch(
                r"FAIL discord-closed-form-vs-oracle: \|closed form - oracle\| "
                rf"at member {member} 1e-05 \(bound 1e-06\)",
                lines[4],
            )


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[bench]\nframes = many\n")
    assert run_main(["tables", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep-discord", "--seed", "3"], "error: unrecognized arguments: --seed 3"),
        (["tables", "--frames", "2.5"], "error: argument --frames: invalid int value: '2.5'"),
        (["tables", "--quick"], "error: unrecognized arguments: --quick"),
        (["erasure", "--quick"], "error: unrecognized arguments: --quick"),
    ],
    ids=["unknown-flag", "bad-value", "tables-quick", "erasure-quick"],
)
def test_rejected_command_line_is_one_error_line(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run_main([*argv, "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mean_photons", ["inf", "1e300"])
def test_non_finite_correlation_exit_code(tmp_path, capsys, mean_photons):
    # an infinite source is refused by BenchConfig; a finite one too bright for
    # the correlation sums is refused by corr_coeff. Neither writes a CSV
    cfg = tmp_path / "bright.cfg"
    cfg.write_text(f"[source]\nmean_photons = {mean_photons}\n")
    out = tmp_path / "tables.csv"
    assert run_main(["tables", "--frames", "500", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error:")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bright.cfg"]


@pytest.mark.parametrize("command", ["tables", "erasure"])
@pytest.mark.parametrize("frames", ["1", "2", "3"])
def test_too_few_frames_refused_before_sampling(tmp_path, monkeypatch, capsys, command, frames):
    # a confidence interval needs 4 frames; fewer are refused once, by the
    # config, with one line naming the setting, and no frame is drawn
    def no_run(config):
        raise AssertionError("the bench ran")

    monkeypatch.setattr(cli, "run_bench", no_run)
    out = tmp_path / "out.csv"
    assert run_main([command, "--frames", frames, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [bench] frames must be at least 4, got {frames}\n"
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_path_exit_code(tmp_path, capsys):
    out = tmp_path / "missing" / "tables.csv"
    assert run_main(["tables", "--frames", "500", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error:")
    assert str(out) in err[0]


def test_allocation_failure_exit_code(tmp_path, monkeypatch, capsys):
    def too_large(config):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr(cli, "run_bench", too_large)
    assert run_main(["tables", "--frames", "500", "--out", str(tmp_path / "tables.csv")]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("error:")
    assert list(tmp_path.iterdir()) == []


class HalfWriter:
    """File handle whose write stores half of the text, then fails like a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("failing", ["csv", "manifest"])
def test_failed_write_keeps_earlier_output(tmp_path, monkeypatch, capsys, failing):
    out = tmp_path / "tables.csv"
    manifest = tmp_path / "tables.csv.manifest.json"
    assert run_main(["tables", "--frames", "500", "--seed", "1", "--out", str(out)]) == 0
    target = out if failing == "csv" else manifest
    before = target.read_bytes()
    csv_before, manifest_before = out.read_bytes(), manifest.read_bytes()

    def failing_open(file, *args, **kwargs):
        # writes to the target, or to a temporary file named after it, fail halfway
        handle = open(file, *args, **kwargs)
        return HalfWriter(handle) if str(file).startswith(str(target)) else handle

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    # another seed, so that a completed write would change the bytes
    assert run_main(["tables", "--frames", "500", "--seed", "2", "--out", str(out)]) == 2
    assert "No space left" in capsys.readouterr().err
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [out.name, manifest.name]
    # the CSV and its manifest change together or not at all
    assert out.read_bytes() == csv_before
    assert manifest.read_bytes() == manifest_before
    monkeypatch.undo()
    replay = cli.run_from_manifest(manifest, tmp_path / "replay.csv")
    assert replay.read_bytes() == csv_before


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; the runtime needs numpy alone
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, cvbench.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
