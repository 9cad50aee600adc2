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

from cvbench import __version__, cli, speckle
from cvbench.info import discord_oracle, entropy, gaussian_discord
from cvbench.network import bs_symplectic, interfere, prepare_discordant_pair
from cvbench.speckle import BenchConfig, run_bench
from cvbench.states import (
    PhysicalityError,
    SingleModeSpec,
    SymplecticOp,
    apply_symplectic,
    member_error,
    omega,
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[DEFAULT]\nframes = 300\n", "unknown config section [DEFAULT]"),
            ("[bench]\nframes = 300\n[DEFAULT]\nseed = 3\n", "unknown config section [DEFAULT]"),
            # the 0.6.0 layout: tau is read out of a run, not a setting of it
            ("[bench]\ntau_mix = 0.3\n", "unknown config key [bench] tau_mix"),
        ],
        ids=["default", "default-after-bench", "bench-tau"],
    )
    def test_misplaced_key_refused_by_its_section(self, tmp_path, capsys, text, message):
        # configparser copies a [DEFAULT] key into every section, so without a
        # check of its own it would be blamed on [source], the first section
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        out = tmp_path / "t.csv"
        assert cli.main(["tables", "--config", str(path), "--frames", "500", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_empty_default_section_accepted(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[DEFAULT]\n[bench]\nframes = 2000\n")
        expected = cli.load_config()
        expected["bench"]["frames"] = 2000
        assert cli.load_config(path) == expected

    def test_tau_is_an_analysis_setting(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[analysis]\ntau_mix = 0.3\n")
        cfg = cli.load_config(path)
        assert cfg["analysis"] == {"ci_level": 0.99, "basis": "all", "tau_mix": 0.3}
        assert "tau_mix" not in cfg["bench"]

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

    @pytest.mark.parametrize("eta", ["1.0", "0.7"])
    def test_bit_identical_across_workers(self, tmp_path, monkeypatch, eta):
        # two chunks, the last one short, filled by up to 3 threads at eta 1
        # and up to 8 at eta 0.7, whatever this host's CPUs
        monkeypatch.setattr(speckle, "_cpus", lambda: 8)
        blobs = []
        for workers in (1, 2, 3, 8):
            out = tmp_path / f"tables_w{workers}.csv"
            run_main([
                "tables", "--frames", "10000", "--eta", eta, "--workers", str(workers),
                "--out", str(out),
            ])
            blobs.append(out.read_bytes())
        assert blobs[1:] == blobs[:1] * 3

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

    def _tables_manifest(self, tmp_path):
        out = tmp_path / "tables.csv"
        run_main(["tables", "--frames", "1000", "--out", str(out)])
        path = tmp_path / "tables.csv.manifest.json"
        return out, path, json.loads(path.read_text())

    def test_records_versions(self, tmp_path):
        _, _, manifest = self._tables_manifest(tmp_path)
        assert manifest["version"] == __version__
        assert manifest["numpy_version"] == np.__version__
        assert manifest["sampler"] == "bartlett-gram-5"

    def test_other_version_refused(self, tmp_path):
        _, path, manifest = self._tables_manifest(tmp_path)
        manifest["version"] = "9.9"
        path.write_text(json.dumps(manifest))
        with pytest.raises(cli.ConfigError, match="9.9"):
            cli.run_from_manifest(path, tmp_path / "replay.csv")
        assert not (tmp_path / "replay.csv").exists()

    def test_manifest_of_the_0_6_0_layout_refused(self, tmp_path):
        # 0.6.0 recorded tau as [bench] tau_mix: the version check refuses its
        # manifests before their config is read
        _, path, manifest = self._tables_manifest(tmp_path)
        assert manifest["config"]["analysis"]["tau_mix"] == 0.5
        manifest["config"]["bench"]["tau_mix"] = manifest["config"]["analysis"].pop("tau_mix")
        manifest["version"] = "0.6.0"
        path.write_text(json.dumps(manifest))
        message = f"manifest records version '0.6.0', but cvbench {__version__} replays with"
        with pytest.raises(cli.ConfigError, match=f"^{re.escape(message)}"):
            cli.run_from_manifest(path, tmp_path / "replay.csv")
        assert not (tmp_path / "replay.csv").exists()

    def test_other_numpy_version_refused(self, tmp_path):
        # numpy's generators may change their streams between releases (NEP 19)
        _, path, manifest = self._tables_manifest(tmp_path)
        manifest["numpy_version"] = "1.0.0"
        path.write_text(json.dumps(manifest))
        with pytest.raises(cli.ConfigError, match=rf"'1\.0\.0'.*'{re.escape(np.__version__)}'"):
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
                pair = prepare_discordant_pair(SingleModeSpec(n_source), t_split)
                state_in, state_out = interfere(pair, tau_mix)
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
        assert err == [f"error: [source] t_split must lie in (0, 1), got {t_split}"]
        assert list(tmp_path.iterdir()) == []

    def test_invalid_grid_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        out = tmp_path / "sweep.csv"
        # the second grid reaches beyond the stated photon range, SWEEP_N_MAX
        for grid in ("n_points = 1", "n_source_max = 1.5e7"):
            cfg.write_text(f"[sweep]\n{grid}\n")
            assert run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err.strip().split("\n")
            assert len(err) == 1 and err[0].startswith("error: [sweep] "), grid
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

    @pytest.mark.parametrize("taus, rows", [("1e-10", 2000), ("1e-09", 2000), ("0.3,1e-09", 4000)])
    def test_bright_grid_at_a_tiny_t_split_runs(self, tmp_path, taus, rows):
        # the entropy term keeps its digits at every photon number, so the
        # closed-form discord of these pairs, coupled through a split of 1e-10
        # or 1e-9, no longer falls below its -1e-9 clamp at bright points
        cfg = tmp_path / "sweep.cfg"
        out = tmp_path / "sweep.csv"
        cfg.write_text(
            f"[sweep]\nsweep_param = t_split\ntaus = {taus}\nn_source_max = 1e7\n"
            "n_points = 2000\n"
        )
        assert run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)]) == 0
        _, written = read_rows(out)
        assert len(written) == rows and min(float(row[2]) for row in written) >= 0.0

    @pytest.mark.parametrize(
        "taus, member", [("1e-09", (0, 1944)), ("0.3,1e-09", (1, 1944))], ids=["one-tau", "two-taus"]
    )
    def test_unevaluable_discord_is_one_error_line(
        self, tmp_path, monkeypatch, capsys, taus, member
    ):
        # an error inside the stacked pass exits 2 with one error line that
        # names the failing point, not only its batch member (tau index, point
        # index), and writes nothing; behind a tau that runs, the tau index
        # names the failing series
        def failing(pair):
            bad = np.zeros(pair.batch_shape, dtype=bool)
            bad[member] = True
            raise member_error(ArithmeticError, "discord evaluated to -8e-09", bad)

        monkeypatch.setattr(cli, "gaussian_discord", failing)
        cfg = tmp_path / "sweep.cfg"
        out = tmp_path / "sweep.csv"
        cfg.write_text(
            f"[sweep]\nsweep_param = t_split\ntaus = {taus}\nn_source_max = 1e7\n"
            "n_points = 2000\n"
        )
        assert run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [
            f"error: discord evaluated to -8e-09 (batch member {member}) at tau 1e-09, "
            "n_source 5.76313e+06"
        ]
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

    def test_setting_the_sweep_does_not_read_is_checked(self, tmp_path, capsys):
        # its manifest records every setting, so each is checked, read or not
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[bench]\nframes = 2\n")
        out = tmp_path / "sweep.csv"
        assert run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: [bench] frames must be at least 4, got 2\n"
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("swept", ["tau_mix", "t_split"])
    def test_swept_tau_is_judged_by_the_swept_setting_rule(self, tmp_path, capsys, swept):
        # 1.0 is a tau_mix, but a t_split of 1.0 leaves beam 3 dark
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"[sweep]\nn_points = 3\ntaus = 0.5,1.0\nsweep_param = {swept}\n")
        out = tmp_path / "sweep.csv"
        code = run_main(["sweep-discord", "--config", str(cfg), "--out", str(out)])
        if swept == "tau_mix":
            assert code == 0 and len(read_rows(out)[1]) == 6
            return
        assert code == 2
        section, _, _, _, _, (must, _) = next(row for row in cli._SETTINGS if row[1] == swept)
        assert capsys.readouterr().err == (
            f"error: sweep tau 1.0 sets [{section}] {swept}, which must {must}\n"
        )
        assert list(tmp_path.iterdir()) == [cfg]

    def test_config_file_may_set_the_swept_setting(self, tmp_path):
        # one file may serve tables and a sweep: its [analysis] tau_mix is not refused
        cfg = tmp_path / "both.cfg"
        cfg.write_text("[analysis]\ntau_mix = 0.3\n[sweep]\nn_points = 3\n")
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
        def misplaced(pair, tau_mix):
            state_in, _ = interfere(pair, tau_mix)
            mixer = bs_symplectic(tau_mix).matrix  # one per member
            op = np.broadcast_to(np.eye(6), mixer.shape[:-2] + (6, 6)).copy()
            op[..., 2:, 2:] = mixer
            return state_in, apply_symplectic(state_in, SymplecticOp(op))

        monkeypatch.setattr(cli, "interfere", misplaced)
        assert run_main(["validate", "--quick"]) == 1
        lines = validate_lines(capsys.readouterr().out)
        # the MC check's CM prediction comes from the same mixer, so it fails too
        failed = [name for verdict, name, *_ in lines if verdict == "FAIL"]
        assert failed == ["three-mode-output-blocks", "mc-vs-analytic-correlations"]
        verdict, name, what, worst, bound = lines[3]
        assert (verdict, name, bound) == ("FAIL", "three-mode-output-blocks", 1e-12)
        assert what.startswith("error of output block ") and worst > 0.1

    @pytest.mark.parametrize(
        "gate, accepted",
        [
            # the gate of a spectrum alone, blind to the sign of a CM: -I has spectrum 1
            (lambda cm: np.abs(np.linalg.eigvals(omega(1) @ cm)).min() < 0.5, 1),
            (lambda cm: False, 2),
        ],
        ids=["spectrum-only", "no-gate"],
    )
    def test_physicality_gate_counts_each_accepted_cm(self, capsys, monkeypatch, gate, accepted):
        def entry(cm):
            if gate(np.asarray(cm)):
                raise PhysicalityError("refused")

        monkeypatch.setattr(cli, "GaussianState", entry)
        monkeypatch.setattr(cli, "_CHECKS", cli._CHECKS[:1])
        assert cli.run_validate(quick=True) == 1
        assert capsys.readouterr().out == (
            f"FAIL physicality-gate: corrupted CMs accepted {accepted} (bound 0)\n"
        )

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


def test_one_parser_serves_every_call(tmp_path, capsys):
    # main builds its parser once per process, so no call may leave a value for the next
    assert cli._parser() is cli._parser()
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert run_main(["tables", "--seed", "3", "--frames", "500", "--out", str(first)]) == 0
    assert run_main(["tables", "--frames", "500", "--out", str(second)]) == 0
    manifests = [json.loads(Path(f"{out}.manifest.json").read_text()) for out in (first, second)]
    assert [manifest["seed"] for manifest in manifests] == [3, 42]
    assert run_main(["sweep-discord", "--out", str(tmp_path / "sweep.csv")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_main(["sweep-discord", "--seed", "3", "--out", str(tmp_path / "refused.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --seed 3\n"
    assert not (tmp_path / "refused.csv").exists()
    with pytest.raises(SystemExit) as exc:
        run_main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{__version__}\n"


@pytest.mark.parametrize(
    "mean_photons, bench",
    [
        pytest.param("inf", [], id="inf"),
        pytest.param("1e300", [], id="1e300"),
        pytest.param("1e300", ["--modes", "7", "--eta", "0.7"], id="1e300-eta0.7"),
    ],
)
def test_non_finite_correlation_exit_code(tmp_path, capsys, mean_photons, bench):
    # an infinite source is refused by BenchConfig; a finite one too bright for
    # the correlation sums is refused by corr_coeff, with mode mismatch and
    # without. None writes a CSV
    cfg = tmp_path / "bright.cfg"
    cfg.write_text(f"[source]\nmean_photons = {mean_photons}\n")
    out = tmp_path / "tables.csv"
    args = ["tables", "--frames", "500", *bench, "--config", str(cfg), "--out", str(out)]
    assert run_main(args) == 2
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


@pytest.mark.parametrize("command", ["tables", "erasure"])
@pytest.mark.parametrize("level", ["0", "1", "1.5", "-0.5", "nan"])
def test_ci_level_outside_unit_interval_refused_before_sampling(
    tmp_path, monkeypatch, capsys, command, level
):
    # an interval's level lies in (0, 1); any other is refused by the config,
    # with one line, before a frame is drawn
    def no_run(config):
        raise AssertionError("the bench ran")

    monkeypatch.setattr(cli, "run_bench", no_run)
    out = tmp_path / "out.csv"
    assert run_main([command, "--ci-level", level, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [analysis] ci_level must lie in (0, 1), got {float(level)!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["tables", "erasure"])
def test_dark_beam_3_refused_before_sampling(tmp_path, monkeypatch, capsys, command):
    # a t_split of 1 sends no photons into beam 3, so its correlations, which
    # every table holds, are undefined; it is refused by the config, naming
    # the setting, before a frame is drawn
    def no_run(config):
        raise AssertionError("the bench ran")

    monkeypatch.setattr(cli, "run_bench", no_run)
    out = tmp_path / "out.csv"
    assert run_main([command, "--t-split", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: [source] t_split must lie in (0, 1), got 1.0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("basis", ["V", "all"])
@pytest.mark.parametrize("tau, beam", [("0", 2), ("1", 1)])
def test_dark_erasure_read_out_refused_before_sampling(
    tmp_path, monkeypatch, capsys, basis, tau, beam
):
    # the V analyzer blocks the H-polarized beam 1, which is all that out-beam
    # 2 carries at tau 0 and out-beam 1 at tau 1: that read-out detects
    # nothing, and is refused naming analyzer, beam and tau before a frame is drawn
    def no_run(config):
        raise AssertionError("the bench ran")

    monkeypatch.setattr(cli, "run_bench", no_run)
    out = tmp_path / "out.csv"
    assert run_main(["erasure", "--basis", basis, "--tau", tau, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: the V analyzer detects nothing of out-beam {beam} at tau {tau}, "
        "so its correlations are undefined\n"
    )
    assert list(tmp_path.iterdir()) == []
    cfg = cli.load_config()
    cfg["analysis"].update(basis=basis, tau_mix=float(tau))
    with pytest.raises(cli.ConfigError, match="V analyzer"):
        cli.run_erasure(cfg)


@pytest.mark.parametrize("basis", ["deg45", "none"])
@pytest.mark.parametrize("tau", ["0", "1"])
def test_erasure_analyzers_that_pass_beam_1_run_at_tau_0_and_1(tmp_path, basis, tau):
    # deg45 and no analyzer pass part of H, so every out-beam detects light at either end
    out = tmp_path / "out.csv"
    args = ["erasure", "--basis", basis, "--tau", tau, "--frames", "2000", "--out", str(out)]
    assert run_main(args) == 0
    assert {row[0] for row in read_rows(out)[1]} == {basis}


@pytest.mark.parametrize("command", ["tables", "erasure"])
@pytest.mark.parametrize("tau", ["1.5", "-0.5", "nan"])
def test_tau_outside_unit_interval_refused_before_sampling(
    tmp_path, monkeypatch, capsys, command, tau
):
    # the read-out's tau is checked with the config, before a frame is drawn
    def no_run(config):
        raise AssertionError("the bench ran")

    monkeypatch.setattr(cli, "run_bench", no_run)
    out = tmp_path / "out.csv"
    assert run_main([command, "--tau", tau, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [analysis] tau_mix must lie in [0, 1], got {float(tau)!r}\n"
    assert list(tmp_path.iterdir()) == []


#: key -> a value its rule refuses: NaN for each float range, else one step outside
OUTSIDE_THE_RULE = {
    "mean_photons": "nan", "t_split": "nan", "modes": "0", "frames": "3", "eta": "nan",
    "seed": "-1", "workers": "0", "ci_level": "nan", "basis": "H", "tau_mix": "nan",
    "n_source_min": "nan", "n_source_max": "nan", "n_points": "1", "taus": ",",
    "sweep_param": "beta",
}


@pytest.fixture(scope="module")
def tables_manifest_text(tmp_path_factory):
    """The manifest of a small ``tables`` run, as its JSON text."""
    out = tmp_path_factory.mktemp("manifest") / "t.csv"
    assert cli.main(["tables", "--frames", "500", "--out", str(out)]) == 0
    return Path(f"{out}.manifest.json").read_text()


def refusal(row):
    """The message refusing OUTSIDE_THE_RULE's value of ``row``: by the row's
    rule, or, for a bench setting without one, by ``BenchConfig``'s."""
    section, key, typ, _, _, rule = row
    bad = typ(OUTSIDE_THE_RULE[key])
    if rule is not None:
        return f"[{section}] {key} must {rule[0]}, got {bad!r}"
    with pytest.raises(ValueError) as exc:
        BenchConfig(**{key: bad})
    return f"[{section}] {exc.value}"


def rule_phrase(row):
    """The rule a row's refusal names, read off the message."""
    section, key, typ, *_ = row
    message = refusal(row)
    assert message.startswith(f"[{section}] {key} must ")
    must, got, bad = message.removeprefix(f"[{section}] {key} must ").rpartition(", got ")
    assert got and bad == repr(typ(OUTSIDE_THE_RULE[key]))  # the one form
    return must


@pytest.mark.parametrize("row", cli._SETTINGS, ids=lambda row: row[1])
def test_each_rule_refuses_from_file_flag_and_manifest(
    tmp_path, monkeypatch, capsys, tables_manifest_text, row
):
    # the default passes its rule; a value outside it is refused in one form, by
    # every command from a config file, by the row's flag and by a replay, and
    # nothing runs or is written
    section, key, typ, default, flag, rule = row
    assert rule is not None or section in ("source", "bench")
    assert rule is None or rule[1](typ(default))
    bad = OUTSIDE_THE_RULE[key]
    rule_phrase(row)
    message = refusal(row)

    def no_run(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "run_bench", no_run)
    monkeypatch.setattr(cli, "prepare_discordant_pair", no_run)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[{section}]\n{key} = {bad}\n")
    out = tmp_path / "out.csv"
    argvs = [[command, "--config", str(cfg)] for command in cli._COMMANDS]
    if flag is not None:
        argvs.append(["erasure", f"{flag}={bad}"])  # erasure takes every flag
    for argv in argvs:
        assert run_main([*argv, "--out", str(out)]) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv
    manifest = json.loads(tables_manifest_text)
    manifest["config"][section][key] = bad
    path = tmp_path / "t.csv.manifest.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(cli.ConfigError) as exc:
        cli.run_from_manifest(path, out)
    assert str(exc.value) == message
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", path.name]


@pytest.mark.parametrize("row", cli._SETTINGS, ids=lambda row: row[1])
def test_each_command_checks_an_edited_config(monkeypatch, row):
    # a caller's config edited after load_config passes the same gate
    section, key, typ, *_ = row

    def no_run(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "run_bench", no_run)
    monkeypatch.setattr(cli, "prepare_discordant_pair", no_run)
    for run in (cli.run_tables, cli.run_erasure, cli.run_sweep_discord):
        cfg = cli.load_config()
        cfg[section][key] = typ(OUTSIDE_THE_RULE[key])
        with pytest.raises(cli.ConfigError) as exc:
            run(cfg)
        assert str(exc.value) == refusal(row), run.__name__


def test_a_flag_replaces_a_value_the_file_gets_wrong(tmp_path, capsys):
    # the flags are laid over the file's text, and the gate sees the result
    cfg = tmp_path / "dark.cfg"
    cfg.write_text("[source]\nt_split = 1.0\n")
    out = tmp_path / "t.csv"
    assert run_main(["tables", "--config", str(cfg), "--frames", "500", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: [source] t_split must lie in (0, 1), got 1.0\n"
    argv = ["tables", "--config", str(cfg), "--t-split", "0.5", "--frames", "500", "--out", str(out)]
    assert run_main(argv) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["config"]["source"]["t_split"] == 0.5


@pytest.mark.parametrize("brackets", ["[]", "[)", "(]", "()"])
def test_interval_admits_its_ends_as_its_brackets_say(brackets):
    must, fits = cli._interval(0, 1, brackets)
    assert must == f"lie in {brackets[0]}0, 1{brackets[1]}"
    assert (fits(0.0), fits(1.0)) == (brackets[0] == "[", brackets[1] == "]")
    assert fits(np.nextafter(0.0, 1.0)) and fits(np.nextafter(1.0, 0.0))
    assert not any(map(fits, (-1e-300, np.nextafter(1.0, 2.0), math.nan)))


def test_readme_settings_table_is_settings():
    # README's table of settings gives _SETTINGS row for row, each with the rule its refusal names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    row = r"^\| `\[(\w+)\]` \| `(\w+)` \| `([^`]*)` \|(?: `([^`]+)`)? \| (.+) \|$"
    rows = re.findall(row, readme, re.M)
    assert rows == [(r[0], r[1], r[3], r[4] or "", rule_phrase(r)) for r in cli._SETTINGS]


@pytest.mark.parametrize("command", ["tables", "erasure", "sweep-discord"])
@pytest.mark.parametrize("where", ["missing-dir", "a-dir", "under-a-file"])
def test_unreachable_out_path_refused_before_the_run(
    tmp_path, monkeypatch, capsys, command, where
):
    # a path no write can reach is refused before any frame is drawn, in one
    # line that names it and not the temporary file the commit would write
    def no_run(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "run_bench", no_run)
    monkeypatch.setattr(cli, "prepare_discordant_pair", no_run)
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "a-file").write_text("")
    out = {
        "missing-dir": tmp_path / "missing" / "t.csv",
        "a-dir": tmp_path / "a-dir",
        "under-a-file": tmp_path / "a-file" / "t.csv",
    }[where]
    assert run_main([command, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")
    assert ".tmp" not in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-dir", "a-file"]
    assert list((tmp_path / "a-dir").iterdir()) == []


@pytest.mark.parametrize("command", ["tables", "erasure", "sweep-discord"])
def test_a_directory_at_the_manifest_path_refused_before_the_run(
    tmp_path, monkeypatch, capsys, command
):
    # the CSV could be replaced and its manifest not, so the run is refused
    # before any frame is drawn, in one line that names the manifest's path
    def no_run(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "run_bench", no_run)
    monkeypatch.setattr(cli, "prepare_discordant_pair", no_run)
    out = tmp_path / "t.csv"
    out.write_text("pair,c_in\nold\n")
    manifest = tmp_path / "t.csv.manifest.json"
    manifest.mkdir()
    frames = [] if command == "sweep-discord" else ["--frames", "2000"]
    assert run_main([command, *frames, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {manifest}: it is a directory\n"
    assert out.read_text() == "pair,c_in\nold\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.csv.manifest.json"]
    assert list(manifest.iterdir()) == []


@pytest.mark.parametrize("where", ["missing-dir", "a-dir", "under-a-file"])
def test_unreachable_replay_path_refused_before_the_replay(tmp_path, monkeypatch, capsys, where):
    # a replay refuses a path no write can reach before the command runs, with
    # the helper and message of main, and not naming the temporary file
    out = tmp_path / "t.csv"
    assert run_main(["tables", "--frames", "500", "--out", str(out)]) == 0
    manifest = tmp_path / "t.csv.manifest.json"

    def no_run(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "run_bench", no_run)
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "a-file").write_text("")
    target = {
        "missing-dir": tmp_path / "missing" / "r.csv",
        "a-dir": tmp_path / "a-dir",
        "under-a-file": tmp_path / "a-file" / "r.csv",
    }[where]
    with pytest.raises(cli.ConfigError) as exc:
        cli.run_from_manifest(manifest, target)
    assert str(exc.value).startswith(f"cannot write {target}: ") and ".tmp" not in str(exc.value)
    assert run_main(["tables", "--out", str(target)]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["a-dir", "a-file", "t.csv", "t.csv.manifest.json"]
    assert list((tmp_path / "a-dir").iterdir()) == []


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
