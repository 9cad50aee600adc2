"""Tests of the benchmark's own code: tracer arithmetic, patch hygiene, count repeatability.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
"""

import sys

import pytest

import cvbench.cli
import cvbench.states
from perfbench import harness
from perfbench.tracer import TRACED, Span, Tracer, self_times
from perfbench.workloads import WORKLOADS, sweep_taus, tables_prediction

COUNT_KEYS = (
    "speckle.rng_streams",
    "speckle.rng_blocks",
    "info.discord_oracle.unsettled",
    "cli.bytes_written",
)


def _small_argv(command, tmp_path):
    out = str(tmp_path / "out.csv")
    if command == "tables":
        return ["tables", "--frames", "3000", "--modes", "8", "--workers", "2", "--seed", "7",
                "--out", out]
    if command == "erasure":
        return ["erasure", "--basis", "all", "--frames", "3000", "--modes", "4", "--workers", "2",
                "--seed", "7", "--out", out]
    if command == "sweep-discord":
        config = tmp_path / "sweep.ini"
        config.write_text(f"[sweep]\nn_points = 5\ntaus = {','.join(sweep_taus(7))}\n")
        return ["sweep-discord", "--config", str(config), "--out", out]
    return ["validate", "--quick"]


def _traced_counts(tracer, argv, tmp_path):
    with tracer.run() as run_id:
        assert cvbench.cli.main(argv) == 0
    out = tmp_path / "out.csv"
    record = harness._layer_record(tracer, run_id, out.read_bytes() if out.exists() else None)
    return {k: v for k, v in record.items() if k.endswith(".calls") or k in COUNT_KEYS}


@pytest.mark.parametrize("command", ["tables", "erasure", "sweep-discord", "validate"])
def test_two_traced_runs_give_identical_counts(command, tmp_path, capsys):
    tracer = Tracer()
    argv = _small_argv(command, tmp_path)
    first = _traced_counts(tracer, argv, tmp_path)
    second = _traced_counts(tracer, argv, tmp_path)
    assert first == second
    assert first["cli.main.calls"] == 1
    if command in ("tables", "erasure", "validate"):
        assert first["speckle.rng_streams"] > 0 and first["speckle.rng_blocks"] > 0
    else:
        assert first["states.GaussianState.calls"] > 0 and first["speckle.rng_streams"] == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),  # overlaps a: the union is subtracted once
        Span(3, "leaf", 1.5, 2.0, 1, 0),  # grandchild: not subtracted from root
        Span(4, "late", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.5)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(0.5)
    assert own[4] == pytest.approx(3.0)


def test_self_times_of_a_traced_run_partition_the_root_span(tmp_path, capsys):
    tracer = Tracer()
    with tracer.run() as run_id:
        cvbench.cli.main(_small_argv("sweep-discord", tmp_path))
    spans = [s for s in tracer.spans if s.run_id == run_id]
    (root,) = [s for s in spans if s.parent is None]
    assert root.name == "cli.main"
    assert sum(self_times(spans).values()) == pytest.approx(root.end - root.start, abs=1e-9)
    summary = tracer.summary(run_id)
    assert summary["info.gaussian_discord"][0] == 15
    assert all(self_s >= 0.0 for _, self_s in summary.values())


def _bindings():
    snapshot = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "cvbench" or name.startswith("cvbench.")
        for attr, value in vars(module).items()
    }
    snapshot[("GaussianState", "__init__")] = cvbench.states.GaussianState.__init__
    return snapshot


def test_no_patch_survives_a_traced_run_even_on_error():
    before = _bindings()
    tracer = Tracer()
    originals = {
        name: getattr(sys.modules[f"cvbench.{short}"], name)
        for short, names in TRACED.items()
        for name in names
    }
    with pytest.raises(RuntimeError):
        with tracer.run():
            # every module binding of a traced name is replaced, not only the defining one
            for (mod, attr), value in before.items():
                if mod != "GaussianState" and any(value is fn for fn in originals.values()):
                    assert getattr(sys.modules[mod], attr) is not value, (mod, attr)
            assert cvbench.cli.run_bench is not originals["run_bench"]
            raise RuntimeError("abort inside the traced block")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_output_checks_reject_wrong_outputs():
    predicted = tables_prediction()
    lines = ["pair,c_in,ci_in_lo,ci_in_hi,c_out,ci_out_lo,ci_out_hi"]
    for label, (c_in, c_out) in predicted.items():
        lines.append(f"{label},{c_in:.6f},0,0,{c_out:.6f},0,0")
    good = ("\n".join(lines) + "\n").encode()
    check = WORKLOADS["tables"].check
    assert check(0, "", good) == []
    assert check(1, "", good) != []
    bad = good.replace(f"{predicted['1-3'][1]:.6f}".encode(), b"0.600000")
    assert check(0, "", bad) != []
    validate = WORKLOADS["validate"].check
    assert validate(0, "PASS x\n" * 7, None) == []
    assert validate(0, "PASS x\n" * 6 + "FAIL y: z\n", None) != []
