"""Benchmark of the cvbench command line, one workload per fresh interpreter.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` it times ``cvbench.cli.main`` calls with tracing
off and reports the end-to-end metrics named in ``BENCHMARK.json``; with
``--trace 1`` it alternates traced and untraced calls and reports the
per-layer metrics. Each metric is printed on its own line, then notes with
sample counts and ``fail_frac`` (failed / attempted calls), then the
environment record, and last one JSON line with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results, samples and
spans are also written to ``.perfbench_out/``. ``--workload all`` runs each
workload in its own interpreter, one after another.

The benchmark's own tests: ``python3 -m pytest -q perfbench/tests``.

Exit codes: 0 when every output was correct, 1 when a check failed (the
result line is still printed), 2 when the program or its sources are missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"


def _run_all(args: argparse.Namespace, names: list[str]) -> int:
    worst = 0
    for name in names:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        worst = max(worst, subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cvbench" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no cvbench sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return _run_all(args, names)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    scratch = OUT_DIR / f"{stem}-trace{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    try:
        runner = harness.Runner(workload, workload.argv(args.seed, scratch))
        if args.trace:
            metrics, notes, samples = harness.traced(runner, args.seconds, OUT_DIR / f"{stem}-spans.json")
        else:
            metrics, notes, samples = harness.end_to_end(runner, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = harness.environment(args.workload, args.seed, args.trace)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(
            {"env": env, "notes": notes, "problems": runner.problems, "samples": samples, **result},
            indent=1,
        )
        + "\n"
    )
    for problem in runner.problems:
        print(f"FAIL {problem}")
    for m in wanted:
        print(f"{args.workload:9s} {m['name']:38s} {metrics[m['name']]:<14.6g} {m['unit']}")
    for note in notes:
        print(f"{args.workload:9s} note: {note}")
    print(f"{args.workload:9s} env: {json.dumps(env)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
