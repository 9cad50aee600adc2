"""Measurement of one workload: timed calls, output and reproducibility checks, traced runs.

The load is a closed loop: one caller makes one ``cvbench.cli.main`` call at
a time, in this process, after one untimed warm-up call. Every call's output
is checked; a call that raises, exits non-zero, fails its workload's check or
writes CSV bytes that differ from the first call counts as failed.

End-to-end times are scaled by a reference loop timed right before each
sample (see ``reference``); the unscaled medians are printed beside them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

import cvbench.cli
import cvbench.speckle

from .tracer import TRACED, Tracer
from .workloads import Workload

ROOT = Path(__file__).resolve().parents[1]
#: fresh interpreters started per run to time the import of cvbench.cli
SETUP_SAMPLES = 3
#: nominal duration of ``reference()``, in s: times are reported at this reference speed
REF_S = 0.05

SPAN_NAMES = [f"{short}.{name}" for short, names in TRACED.items() for name in names]
SPAN_NAMES.append("states.GaussianState")


@dataclass
class Outcome:
    code: int | None
    stdout: str
    wall_s: float
    cpu_s: float
    csv: bytes | None


def _with_flag(argv: list[str], flag: str, value: str) -> list[str]:
    out = list(argv)
    out[out.index(flag) + 1] = value
    return out


@dataclass
class Runner:
    """Calls one workload's command and keeps the count of attempts and failures."""

    workload: Workload
    argv: list[str]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reference_csv: bytes | None = None

    @property
    def csv_path(self) -> Path | None:
        return Path(self.argv[self.argv.index("--out") + 1]) if "--out" in self.argv else None

    @property
    def workers(self) -> int:
        """Worker count the command runs the bench at; 1 unless it passes --workers."""
        return int(self.argv[self.argv.index("--workers") + 1]) if "--workers" in self.argv else 1

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(f"{self.workload.name} #{self.attempted}: {what}")

    def call(self, around=None) -> Outcome:
        """One call, then its checks; ``around`` is a context entered around the call only."""
        csv_path = self.csv_path
        stdout = io.StringIO()
        self.attempted += 1
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with around or contextlib.nullcontext(), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cvbench.cli.main(self.argv)
        except Exception:  # a raising call is a failed call; the loop goes on
            code = None
            error = traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        csv = csv_path.read_bytes() if csv_path is not None and csv_path.exists() else None
        outcome = Outcome(code, stdout.getvalue(), wall, cpu, csv)
        if code is None:
            self.fail(f"raised\n{error}")
            return outcome
        problems = self.workload.check(code, outcome.stdout, csv)
        if problems:
            self.fail("; ".join(problems))
        elif csv is not None:
            if self.reference_csv is None:
                self.reference_csv = csv
            elif csv != self.reference_csv:
                self.fail("CSV bytes differ from the first call of this seed")
        return outcome

    def same_bytes(self, label: str, produce) -> None:
        """One more attempt: ``produce()`` must write the reference CSV bytes again."""
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                data = produce()
        except Exception:  # counted as a failed attempt
            self.fail(f"{label} raised\n{traceback.format_exc(limit=3)}")
            return
        if data != self.reference_csv:
            self.fail(f"{label}: CSV bytes differ from the timed calls")


def check_reproducible(runner: Runner, out_dir: Path) -> None:
    """Untimed: a 1-worker run and a manifest replay must rewrite the CSV byte for byte."""
    if runner.reference_csv is None:
        return
    if runner.workers > 1:
        one = _with_flag(_with_flag(runner.argv, "--workers", "1"), "--out", str(out_dir / "one.csv"))

        def one_worker() -> bytes:
            cvbench.cli.main(one)
            return (out_dir / "one.csv").read_bytes()

        runner.same_bytes("1-worker run", one_worker)
    manifest = runner.csv_path.with_suffix(runner.csv_path.suffix + ".manifest.json")

    def replay() -> bytes:
        return cvbench.cli.run_from_manifest(manifest, out_dir / "replay.csv").read_bytes()

    runner.same_bytes("manifest replay", replay)


def _reference_work() -> None:
    total = 0
    for i in range(100_000):
        total += i * i
    rng = np.random.Generator(np.random.Philox(1))
    for _ in range(20):
        z = rng.standard_normal((256, 200))
        (z * z).sum(axis=1)
    m = 2.0 * np.eye(6)
    for _ in range(600):
        np.linalg.eigvals(m @ m)


def reference(threads: int = 1) -> float:
    """Wall time of a fixed mix of interpreter, array and small-matrix work, in ``threads`` threads.

    The machine's speed drifts by up to 2x over minutes on a shared host, so
    every end-to-end time is measured right after this reference, run on as
    many threads as the workload uses, and reported as
    ``raw * REF_S / reference(threads)``: seconds on a machine where the
    reference takes REF_S. The reference never changes with the program, so a
    slower or faster program still shows in full.
    """
    start = time.perf_counter()
    if threads == 1:
        _reference_work()
    else:
        with ThreadPoolExecutor(threads) as pool:
            for job in [pool.submit(_reference_work) for _ in range(threads)]:
                job.result()
    return time.perf_counter() - start


def setup_times(samples: int = SETUP_SAMPLES) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that only import cvbench.cli: (scaled, raw)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    scaled, raw = [], []
    for _ in range(samples):
        ref = reference()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import cvbench.cli"],
            cwd=ROOT, env=env, check=True, stdin=subprocess.DEVNULL,
        )
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * REF_S / ref)
    return scaled, raw


def end_to_end(runner: Runner, seconds: float, out_dir: Path) -> tuple[dict, list[str], dict]:
    """Tracing off: the end-to-end metrics and one line per metric with its sample count."""
    runner.call()  # warm-up
    walls, cpus, raw_walls, refs = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        ref = reference(runner.workers)
        outcome = runner.call()
        if outcome.code is not None:
            walls.append(outcome.wall_s * REF_S / ref)
            cpus.append(outcome.cpu_s * REF_S / ref)
            raw_walls.append(outcome.wall_s)
            refs.append(ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_reproducible(runner, out_dir)
    setup, raw_setup = setup_times()
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb,
    }
    fail_frac = runner.failed / runner.attempted
    notes = [
        f"setup_s median of {len(setup)} fresh interpreters importing cvbench.cli "
        f"(unscaled median {statistics.median(raw_setup):.4f} s)",
        f"wall_s median of {len(walls)} calls after 1 warm-up "
        f"(unscaled median {statistics.median(raw_walls):.4f} s)",
        f"cpu_s median of the same {len(cpus)} calls",
        f"times scaled by {REF_S} s / reference time on {runner.workers} thread(s) "
        f"(median {statistics.median(refs):.4f} s; setup_s on 1 thread)",
        "peak_rss_mb of this one process (ru_maxrss)",
        f"fail_frac {fail_frac:g} = {runner.failed} failed / {runner.attempted} attempted",
    ]
    samples = {"wall_s": raw_walls, "reference_s": refs, "setup_s": raw_setup}
    return metrics, notes, samples


def _layer_record(tracer: Tracer, run_id: int, csv: bytes | None) -> dict:
    summary = tracer.summary(run_id)
    record: dict = {}
    for name in SPAN_NAMES:
        calls, self_s = summary.get(name, (0, 0.0))
        record[f"{name}.calls"] = calls
        record[f"{name}.self_s"] = self_s
    record["speckle.rng_streams"] = tracer.rng_streams
    record["speckle.rng_blocks"] = tracer.rng_blocks
    record["info.discord_oracle.unsettled"] = tracer.oracle_unsettled
    record["cli.bytes_written"] = len(csv) if csv is not None else 0
    return record


def thread_speedup(runner: Runner, configs) -> tuple[float, str]:
    """run_bench time at 1 worker over time at the workload's worker count."""
    if not configs:
        return 0.0, "absent (reported as 0): this workload makes no run_bench call"
    if all(c.workers == 1 for c in configs):
        return 1.0, "1 by definition: this workload runs the bench at 1 worker"
    one_s = many_s = 0.0
    for config in configs:
        start = time.perf_counter()
        one = cvbench.speckle.run_bench(replace(config, workers=1))
        one_s += time.perf_counter() - start
        start = time.perf_counter()
        many = cvbench.speckle.run_bench(config)
        many_s += time.perf_counter() - start
        runner.attempted += 1
        if not (
            np.array_equal(one.intensities_in, many.intensities_in)
            and np.array_equal(one.intensities_out, many.intensities_out)
        ):
            runner.fail(f"run_bench at {config.workers} workers differs from 1 worker")
    return one_s / many_s, f"{len(configs)} run_bench configs, one untraced run each way"


def traced(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, list[str], dict]:
    """Per-layer metrics from traced calls alternated with untraced ones."""
    runner.call()  # warm-up
    tracer = Tracer()
    plain, traced_walls, records = [], [], []
    configs = []
    start = time.perf_counter()
    for traced_first in itertools.cycle((False, True)):
        if records and time.perf_counter() - start >= seconds:
            break
        for is_traced in (traced_first, not traced_first):
            if not is_traced:
                plain.append(runner.call().wall_s)
                continue
            outcome = runner.call(around=tracer.run())
            traced_walls.append(outcome.wall_s)
            records.append(_layer_record(tracer, tracer.run_id, outcome.csv))
            configs = configs or list(tracer.bench_configs)
    spans_path.write_text(json.dumps([asdict(s) for s in tracer.spans]) + "\n", encoding="ascii")

    metrics: dict = {}
    for name in records[0]:
        values = [r[name] for r in records]
        if isinstance(values[0], int):
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                runner.attempted += 1
                runner.fail(f"count {name} differs between traced runs: {values}")
        else:
            metrics[name] = statistics.median(values)
    speedup, speedup_note = thread_speedup(runner, configs)
    metrics["speckle.thread_speedup"] = speedup
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain) - 1.0
    notes = [
        f"*.calls and counts from {len(records)} traced calls (checked equal), "
        f"*.self_s medians of {len(records)} traced calls",
        f"speckle.thread_speedup {speedup_note}",
        f"trace.overhead_frac from {len(traced_walls)} traced and {len(plain)} untraced calls",
        f"{len(tracer.spans)} spans written to {spans_path.name}",
    ]
    if runner.csv_path is None:
        notes.append("cli.bytes_written is 0: this command writes no CSV")
    return metrics, notes, {"untraced_wall_s": plain, "traced_wall_s": traced_walls}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }
