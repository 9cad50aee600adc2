"""The benchmark's workloads: the cvbench command each one runs, and its output check.

Each workload is one ``cvbench.cli.main`` argument list built from the
workload seed and an output directory. The checks only read what the command
wrote (CSV bytes, exit code, printed lines) and return a list of problems,
empty when the output is right.

Why these four: ``tables`` is dominated by speckle field sampling and is the
one where the thread pool pays; ``erasure`` runs many tiny chunks per bench
run, so per-chunk overhead and ``stats.corr_coeff`` dominate and the thread
pool costs time, which puts a workload on each side of any threading choice;
``sweep`` runs only the covariance-matrix modules; ``validate`` is the only
caller of the discord oracle and mixes Monte Carlo and covariance-matrix work.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from cvbench.network import ThreeModeProtocol, run_three_mode
from cvbench.states import SingleModeSpec
from cvbench.stats import cm_to_intensity_corr

#: allowed distance between a correlation and its prediction, in standard errors
SE_MULTIPLE = 5.0
#: half of the 6-decimal CSV quantum, so exact predictions survive rounding
CSV_QUANTUM = 5e-7

SWEEP_POINTS = 200
N_VALIDATE_CHECKS = 7


@dataclass(frozen=True)
class Workload:
    name: str
    #: (seed, output directory) -> argument list for ``cvbench.cli.main``
    argv: Callable[[int, Path], list[str]]
    #: (exit code, printed stdout, CSV bytes or None) -> problems found
    check: Callable[[int, str, bytes | None], list[str]]


def _rows(csv: bytes) -> tuple[list[str], list[list[str]]]:
    lines = csv.decode("ascii").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _se(c: float, n: int) -> float:
    return (1.0 - c * c) / math.sqrt(n - 3)


# -- tables ------------------------------------------------------------------

TABLES_FRAMES = 100_000


def _tables_argv(seed: int, out: Path) -> list[str]:
    return ["tables", "--workers", "2", "--seed", str(seed), "--out", str(out / "tables.csv")]


def tables_prediction():
    """CM prediction of (c_in, c_out) per pair, analog variance, default bench.

    Defaults: unit mean intensity per mode, t_split = tau_mix = 1/2.
    """
    protocol = ThreeModeProtocol(SingleModeSpec(1.0), SingleModeSpec(2.0), 0.5, 0.5)
    state_in, state_out = run_three_mode(protocol)
    pairs = {"1-2": (0, 1), "1-3": (0, 2), "2-3": (1, 2)}
    return {
        label: (cm_to_intensity_corr(state_in, i, j), cm_to_intensity_corr(state_out, i, j))
        for label, (i, j) in pairs.items()
    }


def _tables_check(code: int, stdout: str, csv: bytes | None) -> list[str]:
    if code != 0 or csv is None:
        return [f"exit code {code}"]
    header, rows = _rows(csv)
    if header != ["pair", "c_in", "ci_in_lo", "ci_in_hi", "c_out", "ci_out_lo", "ci_out_hi"]:
        return [f"unexpected header {header}"]
    predicted = tables_prediction()
    if [r[0] for r in rows] != list(predicted):
        return [f"unexpected pairs {[r[0] for r in rows]}"]
    problems = []
    for row in rows:
        for column, value, expected in (
            ("c_in", float(row[1]), predicted[row[0]][0]),
            ("c_out", float(row[4]), predicted[row[0]][1]),
        ):
            tol = SE_MULTIPLE * _se(expected, TABLES_FRAMES) + CSV_QUANTUM
            if abs(value - expected) > tol:
                problems.append(f"{row[0]} {column} {value} vs CM {expected:.6f} (tol {tol:.6f})")
    return problems


# -- erasure -----------------------------------------------------------------

#: basis -> pair -> (expected c_out, tolerance): README's pattern, with the
#: bounds of acceptance check C6 (near-perfect correlation means >= 0.99)
ERASURE_PATTERN = {
    "none": {"1-2": (1.0, 0.01)},
    "deg45": {"1-2": (0.0, 0.02), "1-3": (0.5, 0.02), "2-3": (0.5, 0.02)},
    "V": {"1-2": (1.0, 0.01), "1-3": (1.0, 0.01), "2-3": (1.0, 0.01)},
}


def _erasure_argv(seed: int, out: Path) -> list[str]:
    return [
        "erasure", "--basis", "all", "--modes", "4", "--frames", "400000",
        "--workers", "2", "--seed", str(seed), "--out", str(out / "erasure.csv"),
    ]


def _erasure_check(code: int, stdout: str, csv: bytes | None) -> list[str]:
    if code != 0 or csv is None:
        return [f"exit code {code}"]
    header, rows = _rows(csv)
    if header != ["basis", "pair", "c_out", "ci_lo", "ci_hi"]:
        return [f"unexpected header {header}"]
    expected_keys = [(b, p) for b, pairs in ERASURE_PATTERN.items() for p in pairs]
    if [(r[0], r[1]) for r in rows] != expected_keys:
        return [f"unexpected rows {[(r[0], r[1]) for r in rows]}"]
    problems = []
    for basis, pair, value, *_ in rows:
        expected, tol = ERASURE_PATTERN[basis][pair]
        if abs(float(value) - expected) > tol:
            problems.append(f"{basis} {pair} c_out {value} vs {expected} (tol {tol})")
    return problems


# -- sweep -------------------------------------------------------------------


def sweep_taus(seed: int) -> list[str]:
    """Three distinct mixing transmissivities in [0.1, 0.9], drawn from the seed."""
    rng = random.Random(seed)
    taus: set[str] = set()
    while len(taus) < 3:
        taus.add(f"{rng.uniform(0.1, 0.9):.6f}")
    return sorted(taus)


def _sweep_argv(seed: int, out: Path) -> list[str]:
    config = out / "sweep.ini"
    config.write_text(
        f"[sweep]\nn_points = {SWEEP_POINTS}\ntaus = {','.join(sweep_taus(seed))}\n",
        encoding="ascii",
    )
    return ["sweep-discord", "--config", str(config), "--out", str(out / "sweep.csv")]


def _sweep_check(code: int, stdout: str, csv: bytes | None) -> list[str]:
    if code != 0 or csv is None:
        return [f"exit code {code}"]
    header, rows = _rows(csv)
    if header != ["tau", "n_source", "discord", "c13_out", "c23_out"]:
        return [f"unexpected header {header}"]
    series: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
    for tau, _, disc, c13, c23 in rows:
        series[tau].append((float(disc), float(c13), float(c23)))
    problems = []
    if len(series) != 3 or len(rows) != 3 * SWEEP_POINTS:
        problems.append(f"{len(rows)} rows over {len(series)} taus, want 3 x {SWEEP_POINTS}")
    for tau, points in series.items():
        points.sort()
        if points[0][0] < 0.0:
            problems.append(f"tau {tau}: negative discord {points[0][0]}")
        for k, name in ((1, "c13_out"), (2, "c23_out")):
            values = [p[k] for p in points]
            if not all(0.0 <= v <= 1.0 for v in values):
                problems.append(f"tau {tau}: {name} outside [0, 1]")
            if any(b < a for a, b in zip(values, values[1:])) or not values[-1] > values[0]:
                problems.append(f"tau {tau}: {name} does not rise with discord")
    return problems


# -- validate ----------------------------------------------------------------


def _validate_argv(seed: int, out: Path) -> list[str]:
    return ["validate"]


def _validate_check(code: int, stdout: str, csv: bytes | None) -> list[str]:
    lines = stdout.splitlines()
    passed = [line for line in lines if line.startswith("PASS ")]
    if code != 0 or len(passed) != N_VALIDATE_CHECKS or len(lines) != N_VALIDATE_CHECKS:
        return [f"exit code {code}, {len(passed)} PASS lines of {len(lines)}: {lines}"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tables", _tables_argv, _tables_check),
        Workload("erasure", _erasure_argv, _erasure_check),
        Workload("sweep", _sweep_argv, _sweep_check),
        Workload("validate", _validate_argv, _validate_check),
    )
}
