"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Statistical criteria use fixed seeds, so the suite is deterministic.
C01, C02, C03, C04a and C08 run the checks of ``cvbench validate``
(``cli._check_*``) on their own draws.
"""

import math
import time

import numpy as np
import pytest

from cvbench.info import gaussian_discord, mutual_information
from cvbench.network import interfere, prepare_discordant_pair
from cvbench.speckle import BenchConfig, run_bench
from cvbench.states import GaussianState, SingleModeSpec, tensor, thermal_state
from cvbench.stats import cm_to_intensity_corr, confidence_interval, corr_coeff
from cvbench import cli
from helpers import random_single_mode_cm, random_two_mode_state


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def report_check(name, result, started, time_bound=math.inf):
    """Report a check of ``cvbench validate`` run on this criterion's draws.

    It passes when the check's worst value is within its bound and the
    criterion took less than ``time_bound`` seconds since ``started``.
    """
    what, worst, bound = result
    elapsed = time.perf_counter() - started
    ok = worst <= bound and elapsed < time_bound
    report(name, ok, f"{what} {worst:.2e} (bound {bound:g}), {elapsed:.2f}s")


def test_c01_identity_interference_law():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    state = GaussianState(np.stack([random_single_mode_cm(rng) for _ in range(200)]))
    result = cli._check_identity_interference(state)
    report_check("C1 identity-interference law", result, started, time_bound=1.0)


def test_c02_three_mode_output_structure():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    # one row per draw: the source's n_tot and beta, t_split, tau
    n_tot, beta, t_split, tau = rng.uniform(
        (0.3, 0.0, 0.15, 0.05), (4.0, 0.9, 0.85, 0.95), (100, 4)
    ).T
    result = cli._check_output_blocks(SingleModeSpec(n_tot, beta), t_split, tau)
    report_check("C2 three-mode output blocks", result, started, time_bound=1.0)


def test_c03_discord_closed_form_vs_oracle():
    rng = np.random.default_rng(303)
    started = time.perf_counter()
    # the check measures even members on side B and odd ones on side A
    what, worst, bound = cli._check_discord_oracle(random_two_mode_state(rng, (100,)))
    products = tensor([thermal_state(np.array(n)) for n in ((0.5, 2.0, 3.0), (1.0, 0.1, 3.0))])
    worst_product = float(np.max(gaussian_discord(products)))
    elapsed = time.perf_counter() - started
    ok = worst <= bound and worst_product <= 1e-9 and elapsed < 30.0
    report(
        "C3 discord correctness",
        ok,
        f"{what} {worst:.2e} (bound {bound:g}), max product discord {worst_product:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_c04a_thermal_entropy_identity():
    started = time.perf_counter()
    result = cli._check_entropy_identities(np.array([0.1, 1.0, 10.0]))
    report_check("C4a thermal entropy identity", result, started)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "the required value 2 ln 2 is arithmetically inconsistent: the joint "
        "entropy of the balanced split of a thermal(2) source is fixed by "
        "unitary invariance at g(2) = 3 ln 3 - 2 ln 2, so the mutual "
        "information is 2 g(1) - g(2) = 3 ln(4/3) = 0.8630, not 2 ln 2 = 1.3863"
    ),
)
def test_c04b_split_thermal_mutual_information_target():
    pair = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
    mi = mutual_information(pair)
    consistent = 3.0 * math.log(4.0 / 3.0)
    # engine self-check; pytest.fail raises Failed, which is no AssertionError,
    # so a failing self-check fails the test instead of meeting the xfail
    if not abs(mi - consistent) <= 1e-9:
        pytest.fail(f"engine self-check: I = {mi:.16g}, unitary-invariance value {consistent:.16g}")
    ok = abs(mi - 2.0 * math.log(2.0)) <= 1e-9
    report(
        "C4b split-thermal mutual information (stated target 2 ln 2)",
        ok,
        f"I = {mi:.6f}, target 1.386294 (inconsistent), "
        f"unitary-invariance value {consistent:.6f}",
    )


def test_c05_interference_bench_table():
    started = time.perf_counter()
    batch = run_bench(
        BenchConfig(modes=100, frames=100_000, mean_photons=1.0, t_split=0.5, seed=42)
    )
    pairs = ((0, 1), (0, 2), (1, 2))
    c_in = [batch.corr(batch.in_weights(i), batch.in_weights(j)) for i, j in pairs]
    c_out = [batch.corr(batch.out_weights(i), batch.out_weights(j)) for i, j in pairs]
    ci_low, ci_high = confidence_interval(0.5, 50, 0.99)
    elapsed = time.perf_counter() - started
    ok = (
        abs(c_in[0]) <= 0.02
        and abs(c_in[1]) <= 0.02
        and c_in[2] >= 0.99
        and abs(c_out[0]) <= 0.02
        and abs(c_out[1] - 0.5) <= 0.02
        and abs(c_out[2] - 0.5) <= 0.02
        and ci_low <= 0.55 <= ci_high
        and ci_low <= 0.62 <= ci_high
        and elapsed < 60.0
    )
    report(
        "C5 interference bench table",
        ok,
        f"in ({c_in[0]:+.3f}, {c_in[1]:+.3f}, {c_in[2]:.3f}), "
        f"out ({c_out[0]:+.3f}, {c_out[1]:.3f}, {c_out[2]:.3f}), "
        f"reference 0.55/0.62 in 99% CI [{ci_low:.2f}, {ci_high:.2f}], {elapsed:.1f}s",
    )


def test_c06_erasure_bench_table(capsys):
    # one run; each basis is a read-out of the erasure preset on its frames
    batch = run_bench(BenchConfig(modes=100, frames=50_000, seed=7))

    def c_out(basis, pairs=((0, 1), (0, 2), (1, 2))):
        out = [batch.out_weights(beam, basis, "erasure") for beam in range(3)]
        return [batch.corr(out[i], out[j]) for i, j in pairs]

    c45 = c_out("deg45")
    (c12_none,) = c_out("none", ((0, 1),))
    cv = c_out("V")
    # the V-basis pattern is model-defined and must be flagged on emission
    cfg = cli.load_config()
    cfg["bench"].update(frames=512, seed=7)
    cfg["analysis"]["basis"] = "V"
    cli.run_erasure(cfg)
    captured = capsys.readouterr()
    flagged = "basis=V" in captured.err and "not reproduced" in captured.err
    ok = (
        abs(c45[0]) <= 0.02
        and abs(c45[1] - 0.5) <= 0.02
        and abs(c45[2] - 0.5) <= 0.02
        and c12_none >= 0.99
        and all(c >= 0.99 for c in cv)
        and flagged
    )
    report(
        "C6 erasure bench table",
        ok,
        f"deg45 ({c45[0]:+.3f}, {c45[1]:.3f}, {c45[2]:.3f}), none c12 {c12_none:.4f}, "
        f"V pattern ({cv[0]:.2f}, {cv[1]:.2f}, {cv[2]:.2f}) flagged={flagged}",
    )


def test_c07_sweep_monotone_in_discord():
    """Along the split thermal family (beta = 0, t_split 0.5), the correlations rise with the discord.

    The monotone law holds within one family of states. Across families it
    does not: a classical pair of correlated x-quadrature noise with 0.0034
    nats of discord correlates more than a split thermal pair with 0.6156
    (``test_discord_reveals_but_does_not_measure_interference``). What holds
    for every pair is the qualitative law, c13 > 0 exactly when the discord is
    above 0 (``test_any_pair_reveals_interference_exactly_when_discordant``).
    """
    started = time.perf_counter()
    grid = np.geomspace(0.05, 50.0, 50)
    series = {}
    for tau in (0.15, 0.5, 0.85):
        rows = []
        for n_source in grid:
            pair = prepare_discordant_pair(SingleModeSpec(float(n_source)), 0.5)
            disc = gaussian_discord(pair)
            _, out = interfere(pair, tau)
            rows.append(
                (
                    disc,
                    cm_to_intensity_corr(out, 0, 2, shot_noise=True),
                    cm_to_intensity_corr(out, 1, 2, shot_noise=True),
                )
            )
        series[tau] = rows
    elapsed = time.perf_counter() - started
    monotone = all(
        all(a[k] < b[k] for a, b in zip(rows, rows[1:]) for k in (0, 1, 2))
        for rows in series.values()
    )
    ordering = all(
        series[0.85][i][2] > series[0.5][i][2] > series[0.15][i][2]
        and series[0.85][i][1] < series[0.5][i][1] < series[0.15][i][1]
        for i in range(len(grid))
    )
    ok = monotone and ordering and elapsed < 30.0
    report(
        "C7 split thermal sweep monotone in discord",
        ok,
        f"strict monotonicity {monotone}, tau ordering {ordering}, {elapsed:.1f}s",
    )


def test_c08_monte_carlo_vs_analytic():
    rng = np.random.default_rng(808)
    started = time.perf_counter()
    # one row per run: the tau it is read out at, t_split, mean_photons
    draws = rng.uniform((0.2, 0.3, 0.5), (0.8, 0.7, 2.0), (10, 3)).tolist()
    runs = [
        (BenchConfig(modes=64, frames=20_000, mean_photons=mean, t_split=t_split, seed=9000 + k), tau)
        for k, (tau, t_split, mean) in enumerate(draws)
    ]
    report_check("C8 MC vs analytic correlations", cli._check_mc_against_cm(runs), started)


def test_c09_tables_bit_identical_across_workers(tmp_path):
    blobs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"tables_w{workers}.csv"
        code = cli.main(
            ["tables", "--frames", "4000", "--workers", str(workers), "--out", str(out)]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report("C9 determinism across workers", ok, f"{len(blobs[0])} bytes, workers 1/2/8 identical")


def test_c10_confidence_interval_coverage():
    rng = np.random.default_rng(1010)
    true_c = 0.5
    runs = 1000
    hits = 0
    for _ in range(runs):
        z1 = rng.standard_normal(50)
        z2 = rng.standard_normal(50)
        x = z1
        y = true_c * z1 + math.sqrt(1.0 - true_c**2) * z2
        low, high = confidence_interval(corr_coeff(x, y), 50, 0.99)
        hits += low <= true_c <= high
    coverage = hits / runs
    ok = coverage >= 0.97
    report("C10 99% CI coverage", ok, f"empirical coverage {coverage:.3f} over {runs} runs")
