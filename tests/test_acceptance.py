"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Statistical criteria use fixed seeds, so the suite is deterministic.
"""

import math
import time

import numpy as np
import pytest

from cvbench.info import discord_oracle, entropy, gaussian_discord, mutual_information
from cvbench.network import (
    ThreeModeProtocol,
    bs_symplectic,
    matched_probe,
    prepare_discordant_pair,
    run_three_mode,
)
from cvbench.speckle import BenchConfig, run_bench
from cvbench.states import (
    GaussianState,
    SingleModeSpec,
    apply_symplectic,
    mode_block,
    tensor,
    thermal_state,
)
from cvbench.stats import cm_to_intensity_corr, confidence_interval, corr_coeff
from cvbench import cli
from helpers import random_single_mode_cm, random_source, random_two_mode_state


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_c01_identity_interference_law():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    sigma = np.stack([random_single_mode_cm(rng) for _ in range(200)])
    state = GaussianState(sigma)
    taus = np.array([0.15, 0.5, 0.85])
    # the beam splitter itself, by congruence: one pass over the axes (tau, draw)
    out = apply_symplectic(tensor([state, state]), bs_symplectic(taus[:, None]))
    worst_off = float(np.max(np.abs(mode_block(out, 0, 1))))
    worst_marginal = max(
        float(np.max(np.abs(mode_block(out, 0, 0) - sigma))),
        float(np.max(np.abs(mode_block(out, 1, 1) - sigma))),
    )
    elapsed = time.perf_counter() - started
    ok = worst_off <= 1e-12 and worst_marginal <= 1e-12 and elapsed < 1.0
    report(
        "C1 identity-interference law",
        ok,
        f"max off-block {worst_off:.2e}, max marginal shift {worst_marginal:.2e}, {elapsed:.2f}s",
    )


def test_c02_three_mode_output_structure():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        source = random_source(rng)
        t_split = rng.uniform(0.15, 0.85)
        tau = rng.uniform(0.05, 0.95)
        delta = mode_block(prepare_discordant_pair(source, t_split), 0, 1)
        protocol = ThreeModeProtocol(matched_probe(source, t_split), source, t_split, tau)
        _, out = run_three_mode(protocol)
        worst = max(
            worst,
            float(np.max(np.abs(mode_block(out, 0, 2) - math.sqrt(1 - tau) * delta))),
            float(np.max(np.abs(mode_block(out, 1, 2) - math.sqrt(tau) * delta))),
            float(np.max(np.abs(mode_block(out, 0, 1)))),
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    report("C2 three-mode output blocks", ok, f"max block error {worst:.2e}, {elapsed:.2f}s")


def test_c03_discord_closed_form_vs_oracle():
    rng = np.random.default_rng(303)
    started = time.perf_counter()
    worst = 0.0
    for i in range(100):
        state = random_two_mode_state(rng)
        side = "B" if i % 2 == 0 else "A"
        closed = gaussian_discord(state, side)
        probed = discord_oracle(state, side).value
        worst = max(worst, abs(closed - probed))
    worst_product = 0.0
    for n1, n2 in ((0.5, 1.0), (2.0, 0.1), (3.0, 3.0)):
        state = tensor([thermal_state(n1), thermal_state(n2)])
        worst_product = max(worst_product, gaussian_discord(state, "B"))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and worst_product <= 1e-9 and elapsed < 30.0
    report(
        "C3 discord correctness",
        ok,
        f"max |closed - oracle| {worst:.2e}, max product discord {worst_product:.2e}, {elapsed:.1f}s",
    )


def test_c04a_thermal_entropy_identity():
    worst = 0.0
    for n in (0.1, 1.0, 10.0):
        expected = (n + 1.0) * math.log(n + 1.0) - n * math.log(n)
        worst = max(worst, abs(entropy(thermal_state(n)) - expected))
    ok = worst <= 1e-12
    report("C4a thermal entropy identity", ok, f"max |S - g(N)| = {worst:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the required value 2 ln 2 is arithmetically inconsistent: the joint "
        "entropy of the balanced split of a thermal(2) source is fixed by "
        "unitary invariance at g(2) = 3 ln 3 - 2 ln 2, so the mutual "
        "information is 2 g(1) - g(2) = 3 ln(4/3) = 0.8630, not 2 ln 2 = 1.3863"
    ),
)
def test_c04b_split_thermal_mutual_information_target():
    pair = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
    report_mi = mutual_information(pair)
    consistent = 3.0 * math.log(4.0 / 3.0)
    assert abs(report_mi.mutual_information - consistent) <= 1e-9  # engine self-check
    ok = abs(report_mi.mutual_information - 2.0 * math.log(2.0)) <= 1e-9
    report(
        "C4b split-thermal mutual information (stated target 2 ln 2)",
        ok,
        f"I = {report_mi.mutual_information:.6f}, target 1.386294 (inconsistent), "
        f"unitary-invariance value {consistent:.6f}",
    )


def test_c05_interference_bench_table():
    started = time.perf_counter()
    batch = run_bench(
        BenchConfig(modes=100, frames=100_000, mean_photons=1.0, tau_mix=0.5, t_split=0.5, seed=42)
    )
    pairs = ((0, 1), (0, 2), (1, 2))
    c_in = [batch.corr(batch.in_weights(i), batch.in_weights(j)) for i, j in pairs]
    c_out = [batch.corr(batch.out_weights(i), batch.out_weights(j)) for i, j in pairs]
    ci = confidence_interval(0.5, 50, 0.99)
    elapsed = time.perf_counter() - started
    ok = (
        abs(c_in[0]) <= 0.02
        and abs(c_in[1]) <= 0.02
        and c_in[2] >= 0.99
        and abs(c_out[0]) <= 0.02
        and abs(c_out[1] - 0.5) <= 0.02
        and abs(c_out[2] - 0.5) <= 0.02
        and ci.ci_low <= 0.55 <= ci.ci_high
        and ci.ci_low <= 0.62 <= ci.ci_high
        and elapsed < 60.0
    )
    report(
        "C5 interference bench table",
        ok,
        f"in ({c_in[0]:+.3f}, {c_in[1]:+.3f}, {c_in[2]:.3f}), "
        f"out ({c_out[0]:+.3f}, {c_out[1]:.3f}, {c_out[2]:.3f}), "
        f"reference 0.55/0.62 in 99% CI [{ci.ci_low:.2f}, {ci.ci_high:.2f}], {elapsed:.1f}s",
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
    started = time.perf_counter()
    grid = np.geomspace(0.05, 50.0, 50)
    series = {}
    for tau in (0.15, 0.5, 0.85):
        rows = []
        for n_source in grid:
            source = SingleModeSpec(float(n_source))
            pair = prepare_discordant_pair(source, 0.5)
            disc = gaussian_discord(pair, "B")
            protocol = ThreeModeProtocol(matched_probe(source, 0.5), source, 0.5, tau)
            _, out = run_three_mode(protocol)
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
        "C7 sweep monotone in discord",
        ok,
        f"strict monotonicity {monotone}, tau ordering {ordering}, {elapsed:.1f}s",
    )


def test_c08_monte_carlo_vs_analytic():
    rng = np.random.default_rng(808)
    frames = 20_000
    worst_sigma = 0.0
    for trial in range(10):
        tau = float(rng.uniform(0.2, 0.8))
        t_split = float(rng.uniform(0.3, 0.7))
        mean = float(rng.uniform(0.5, 2.0))
        batch = run_bench(
            BenchConfig(
                modes=64,
                frames=frames,
                mean_photons=mean,
                tau_mix=tau,
                t_split=t_split,
                seed=9000 + trial,
            )
        )
        protocol = ThreeModeProtocol(
            SingleModeSpec(mean), SingleModeSpec(mean / t_split), t_split, tau
        )
        _, out = run_three_mode(protocol)
        for i, j in ((0, 2), (1, 2)):
            c_mc = batch.corr(batch.out_weights(i), batch.out_weights(j))
            c_cm = cm_to_intensity_corr(out, i, j)
            se = (1.0 - c_cm**2) / math.sqrt(frames - 3)
            worst_sigma = max(worst_sigma, abs(c_mc - c_cm) / se)
    ok = worst_sigma <= 3.0
    report("C8 MC vs analytic correlations", ok, f"worst deviation {worst_sigma:.2f} SE")


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
        est = confidence_interval(corr_coeff(x, y), 50, 0.99)
        hits += est.ci_low <= true_c <= est.ci_high
    coverage = hits / runs
    ok = coverage >= 0.97
    report("C10 99% CI coverage", ok, f"empirical coverage {coverage:.3f} over {runs} runs")
