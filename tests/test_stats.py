"""Tests for correlation estimation and the CM-level intensity predictions."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from cvbench.network import (
    ThreeModeProtocol,
    interfere,
    prepare_discordant_pair,
    run_three_mode,
)
from cvbench.speckle import BenchConfig, run_bench
from cvbench.states import (
    GaussianState,
    SingleModeSpec,
    _p_negative,
    tensor,
    thermal_state,
    vacuum_state,
)
from cvbench.stats import (
    _BLOCK_FRAMES,
    cm_to_intensity_corr,
    comoment_corr,
    comoments,
    confidence_interval,
    corr_coeff,
)
from helpers import random_two_mode_state


class TestCorrCoeff:
    def test_identical_series(self):
        x = np.array([0.3, 1.7, 2.2, 0.9])
        assert corr_coeff(x, x) == 1.0

    def test_exact_linear_dependence(self):
        assert corr_coeff([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0

    def test_sign_flip_under_negative_slope(self):
        x = np.array([0.1, 0.9, 0.4, 0.7, 0.2])
        assert corr_coeff(x, -2.0 * x + 3.0) == -1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(101)
        x = rng.exponential(size=500)
        y = x + rng.exponential(size=500)
        base = corr_coeff(x, y)
        assert corr_coeff(3.0 * x + 1.0, y) == pytest.approx(base, abs=1e-12)
        assert corr_coeff(x, 0.5 * y - 7.0) == pytest.approx(base, abs=1e-12)

    def test_independent_thermal_series(self):
        rng = np.random.default_rng(103)
        x = rng.exponential(size=10**5)
        y = rng.exponential(size=10**5)
        assert abs(corr_coeff(x, y)) <= 0.01  # ~3 / sqrt(n)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            corr_coeff([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([1.0, math.nan, 3.0, 2.0]),
            np.array([1.0, math.inf, 3.0, 2.0]),
            np.array([1.0, -3.0, 2.0, 5.0]) * 1e200,
        ],
        ids=["nan", "inf", "overflow"],
    )
    def test_non_finite_sums_rejected(self, bad):
        # a clamp would turn NaN into -1 and an overflowed variance into 0
        good = np.array([0.5, 1.5, 1.0, 2.5])
        for h, k in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(ValueError, match="not finite"):
                corr_coeff(h, k)

    @pytest.mark.parametrize("scale", [2.0**330, 2.0**-500])
    def test_variance_product_out_of_range(self, scale):
        # each variance is a normal float, their product over- or underflows;
        # a power-of-two scale leaves the correlation as it is
        rng = np.random.default_rng(107)
        x = rng.exponential(size=1000)
        y = x + rng.exponential(size=1000)
        assert corr_coeff(scale * x, scale * y) == pytest.approx(corr_coeff(x, y), rel=1e-14)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            corr_coeff([1.0], [2.0])
        with pytest.raises(ValueError):
            corr_coeff([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, 1e8, 1e12])
    def test_agrees_with_error_free_reduction(self, offset):
        # reference: the corrected two-pass formula with every sum taken by
        # math.fsum. Subtracting s_h s_k / n, s being the sum of the centred
        # values, removes the rounding of the means; at offset 1e12 the
        # uncorrected sums are off by up to 2e-9 in the correlation
        def centred(x):
            d = x - math.fsum(x.tolist()) / x.size
            return d, math.fsum(d.tolist())

        def comoment(a, b):
            (d_a, s_a), (d_b, s_b) = a, b
            return math.fsum((d_a * d_b).tolist()) - s_a * s_b / d_a.size

        rng = np.random.default_rng(109)
        n = 10**6
        x = rng.gamma(4.0, size=n)
        y = rng.gamma(4.0, size=n)
        h = x + offset
        c_h = centred(h)
        var_h = comoment(c_h, c_h)
        for c in (0.0, 0.5, 0.999):
            k = c * x + math.sqrt(1.0 - c * c) * y + offset
            c_k = centred(k)
            expected = comoment(c_h, c_k) / math.sqrt(var_h * comoment(c_k, c_k))
            assert abs(corr_coeff(h, k) - expected) <= 1e-12

    def test_clamped_to_unit_interval(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]) * (1.0 + 1e-16)
        assert -1.0 <= corr_coeff(x, x * 2.0) <= 1.0


def blocks_of(series, width=_BLOCK_FRAMES):
    """Consecutive blocks of k equal-length series, each a tuple of k slices: comoments' input."""
    return (tuple(x[t : t + width] for x in series) for t in range(0, series[0].size, width))


class TestComoments:
    @pytest.mark.parametrize("n", [2, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 3 * _BLOCK_FRAMES - 5])
    def test_agrees_with_error_free_sums(self, n):
        # every entry against the centred sums taken by math.fsum, on blocks
        # that divide n and blocks that leave a short one
        rng = np.random.default_rng(113)
        x = rng.gamma(4.0, size=n) + 1e6
        series = (x, 0.5 * x + rng.gamma(2.0, size=n), rng.exponential(size=n))
        sums = comoments(blocks_of(series))
        centred = [s - math.fsum(s.tolist()) / n for s in series]
        for i, j in np.ndindex(3, 3):
            exact = math.fsum((centred[i] * centred[j]).tolist())
            scale = math.sqrt(sums[i, i] * sums[j, j])
            assert abs(sums[i, j] - exact) <= 1e-12 * scale
        assert np.array_equal(sums, sums.T)

    @pytest.mark.parametrize("widths", [(1, 4999), (3000, 1, 1999), (1000,) * 5], ids=str)
    def test_sums_do_not_depend_on_the_blocking(self, widths):
        # any consecutive blocking gives the same sums to within rounding, a
        # first block of one frame (the shift is then one frame's values) and
        # a block wider than the first included; one (k, b) array per block
        # reads as its k rows
        rng = np.random.default_rng(137)
        x = rng.gamma(4.0, size=(2, 5000)) + 1e6
        series = np.stack((x[0], 0.5 * x[0] + x[1], rng.exponential(size=5000)))
        edges = np.cumsum((0,) + widths)
        sums = comoments(series[:, a:b] for a, b in zip(edges[:-1], edges[1:]))
        whole = comoments(blocks_of(series))
        scale = np.sqrt(np.outer(np.diag(whole), np.diag(whole)))
        assert np.all(np.abs(sums - whole) <= 1e-12 * scale)

    def test_a_block_of_whole_series_is_refused(self):
        # a 1-D series taken for a block would read as one frame of many series
        with pytest.raises(ValueError, match="one-dimensional"):
            comoments((np.arange(5.0), np.arange(5.0)))

    def test_fewer_than_two_frames_refused(self):
        for blocks in ([], [np.ones((2, 1))], [np.ones((2, 0)), np.ones((2, 1))]):
            with pytest.raises(ValueError, match="two frames"):
                comoments(blocks)

    def test_unread_series_cannot_spoil_a_correlation(self):
        # only the entries the two weightings read enter the correlation
        rng = np.random.default_rng(127)
        x, y = rng.exponential(size=(2, 100))
        sums = comoments(blocks_of((x, y, np.full(100, math.inf))))
        assert not np.isfinite(sums[2]).any()
        unit = np.eye(3)
        assert comoment_corr(sums, unit[0], unit[1]) == corr_coeff(x, y)
        with pytest.raises(ValueError, match="not finite"):
            comoment_corr(sums, unit[0], unit[2])

    def test_zero_weighting_has_zero_variance(self):
        rng = np.random.default_rng(131)
        sums = comoments(blocks_of(rng.exponential(size=(2, 50))))
        with pytest.raises(ValueError, match="zero variance"):
            comoment_corr(sums, np.zeros(2), np.array([0.0, 1.0]))


class TestConfidenceInterval:
    def test_frozen_null_interval(self):
        # tanh(2.5758293035489.../sqrt(47)) = 0.3589876656...
        low, high = confidence_interval(0.0, 50, 0.99)
        assert high == pytest.approx(0.3589876656, abs=1e-9)
        assert low == pytest.approx(-0.3589876656, abs=1e-9)

    def test_degenerate_at_unity(self):
        assert confidence_interval(1.0, 50, 0.99) == (1.0, 1.0)

    def test_bounds_clamped(self):
        low, high = confidence_interval(0.97, 50, 0.99)
        assert -1.0 <= low <= 0.97 <= high <= 1.0

    def test_width_shrinks_like_root_n(self):
        low50, high50 = confidence_interval(0.3, 50, 0.99)
        low5000, high5000 = confidence_interval(0.3, 5000, 0.99)
        ratio = (high50 - low50) / (high5000 - low5000)
        assert ratio == pytest.approx(math.sqrt(4997.0 / 47.0), rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_interval(1.5, 50, 0.99)
        with pytest.raises(ValueError):
            confidence_interval(0.0, 3, 0.99)
        with pytest.raises(ValueError):
            confidence_interval(0.0, 50, 1.0)

    def test_fisher_z_bits(self):
        # the CSVs print these bits, so the interval is compared exactly with
        # the Fisher z construction written out here; the reference is
        # recomputed rather than pinned, since math.tanh is the host's libm
        for c in (-0.999, -0.3, 0.0, 0.5, 1.0 - 1e-16, 1.0):
            for n in (4, 50, 100000):
                for level in (0.5, 0.9, 0.99, 0.999):
                    interval = confidence_interval(c, n, level)
                    if 1.0 - abs(c) <= 1e-15:
                        expected = (c, c)
                    else:
                        half = NormalDist().inv_cdf(0.5 + level / 2.0) / math.sqrt(n - 3.0)
                        z = math.atanh(c)
                        expected = (max(-1.0, math.tanh(z - half)), min(1.0, math.tanh(z + half)))
                    assert interval == expected, (c, n, level)

    def test_coverage_calibration(self):
        # 99% intervals over synthetic bivariate-Gaussian runs at true c = 0.5
        rng = np.random.default_rng(107)
        true_c = 0.5
        hits = 0
        runs = 500
        for _ in range(runs):
            z1 = rng.standard_normal(50)
            z2 = rng.standard_normal(50)
            x = z1
            y = true_c * z1 + math.sqrt(1.0 - true_c**2) * z2
            low, high = confidence_interval(corr_coeff(x, y), 50, 0.99)
            hits += low <= true_c <= high
        assert hits / runs >= 0.97


def p_margin(state):
    """lambda_min(cm - I/2) in units of eps max|cm|, over the batch shape."""
    cm = state.cm
    lam_min = np.linalg.eigvalsh(cm - np.eye(cm.shape[-1]) / 2.0)[..., 0]
    return lam_min / (np.finfo(float).eps * np.abs(cm).max(axis=(-2, -1)))


class TestCmToIntensityCorr:
    def test_product_state(self):
        state = tensor([thermal_state(1.0), thermal_state(2.0)])
        assert cm_to_intensity_corr(state, 0, 1) == 0.0

    def test_split_thermal_classical_unity(self):
        pair = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
        assert cm_to_intensity_corr(pair, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_split_thermal_shot_noise(self):
        # photon-counting variance n^2 + n turns the perfect classical
        # correlation into n / (n + 1) = N_s / (N_s + 2) per marginal
        pair = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
        assert cm_to_intensity_corr(pair, 0, 1, shot_noise=True) == pytest.approx(0.5, abs=1e-12)

    def test_three_mode_output_scalings(self):
        for tau in (0.15, 0.5, 0.85):
            protocol = ThreeModeProtocol(SingleModeSpec(1.0), SingleModeSpec(2.0), 0.5, tau)
            _, out = run_three_mode(protocol)
            pair = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
            c_in = cm_to_intensity_corr(pair, 0, 1)
            assert cm_to_intensity_corr(out, 0, 2) == pytest.approx((1 - tau) * c_in, abs=1e-10)
            assert cm_to_intensity_corr(out, 1, 2) == pytest.approx(tau * c_in, abs=1e-10)

    def test_balanced_output_half(self):
        protocol = ThreeModeProtocol(SingleModeSpec(1.0), SingleModeSpec(2.0), 0.5, 0.5)
        _, out = run_three_mode(protocol)
        assert cm_to_intensity_corr(out, 0, 2) == pytest.approx(0.5, abs=1e-12)
        assert cm_to_intensity_corr(out, 1, 2) == pytest.approx(0.5, abs=1e-12)

    def test_analog_refuses_a_negative_p_function(self):
        # a two-mode squeezed vacuum of n = 1/8 photon per mode, <a b> = 3/8:
        # the normally ordered coefficient |<a b>|^2 / n^2 is 9, which no
        # classical field gives, while photon counting reads the perfect
        # correlation of its photon numbers, 1
        cm = np.array([[5, 0, 3, 0], [0, 5, 0, -3], [3, 0, 5, 0], [0, -3, 0, 5]]) / 8.0
        squeezed = GaussianState(cm)
        with pytest.raises(ValueError, match="Glauber P-function is negative"):
            cm_to_intensity_corr(squeezed, 0, 1)
        assert cm_to_intensity_corr(squeezed, 0, 1, shot_noise=True) == pytest.approx(1.0)
        split = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
        stack = GaussianState(np.stack([split.cm, cm]))
        with pytest.raises(ValueError, match=r"negative.*\(batch member 1\)$"):
            cm_to_intensity_corr(stack, 0, 1)

    def test_analog_admits_the_rounding_of_a_dim_split_source(self):
        # the split pair of a bench source of 1e-3 photons at t_split 0.9: it
        # lies on the P-function's boundary, since the vacuum it is split
        # with keeps one eigenvalue of cm - I/2 at 0 in exact arithmetic; the
        # gate admits it, and the coefficient, which rounds to 1 + 2106 eps
        # (each mean photon number is read off variances near 1/2), reads 1
        pair = prepare_discordant_pair(SingleModeSpec(1e-3 / 0.9), 0.9)
        assert cm_to_intensity_corr(pair, 0, 1) == 1.0

    def test_analog_refuses_each_negative_p_draw(self):
        # the first 300 draws of random_two_mode_state (seed 1) with
        # lambda_min(cm - I/2) < 0, each in its own call: most of them give an
        # analog coefficient below 1, which a bound on the value would let pass
        draws = random_two_mode_state(np.random.default_rng(1), (400,))
        negative = draws.cm[p_margin(draws) < 0.0]
        assert len(negative) >= 300
        for cm in negative[:300]:
            with pytest.raises(ValueError, match="Glauber P-function is negative"):
                cm_to_intensity_corr(GaussianState(cm), 0, 1)

    def test_zero_photon_mode_rejected(self):
        state = tensor([vacuum_state(), thermal_state(1.0)])
        with pytest.raises(ValueError, match="zero mean photons"):
            cm_to_intensity_corr(state, 0, 1)

    def test_mode_validation(self):
        pair = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
        with pytest.raises(IndexError):
            cm_to_intensity_corr(pair, 0, 2)
        with pytest.raises(ValueError):
            cm_to_intensity_corr(pair, 1, 1)

    def test_squeezed_pair_moment_contributes(self):
        # splitting a squeezed source makes <a a> nonzero; it enters the
        # covariance and both variances, and the two copies of one classical
        # field keep the analog coefficient at 1. SingleModeSpec(N, beta) has
        # P >= 0 exactly when N (1 - beta)^2 >= beta: at N = 2, beta = 0.3 it
        # does (its split pair sits on the boundary, 0.08 units of rounding
        # below it), at beta = 0.8 it does not, and the analog model refuses it
        pair = prepare_discordant_pair(SingleModeSpec(2.0, 0.3), 0.5)
        c = cm_to_intensity_corr(pair, 0, 1)
        assert 0.0 < c <= 1.0 and c == pytest.approx(1.0, abs=1e-12)
        squeezed = prepare_discordant_pair(SingleModeSpec(2.0, 0.8), 0.5)
        with pytest.raises(ValueError, match="Glauber P-function is negative"):
            cm_to_intensity_corr(squeezed, 0, 1)

    def test_monte_carlo_agreement(self):
        frames = 2 * 10**4
        batch = run_bench(BenchConfig(modes=64, frames=frames, seed=211))
        protocol = ThreeModeProtocol(SingleModeSpec(1.0), SingleModeSpec(2.0), 0.5, 0.3)
        _, out = run_three_mode(protocol)
        for i, j in ((0, 2), (1, 2)):
            c_mc = batch.corr(batch.out_weights(i, tau=0.3), batch.out_weights(j, tau=0.3))
            c_cm = cm_to_intensity_corr(out, i, j)
            se = (1.0 - c_cm**2) / math.sqrt(frames - 3)
            assert abs(c_mc - c_cm) <= 3.0 * se


class TestClassicalityGate:
    """``states._p_negative``: a Glauber P-function is negative when cm - I/2 is not PSD."""

    def test_every_negative_p_draw_is_flagged(self):
        # 20,000 draws of random_two_mode_state (seed 1): 16,913 have
        # lambda_min(cm - I/2) < 0, every one of them more than 5e10 units
        # below 0, and the gate flags exactly those
        states = random_two_mode_state(np.random.default_rng(1), (20_000,))
        margin = p_margin(states)
        assert np.count_nonzero(margin < 0.0) == 16_913
        assert margin[margin < 0.0].max() < -5e10
        assert np.array_equal(_p_negative(states), margin < 0.0)

    def test_split_pairs_and_their_three_mode_states_are_admitted(self):
        # 30,000 split sources, on the P boundary in exact arithmetic since the
        # vacuum they are split with keeps an eigenvalue of cm - I/2 at 0:
        # N log-uniform in [1e-6, 1e7], t_split log-spaced toward both ends of
        # [1e-6, 1 - 1e-6], half of them thermal and half squeezed with
        # N (1 - beta)^2 > beta, at random tau_mix. Rounding takes them up to
        # 4 units of eps max|cm| below 0, inside the gate's band of 8
        rng = np.random.default_rng(42)
        size = 30_000
        n_tot = 10.0 ** rng.uniform(-6.0, 7.0, size)
        edge = 10.0 ** rng.uniform(-6.0, math.log10(0.5), size)
        t_split = np.where(rng.random(size) < 0.5, edge, 1.0 - edge)
        # the beta at which N (1 - beta)^2 = beta, where P reaches the boundary
        beta_max = (2.0 * n_tot + 1.0 - np.sqrt(4.0 * n_tot + 1.0)) / (2.0 * n_tot)
        beta = np.where(rng.random(size) < 0.5, 0.0, rng.uniform(0.0, 1.0, size) * beta_max)
        pair = prepare_discordant_pair(SingleModeSpec(n_tot, beta), t_split)
        state_in, out = interfere(pair, rng.uniform(0.0, 1.0, size))
        worst = {}
        for name, state in (("pair", pair), ("three-mode input", state_in), ("output", out)):
            assert not _p_negative(state).any(), name
            worst[name] = float(p_margin(state).min())
        print(f"worst margins in units of eps max|cm| (bound -8): {worst}")
