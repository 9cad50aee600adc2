"""Tests for correlation estimation and the CM-level intensity predictions."""

import math

import numpy as np
import pytest

from cvbench.network import ThreeModeProtocol, prepare_discordant_pair, run_three_mode
from cvbench.speckle import BenchConfig, run_bench
from cvbench.states import SingleModeSpec, tensor, thermal_state, vacuum_state
from cvbench.stats import cm_to_intensity_corr, confidence_interval, corr_coeff


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

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6, 1e8])
    def test_agrees_with_error_free_reduction(self, offset):
        # reference: the same two-pass formula with every sum taken by math.fsum
        def fsum_corr(h, k):
            dh = h - math.fsum(h.tolist()) / h.size
            dk = k - math.fsum(k.tolist()) / k.size
            cov = math.fsum((dh * dk).tolist())
            return cov / math.sqrt(math.fsum((dh * dh).tolist()) * math.fsum((dk * dk).tolist()))

        rng = np.random.default_rng(109)
        n = 10**6
        x = rng.gamma(4.0, size=n)
        y = rng.gamma(4.0, size=n)
        for c in (0.0, 0.5, 0.999):
            h = x + offset
            k = c * x + math.sqrt(1.0 - c * c) * y + offset
            assert abs(corr_coeff(h, k) - fsum_corr(h, k)) <= 1e-12

    def test_clamped_to_unit_interval(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]) * (1.0 + 1e-16)
        assert -1.0 <= corr_coeff(x, x * 2.0) <= 1.0


class TestConfidenceInterval:
    def test_frozen_null_interval(self):
        # tanh(2.5758293035489.../sqrt(47)) = 0.3589876656...
        est = confidence_interval(0.0, 50, 0.99)
        assert est.ci_high == pytest.approx(0.3589876656, abs=1e-9)
        assert est.ci_low == pytest.approx(-0.3589876656, abs=1e-9)

    def test_degenerate_at_unity(self):
        est = confidence_interval(1.0, 50, 0.99)
        assert (est.ci_low, est.ci_high) == (1.0, 1.0)

    def test_bounds_clamped(self):
        est = confidence_interval(0.97, 50, 0.99)
        assert -1.0 <= est.ci_low <= 0.97 <= est.ci_high <= 1.0

    def test_width_shrinks_like_root_n(self):
        w50 = confidence_interval(0.3, 50, 0.99)
        w5000 = confidence_interval(0.3, 5000, 0.99)
        ratio = (w50.ci_high - w50.ci_low) / (w5000.ci_high - w5000.ci_low)
        assert ratio == pytest.approx(math.sqrt(4997.0 / 47.0), rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_interval(1.5, 50, 0.99)
        with pytest.raises(ValueError):
            confidence_interval(0.0, 3, 0.99)
        with pytest.raises(ValueError):
            confidence_interval(0.0, 50, 1.0)
        with pytest.raises(ValueError, match="unknown CI method"):
            confidence_interval(0.0, 50, 0.99, method="bayes")

    def test_pluggable_method(self):
        from cvbench.stats import CI_METHODS, CorrelationEstimate

        CI_METHODS["fixed-width"] = lambda c, n, level: CorrelationEstimate(
            c, n, max(-1.0, c - 0.1), min(1.0, c + 0.1), level
        )
        try:
            est = confidence_interval(0.2, 50, 0.99, method="fixed-width")
            assert (est.ci_low, est.ci_high) == (pytest.approx(0.1), pytest.approx(0.3))
        finally:
            del CI_METHODS["fixed-width"]

    def test_estimate_invariant_enforced(self):
        from cvbench.stats import CorrelationEstimate

        with pytest.raises(ValueError):
            CorrelationEstimate(0.5, 50, 0.6, 0.9, 0.99)
        with pytest.raises(ValueError):
            CorrelationEstimate(0.5, 50, 0.1, 1.2, 0.99)

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
            est = confidence_interval(corr_coeff(x, y), 50, 0.99)
            hits += est.ci_low <= true_c <= est.ci_high
        assert hits / runs >= 0.97


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
        # splitting a squeezed source makes <a a> nonzero; the prediction must
        # still be a valid correlation
        pair = prepare_discordant_pair(SingleModeSpec(2.0, 0.8), 0.5)
        c = cm_to_intensity_corr(pair, 0, 1)
        assert 0.0 < c <= 1.0

    def test_monte_carlo_agreement(self):
        frames = 2 * 10**4
        batch = run_bench(BenchConfig(modes=64, frames=frames, seed=211, tau_mix=0.3))
        protocol = ThreeModeProtocol(SingleModeSpec(1.0), SingleModeSpec(2.0), 0.5, 0.3)
        _, out = run_three_mode(protocol)
        for i, j in ((0, 2), (1, 2)):
            c_mc = corr_coeff(batch.out_series(i), batch.out_series(j))
            c_cm = cm_to_intensity_corr(out, i, j)
            se = (1.0 - c_cm**2) / math.sqrt(frames - 3)
            assert abs(c_mc - c_cm) <= 3.0 * se
