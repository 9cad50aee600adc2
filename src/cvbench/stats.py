"""Correlation estimation with confidence intervals, and CM-level predictions.

``corr_coeff`` is the frame-averaged second-order correlation coefficient of
two intensity series. ``cm_to_intensity_corr`` predicts the same quantity
analytically from a covariance matrix, which the Monte Carlo tests use as a
cross-module oracle; it takes batched states too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .states import GaussianState, _at_member, _pow

__all__ = [
    "CorrelationEstimate",
    "corr_coeff",
    "confidence_interval",
    "cm_to_intensity_corr",
]


@dataclass(frozen=True)
class CorrelationEstimate:
    """Estimated correlation with its confidence interval, all within [-1, 1]."""

    c: float
    n_frames: int
    ci_low: float
    ci_high: float
    level: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.ci_low <= self.c <= self.ci_high <= 1.0:
            raise ValueError(
                f"interval [{self.ci_low}, {self.ci_high}] must contain c={self.c} "
                "and stay within [-1, 1]"
            )


def _centred(x: np.ndarray) -> np.ndarray:
    # corrected two-pass centring (Chan, Golub & LeVeque 1983): subtracting the
    # residual mean of the first pass removes the first pass's rounding error
    d = x - np.sum(x) / x.size
    d -= np.sum(d) / x.size
    return d


def corr_coeff(series_h, series_k) -> float:
    """Pearson correlation of two equal-length frame series, clamped to [-1, 1].

    Both series are centred by the corrected two-pass algorithm, and the
    centred sums of squares and products are numpy pairwise sums. On 1e6-frame
    Gamma series with mean offsets up to 1e8 the result agrees with an
    error-free ``math.fsum`` reduction to within 1e-12 (tested). A series
    holding NaN or inf, or one whose sums overflow, raises ``ValueError``
    rather than returning a clamped value; the check reads the three scalar
    sums, so finite input costs no extra pass. Finite sums give a finite
    result, since |cov| <= sqrt(var_h var_k).
    """
    h = np.asarray(series_h, dtype=float)
    k = np.asarray(series_k, dtype=float)
    if h.ndim != 1 or h.shape != k.shape:
        raise ValueError("series must be one-dimensional and of equal length")
    if h.size < 2:
        raise ValueError("need at least two frames")
    # non-finite sums are reported below, so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        # at most two full-length temporaries: the products reuse dh's buffer
        dh = _centred(h)
        var_h = float(np.sum(dh * dh))
        dk = _centred(k)
        dh *= dk
        cov = float(np.sum(dh))
        var_k = float(np.sum(np.multiply(dk, dk, out=dh)))
    if not (math.isfinite(var_h) and math.isfinite(cov) and math.isfinite(var_k)):
        raise ValueError("correlation undefined: a series is not finite or its sums overflow")
    if var_h <= 0.0 or var_k <= 0.0:
        raise ValueError("correlation undefined: a series has zero variance")
    norm = math.sqrt(var_h * var_k)
    if not 0.0 < norm < math.inf:
        # the product over- or underflows where neither variance does
        norm = math.sqrt(var_h) * math.sqrt(var_k)
    c = cov / norm
    return min(1.0, max(-1.0, c))


def _fisher_z_interval(c: float, n_frames: int, level: float) -> CorrelationEstimate:
    if 1.0 - abs(c) <= 1e-15:
        return CorrelationEstimate(c, n_frames, c, c, level)
    z_crit = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z_crit / math.sqrt(n_frames - 3.0)
    z = math.atanh(c)
    lo = max(-1.0, math.tanh(z - half))
    hi = min(1.0, math.tanh(z + half))
    return CorrelationEstimate(c, n_frames, lo, hi, level)


#: interval constructions by name; register here to plug in another method
CI_METHODS = {"fisher-z": _fisher_z_interval}


def confidence_interval(
    c: float, n_frames: int, level: float = 0.99, method: str = "fisher-z"
) -> CorrelationEstimate:
    """Confidence interval for a correlation, clamped to [-1, 1].

    The default is the Fisher z-transform interval; |c| = 1 gives the
    degenerate interval [c, c], and the width shrinks like 1/sqrt(n_frames).
    Alternative constructions (e.g. a bounded-Bayesian one) can be registered
    in ``CI_METHODS``.
    """
    if not -1.0 <= c <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {c!r}")
    if n_frames < 4:
        raise ValueError(f"need at least 4 frames, got {n_frames!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level!r}")
    try:
        build = CI_METHODS[method]
    except KeyError:
        raise ValueError(f"unknown CI method {method!r}; registered: {sorted(CI_METHODS)}") from None
    return build(c, n_frames, level)


def _ladder_moments(cm: np.ndarray, h: int, k: int):
    # <a_h^dag a_k> and <a_h a_k> read off the quadrature covariances,
    # a = (x + i p)/sqrt(2), as (real, imaginary) parts; for h == k the
    # commutator shifts the first by 1/2
    xh, ph = 2 * h, 2 * h + 1
    xk, pk = 2 * k, 2 * k + 1
    cross_re = (cm[..., xh, xk] + cm[..., ph, pk]) / 2.0
    cross_im = (cm[..., xh, pk] - cm[..., ph, xk]) / 2.0
    pair_re = (cm[..., xh, xk] - cm[..., ph, pk]) / 2.0
    pair_im = (cm[..., xh, pk] + cm[..., ph, xk]) / 2.0
    if h == k:
        cross_re -= 0.5
    return (cross_re, cross_im), (pair_re, pair_im)


def _abs_sq(z) -> np.ndarray:
    # |z|^2 as the squared modulus, with libm's pow (see states._pow)
    return _pow(np.hypot(*z), 2.0)


def cm_to_intensity_corr(
    state: GaussianState, mode_h: int, mode_k: int, shot_noise: bool = False
) -> float:
    """Intensity correlation coefficient between two modes of a Gaussian state.

    For zero-mean Gaussian fields the intensity covariance is
    |<a_h^dag a_k>|^2 + |<a_h a_k>|^2 and the intensity variance of a mode is
    n^2 + |<a a>|^2, plus a shot term n when ``shot_noise`` is set. The
    default matches analog detection of bright fields (no shot term) and is
    what the speckle bench realizes; the value is independent of how many
    equal-intensity copies of the modes a detector collects. A float for a
    single state, an array over the batch axes for a batched one.
    """
    n_modes = state.n_modes
    if not (0 <= mode_h < n_modes and 0 <= mode_k < n_modes):
        raise IndexError("mode index out of range")
    if mode_h == mode_k:
        raise ValueError("intensity correlation needs two distinct modes")
    cm = state.cm
    (n_h, _), pair_h = _ladder_moments(cm, mode_h, mode_h)
    (n_k, _), pair_k = _ladder_moments(cm, mode_k, mode_k)
    dark = (n_h <= 0.0) | (n_k <= 0.0)
    if dark.any():
        raise ValueError(
            f"intensity correlation undefined for a mode with zero mean photons{_at_member(dark)}"
        )
    cross, pair = _ladder_moments(cm, mode_h, mode_k)
    cov = _abs_sq(cross) + _abs_sq(pair)
    var_h = _pow(n_h, 2.0) + _abs_sq(pair_h)
    var_k = _pow(n_k, 2.0) + _abs_sq(pair_k)
    if shot_noise:
        var_h += n_h
        var_k += n_k
    c = np.clip(cov / np.sqrt(var_h * var_k), -1.0, 1.0)
    return float(c) if c.ndim == 0 else c
