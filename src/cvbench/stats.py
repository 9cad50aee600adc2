"""Correlation estimation with confidence intervals, and CM-level predictions.

``corr_coeff`` is the frame-averaged second-order correlation coefficient of
two intensity series, and ``confidence_interval`` its Fisher z-transform
interval as the pair (low, high); no other interval is built. Every
estimated correlation comes from one kernel: ``comoments`` reduces k series,
given as a stream of fixed-size blocks, to their (k, k) centred sums of
products in one pass, and ``comoment_corr`` reads the correlation of any two
linear combinations of the series off those sums, through one set of guards
(non-finite sums, zero variance, a norm that over- or underflows).
``corr_coeff`` is its two-series case, and ``speckle.FrameBatch.corr`` reads
every bench correlation off the sums of the five record columns, which
``speckle.run_bench`` scales from the sums of the rows it draws and streams
through it. ``cm_to_intensity_corr`` predicts the same quantity analytically
from a covariance matrix, which the Monte Carlo tests use as a cross-module
oracle; like the read-outs of ``cvbench.info`` it returns numpy values over
the state's batch shape, a numpy scalar for a single state. It reads
everything off the detected pair's marginal, and its analog coefficient
refuses every pair whose Glauber P-function is negative, by that marginal's
CM.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .states import GaussianState, _p_negative, member_error, partial_trace

__all__ = [
    "comoments",
    "comoment_corr",
    "corr_coeff",
    "confidence_interval",
    "cm_to_intensity_corr",
]


#: frames per block of ``comoments``' callers: a block of k series is at most
#: (k, _BLOCK_FRAMES), so no caller's scratch grows with the series
_BLOCK_FRAMES = 8192


def comoments(blocks) -> np.ndarray:
    """(k, k) centred sums of products of k series, from their consecutive (k, b) blocks.

    ``blocks`` yields each block once, in order: k one-dimensional slices of
    equal length, a (k, b) array or a tuple of k arrays, of at most
    ``_BLOCK_FRAMES`` frames for bounded scratch. Entry (i, j) is
    sum_t (x_i[t] - mean_i)(x_j[t] - mean_j), in a single pass by the
    shifted-data form of the corrected two-pass algorithm (Chan, Golub &
    LeVeque 1983): every block is centred on the first block's means (numpy
    pairwise sums) into one buffer, whose sums of products (``np.einsum``, no
    BLAS; the upper triangle, mirrored at the end) and sums accumulate over
    the blocks; subtracting s_i s_j / n at the end, s_i being the sum of the
    shifted values, moves the sums from the shift to the means and removes
    the rounding error of the shift. A block is read before the next is
    asked for, so a caller can refill one buffer. No full-length temporary
    is made. Non-finite input, or sums that overflow, give non-finite
    entries without a warning; ``comoment_corr`` reports them. Fewer than
    two frames in all, or a block that is not k one-dimensional slices,
    raise ``ValueError``.
    """
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            if np.ndim(block[0]) != 1:
                raise ValueError("a block must hold one-dimensional slices of the series")
            width = block[0].size
            if not n:
                shift = [np.sum(x) / width for x in block]
                buffer = np.empty((len(block), width))
                products = np.zeros((len(block), len(block)))
                residuals = np.zeros(len(block))
            elif width > buffer.shape[1]:
                buffer = np.empty((len(block), width))
            centred = buffer[:, :width]
            for x, mean, row in zip(block, shift, centred):
                np.subtract(x, mean, out=row)
            for i, row in enumerate(centred):
                products[i, i:] += np.einsum("t,jt->j", row, centred[i:])
            residuals += centred.sum(axis=1)
            n += width
        if n < 2:
            raise ValueError("need at least two frames")
        products += np.triu(products, 1).T  # the lower triangle was never written
        return products - np.multiply.outer(residuals, residuals) / n


def comoment_corr(sums: np.ndarray, h: np.ndarray, k: np.ndarray) -> float:
    """Pearson correlation of the combinations h.x and k.x of series x, from their ``comoments``.

    ``h`` and ``k`` weight the k series; a unit vector picks one series
    alone, and its variance is the diagonal entry exactly. A series holding
    NaN or inf, or one whose sums overflow, raises ``ValueError`` rather than
    returning a clamped value, as does a combination of zero variance.
    Finite sums give a finite result, since |cov| <= sqrt(var_h var_k); it is
    clamped to [-1, 1].
    """
    # only the series either weighting reads: a sum of the others cannot spoil the result
    used = np.flatnonzero((h != 0.0) | (k != 0.0))
    weights = np.stack((h[used], k[used]))
    # non-finite sums are reported below, so numpy need not warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        forms = np.einsum("ai,ij,bj->ab", weights, sums[np.ix_(used, used)], weights)
    (var_h, cov), (_, var_k) = forms.tolist()
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


def corr_coeff(series_h, series_k) -> float:
    """Pearson correlation of two equal-length frame series, clamped to [-1, 1].

    The two-series case of ``comoments`` and ``comoment_corr``. On 1e6-frame
    Gamma series with mean offsets up to 1e12 the result agrees with the
    corrected two-pass formula reduced by ``math.fsum`` to within 1e-12
    (tested); without the correction the gap at 1e12 is up to 2e-9. A series
    holding NaN or inf, or one whose sums overflow, raises ``ValueError``
    rather than returning a clamped value; the check reads the three scalar
    sums, so finite input costs no extra pass.
    """
    h = np.asarray(series_h, dtype=float)
    k = np.asarray(series_k, dtype=float)
    if h.ndim != 1 or h.shape != k.shape:
        raise ValueError("series must be one-dimensional and of equal length")
    starts = range(0, h.size, _BLOCK_FRAMES)
    blocks = ((h[t : t + _BLOCK_FRAMES], k[t : t + _BLOCK_FRAMES]) for t in starts)
    return comoment_corr(comoments(blocks), np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def confidence_interval(c: float, n_frames: int, level: float = 0.99) -> tuple[float, float]:
    """Fisher z-transform confidence interval (low, high) of a correlation, clamped to [-1, 1].

    |c| = 1 gives the degenerate interval (c, c), and the width shrinks like
    1/sqrt(n_frames).
    """
    if not -1.0 <= c <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {c!r}")
    if n_frames < 4:
        raise ValueError(f"need at least 4 frames, got {n_frames!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level!r}")
    if 1.0 - abs(c) <= 1e-15:
        return c, c
    z_crit = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z_crit / math.sqrt(n_frames - 3.0)
    z = math.atanh(c)
    return max(-1.0, math.tanh(z - half)), min(1.0, math.tanh(z + half))


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
    # |z|^2 as the squared modulus
    return np.square(np.hypot(*z))


def cm_to_intensity_corr(
    state: GaussianState, mode_h: int, mode_k: int, shot_noise: bool = False
):
    """Intensity correlation coefficient between two modes of a Gaussian state.

    For zero-mean Gaussian fields the intensity covariance is
    |<a_h^dag a_k>|^2 + |<a_h a_k>|^2 and the intensity variance of a mode is
    n^2 + |<a a>|^2, plus a shot term n when ``shot_noise`` is set. The
    default matches analog detection of bright fields (no shot term) and is
    what the speckle bench realizes; the value is independent of how many
    equal-intensity copies of the modes a detector collects. Returns the
    coefficient over the batch shape, each member with the bits of its own call.
    Everything is read off the detected pair's marginal,
    ``partial_trace(state, (mode_h, mode_k))``, which refuses a mode out of
    range (``IndexError``) or named twice (``ValueError``).

    The analog model is normally ordered, so it describes classical fields,
    those with a non-negative Glauber P-function, for which the coefficient
    is a Pearson correlation of two intensities and at most 1. A pair whose
    P-function is negative, by the CM gate ``states._p_negative``, raises
    ``ValueError`` naming its first such member, whatever value it would
    give; the clamp to [-1, 1] absorbs the rounding of the rest.
    """
    detected = partial_trace(state, (mode_h, mode_k))
    cm = detected.cm
    (n_h, _), pair_h = _ladder_moments(cm, 0, 0)
    (n_k, _), pair_k = _ladder_moments(cm, 1, 1)
    dark = (n_h <= 0.0) | (n_k <= 0.0)
    if dark.any():
        raise member_error(
            ValueError, "intensity correlation undefined for a mode with zero mean photons", dark
        )
    if not shot_noise:
        negative_p = _p_negative(detected)
        if negative_p.any():
            raise member_error(
                ValueError,
                "analog intensity correlation undefined: the detected pair's Glauber "
                "P-function is negative, which analog detection cannot represent",
                negative_p,
            )
    cross, pair = _ladder_moments(cm, 0, 1)
    cov = _abs_sq(cross) + _abs_sq(pair)
    var_h = np.square(n_h) + _abs_sq(pair_h)
    var_k = np.square(n_k) + _abs_sq(pair_k)
    if shot_noise:
        var_h += n_h
        var_k += n_k
    c = cov / np.sqrt(var_h * var_k)
    return np.clip(c, -1.0, 1.0)
