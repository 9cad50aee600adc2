"""Entropic quantities and Gaussian discord for covariance matrices.

All entropies are in nats. Two conventions meet here: the package-wide
vacuum-variance-1/2 CMs, and the vacuum-equals-identity convention in which
the discord literature states its invariants. ``_ordered_blocks`` reads the
blocks with ``mode_block`` and doubles them into the latter, the one place a
CM is rescaled; the entropy term of a symplectic eigenvalue d in the 1/2
convention is ``_h_vec(2 d)`` there.

Every read-out takes batched states (see ``cvbench.states``) and returns its
value as numpy values over the batch shape: arrays for a batch and numpy
scalars, of shape (), for a single state, which is a batch of that shape,
and I alone for ``mutual_information``. No read-out branches on the shape,
so each member of a batch has the bits of its own call. Both discord
read-outs measure the second mode (B), as Adesso and Datta define the
Gaussian discord; the discord measured on the first mode is that of the
swapped state ``partial_trace(state, (1, 0))``. ``discord_oracle`` is the
numerical reference the closed form is tested against: it minimizes the
conditional determinant over the measurements and takes the entropy term of
the minimum. By the Schur determinant identity that determinant is
det A det(S + m) / det(B + m) for a measurement of CM m, where
S = B - C^T A^-1 C is the Schur complement of A in the state's CM. On the
Poincare disk of pure single-mode Gaussian measurements, w = rho e^(2i phi),
it is a ratio of two quadratics in w whose coefficients are set once per
member, and Dinkelbach's method minimizes such a ratio exactly, one closed-form
step at a time, for all members in lockstep. The two share one entropy term,
one evaluation of the measurement-free part of the discord and one clamp of
its rounding, which also clamps the mutual information.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .states import GaussianState, member_error, mode_block, partial_trace, symplectic_eigenvalues

#: symplectic eigenvalues within this distance of the pure limit contribute 0;
#: it absorbs eigensolver rounding at the pure limit, and the entropy it cuts
#: off, below 4e-13, stays under the 1e-12 clamp of the mutual information
PURE_GUARD = 1e-14
#: discord values in [-DISCORD_CLAMP, 0) are clamped to 0; below is an error
DISCORD_CLAMP = 1e-9
#: Dinkelbach steps within which the oracle must stop; measured states take at most 10
_ORACLE_STEPS = 32

__all__ = [
    "DiscordResult",
    "entropy",
    "mutual_information",
    "gaussian_discord",
    "discord_oracle",
]


def entropy(state: GaussianState):
    """Von Neumann entropy in nats over the batch shape; >= 0, and 0 iff the state is pure."""
    return np.sum(_h_vec(2.0 * symplectic_eigenvalues(state)), axis=-1)


def mutual_information(state: GaussianState):
    """Total correlations I = S1 + S2 - S12 of a two-mode state, in nats, over the batch shape.

    Values of I in [-1e-12, 0) are rounding and read as 0; below is an error.
    """
    if state.n_modes != 2:
        raise ValueError(f"mutual information needs a two-mode state, got {state.n_modes} modes")
    s1 = entropy(partial_trace(state, {0}))
    s2 = entropy(partial_trace(state, {1}))
    return _clamped(s1 + s2 - entropy(state), "mutual information", 1e-12)


@dataclass(frozen=True, eq=False)
class DiscordResult:
    """The oracle's discord with its Dinkelbach steps: how many lowered it, and if they stopped.

    ``iterations`` counts the steps that lowered the conditional determinant,
    0 where the heterodyne is optimal; ``converged`` is False where the
    determinant still fell at the step cap. Each field holds numpy values
    over the batch shape, and each member equals the result of a call on
    that member alone.
    """

    value: float | np.ndarray
    iterations: np.integer | np.ndarray
    converged: np.bool_ | np.ndarray


def _h_vec(x: np.ndarray) -> np.ndarray:
    # entropy term in the vacuum-=-identity convention; h(1) = 0, h(2 d) = f(d).
    # NaN compares False with the guard, so it would read as a pure mode
    if not np.isfinite(x).all():
        raise ArithmeticError("entropy of a symplectic eigenvalue that is not finite")
    y = (x - 1.0) / 2.0
    safe = y > PURE_GUARD
    yp = np.where(safe, y, 1.0)
    # (y + 1) log(y + 1) - y log y as a sum of two positive terms: the
    # difference cancels, to eps y log y of a bright mode and eps / y of a
    # nearly pure one
    return np.where(safe, np.log1p(yp) + yp * np.log1p(1.0 / yp), 0.0)


def _ordered_blocks(state: GaussianState):
    # blocks A, B (measured) and C, doubled into the vacuum-equals-identity convention
    return tuple(2.0 * mode_block(state, i, j) for i, j in ((0, 0), (1, 1), (0, 1)))


def _adjugate(m: np.ndarray) -> np.ndarray:
    adj = np.empty_like(m)
    adj[..., 0, 0] = m[..., 1, 1]
    adj[..., 0, 1] = -m[..., 0, 1]
    adj[..., 1, 0] = -m[..., 1, 0]
    adj[..., 1, 1] = m[..., 0, 0]
    return adj


def _invariants(a_blk, b_blk, c_blk):
    """det A, det B, det C and k = det CM - det A det B of the rescaled CM.

    k comes from the identity det CM = det A det B + det C^2
    - tr(adj B C^T adj A C). It is exactly 0 for a product state and its
    rounding error scales with the correlations, where that of a computed
    det CM - det A det B would scale with det CM. One value per member of
    the (..., 2, 2) block stacks.
    """
    ia, ib, ic = np.linalg.det(np.stack([a_blk, b_blk, c_blk]))
    chain = _adjugate(b_blk) @ np.swapaxes(c_blk, -1, -2) @ _adjugate(a_blk) @ c_blk
    k = ic * ic - (chain[..., 0, 0] + chain[..., 1, 1])
    return ia, ib, ic, k


def _symplectic_pair(ia, ib, ic, k):
    # nu_(+/-)^2 = (delta +/- sqrt(delta^2 - 4 det CM)) / 2, with the radicand
    # regrouped around k; the smaller root is det CM over the larger one, and
    # the larger one is capped at det CM so that nu_minus >= 1 (the pure limit).
    # A det CM that cancels to <= 0 has no eigenvalues: refused before the roots
    delta = ia + ib + 2.0 * ic
    id_ = ia * ib + k
    bad = ~(id_ > 0.0)
    if bad.any():
        raise member_error(ArithmeticError, f"det CM evaluated to {id_[bad][0]:g}", bad)
    radicand = np.square(ia - ib) + 4.0 * ic * (ia + ib + ic) - 4.0 * k
    nu_plus_sq = np.minimum((delta + np.sqrt(np.maximum(radicand, 0.0))) / 2.0, id_)
    return np.sqrt(id_ / nu_plus_sq), np.sqrt(nu_plus_sq)


def _minimal_conditional_det(ia, ib, ic, k):
    """Minimal conditional determinant over Gaussian measurements on mode B.

    Adesso and Datta's minimum (PRL 105, 030501 (2010)) is piecewise in the
    symplectic invariants. Its second expression, E_hom, is the conditional
    determinant of the best homodyne measurement, the rim minimum of the
    oracle's disk objective: a real measurement reaches it for every state,
    so it bounds the minimum everywhere. The first, E_int, is the interior
    (general-dyne) optimum; it holds only inside its branch,
    k^2 <= (1 + det B) det C^2 (det A + det CM), and outside it can fall below
    the minimum. So the minimum is the lesser of E_hom and, inside its branch,
    E_int. A near-pure measured mode ((det B - 1)^2 <= 1e-12) takes E_hom
    alone, which has no (det B - 1) denominator. Returns the determinant over
    the members, at least 1 (its pure limit).
    """
    id_ = ia * ib + k
    ic_sq = ic * ic
    denom = np.square(ib - 1.0)
    interior = (denom > 1e-12) & (k * k <= (1.0 + ib) * ic_sq * (ia + id_))
    # (det B - 1)(det CM - det A) with det CM - det A = det A (det B - 1) + k
    w = (ib - 1.0) * (ia * (ib - 1.0) + k)
    with np.errstate(divide="ignore", invalid="ignore"):
        e_int = (2.0 * ic_sq + w + 2.0 * np.abs(ic) * np.sqrt(np.maximum(ic_sq + w, 0.0))) / denom
    inner = np.maximum(ic_sq * ic_sq + k * k - 2.0 * ic_sq * (id_ + ia * ib), 0.0)
    e_hom = (ia * ib - ic_sq + id_ - np.sqrt(inner)) / (2.0 * ib)
    return np.maximum(np.minimum(np.where(interior, e_int, np.inf), e_hom), 1.0)


def _discord_terms(state: GaussianState):
    """Ordered blocks, invariants and h(sqrt det B) - h(nu-) - h(nu+) of a two-mode state.

    The part of the discord that no measurement changes, shared by the closed
    form and the oracle; each adds the conditional entropy of its minimum.
    """
    if state.n_modes != 2:
        raise ValueError(f"discord needs a two-mode state, got {state.n_modes} modes")
    blocks = _ordered_blocks(state)
    invariants = _invariants(*blocks)
    h = _h_vec(np.stack([np.sqrt(invariants[1]), *_symplectic_pair(*invariants)]))
    return blocks, invariants, h[0] - h[1] - h[2]


def _clamped(value: np.ndarray, what: str, bound: float = DISCORD_CLAMP) -> np.ndarray:
    # values in [-bound, 0) are rounding and read as 0; below is an error. A
    # value of shape () comes back as a numpy scalar, any other as an array
    negative = value < -bound
    if negative.any():
        raise member_error(ArithmeticError, f"{what} evaluated to {value[negative][0]:g}", negative)
    return np.where(value < 0.0, 0.0, value)[()]


def gaussian_discord(state: GaussianState):
    """Gaussian discord of a two-mode state with the measurement on its second mode.

    Closed form in the symplectic invariants (det A, det B, det C, det CM) of
    the rescaled CM with the piecewise minimal conditional determinant; zero
    exactly for product states, and strictly positive otherwise. Values in
    [-1e-9, 0) are clamped to 0. Returns the value over the batch shape, in
    one stacked evaluation; each member equals the discord of that member
    alone.

    The invariants cancel at scale N^4 for N photons per mode, so the absolute
    error grows as N^2 times machine epsilon: on split thermal pairs it is
    below 1e-6 nats up to N = 1e4 and reaches 2.5e-4 at 1e6 and 2.3e-2 at 1e7.
    """
    blocks, invariants, fixed = _discord_terms(state)
    e_min = _minimal_conditional_det(*invariants)
    # a product state has no discord
    product = ~blocks[2].any(axis=(-2, -1))
    return _clamped(np.where(product, 0.0, fixed + _h_vec(np.sqrt(e_min))), "discord")


def _objective_coefficients(a, b, c):
    """Coefficients of the oracle's objective, set once per member before its steps.

    The oracle measures mode B with m = R(phi) diag(1/q, q) R(phi)^T, and its
    objective is the determinant of the conditional CM of mode A. Applied to
    the CM plus 0 (+) m, the Schur determinant identity gives

        det(a - c (b + m)^-1 c^T) = det a det(S + m) / det(b + m),

    where S = b - c^T a^-1 c is the Schur complement of a in the CM. For
    X in {S, b}, q det(X + m) = X_vv + q (det X + 1) + q^2 X_uu in the frame
    u = (cos phi, sin phi), v = (-sin phi, cos phi), and X_uu, X_vv = h +/- t
    with t = d cos 2phi + o sin 2phi, h = (X00 + X11)/2, d = (X00 - X11)/2 and
    o = X01. Returns (h, d, o, det X + 1) of shape (..., 2, 4): the row of S
    times det a, then the row of b.
    """
    a00, a01, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 1]
    b00, b01, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 1]
    c00, c01, c10, c11 = c[..., 0, 0], c[..., 0, 1], c[..., 1, 0], c[..., 1, 1]
    det_a = a00 * a11 - a01 * a01
    # g = adj(a) c, so that c^T a^-1 c = c^T g / det a; each entry stacks S, b
    g00, g01 = a11 * c00 - a01 * c10, a11 * c01 - a01 * c11
    g10, g11 = a00 * c10 - a01 * c00, a00 * c11 - a01 * c01
    x00 = np.stack([b00 - (c00 * g00 + c10 * g10) / det_a, b00], axis=-1)
    x01 = np.stack([b01 - (c00 * g01 + c10 * g11) / det_a, b01], axis=-1)
    x11 = np.stack([b11 - (c01 * g01 + c11 * g11) / det_a, b11], axis=-1)
    coeffs = np.stack(
        [(x00 + x11) / 2.0, (x00 - x11) / 2.0, x01, x00 * x11 - x01 * x01 + 1.0], axis=-1
    )
    coeffs[..., 0, :] *= det_a[..., None]
    return coeffs


def _conditional_dets(coeffs, x, y) -> np.ndarray:
    """Post-measurement determinant of mode A for the measurement at w = x + iy on the disk.

    w = rho e^(2i phi) with rho = (1 - q)/(1 + q) maps the measurement
    m = R(phi) diag(1/q, q) R(phi)^T onto the closed unit disk: w = 0 is the
    heterodyne, and the rim holds the homodynes along v = (-sin phi, cos phi).
    The determinant of the conditional CM a - c (b + m)^-1 c^T is
    det a det(S + m) / det(b + m), with S the Schur complement b - c^T a^-1 c
    of a in the CM; ``coeffs`` holds the coefficients (h, d, o, e) of both
    factors (see ``_objective_coefficients``). Scaled by q (1 + rho)^2, each
    factor is the quadratic (2h - e)|w|^2 - 4(d x + o y) + (2h + e), also on
    the rim. It equals 2h (1 - rho)^2 + 4 rho (h - t) + e (1 - rho^2) with
    |t| < h, so it is positive on the disk, S and b being positive definite.
    Taking S's coefficients from S itself keeps the numerator's rounding at
    the scale of the problem; formed as det a det(b + m) less the terms of
    c^T adj(a) c, it would cancel at scale N^2 for N photons. Only the
    determinant of the conditional CM matters for the entropy, h(sqrt det),
    which increases with it, so the oracle compares determinants.

    Broadcasts over leading member axes: coefficients (..., 2, 4) and points
    (...) give determinants (...), and every entry is computed as it would
    be for its member alone.
    """
    h, d, o, e = np.moveaxis(coeffs, -1, 0)
    x, y = np.asarray(x, dtype=float)[..., None], np.asarray(y, dtype=float)[..., None]
    quad = (2.0 * h - e) * (x * x + y * y) - 4.0 * (d * x + o * y) + (2.0 * h + e)
    dets = quad[..., 0] / quad[..., 1]
    # NaN compares False with every candidate, so it would be skipped unseen
    if not np.isfinite(dets).all():
        raise ArithmeticError("conditional determinant that is not finite")
    return dets


def discord_oracle(state: GaussianState) -> DiscordResult:
    """Numerical Gaussian discord, measured on the second mode, by Dinkelbach's method.

    Minimizes the conditional determinant N(w)/D(w), which orders the
    measurements as their entropies do, over the closed disk of pure
    single-mode Gaussian measurements (see ``_conditional_dets``; Arvind,
    Dutta, Mukunda & Simon, Pramana 45, 471 (1995)). D > 0 on the whole disk,
    B being positive definite, so Dinkelbach's method for fractional programs
    (W. Dinkelbach, Management Science 13, 492 (1967)) finds the global
    minimum with no scan. It starts at the heterodyne, w = 0, and repeats one
    step: set lambda = N(w)/D(w), then move w to the exact minimum of
    N - lambda D on the disk. That quadratic's |w|^2 coefficient a is the same
    in every direction, so its minimum is the stationary point 2b/a when
    a > 0 and that lies inside the disk, and otherwise the rim point along
    its linear coefficient b (w = 1 where b = 0 and every rim point ties).
    The minimum is at most 0, so lambda never rises, and the method stops as
    soon as it no longer falls. The entropy term is taken once, of each
    member's last lambda. The value is the discord of one measurement, so it
    bounds the closed form from above, and the oracle uses neither
    ``_invariants`` nor ``_minimal_conditional_det``. The result records the
    steps in which lambda fell and whether the method stopped within
    ``_ORACLE_STEPS`` of them; non-convergence is also reported as one
    warning carrying the best value found.

    A batched state is solved in lockstep, one ``_conditional_dets`` call per
    step for every member until all have stopped; a stopped member keeps its
    lambda and step count, so its value, ``iterations`` and ``converged``
    equal those of a call on that member alone, bit for bit.
    """
    blocks, _, fixed = _discord_terms(state)
    fixed = np.reshape(fixed, -1)
    coeffs = _objective_coefficients(*(blk.reshape(-1, 2, 2) for blk in blocks))
    h, d, o, e = np.moveaxis(coeffs, -1, 0)  # (members, 2): numerator, denominator
    curv = 2.0 * h - e  # the |w|^2 coefficients

    lam = _conditional_dets(coeffs, 0.0, 0.0)  # at the heterodyne
    iterations = np.zeros(len(coeffs), dtype=int)
    falling = np.ones(len(coeffs), dtype=bool)
    for _ in range(_ORACLE_STEPS):
        # N - lam D = a |w|^2 - 4 (bx x + by y) + const
        a = curv[:, 0] - lam * curv[:, 1]
        bx, by = d[:, 0] - lam * d[:, 1], o[:, 0] - lam * o[:, 1]
        r = np.sqrt(bx * bx + by * by)
        on_rim = ~(2.0 * r < a)
        tie = on_rim & (r == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(on_rim, 1.0 / r, 2.0 / a)
            x = np.where(tie, 1.0, scale * bx)
            y = np.where(tie, 0.0, scale * by)
        new = _conditional_dets(coeffs, x, y)
        falling &= new < lam
        lam = np.where(falling, new, lam)
        iterations += falling
        if not falling.any():
            break
    converged = ~falling

    best = fixed + _h_vec(np.sqrt(np.maximum(lam, 1.0)))
    shape = state.batch_shape
    if not converged.all():
        i = int(np.argmin(converged))  # the first member still descending
        message = (
            f"discord oracle did not settle in {_ORACLE_STEPS} steps; best value {best[i]:.9g}"
        )
        unsettled = ~converged.reshape(shape)
        warnings.warn(member_error(RuntimeWarning, message, unsettled), stacklevel=2)

    value = _clamped(best.reshape(shape), "oracle discord")
    return DiscordResult(value, iterations.reshape(shape)[()], converged.reshape(shape)[()])
