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
brute-force reference the closed form is tested against: it scans a batch
member by member and refines all members in lockstep, on the conditional
determinant, and takes the entropy term of the best one. By the Schur
determinant identity that determinant is det A det(S + m) / det(B + m) for a
measurement of CM m, where S = B - C^T A^-1 C is the Schur complement of A in
the state's CM: a ratio of two quadratics in the measurement's q = 1/s whose
coefficients are set once per member, before its scan. The two share one
entropy term, one evaluation of the measurement-free part of the discord and
one clamp of its rounding, which also clamps the mutual information.
"""

from __future__ import annotations

import math
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
#: relative margin within which both branches of the discord formula are taken
_BRANCH_MARGIN = 1e-12
#: the oracle's scan: measurement squeezings q = 1/s by angles phi
_ORACLE_GRID = (64, 64)
#: refinement steps within which the oracle's step must fall below 1e-13; the
#: step shrinks by 8 at a time, so a call without walks settles in 13 of them
_ORACLE_STEPS = 320

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
    """The oracle's discord with its refinement: steps taken and whether they settled.

    Each field holds numpy values over the batch shape, and each member
    equals the result of a call on that member alone.
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
    xp = (x + 1.0) / 2.0
    return np.where(safe, xp * np.log(xp) - yp * np.log(yp), 0.0)


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

    Piecewise in the symplectic invariants. In the first branch the optimum is
    the heterodyne measurement (s = 1); near the branch boundary both
    expressions are evaluated and the smaller one wins. States with a
    near-pure measured mode (det B -> 1) are routed to the second branch,
    whose expression has no (det B - 1) denominator. The margin is relative:
    outside its own branch an expression can fall below the true minimum.

    The branches are masks over the members: both expressions are evaluated
    everywhere and each is used only where its branch applies. Returns the
    determinant, at least 1 (its pure limit).
    """
    id_ = ia * ib + k
    lhs = k * k
    rhs = (1.0 + ib) * ic * ic * (ia + id_)
    margin = _BRANCH_MARGIN * np.maximum(lhs, rhs)
    denom = np.square(ib - 1.0)
    # (det B - 1)(det CM - det A) with det CM - det A = det A (det B - 1) + k
    w = (ib - 1.0) * (ia * (ib - 1.0) + k)
    heterodyne_branch = (denom > 1e-12) & (lhs <= rhs + margin)
    general_branch = (lhs >= rhs - margin) | ~heterodyne_branch
    ic_sq = ic * ic
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.maximum(ic_sq + w, 0.0)
        e_het = (2.0 * ic_sq + w + 2.0 * np.abs(ic) * np.sqrt(inner)) / denom
        inner = np.maximum(ic_sq * ic_sq + k * k - 2.0 * ic_sq * (id_ + ia * ib), 0.0)
        e_gen = (ia * ib - ic_sq + id_ - np.sqrt(inner)) / (2.0 * ib)
    e_het = np.where(heterodyne_branch, e_het, np.inf)
    e_gen = np.where(general_branch, e_gen, np.inf)
    # a tie goes to the heterodyne expression
    return np.maximum(np.where(e_het <= e_gen, e_het, e_gen), 1.0)


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
    """Coefficients of the oracle's objective, set once per member before its scan.

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


def _conditional_dets(coeffs, q_vals, phi_vals) -> np.ndarray:
    """Post-measurement determinant of mode A on a (q, phi) measurement grid.

    The measurement squeezing is parametrized as s = 1/q with q in [0, 1] so
    the domain is compact; q = 1 is the heterodyne, q = 0 the exact homodyne
    limit along v = (-sin phi, cos phi). The determinant of the conditional
    CM a - c (b + m)^-1 c^T is det a det(S + m) / det(b + m), with S the
    Schur complement b - c^T a^-1 c of a in the CM; ``coeffs`` holds the
    coefficients of both factors (see ``_objective_coefficients``).
    Numerator and denominator are scaled by q, so each is a quadratic in q,
    even at q = 0, whose coefficients are linear in cos 2phi and sin 2phi.
    S and b are positive definite, so each quadratic is a sum of positive
    terms; a numerator formed as det a det(b + m) less the terms of
    c^T adj(a) c would cancel at scale N^2 for N photons. Only the
    determinant of the conditional CM matters for the entropy, h(sqrt det),
    which increases with it, so the oracle compares determinants. Returns
    it, at least 1 (its pure limit).

    Broadcasts over leading member axes: coefficients (..., 2, 4) and grids
    (..., n_q) and (..., n_phi) give determinants (..., n_q, n_phi), and
    every entry is computed as it would be for its member alone.
    """
    q = np.asarray(q_vals, dtype=float)[..., None, :, None]
    two_phi = 2.0 * np.asarray(phi_vals, dtype=float)[..., None, None, :]
    h, d, o, e = (coeffs[..., k, None, None] for k in range(4))
    t = d * np.cos(two_phi) + o * np.sin(two_phi)
    # q det(X + m) for X = S (times det a) and X = b, by Horner's rule
    quad = ((h + t) * q + e) * q + (h - t)
    det_eps = np.maximum(quad[..., 0, :, :] / quad[..., 1, :, :], 1.0)
    # NaN compares False with every candidate, so it would be skipped unseen
    if not np.isfinite(det_eps).all():
        raise ArithmeticError("conditional determinant that is not finite")
    return det_eps


def _refine(coeffs, q, phi, val):
    """Pattern search on the conditional determinant from each member's start point.

    ``coeffs`` (members, 2, 4) are the objective's (see
    ``_objective_coefficients``); ``q``, ``phi`` and ``val`` (members,) are
    the start points and their determinants. Walks at a fixed step while
    the best point of a 9x9 neighborhood improves on its rim (valleys can be
    long) and cuts the step by 8 when it is interior. The neighborhood spans
    +/- step at a spacing of step/4, so an interior best point is within
    step/8 of a locally quadratic minimum. The steps start at the scan's grid
    spacing. All members step in lockstep, one ``_conditional_dets`` call
    per step, until all have settled; a settled member keeps its point, scale
    and step count, so each member's result is that of its own call, bit for
    bit. Returns the best determinants, the steps taken, whether the step fell
    below 1e-13 within ``_ORACLE_STEPS`` of them, and the last (q, phi) steps.
    """
    # both steps shrink together by a power of two, so each member carries one
    # power-of-two scale; scaling the offsets by it is exact, as rescaling the
    # end points of a linspace would be
    n_q, n_phi = _ORACLE_GRID
    steps = (1.0 / (n_q - 1), math.pi / n_phi)
    q_offsets = np.linspace(steps[0], -steps[0], 9)
    phi_offsets = np.linspace(-steps[1], steps[1], 9)
    rim = np.pad(np.zeros((7, 7), dtype=bool), 1, constant_values=True).ravel()
    members = len(val)
    iterations = np.full(members, _ORACLE_STEPS)
    converged = np.zeros(members, dtype=bool)
    rows, scale = np.arange(members), np.ones(members)
    for step in range(_ORACLE_STEPS):
        settled = max(steps) * scale < 1e-13
        iterations[settled & ~converged] = step
        converged = settled
        if converged.all():
            break
        q_loc = np.clip(q[:, None] + scale[:, None] * q_offsets, 0.0, 1.0)
        phi_loc = phi[:, None] + scale[:, None] * phi_offsets
        local = _conditional_dets(coeffs, q_loc, phi_loc).reshape(members, 81)
        flat = np.argmin(local, axis=-1)  # first occurrence, as in the scan
        candidate = local[rows, flat]
        improved = (candidate < val) & ~converged
        val = np.where(improved, candidate, val)
        q = np.where(improved, q_loc[rows, flat // 9], q)
        phi = np.where(improved, phi_loc[rows, flat % 9], phi)
        # an improvement on the rim of the neighborhood walks on; all else shrinks
        scale = np.where(improved & rim[flat] | converged, scale, 0.125 * scale)
    return val, iterations, converged, np.multiply.outer(scale, steps)


def discord_oracle(state: GaussianState) -> DiscordResult:
    """Brute-force Gaussian discord, measured on the second mode: scan, then refine locally.

    Scans the compact measurement domain q = 1/s in [0, 1] (q = 0 being the
    exact homodyne limit, q = 1 the heterodyne) crossed with angles phi in
    [0, pi), then refines a 9x9 neighborhood around the best point (see
    ``_refine``): it walks while the best point lies on the rim and
    otherwise cuts the step by 8. Scan and refinement compare conditional
    determinants, which order the measurements as their entropies do. Each
    is det A det(S + m) / det(B + m), with S = B - C^T A^-1 C the Schur
    complement of A in the state's CM, a ratio of two quadratics in q whose
    coefficients are set once per member, before the scan. The entropy term
    is taken once, of each member's best determinant. The result is an upper
    bound that converges to the closed form. Fully deterministic:
    fixed enumeration order, and a tie goes to the smaller s, then the
    smaller phi, so refinement starts from one fixed point of the scan. The
    result records the refinement steps taken and whether the step fell
    below 1e-13 within ``_ORACLE_STEPS`` of them; non-convergence is also
    reported as one warning carrying the best value found.

    A batched state is refined in lockstep, one ``_conditional_dets``
    call per step for every member until all have settled; the scan runs
    member by member, so its grid is held for one member at a time. Each
    member keeps its own best point, steps, stop and iteration count, so its
    value, ``iterations`` and ``converged`` equal those of a call on that
    member alone, bit for bit.
    """
    blocks, _, fixed = _discord_terms(state)
    fixed = np.reshape(fixed, -1)
    coeffs = _objective_coefficients(*(blk.reshape(-1, 2, 2) for blk in blocks))
    members = len(coeffs)

    n_q, n_phi = _ORACLE_GRID
    q_vals = np.linspace(1.0, 0.0, n_q)  # descending so ties pick the smaller s
    phi_vals = np.linspace(0.0, math.pi, n_phi, endpoint=False)
    q, phi, val = np.empty((3, members))  # each member's best point and determinant
    for m in range(members):
        dets = _conditional_dets(coeffs[m], q_vals, phi_vals)
        flat = int(np.argmin(dets))  # first occurrence: smallest s, then smallest phi
        q[m] = q_vals[flat // n_phi]
        phi[m] = phi_vals[flat % n_phi]
        val[m] = dets.flat[flat]

    val, iterations, converged, last_steps = _refine(coeffs, q, phi, val)
    best = fixed + _h_vec(np.sqrt(val))
    shape = state.batch_shape
    if not converged.all():
        i = int(np.argmin(converged))  # the first member still refining
        message = (
            f"discord oracle did not settle (steps {last_steps[i, 0]:g}, "
            f"{last_steps[i, 1]:g}); best value {best[i]:.9g}"
        )
        unsettled = ~converged.reshape(shape)
        warnings.warn(member_error(RuntimeWarning, message, unsettled), stacklevel=2)

    value = _clamped(best.reshape(shape), "oracle discord")
    return DiscordResult(value, iterations.reshape(shape)[()], converged.reshape(shape)[()])
