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
member by member and refines all members in lockstep. The two share one
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
#: refinement steps within which the oracle's step must fall below 1e-13
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


def _conditional_entropies(a, b, c, q_vals, phi_vals) -> np.ndarray:
    """Post-measurement entropy of mode A on a (q, phi) measurement grid.

    The measurement squeezing is parametrized as s = 1/q with q in [0, 1] so
    the domain is compact; q = 1 is the heterodyne, q = 0 the exact homodyne
    limit along v = (-sin phi, cos phi). The conditional CM is the Schur
    complement a - c (b + m)^-1 c^T with m = R(phi) diag(1/q, q) R(phi)^T;
    the inverse is evaluated in the measurement eigenframe with numerator and
    denominator scaled by q, so every entry is polynomial in q and no
    cancellation occurs even at q = 0. Only the determinant of the
    conditional CM matters for the entropy.

    Broadcasts over leading member axes: blocks (..., 2, 2) and grids
    (..., n_q) and (..., n_phi) give entropies (..., n_q, n_phi), and every
    entry is computed as it would be for its member alone.
    """
    q = np.asarray(q_vals, dtype=float)[..., :, None]
    phi = np.asarray(phi_vals, dtype=float)[..., None, :]
    cos = np.cos(phi)
    sin = np.sin(phi)

    def entry(m, i, j):
        return m[..., i, j, None, None]

    # b in the (u, v) frame of the measurement, u = (cos, sin). Shared
    # products are formed once, in the order the written-out formulas use;
    # doubling is exact, so 2 (cos sin) equals (2 cos) sin
    b00, b01, b11 = entry(b, 0, 0), entry(b, 0, 1), entry(b, 1, 1)
    cc, ss, cs = cos * cos, sin * sin, cos * sin
    cross = 2.0 * cs * b01
    b_uu = cc * b00 + cross + ss * b11
    b_vv = ss * b00 - cross + cc * b11
    b_uv = cs * (b11 - b00) + (cc - ss) * b01
    # q-scaled inverse of (b + m) in the (u, v) frame
    row_u = 1.0 + q * b_uu
    row_v = b_vv + q
    q_uv = q * b_uv
    det_q = row_u * row_v - q_uv * b_uv
    i_uu = q * row_v / det_q
    i_vv = row_u / det_q
    i_uv = -q_uv / det_q
    # g = c R rotates the coupling block into the same frame
    c00, c01, c10, c11 = entry(c, 0, 0), entry(c, 0, 1), entry(c, 1, 0), entry(c, 1, 1)
    g11 = c00 * cos + c01 * sin
    g12 = -c00 * sin + c01 * cos
    g21 = c10 * cos + c11 * sin
    g22 = -c10 * sin + c11 * cos
    w11 = g11 * g11 * i_uu + 2.0 * g11 * g12 * i_uv + g12 * g12 * i_vv
    w12 = g11 * g21 * i_uu + (g11 * g22 + g12 * g21) * i_uv + g12 * g22 * i_vv
    w22 = g21 * g21 * i_uu + 2.0 * g21 * g22 * i_uv + g22 * g22 * i_vv
    e11 = entry(a, 0, 0) - w11
    e12 = entry(a, 0, 1) - w12
    e22 = entry(a, 1, 1) - w22
    det_eps = np.maximum(e11 * e22 - e12 * e12, 1.0)
    return _h_vec(np.sqrt(det_eps))


def discord_oracle(state: GaussianState) -> DiscordResult:
    """Brute-force Gaussian discord, measured on the second mode: scan, then refine locally.

    Scans the compact measurement domain q = 1/s in [0, 1] (q = 0 being the
    exact homodyne limit, q = 1 the heterodyne) crossed with angles phi in
    [0, pi), then shrinks a local grid around the best point. The result is
    an upper bound that converges to the closed form. Fully deterministic:
    fixed enumeration order, and a tie goes to the smaller s, then the
    smaller phi, so refinement starts from one fixed point of the scan. The
    result records the refinement steps taken and whether the step fell
    below 1e-13 within ``_ORACLE_STEPS`` of them; non-convergence is also
    reported as one warning carrying the best value found.

    A batched state is refined in lockstep, one ``_conditional_entropies``
    call per step for every member until all have settled; the scan runs
    member by member, so its grid is held for one member at a time. Each
    member keeps its own best point, steps, stop and iteration count, so its
    value, ``iterations`` and ``converged`` equal those of a call on that
    member alone, bit for bit.
    """
    blocks, _, fixed = _discord_terms(state)
    fixed = np.reshape(fixed, -1)
    a_blk, b_blk, c_blk = (blk.reshape(-1, 2, 2) for blk in blocks)
    members = len(a_blk)

    n_q, n_phi = _ORACLE_GRID
    q_vals = np.linspace(1.0, 0.0, n_q)  # descending so ties pick the smaller s
    phi_vals = np.linspace(0.0, math.pi, n_phi, endpoint=False)
    q, phi, val = np.empty((3, members))  # each member's best point and value
    for m in range(members):
        values = _conditional_entropies(a_blk[m], b_blk[m], c_blk[m], q_vals, phi_vals)
        flat = int(np.argmin(values))  # first occurrence: smallest s, then smallest phi
        q[m] = q_vals[flat // n_phi]
        phi[m] = phi_vals[flat % n_phi]
        val[m] = values.flat[flat]

    # pattern search: walk at a fixed step while improving (valleys can be
    # long), shrink only when the 9x9 neighborhood offers no improvement.
    # Both steps halve together, so each member carries one power-of-two
    # scale; scaling the offsets by it is exact, as rescaling the end points
    # of a linspace would be
    steps = (1.0 / (n_q - 1), math.pi / n_phi)
    q_offsets = np.linspace(steps[0], -steps[0], 9)
    phi_offsets = np.linspace(-steps[1], steps[1], 9)
    rim = np.pad(np.zeros((7, 7), dtype=bool), 1, constant_values=True).ravel()
    iterations = np.full(members, _ORACLE_STEPS)
    converged = np.zeros(members, dtype=bool)
    # every member steps until all have settled; a settled member keeps its
    # point, scale and step count
    rows, scale = np.arange(members), np.ones(members)
    for step in range(_ORACLE_STEPS):
        settled = max(steps) * scale < 1e-13
        iterations[settled & ~converged] = step
        converged = settled
        if converged.all():
            break
        q_loc = np.clip(q[:, None] + scale[:, None] * q_offsets, 0.0, 1.0)
        phi_loc = phi[:, None] + scale[:, None] * phi_offsets
        local = _conditional_entropies(a_blk, b_blk, c_blk, q_loc, phi_loc).reshape(members, 81)
        flat = np.argmin(local, axis=-1)  # first occurrence, as in the scan
        candidate = local[rows, flat]
        improved = (candidate < val) & ~converged
        val = np.where(improved, candidate, val)
        q = np.where(improved, q_loc[rows, flat // 9], q)
        phi = np.where(improved, phi_loc[rows, flat % 9], phi)
        # an improvement on the rim of the neighborhood walks on; all else shrinks
        scale = np.where(improved & rim[flat] | converged, scale, 0.5 * scale)
    shape = state.batch_shape
    if not converged.all():
        i = int(np.argmin(converged))  # the first member still refining
        message = (
            f"discord oracle did not settle (steps {steps[0] * scale[i]:g}, "
            f"{steps[1] * scale[i]:g}); best value {fixed[i] + val[i]:.9g}"
        )
        unsettled = ~converged.reshape(shape)
        warnings.warn(member_error(RuntimeWarning, message, unsettled), stacklevel=2)

    value = _clamped((fixed + val).reshape(shape), "oracle discord")
    return DiscordResult(value, iterations.reshape(shape)[()], converged.reshape(shape)[()])
