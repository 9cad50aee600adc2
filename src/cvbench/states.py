"""Covariance-matrix engine for zero-mean Gaussian states.

Conventions, fixed across the package:

* vacuum quadrature variance 1/2 (hbar = 1): the vacuum CM is diag(1/2, 1/2)
* quadratures are interleaved as (x1, p1, x2, p2, ...)
* a state is physical iff every symplectic eigenvalue reaches 1/2, which
  holds exactly when cm + i Omega / 2 is positive semidefinite (Williamson;
  Simon, Mukunda & Dutta, PRA 49, 1567 (1994))

A ``GaussianState`` (or ``SymplecticOp``) may hold a stack of shape
(..., 2n, 2n): every operation here acts on the trailing two axes and
broadcasts over the leading batch axes, so a series of states or operators is
one computation and a single one is a batch of one. All arithmetic is numpy's
ufuncs and stacked linear algebra, which act member by member, so each member
of a batch gets the bits of its own call. States are immutable values; every
operation returns a new ``GaussianState`` and never mutates its inputs, so
everything here is safe to call from any number of threads.

Physicality is checked where a CM enters: ``GaussianState(cm)`` on a CM handed
in, ``single_mode_state`` (and so ``thermal_state``) on the CM of a spec, and
``SymplecticOp`` on its matrix. A CM is accepted at once when
cm + i nu Omega, nu = 1/2 - ``PHYSICALITY_TOL``, is positive definite, which
holds exactly when every symplectic eigenvalue exceeds nu. For one mode,
cm = [[a, b], [b, c]], that is a > 0 and ac - b^2 > nu^2, read off the whole
stack in closed form; for more modes it is one stacked Cholesky factor. Only a
stack that fails is solved member by member, and that solve decides each
refusal: a member is refused when its smallest symplectic eigenvalue lies
below nu, or when it is not positive definite. The spectrum alone cannot see
the latter, since -cm has the spectrum of cm. The closed operations
``tensor``, ``partial_trace``, ``apply_symplectic`` and ``vacuum_state`` map
physical states to physical states (a direct sum, a principal submatrix with
its modes in any order and a congruence by a checked symplectic all keep
every symplectic eigenvalue at or above 1/2), so they build their results
without a second check. ``vacuum_state()`` is the one-mode vacuum;
``tensor([vacuum_state()] * n)`` is that of n modes. Mode order is the one
way to choose modes: ``partial_trace(state, (1, 0))`` swaps a pair.

Classicality is a second, private gate beside physicality: ``_p_negative``
flags a member whose Glauber P-function is negative, read off its CM alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

#: asymmetry accepted before a covariance matrix is rejected, relative to max(1, its largest entry)
SYMMETRY_TOL = 1e-12
#: symplectic eigenvalues may undershoot 1/2 by this much (numerical slack): a CM
#: is accepted when cm + i (1/2 - PHYSICALITY_TOL) Omega is positive definite, or
#: else when it is positive definite and its symplectic spectrum reaches 1/2 - PHYSICALITY_TOL
PHYSICALITY_TOL = 1e-9

VACUUM_VARIANCE = 0.5

__all__ = [
    "PhysicalityError",
    "SymplecticError",
    "SingleModeSpec",
    "GaussianState",
    "SymplecticOp",
    "omega",
    "single_mode_cm",
    "single_mode_state",
    "vacuum_state",
    "thermal_state",
    "tensor",
    "partial_trace",
    "symplectic_eigenvalues",
    "apply_symplectic",
    "mode_block",
    "member_error",
]


def member_error(error: type[Exception], message: str, bad: np.ndarray) -> Exception:
    """``error(message)`` naming the first flagged member of a batch, as " (batch member i)".

    Its index tuple is kept as the error's ``member`` (None for a single state),
    so a caller that knows what the batch axes stand for can name the point.
    """
    member = tuple(int(i) for i in np.argwhere(bad)[0]) if bad.ndim else None
    if member is not None:
        message += f" (batch member {member[0] if len(member) == 1 else member})"
    exc = error(message)
    exc.member = member
    return exc


class PhysicalityError(ValueError):
    """Covariance matrix does not describe a physical Gaussian state."""


class SymplecticError(ValueError):
    """Matrix violates the symplectic condition S Omega S^T = Omega."""


@functools.cache
def omega(n_modes: int) -> np.ndarray:
    """Symplectic form Omega: block-diagonal 2x2 blocks [[0, 1], [-1, 0]].

    Built once per mode count and shared by every caller, so it is read-only.
    """
    w = np.zeros((2 * n_modes, 2 * n_modes))
    x = np.arange(0, 2 * n_modes, 2)
    w[x, x + 1] = 1.0
    w[x + 1, x] = -1.0
    w.flags.writeable = False
    return w


@dataclass(frozen=True, eq=False)
class SingleModeSpec:
    """Photon-number parametrization of a single-mode Gaussian state.

    ``n_tot`` is the total mean photon number of the mode and ``beta`` the
    fraction of it carried by squeezing: beta = 0 is a thermal state, beta = 1
    a squeezed vacuum, and the thermal component always holds
    (1 - beta) * n_tot photons. The squeezed axis is fixed so that the x
    variance is the larger one (no squeezing phase is exposed). Either field
    may be an array; the two broadcast to a batch of modes.
    """

    n_tot: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        # one reduction covers both fields, and NaN and inf fail it
        n_tot = np.asarray(self.n_tot)[()]
        beta = np.asarray(self.beta)[()]
        valid_n = (n_tot >= 0.0) & (n_tot < np.inf)
        if not (valid_n & (beta >= 0.0) & (beta <= 1.0)).all():
            if not valid_n.all():
                raise ValueError(f"n_tot must be finite and >= 0, got {self.n_tot!r}")
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")

    @property
    def n_thermal(self) -> float:
        return ((1.0 - np.asarray(self.beta, float)) * np.asarray(self.n_tot, float))[()]


def single_mode_cm(spec: SingleModeSpec) -> np.ndarray:
    """CM diag(f+, f-) with f+ = 1/2 + N + sqrt(beta N [1 + N (2 - beta)]) and f- = nu^2 / f+.

    nu = 1/2 + (1 - beta) N is the mode's symplectic eigenvalue, and f+ f- = nu^2
    is its purity identity. f- is taken from it as nu (nu / f+) for every
    member, with no subtraction to cancel in a nearly pure, squeezed mode; a
    thermal mode (beta = 0) has nu / f+ = 1 exactly, so f- = f+ bit for bit.
    Shape (..., 2, 2) over the broadcast shape of ``n_tot`` and ``beta``. A
    member so bright that f+ or nu^2 overflows raises ``ValueError`` naming
    its ``n_tot``.
    """
    # [()] turns a 0-d array into a numpy scalar, whose arithmetic is cheaper
    n = np.asarray(spec.n_tot, dtype=float)[()]
    beta = np.asarray(spec.beta, dtype=float)[()]
    # an overflow leaves inf or NaN, which is refused below instead of warned of
    with np.errstate(over="ignore", invalid="ignore"):
        # n >= 0 and 0 <= beta <= 1 (checked by the spec) leave no negative factor
        f_plus = 0.5 + n + np.sqrt(beta * n * (1.0 + n * (2.0 - beta)))
        nu = 0.5 + (1.0 - beta) * n
        f_minus = nu * (nu / f_plus)
        unfit = ~(np.isfinite(f_plus) & np.isfinite(nu * nu))
    if unfit.any():
        n_unfit = np.broadcast_to(n, unfit.shape)[unfit][0]
        raise member_error(ValueError, f"n_tot {n_unfit:g} overflows the covariance matrix", unfit)
    cm = np.zeros(f_plus.shape + (2, 2))
    cm[..., 0, 0] = f_plus
    cm[..., 1, 1] = f_minus
    return cm


def _det2(cm: np.ndarray) -> np.ndarray:
    # determinant of symmetric 2x2 matrices over the leading axes
    return cm[..., 0, 0] * cm[..., 1, 1] - cm[..., 0, 1] ** 2


def _symplectic_spectrum(cm: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues of symmetric CMs over the trailing axes, ascending, (..., n).

    One mode's is sqrt|det cm|, the modulus of both eigenvalues of Omega cm;
    n >= 2 modes' are the moduli of those eigenvalues, each d twice, from the
    +/- i d pair.
    """
    if cm.shape[-1] == 2:
        return np.sqrt(np.abs(_det2(cm)))[..., None]
    # the moduli come in equal pairs; sorting lines each pair up
    d = np.sort(np.abs(np.linalg.eigvals(omega(cm.shape[-1] // 2) @ cm)), axis=-1)
    return d[..., ::2]


def _refuse_unphysical(cm: np.ndarray, nu: float) -> None:
    """Raise ``PhysicalityError`` for the first member of a symmetric CM stack
    whose smallest symplectic eigenvalue lies below ``nu`` or that is not
    positive definite; return if there is none.

    The spectrum is blind to the sign of a CM (that of -cm is the same), so
    the sign is read apart from it: for one mode exactly, as cm_00 > 0 and
    det cm > 0; for more from each member's smallest eigenvalue, which may
    read up to 3 eps max|cm| below 0 on the physical CMs of squeezers as
    strong as e^-24 and is refused below -8 eps max|cm|, the rounding band of
    ``_p_negative``.
    """
    d_min = _symplectic_spectrum(cm)[..., 0]
    below = d_min < nu
    if cm.shape[-1] == 2:
        indefinite = ~((cm[..., 0, 0] > 0.0) & (_det2(cm) > 0.0))
    else:
        scale = 8 * np.finfo(float).eps * np.abs(cm).max(axis=(-2, -1))
        indefinite = np.linalg.eigvalsh(cm)[..., 0] < -scale
    bad = below | indefinite
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        message = (
            f"smallest symplectic eigenvalue {d_min[first]:.12g} lies below the vacuum limit 1/2"
            if below[first]
            else "covariance matrix is not positive definite"
        )
        raise member_error(PhysicalityError, message, bad)


def _require_finite(cm: np.ndarray) -> None:
    if not np.isfinite(cm).all():
        bad = ~np.isfinite(cm).all(axis=(-2, -1))
        raise member_error(ValueError, "covariance matrix contains non-finite entries", bad)


class GaussianState:
    """Zero-mean n-mode Gaussian state held as its 2n x 2n covariance matrix.

    ``cm`` may carry leading batch axes, shape (..., 2n, 2n); the state is
    then a batch of states of the same mode count. The constructor is the
    entry check: it symmetrizes every matrix (asymmetry beyond 1e-12 times
    max(1, the largest entry) is an error, anything smaller is averaged away)
    and rejects unphysical input:
    every symplectic eigenvalue must reach 1/2 up to a 1e-9 slack, and the
    CM must be positive definite. A positive definite cm + i (1/2 - 1e-9) Omega
    proves both: for one mode, cm_00 > 0 and det cm > (1/2 - 1e-9)^2 over the
    whole stack, for more one Cholesky factor of the stack. Only when that
    fails is each member's symplectic spectrum solved (sqrt|det cm| for one
    mode) and its sign read, and they decide the rejection, which names the
    first offending member of a batch and either its smallest symplectic
    eigenvalue or that it is not positive definite. The closed
    operations (``tensor``, ``partial_trace``, ``apply_symplectic``,
    ``vacuum_state``) build their physical-by-construction results through
    ``_closed`` and skip the check.
    """

    __slots__ = ("_cm",)

    def __init__(self, cm) -> None:
        arr = np.array(cm, dtype=float)
        if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] % 2 or not arr.size:
            raise ValueError(f"covariance matrix must be (..., 2n, 2n), got shape {arr.shape}")
        # each check reduces the whole stack first and finds the member only on failure;
        # max(1, |entry|) >= 1, so an asymmetry within SYMMETRY_TOL passes every member's rule
        _require_finite(arr)
        arr_t = arr.swapaxes(-1, -2)
        asym = np.abs(arr - arr_t)
        if asym.max() > SYMMETRY_TOL:
            asym = asym.max(axis=(-2, -1))
            too_asym = asym > SYMMETRY_TOL * np.maximum(1.0, np.abs(arr).max(axis=(-2, -1)))
            if too_asym.any():
                raise member_error(
                    PhysicalityError,
                    f"covariance matrix asymmetry {asym[too_asym][0]:g} exceeds tolerance",
                    too_asym,
                )
        arr = (arr + arr_t) / 2.0
        # every symplectic eigenvalue exceeds nu exactly when cm + i nu Omega is
        # positive definite: for one mode when cm_00 > 0 and det cm > nu^2, for
        # more when one Cholesky factor of the stack exists. A stack that fails
        # is solved member by member, and that solve alone refuses and names one
        nu = VACUUM_VARIANCE - PHYSICALITY_TOL
        if arr.shape[-1] == 2:
            proven = ((arr[..., 0, 0] > 0.0) & (_det2(arr) > nu * nu)).all()
        else:
            try:
                np.linalg.cholesky(arr + 1j * nu * omega(arr.shape[-1] // 2))
                proven = True
            except np.linalg.LinAlgError:
                proven = False
        if not proven:
            _refuse_unphysical(arr, nu)
        arr.flags.writeable = False
        self._cm = arr

    @classmethod
    def _closed(cls, cm: np.ndarray) -> GaussianState:
        """Wrap a symmetric CM that an operation on physical states built; no checks."""
        state = cls.__new__(cls)
        cm.flags.writeable = False
        state._cm = cm
        return state

    @property
    def cm(self) -> np.ndarray:
        return self._cm

    @property
    def n_modes(self) -> int:
        return self._cm.shape[-1] // 2

    @property
    def batch_shape(self) -> tuple:
        """Leading batch axes of the CM; () for a single state."""
        return self._cm.shape[:-2]

    def __repr__(self) -> str:
        batch = f", batch_shape={self.batch_shape}" if self.batch_shape else ""
        return f"GaussianState(n_modes={self.n_modes}{batch})"


def _p_negative(state: GaussianState) -> np.ndarray:
    """Which members' Glauber P-function is negative, as a bool over the batch shape.

    A zero-mean Gaussian state's P-function is the Gaussian of CM cm - I/2,
    a distribution exactly when that matrix is positive semidefinite. Its
    smallest eigenvalue may undershoot 0 by 8 units of eps max|cm| and still
    be rounding: split thermal and squeezed pairs lie on the boundary in
    exact arithmetic, and they and their three-mode states reach 4 units
    below it, while the P < 0 states of the tests' random draws lie more
    than 5e10 units below.
    """
    cm = state.cm
    lam_min = np.linalg.eigvalsh(cm - VACUUM_VARIANCE * np.eye(cm.shape[-1]))[..., 0]
    return lam_min < -8 * np.finfo(float).eps * np.abs(cm).max(axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class SymplecticOp:
    """Mode transformation S, or a stack (..., 2n, 2n), acting on CMs by congruence S Sigma S^T."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.matrix, dtype=float, order="C")
        if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] % 2 or not arr.size:
            raise SymplecticError(f"operator must be (..., 2n, 2n), got shape {arr.shape}")
        w = omega(arr.shape[-1] // 2)
        deviation = np.abs(arr @ w @ arr.swapaxes(-1, -2) - w)
        if not deviation.max() <= 1e-10:  # NaN fails this too; members are sought on failure only
            bad = ~(deviation.max(axis=(-2, -1)) <= 1e-10)
            message = f"S Omega S^T deviates from Omega by {np.max(deviation[bad][0]):g}"
            raise member_error(SymplecticError, message, bad)
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[-1] // 2


def single_mode_state(spec: SingleModeSpec) -> GaussianState:
    return GaussianState(single_mode_cm(spec))


def vacuum_state() -> GaussianState:
    return GaussianState._closed(np.eye(2) * VACUUM_VARIANCE)


def thermal_state(n_photons: float) -> GaussianState:
    return single_mode_state(SingleModeSpec(n_tot=n_photons, beta=0.0))


def tensor(states) -> GaussianState:
    """Product state: direct sum of the covariance matrices, broadcast over batch axes."""
    mats = [s.cm for s in states]
    if not mats:
        raise ValueError("tensor needs at least one state")
    batch = np.broadcast_shapes(*(m.shape[:-2] for m in mats))
    cm = np.zeros(batch + (sum(m.shape[-1] for m in mats),) * 2)
    start = 0
    for m in mats:
        stop = start + m.shape[-1]
        cm[..., start:stop, start:stop] = m
        start = stop
    return GaussianState._closed(cm)


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Reduced state over the ``keep`` mode indices, each listed once, in the listed order."""
    modes = [int(m) for m in keep]
    if not modes:
        raise ValueError("keep must name at least one mode")
    if len(set(modes)) < len(modes):
        raise ValueError(f"mode indices {modes} name a mode twice")
    if min(modes) < 0 or max(modes) >= state.n_modes:
        raise IndexError(f"mode indices {modes} out of range for {state.n_modes} modes")
    idx = np.array([q for m in modes for q in (2 * m, 2 * m + 1)])
    return GaussianState._closed(state.cm[..., idx[:, None], idx])


def symplectic_eigenvalues(state: GaussianState) -> np.ndarray:
    """Symplectic spectrum, sorted ascending; >= 1/2 for physical states.

    Shape (..., n): one spectrum per member of a batch. A one-mode state's is
    sqrt(det cm) in closed form; that of n >= 2 modes is the moduli of the
    eigenvalues of Omega cm. Both are blind to the sign of the CM, which the
    entry check of ``GaussianState`` reads apart.
    """
    return np.ascontiguousarray(_symplectic_spectrum(state.cm))


def apply_symplectic(state: GaussianState, op: SymplecticOp) -> GaussianState:
    """Congruence Sigma -> S Sigma S^T, batch axes broadcast; preserves the symplectic spectrum.

    The result is symmetrized, (a + a^T) / 2, and refused only if the
    congruence overflowed: a checked symplectic keeps the state physical.
    """
    if op.matrix.shape[-1] != state.cm.shape[-1]:
        raise ValueError(f"operator acts on {op.n_modes} modes, state has {state.n_modes}")
    s = op.matrix
    cm = s @ state.cm @ s.swapaxes(-1, -2)
    _require_finite(cm)
    return GaussianState._closed((cm + cm.swapaxes(-1, -2)) / 2.0)


def mode_block(state: GaussianState, mode_i: int, mode_j: int) -> np.ndarray:
    """2x2 CM block coupling modes i and j (i == j gives the marginal block)."""
    if not (0 <= mode_i < state.n_modes and 0 <= mode_j < state.n_modes):
        raise IndexError("mode index out of range")
    return state.cm[..., 2 * mode_i : 2 * mode_i + 2, 2 * mode_j : 2 * mode_j + 2].copy()
