"""Covariance-matrix engine for zero-mean Gaussian states.

Conventions, fixed across the package:

* vacuum quadrature variance 1/2 (hbar = 1): the vacuum CM is diag(1/2, 1/2)
* quadratures are interleaved as (x1, p1, x2, p2, ...)
* a state is physical iff every symplectic eigenvalue reaches 1/2

States are immutable values; every operation returns a new ``GaussianState``
and never mutates its inputs, so everything here is safe to call from any
number of threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

#: absolute asymmetry accepted before a covariance matrix is rejected
SYMMETRY_TOL = 1e-12
#: symplectic eigenvalues may undershoot 1/2 by this much (numerical slack)
PHYSICALITY_TOL = 1e-9
#: negative radicands within this margin are clamped to zero, beyond it rejected
CLAMP_TOL = 1e-12

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
]


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


@dataclass(frozen=True)
class SingleModeSpec:
    """Photon-number parametrization of a single-mode Gaussian state.

    ``n_tot`` is the total mean photon number of the mode and ``beta`` the
    fraction of it carried by squeezing: beta = 0 is a thermal state, beta = 1
    a squeezed vacuum, and the thermal component always holds
    (1 - beta) * n_tot photons. The squeezed axis is fixed so that the x
    variance is the larger one (no squeezing phase is exposed).
    """

    n_tot: float
    beta: float = 0.0

    def __post_init__(self) -> None:
        if not self.n_tot >= 0.0:
            raise ValueError(f"n_tot must be >= 0, got {self.n_tot!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")

    @property
    def n_thermal(self) -> float:
        return (1.0 - self.beta) * self.n_tot

    @property
    def squeezing(self) -> float:
        """Squeezing parameter r >= 0 of the mode, r = ln(f+ / f-) / 4."""
        cm = single_mode_cm(self)
        return 0.25 * math.log(cm[0, 0] / cm[1, 1])


def single_mode_cm(spec: SingleModeSpec) -> np.ndarray:
    """CM diag(f+, f-) with f(+/-) = 1/2 + N +/- sqrt(beta N [1 + N (2 - beta)]).

    The determinant obeys the purity identity det = (1/2 + (1 - beta) N)^2,
    which is verified before returning.
    """
    n, beta = float(spec.n_tot), float(spec.beta)
    radicand = beta * n * (1.0 + n * (2.0 - beta))
    if radicand < 0.0:
        if radicand < -CLAMP_TOL:
            raise ValueError(f"negative squeezing radicand {radicand!r}")
        radicand = 0.0
    shift = math.sqrt(radicand)
    f_plus = 0.5 + n + shift
    f_minus = 0.5 + n - shift
    expected_det = (0.5 + (1.0 - beta) * n) ** 2
    if abs(f_plus * f_minus - expected_det) > 1e-10 * max(1.0, expected_det):
        raise ArithmeticError("purity identity violated: numerical failure in f+/f-")
    return np.diag([f_plus, f_minus])


def _symplectic_eigenvalues(cm: np.ndarray) -> np.ndarray:
    # eigenvalues of Omega @ cm come in +/- i d pairs; |.| and sorting pair them
    n = cm.shape[0] // 2
    eig = np.linalg.eigvals(omega(n) @ cm)
    d = np.sort(np.abs(eig))
    return np.ascontiguousarray(d[::2])


class GaussianState:
    """Zero-mean n-mode Gaussian state held as its 2n x 2n covariance matrix.

    The constructor symmetrizes the matrix (asymmetry beyond 1e-12 is an
    error, anything smaller is averaged away) and rejects unphysical input:
    every symplectic eigenvalue must reach 1/2 up to a 1e-9 slack.
    """

    __slots__ = ("_cm",)

    def __init__(self, cm) -> None:
        arr = np.array(cm, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 or not arr.size:
            raise ValueError(f"covariance matrix must be 2n x 2n, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("covariance matrix contains non-finite entries")
        asym = float(np.max(np.abs(arr - arr.T)))
        if asym > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(arr)))):
            raise PhysicalityError(f"covariance matrix asymmetry {asym:g} exceeds tolerance")
        arr = (arr + arr.T) / 2.0
        d_min = float(_symplectic_eigenvalues(arr)[0])
        if d_min < VACUUM_VARIANCE - PHYSICALITY_TOL:
            raise PhysicalityError(
                f"smallest symplectic eigenvalue {d_min:.12g} lies below the vacuum limit 1/2"
            )
        arr.flags.writeable = False
        self._cm = arr

    @property
    def cm(self) -> np.ndarray:
        return self._cm

    @property
    def n_modes(self) -> int:
        return self._cm.shape[0] // 2

    def __repr__(self) -> str:
        return f"GaussianState(n_modes={self.n_modes})"


@dataclass(frozen=True, eq=False)
class SymplecticOp:
    """Linear mode transformation acting on CMs by congruence S Sigma S^T."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.matrix, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 or not arr.size:
            raise SymplecticError(f"operator must be 2n x 2n, got shape {arr.shape}")
        w = omega(arr.shape[0] // 2)
        defect = float(np.max(np.abs(arr @ w @ arr.T - w)))
        if defect > 1e-10:
            raise SymplecticError(f"S Omega S^T deviates from Omega by {defect:g}")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2


def single_mode_state(spec: SingleModeSpec) -> GaussianState:
    return GaussianState(single_mode_cm(spec))


def vacuum_state(n_modes: int = 1) -> GaussianState:
    return GaussianState(np.eye(2 * n_modes) * VACUUM_VARIANCE)


def thermal_state(n_photons: float) -> GaussianState:
    return single_mode_state(SingleModeSpec(n_tot=n_photons, beta=0.0))


def tensor(states) -> GaussianState:
    """Product state: direct sum of the covariance matrices."""
    mats = [s.cm for s in states]
    if not mats:
        raise ValueError("tensor needs at least one state")
    cm = np.zeros((sum(m.shape[0] for m in mats),) * 2)
    start = 0
    for m in mats:
        stop = start + m.shape[0]
        cm[start:stop, start:stop] = m
        start = stop
    return GaussianState(cm)


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Reduced state over the ``keep`` mode indices (result in ascending order)."""
    modes = sorted({int(m) for m in keep})
    if not modes:
        raise ValueError("keep must name at least one mode")
    if modes[0] < 0 or modes[-1] >= state.n_modes:
        raise IndexError(f"mode indices {modes} out of range for {state.n_modes} modes")
    idx = np.array([q for m in modes for q in (2 * m, 2 * m + 1)])
    return GaussianState(state.cm[np.ix_(idx, idx)])


def symplectic_eigenvalues(state: GaussianState) -> np.ndarray:
    """Symplectic spectrum, sorted ascending; >= 1/2 for physical states."""
    return _symplectic_eigenvalues(state.cm)


def apply_symplectic(state: GaussianState, op: SymplecticOp) -> GaussianState:
    """Congruence Sigma -> S Sigma S^T; preserves the symplectic spectrum."""
    if op.matrix.shape[0] != state.cm.shape[0]:
        raise ValueError(f"operator acts on {op.n_modes} modes, state has {state.n_modes}")
    s = op.matrix
    return GaussianState(s @ state.cm @ s.T)


def mode_block(state: GaussianState, mode_i: int, mode_j: int) -> np.ndarray:
    """2x2 CM block coupling modes i and j (i == j gives the marginal block)."""
    if not (0 <= mode_i < state.n_modes and 0 <= mode_j < state.n_modes):
        raise IndexError("mode index out of range")
    return state.cm[2 * mode_i : 2 * mode_i + 2, 2 * mode_j : 2 * mode_j + 2].copy()
