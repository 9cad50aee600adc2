"""Beam-splitter circuits on labeled modes and the two bench protocols at CM level.

All transformations are computed by explicit symplectic congruence; the
closed-form block expressions (tau sigma1 + (1 - tau) sigma2 and friends)
appear only in the tests, as independent oracles.

The protocol builders pass batches through: a ``SingleModeSpec`` of arrays
gives batched states (see ``cvbench.states``). Specs and the CMs handed to
``mix_two`` are checked for physicality as they enter, every member of a
batch; the congruences and direct sums built from them are physical by
construction and are not checked again. ``mix_two`` stays a single-state
operation.

Sign convention: the beam splitter is
S = [[sqrt(tau) I, sqrt(1-tau) I], [-sqrt(1-tau) I, sqrt(tau) I]],
i.e. the reflection of the first input mode carries the minus sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    GaussianState,
    SingleModeSpec,
    SymplecticOp,
    apply_symplectic,
    at_member,
    mode_block,
    single_mode_cm,
    single_mode_state,
    tensor,
    vacuum_state,
)

#: largest tolerated deviation between the probe marginal and the mode-2 marginal,
#: relative to the probe CM's largest entry but never below this value
MARGINAL_TOL = 1e-10

__all__ = [
    "MarginalMismatchError",
    "BeamSplitterSpec",
    "ThreeModeProtocol",
    "bs_symplectic",
    "mix_two",
    "prepare_discordant_pair",
    "matched_probe",
    "run_three_mode",
]


class MarginalMismatchError(ValueError):
    """Probe and mode-2 marginals differ, breaking the identical-inputs premise."""


def bs_symplectic(tau: float) -> SymplecticOp:
    """4x4 beam-splitter symplectic with transmissivity tau (see module docstring)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {tau!r}")
    t = math.sqrt(tau)
    r = math.sqrt(1.0 - tau)
    return SymplecticOp(np.kron([[t, r], [-r, t]], np.eye(2)))


@dataclass(frozen=True)
class BeamSplitterSpec:
    """A beam splitter of transmissivity tau between two labeled modes."""

    tau: float
    mode_a: int
    mode_b: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"transmissivity must lie in [0, 1], got {self.tau!r}")
        if self.mode_a == self.mode_b:
            raise ValueError("mode_a and mode_b must differ")
        if min(self.mode_a, self.mode_b) < 0:
            raise ValueError("mode indices must be non-negative")

    def operator(self, n_modes: int) -> SymplecticOp:
        """Embed the 4x4 beam splitter into an identity on the remaining modes."""
        if max(self.mode_a, self.mode_b) >= n_modes:
            raise IndexError("beam-splitter mode index out of range")
        core = bs_symplectic(self.tau).matrix
        full = np.eye(2 * n_modes)
        placement = ((self.mode_a, 0), (self.mode_b, 1))
        for mi, bi in placement:
            for mj, bj in placement:
                full[2 * mi : 2 * mi + 2, 2 * mj : 2 * mj + 2] = core[
                    2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2
                ]
        return SymplecticOp(full)


def mix_two(sigma1, sigma2, tau: float) -> GaussianState:
    """Two-mode state leaving a beam splitter of transmissivity tau fed by two single-mode CMs.

    Computed by congruence with ``bs_symplectic(tau)``; read its blocks with
    ``mode_block``. Identical inputs give the product state of the input with
    itself, with an exactly zero off-diagonal block: the two interference
    contributions cancel and the interaction leaves the pair unchanged, a
    statement that holds exactly, not only to rounding.
    """
    state1 = GaussianState(np.asarray(sigma1, dtype=float))
    state2 = GaussianState(np.asarray(sigma2, dtype=float))
    if state1.batch_shape or state2.batch_shape:
        raise ValueError("mix_two takes single-mode CMs, not batches")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {tau!r}")
    if np.array_equal(state1.cm, state2.cm):
        return tensor([state1, state1])
    return apply_symplectic(tensor([state1, state2]), bs_symplectic(tau))


def prepare_discordant_pair(source: SingleModeSpec, t_split: float) -> GaussianState:
    """Split a source mode into correlated beams 2 and 3 (modes 0 and 1 here).

    Beam 2 carries the fraction ``t_split`` of the source photons and beam 3
    the remainder; for a thermal source the off-diagonal block is
    sqrt(t (1 - t)) N_source I. Realized as a single beam-splitter congruence
    with the vacuum entering the free port, so the output is correlated (and
    discordant) unless t_split is 0 or 1 or the source is the vacuum.
    """
    if not 0.0 <= t_split <= 1.0:
        raise ValueError(f"t_split must lie in [0, 1], got {t_split!r}")
    pair = tensor([vacuum_state(), single_mode_state(source)])
    return apply_symplectic(pair, bs_symplectic(1.0 - t_split))


def matched_probe(source: SingleModeSpec, t_split: float) -> SingleModeSpec:
    """Probe parameters whose CM equals the beam-2 marginal of the split source.

    Splitting maps diag(f+, f-) to diag(g+, g-) with g = t f + (1 - t)/2. The
    (n_tot, beta) pair is recovered by inverting the f+/f- parametrization:
    n = (g+ + g- - 1)/2, and the purity identity sqrt(g+ g-) = 1/2 + (1 - beta) n
    gives beta = delta^2 / (n (n + 1/2 + sqrt(g+ g-))) with delta = (g+ - g-)/2,
    a form without cancellation (clamped into [0, 1]). A probe without photons
    is the vacuum. A batched source gives a batched probe.
    """
    cm = single_mode_cm(source)
    g_plus = t_split * cm[..., 0, 0] + (1.0 - t_split) * 0.5
    g_minus = t_split * cm[..., 1, 1] + (1.0 - t_split) * 0.5
    n = (g_plus + g_minus - 1.0) / 2.0
    delta = (g_plus - g_minus) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = (delta * delta) / (n * (n + 0.5 + np.sqrt(g_plus * g_minus)))
    bright = n > 0.0
    # beta > 0 is False for NaN, which the clamp sends to 0
    beta = np.where(bright & (beta > 0.0), np.minimum(beta, 1.0), 0.0)
    return SingleModeSpec(np.where(bright, n, 0.0)[()], beta[()])


@dataclass(frozen=True)
class ThreeModeProtocol:
    """Probe (mode 1) interfering with the near arm of a split source (modes 2, 3).

    ``t_split`` prepares the discordant pair feeding modes 2 and 3;
    ``tau_mix`` is the transmissivity of the beam splitter mixing modes 1 and 2.
    The probe marginal must equal the mode-2 marginal (checked when run).
    """

    probe: SingleModeSpec
    source: SingleModeSpec
    t_split: float
    tau_mix: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_split <= 1.0:
            raise ValueError(f"t_split must lie in [0, 1], got {self.t_split!r}")
        if not 0.0 <= self.tau_mix <= 1.0:
            raise ValueError(f"tau_mix must lie in [0, 1], got {self.tau_mix!r}")


def run_three_mode(protocol: ThreeModeProtocol) -> tuple[GaussianState, GaussianState]:
    """Input and output three-mode states of the probe/pair mixing protocol.

    The output keeps both mixed marginals and leaves modes 1 and 2 mutually
    uncorrelated, while the 2-3 correlation block shrinks by sqrt(tau) and a
    1-3 block of sqrt(1 - tau) times the input block appears. Batched probe
    and source specs give batched states. Every member's marginals must match
    to ``MARGINAL_TOL`` times max(1, the largest entry of its probe CM), so
    bright sources are not refused for rounding.
    """
    pair = prepare_discordant_pair(protocol.source, protocol.t_split)
    probe = single_mode_state(protocol.probe)
    mismatch = np.max(np.abs(mode_block(pair, 0, 0) - probe.cm), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(probe.cm), axis=(-2, -1)))
    off = mismatch > MARGINAL_TOL * scale
    if off.any():
        raise MarginalMismatchError(
            f"mode-2 marginal deviates from the probe by {np.max(mismatch[off]):g}"
            f"{at_member(off)}; identical interfering states are required"
        )
    state_in = tensor([probe, pair])
    op = BeamSplitterSpec(protocol.tau_mix, 0, 1).operator(3)
    return state_in, apply_symplectic(state_in, op)

