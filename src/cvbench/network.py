"""The beam splitter and the two bench protocols it builds, at CM level.

All transformations, the marginal a probe matches included, are explicit
symplectic congruences; the closed-form block expressions (tau sigma1 +
(1 - tau) sigma2 and friends) appear only in the tests, as independent oracles.

The protocol builders pass batches through: a ``SingleModeSpec`` of arrays
gives batched states (see ``cvbench.states``), and an array tau a stack of
beam splitters, whose axes broadcast against the specs'. Specs, taus and the
CMs handed to ``mix_two`` are checked as they enter, every member of a batch;
the congruences and direct sums built from them are physical by construction
and not checked again.

Sign convention: the beam splitter is
S = [[sqrt(tau) I, sqrt(1-tau) I], [-sqrt(1-tau) I, sqrt(tau) I]],
i.e. the reflection of the first input mode carries the minus sign. It is
written out only in ``bs_symplectic``: ``run_three_mode`` embeds that matrix
on modes 1 and 2, and the bench's read-out takes its BS row from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    GaussianState,
    SingleModeSpec,
    SymplecticOp,
    apply_symplectic,
    member_error,
    mode_block,
    single_mode_state,
    tensor,
    vacuum_state,
)

#: largest tolerated deviation between the probe marginal and the mode-2 marginal,
#: relative to the probe CM's largest entry but never below this value
MARGINAL_TOL = 1e-10

__all__ = [
    "MarginalMismatchError",
    "ThreeModeProtocol",
    "bs_symplectic",
    "mix_two",
    "prepare_discordant_pair",
    "matched_probe",
    "run_three_mode",
]


class MarginalMismatchError(ValueError):
    """Probe and mode-2 marginals differ, breaking the identical-inputs premise."""


def _require_unit_interval(name: str, value) -> None:
    """Refuse a transmissivity outside [0, 1] or NaN, naming the first such member of an array."""
    arr = np.asarray(value, dtype=float)
    bad = ~((arr >= 0.0) & (arr <= 1.0))
    if bad.any():
        raise member_error(ValueError, f"{name} must lie in [0, 1], got {arr[bad][0]}", bad)


def bs_symplectic(tau) -> SymplecticOp:
    """4x4 beam-splitter symplectic (see module docstring), stacked over an array tau's axes."""
    _require_unit_interval("transmissivity", tau)
    t, r = np.sqrt(tau), np.sqrt(1.0 - tau)
    z = 0.0 * t
    # the products kron([[t, r], [-r, t]], I2) forms, -r * 0 = -0.0 included
    matrix = np.array([[t, z, r, z], [z, t, z, r], [-r, -z, t, z], [-z, -r, z, t]])
    return SymplecticOp(np.moveaxis(matrix, (0, 1), (-2, -1)))


def mix_two(sigma1, sigma2, tau) -> GaussianState:
    """Two-mode state leaving a beam splitter of transmissivity tau fed by two single-mode CMs.

    The congruence of the inputs' direct sum with ``bs_symplectic(tau)``;
    read its blocks with ``mode_block``. Batched CMs and an array tau
    broadcast. Identical inputs leave the pair unchanged: the two
    interference contributions cancel, so the off-diagonal block vanishes
    and the marginals stay the input's, to rounding.
    """
    states = [GaussianState(np.asarray(sigma, dtype=float)) for sigma in (sigma1, sigma2)]
    return apply_symplectic(tensor(states), bs_symplectic(tau))


def prepare_discordant_pair(source: SingleModeSpec, t_split: float) -> GaussianState:
    """Split a source mode into correlated beams 2 and 3 (modes 0 and 1 here).

    Beam 2 carries the fraction ``t_split`` of the source photons and beam 3
    the remainder; for a thermal source the off-diagonal block is
    sqrt(t (1 - t)) N_source I. Realized as a single beam-splitter congruence
    with the vacuum entering the free port, so the output is correlated (and
    discordant) unless t_split is 0 or 1 or the source is the vacuum.
    """
    _require_unit_interval("t_split", t_split)
    pair = tensor([vacuum_state(), single_mode_state(source)])
    return apply_symplectic(pair, bs_symplectic(1.0 - t_split))


def matched_probe(source: SingleModeSpec, t_split: float) -> SingleModeSpec:
    """Probe parameters whose CM equals the beam-2 marginal of the split source.

    The marginal diag(g+, g-) is read off the split's own congruence
    (``prepare_discordant_pair``), the rounding of 1 - t_split included, and
    inverted for (n_tot, beta) through the f+/f- parametrization:
    n = (g+ + g- - 1)/2, and the purity identity sqrt(g+ g-) = 1/2 + (1 - beta) n
    gives beta = delta^2 / (n (n + 1/2 + sqrt(g+ g-))) with delta = (g+ - g-)/2,
    a form without cancellation (clamped into [0, 1]). A probe without photons
    is the vacuum. A batched source gives a batched probe.
    """
    marginal = mode_block(prepare_discordant_pair(source, t_split), 0, 0)
    g_plus, g_minus = marginal[..., 0, 0], marginal[..., 1, 1]
    n = (g_plus + g_minus - 1.0) / 2.0
    delta = (g_plus - g_minus) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = (delta * delta) / (n * (n + 0.5 + np.sqrt(g_plus * g_minus)))
    bright = n > 0.0
    # beta > 0 is False for NaN, which the clamp sends to 0
    beta = np.where(bright & (beta > 0.0), np.minimum(beta, 1.0), 0.0)
    return SingleModeSpec(np.where(bright, n, 0.0)[()], beta[()])


@dataclass(frozen=True, eq=False)
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
        _require_unit_interval("t_split", self.t_split)
        _require_unit_interval("tau_mix", self.tau_mix)


def run_three_mode(protocol: ThreeModeProtocol) -> tuple[GaussianState, GaussianState]:
    """Input and output three-mode states of the probe/pair mixing protocol.

    The output keeps both mixed marginals and leaves modes 1 and 2 mutually
    uncorrelated, while the 2-3 correlation block shrinks by sqrt(tau) and a
    1-3 block of sqrt(1 - tau) times the input block appears. Batched specs
    and array taus give batched states. Every member's marginals must match
    to ``MARGINAL_TOL`` times max(1, the largest entry of its probe CM), so
    bright sources are not refused for rounding.
    """
    pair = prepare_discordant_pair(protocol.source, protocol.t_split)
    probe = single_mode_state(protocol.probe)
    mismatch = np.max(np.abs(mode_block(pair, 0, 0) - probe.cm), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(probe.cm), axis=(-2, -1)))
    off = mismatch > MARGINAL_TOL * scale
    if off.any():
        raise member_error(
            MarginalMismatchError,
            f"mode-2 marginal deviates from the probe by {mismatch[off][0]:g}; "
            "identical interfering states are required",
            off,
        )
    state_in = tensor([probe, pair])
    op = np.broadcast_to(np.eye(6), np.shape(protocol.tau_mix) + (6, 6)).copy()
    op[..., :4, :4] = bs_symplectic(protocol.tau_mix).matrix
    return state_in, apply_symplectic(state_in, SymplecticOp(op))

