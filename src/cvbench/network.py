"""The beam splitter and the two bench protocols it builds, at CM level.

All transformations are explicit symplectic congruences; the closed-form
block expressions (tau sigma1 + (1 - tau) sigma2 and friends) appear only in
the tests, as independent oracles. A three-mode state is built in one place,
``interfere``: its probe is the pair's own near-arm marginal, so the paper's
identical interfering inputs hold by construction.

The protocol builders pass batches through: a ``SingleModeSpec`` of arrays
gives batched states (see ``cvbench.states``), and an array tau a stack of
beam splitters, whose axes broadcast against the specs'. Specs, taus and the
CMs handed to ``mix_two`` are checked as they enter, every member of a batch;
the congruences and direct sums built from them are physical by construction
and not checked again.

Sign convention: the beam splitter is
S = [[sqrt(tau) I, sqrt(1-tau) I], [-sqrt(1-tau) I, sqrt(tau) I]],
i.e. the reflection of the first input mode carries the minus sign. It is
written out only in ``bs_symplectic``: ``interfere`` embeds that matrix on
modes 1 and 2, and the bench's read-out takes its BS row from it.
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
    partial_trace,
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
    "interfere",
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


def interfere(pair: GaussianState, tau_mix) -> tuple[GaussianState, GaussianState]:
    """Input and output three-mode states of a probe mixed with the near arm of ``pair``.

    The probe (mode 1) is the pair's mode-0 marginal, identical to it by
    construction; the pair feeds modes 2 and 3, and a beam splitter of
    transmissivity ``tau_mix`` mixes modes 1 and 2. The output keeps both
    mixed marginals and leaves modes 1 and 2 mutually uncorrelated, while the
    2-3 correlation block shrinks by sqrt(tau) and a 1-3 block of
    sqrt(1 - tau) times the input block appears. A batched pair and an array
    tau give batched states; a pair that is not two-mode raises ``ValueError``.
    """
    if pair.n_modes != 2:
        raise ValueError(f"interfere takes a two-mode pair, got {pair.n_modes} modes")
    _require_unit_interval("tau_mix", tau_mix)
    state_in = tensor([partial_trace(pair, (0,)), pair])
    op = np.broadcast_to(np.eye(6), np.shape(tau_mix) + (6, 6)).copy()
    op[..., :4, :4] = bs_symplectic(tau_mix).matrix
    return state_in, apply_symplectic(state_in, SymplecticOp(op))


@dataclass(frozen=True, eq=False)
class ThreeModeProtocol:
    """Probe (mode 1) interfering with the near arm of a split source (modes 2, 3).

    ``t_split`` prepares the discordant pair feeding modes 2 and 3;
    ``tau_mix`` is the transmissivity of the beam splitter mixing modes 1 and 2.
    ``probe`` must describe the mode-2 marginal (checked when run), which is
    the probe that mixes; ``interfere`` builds the same states from the pair
    alone.
    """

    probe: SingleModeSpec
    source: SingleModeSpec
    t_split: float
    tau_mix: float

    def __post_init__(self) -> None:
        _require_unit_interval("t_split", self.t_split)
        _require_unit_interval("tau_mix", self.tau_mix)


def run_three_mode(protocol: ThreeModeProtocol) -> tuple[GaussianState, GaussianState]:
    """``interfere`` on the pair split off the protocol's source, once its probe spec is checked.

    Every member's probe CM must match the mode-2 marginal to
    ``MARGINAL_TOL`` times max(1, the largest entry of its probe CM), so
    bright sources are not refused for rounding. The probe that mixes is the
    marginal itself, as in ``interfere``.
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
    return interfere(pair, protocol.tau_mix)
