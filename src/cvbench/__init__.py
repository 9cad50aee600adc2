"""Gaussian covariance-matrix engine and pseudo-thermal speckle Monte Carlo bench.

The package computes covariance-matrix dynamics of zero-mean Gaussian states
through beam-splitter networks (entropies, mutual information, Gaussian
discord) and simulates the matching desk-scale speckle experiments, so that
analytic predictions and Monte Carlo intensity correlations can be checked
against each other.
"""

__version__ = "0.7.0"

from .info import (
    DiscordResult,
    discord_oracle,
    entropy,
    gaussian_discord,
    mutual_information,
)
from .network import (
    MarginalMismatchError,
    ThreeModeProtocol,
    bs_symplectic,
    interfere,
    mix_two,
    prepare_discordant_pair,
    run_three_mode,
)
from .speckle import BenchConfig, FrameBatch, run_bench
from .states import (
    GaussianState,
    PhysicalityError,
    SingleModeSpec,
    SymplecticError,
    SymplecticOp,
    apply_symplectic,
    mode_block,
    omega,
    partial_trace,
    single_mode_cm,
    single_mode_state,
    symplectic_eigenvalues,
    tensor,
    thermal_state,
    vacuum_state,
)
from .stats import cm_to_intensity_corr, confidence_interval, corr_coeff

__all__ = [
    "__version__",
    "DiscordResult",
    "discord_oracle",
    "entropy",
    "gaussian_discord",
    "mutual_information",
    "MarginalMismatchError",
    "ThreeModeProtocol",
    "bs_symplectic",
    "interfere",
    "mix_two",
    "prepare_discordant_pair",
    "run_three_mode",
    "BenchConfig",
    "FrameBatch",
    "run_bench",
    "GaussianState",
    "PhysicalityError",
    "SingleModeSpec",
    "SymplecticError",
    "SymplecticOp",
    "apply_symplectic",
    "mode_block",
    "omega",
    "partial_trace",
    "single_mode_cm",
    "single_mode_state",
    "symplectic_eigenvalues",
    "tensor",
    "thermal_state",
    "vacuum_state",
    "cm_to_intensity_corr",
    "confidence_interval",
    "corr_coeff",
]
