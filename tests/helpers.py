"""Shared random-state generators for the test suite."""

import numpy as np
from scipy.linalg import expm

from cvbench.states import GaussianState, SingleModeSpec, omega


def random_hamiltonian(rng, n_modes, strength=0.8):
    """Random symmetric H whose largest entry has modulus ``strength``."""
    dim = 2 * n_modes
    g = rng.normal(size=(dim, dim))
    h = (g + g.T) / 2.0
    h *= strength / max(np.max(np.abs(h)), 1e-12)
    return h


def random_symplectic(rng, n_modes, strength=0.8):
    """Random symplectic via exp(Omega H) with H symmetric; strength caps |H|."""
    return expm(omega(n_modes) @ random_hamiltonian(rng, n_modes, strength))


def random_single_mode_cm(rng, nu_max=3.0, r_max=0.8):
    """Random physical 2x2 CM: thermal nu >= 1/2, squeezed and rotated."""
    nu = rng.uniform(0.5, nu_max)
    r = rng.uniform(0.0, r_max)
    theta = rng.uniform(0.0, np.pi)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([nu * np.exp(2 * r), nu * np.exp(-2 * r)]) @ rot.T


def random_two_mode_state(rng, shape=(), nu_max=2.5, strength=0.8):
    """Random physical two-mode states of batch ``shape`` from reversed Williamson decompositions.

    Each state draws its symplectic eigenvalues, then its Hamiltonian, and
    one stacked ``expm`` call exponentiates every Hamiltonian.
    """
    draws = [
        (np.repeat(rng.uniform(0.5, nu_max, size=2), 2), random_hamiltonian(rng, 2, strength))
        for _ in range(int(np.prod(shape)))
    ]
    d, h = (np.stack(x).reshape(*shape, *x[0].shape) for x in zip(*draws))
    s = expm(omega(2) @ h)
    return GaussianState(s @ (d[..., None] * np.eye(4)) @ s.swapaxes(-1, -2))


def random_source(rng, n_max=4.0, beta_max=0.9):
    return SingleModeSpec(rng.uniform(0.3, n_max), rng.uniform(0.0, beta_max))
