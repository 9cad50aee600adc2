"""Tests for beam-splitter circuits and the bench protocol builders."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbench.network import (
    MarginalMismatchError,
    ThreeModeProtocol,
    bs_symplectic,
    interfere,
    mix_two,
    prepare_discordant_pair,
    run_three_mode,
)
from cvbench.states import (
    GaussianState,
    PhysicalityError,
    SingleModeSpec,
    apply_symplectic,
    mode_block,
    omega,
    single_mode_cm,
    single_mode_state,
    symplectic_eigenvalues,
    tensor,
    vacuum_state,
)
from helpers import random_single_mode_cm, random_source, random_two_mode_state


KRON_TAUS = [0.0, 1e-9, 0.15, 0.5, 1.0]


class TestBsSymplectic:
    def test_full_transmission_is_identity(self):
        assert np.allclose(bs_symplectic(1.0).matrix, np.eye(4))

    def test_full_reflection_swaps_with_sign(self):
        s = bs_symplectic(0.0).matrix
        assert np.allclose(s[:2, 2:], np.eye(2))
        assert np.allclose(s[2:, :2], -np.eye(2))
        assert np.allclose(s[:2, :2], 0.0)

    def test_balanced_blocks_and_symplectic_condition(self):
        s = bs_symplectic(0.5).matrix
        h = 1.0 / math.sqrt(2.0)
        assert np.allclose(np.abs(s), h * np.ones((4, 4)) * np.kron(np.ones((2, 2)), np.eye(2)))
        w = omega(2)
        assert np.max(np.abs(s @ w @ s.T - w)) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bs_symplectic(1.01)

    @pytest.mark.parametrize("tau", KRON_TAUS)
    def test_written_out_matrix_is_the_kron_form(self, tau):
        # the Kronecker product of the 2x2 mode matrix with I2, as an oracle:
        # equal bits, down to the signed zeros that -r times 0 leaves, for the
        # scalar call and for this tau's slice of the stack of all five
        t, r = math.sqrt(tau), math.sqrt(1.0 - tau)
        expected = np.kron([[t, r], [-r, t]], np.eye(2))
        stack = bs_symplectic(np.array(KRON_TAUS)).matrix
        for s in (bs_symplectic(tau).matrix, stack[KRON_TAUS.index(tau)]):
            assert np.array_equal(s, expected)
            assert np.array_equal(np.signbit(s), np.signbit(expected))


def blocks(state):
    """(Sigma1, Sigma2, Sigma12) of a two-mode state."""
    return mode_block(state, 0, 0), mode_block(state, 1, 1), mode_block(state, 0, 1)


class TestMixTwo:
    def test_identical_inputs_leave_system_unchanged(self):
        sigma = single_mode_cm(SingleModeSpec(1.0, 0.0))
        for tau in (0.1, 0.5, 0.9):
            sigma1, sigma2, sigma12 = blocks(mix_two(sigma, sigma, tau))
            assert np.allclose(sigma12, 0.0, atol=1e-12)
            assert np.allclose(sigma1, sigma, atol=1e-12)
            assert np.allclose(sigma2, sigma, atol=1e-12)

    def test_identical_random_inputs_stay_uncorrelated(self):
        # squeezed, rotated inputs: the congruence itself must cancel the
        # interference terms, to rounding, at any tau
        rng = np.random.default_rng(23)
        for _ in range(50):
            sigma = random_single_mode_cm(rng)
            tau = rng.uniform(0.0, 1.0)
            assert np.allclose(mode_block(mix_two(sigma, sigma, tau), 0, 1), 0.0, atol=1e-12)

    def test_batch_members_equal_single_calls(self):
        # a stack of CMs against a stack of taus, each member its own call
        rng = np.random.default_rng(31)
        s1 = np.stack([random_single_mode_cm(rng) for _ in range(4)])
        s2 = np.stack([random_single_mode_cm(rng) for _ in range(4)])
        taus = rng.uniform(0.0, 1.0, size=4)
        batch = mix_two(s1, s2, taus)
        assert batch.batch_shape == (4,)
        for i in range(4):
            assert np.array_equal(batch.cm[i], mix_two(s1[i], s2[i], taus[i]).cm)

    def test_tau_one_passthrough(self):
        s1 = single_mode_cm(SingleModeSpec(1.0, 0.0))
        s2 = single_mode_cm(SingleModeSpec(2.0, 0.3))
        sigma1, sigma2, sigma12 = blocks(mix_two(s1, s2, 1.0))
        assert np.allclose(sigma1, s1, atol=1e-12)
        assert np.allclose(sigma2, s2, atol=1e-12)
        assert np.allclose(sigma12, 0.0, atol=1e-12)

    def test_vacuum_thermal_balanced(self):
        vac = np.diag([0.5, 0.5])
        th = np.diag([1.5, 1.5])
        sigma1, sigma2, sigma12 = blocks(mix_two(vac, th, 0.5))
        assert np.allclose(sigma1, np.eye(2), atol=1e-12)
        assert np.allclose(sigma2, np.eye(2), atol=1e-12)
        assert np.allclose(np.abs(sigma12), 0.5 * np.eye(2), atol=1e-12)

    def test_block_formula_oracle(self):
        # closed-form output blocks, used only here as an independent check:
        # Sigma1 = tau s1 + (1-tau) s2, Sigma2 = tau s2 + (1-tau) s1,
        # Sigma12 = sqrt(tau (1-tau)) (s2 - s1) with this sign convention
        rng = np.random.default_rng(29)
        for _ in range(25):
            s1 = random_single_mode_cm(rng)
            s2 = random_single_mode_cm(rng)
            tau = rng.uniform(0.0, 1.0)
            sigma1, sigma2, sigma12 = blocks(mix_two(s1, s2, tau))
            assert np.allclose(sigma1, tau * s1 + (1 - tau) * s2, atol=1e-12)
            assert np.allclose(sigma2, tau * s2 + (1 - tau) * s1, atol=1e-12)
            assert np.allclose(sigma12, math.sqrt(tau * (1 - tau)) * (s2 - s1), atol=1e-12)

    @pytest.mark.parametrize(
        "sigma",
        [
            np.diag([-1.0, -1.0]),
            np.diag([2.0, -1.0]),
            -random_single_mode_cm(np.random.default_rng(3)),
        ],
        ids=["negative-definite", "indefinite", "negated-squeezed"],
    )
    def test_refuses_inputs_that_are_not_positive_definite(self, sigma):
        # each has a symplectic eigenvalue of 1/2 or more: the sign refuses it
        vac = np.diag([0.5, 0.5])
        message = "covariance matrix is not positive definite"
        for sigma1, sigma2 in ((sigma, vac), (vac, sigma)):
            with pytest.raises(PhysicalityError, match=f"^{message}$"):
                mix_two(sigma1, sigma2, 0.5)
        stack = np.stack([vac] * 4)
        stack[2] = sigma
        with pytest.raises(PhysicalityError, match=rf"^{message} \(batch member 2\)$"):
            mix_two(stack, vac, np.full(4, 0.3))

    def test_assembled_state_is_physical(self):
        state = mix_two(np.diag([0.5, 0.5]), np.diag([2.5, 2.5]), 0.3)
        assert isinstance(state, GaussianState)
        assert state.n_modes == 2 and state.batch_shape == ()
        assert np.all(symplectic_eigenvalues(state) >= 0.5 - 1e-9)


class TestPrepareDiscordantPair:
    def test_split_thermal_blocks(self):
        pair = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
        assert np.allclose(mode_block(pair, 0, 0), np.diag([1.5, 1.5]), atol=1e-12)
        assert np.allclose(mode_block(pair, 1, 1), np.diag([1.5, 1.5]), atol=1e-12)
        # off-block sqrt(t (1-t)) N_s I = 1 * I for this preparation
        assert np.allclose(mode_block(pair, 0, 1), np.eye(2), atol=1e-12)

    def test_marginal_photon_split(self):
        pair = prepare_discordant_pair(SingleModeSpec(3.0), 0.25)
        assert np.allclose(mode_block(pair, 0, 0), np.diag([0.5 + 0.75] * 2), atol=1e-12)
        assert np.allclose(mode_block(pair, 1, 1), np.diag([0.5 + 2.25] * 2), atol=1e-12)
        assert np.allclose(
            mode_block(pair, 0, 1), math.sqrt(0.25 * 0.75) * 3.0 * np.eye(2), atol=1e-12
        )

    def test_full_transmission_gives_product_with_vacuum(self):
        pair = prepare_discordant_pair(SingleModeSpec(2.0), 1.0)
        assert np.allclose(mode_block(pair, 0, 0), np.diag([2.5, 2.5]), atol=1e-12)
        assert np.allclose(mode_block(pair, 1, 1), np.diag([0.5, 0.5]), atol=1e-12)
        assert np.allclose(mode_block(pair, 0, 1), 0.0, atol=1e-12)

    def test_vacuum_source_gives_two_mode_vacuum(self):
        pair = prepare_discordant_pair(SingleModeSpec(0.0), 0.5)
        assert np.allclose(pair.cm, np.diag([0.5] * 4), atol=1e-12)


class TestRunThreeMode:
    """The three-mode protocol: ``interfere`` on a pair, and ``run_three_mode``,
    which checks a probe spec against the split pair's marginal first."""

    def test_tau_one_identity(self):
        protocol = ThreeModeProtocol(SingleModeSpec(1.0), SingleModeSpec(2.0), 0.5, 1.0)
        state_in, state_out = run_three_mode(protocol)
        assert np.allclose(state_out.cm, state_in.cm, atol=1e-12)

    def test_balanced_blocks(self):
        protocol = ThreeModeProtocol(SingleModeSpec(1.0), SingleModeSpec(2.0), 0.5, 0.5)
        _, out = run_three_mode(protocol)
        h = 1.0 / math.sqrt(2.0)
        assert np.allclose(mode_block(out, 0, 2), h * np.eye(2), atol=1e-12)
        assert np.allclose(mode_block(out, 1, 2), h * np.eye(2), atol=1e-12)
        assert np.allclose(mode_block(out, 0, 1), 0.0, atol=1e-12)

    def test_output_structure_random(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            source = random_source(rng)
            t = rng.uniform(0.15, 0.85)
            tau = rng.uniform(0.05, 0.95)
            pair = prepare_discordant_pair(source, t)
            delta = mode_block(pair, 0, 1)
            state_in, out = interfere(pair, tau)
            sigma = mode_block(pair, 0, 0)
            # the probe is the near arm's marginal, bit for bit
            assert np.array_equal(mode_block(state_in, 0, 0), sigma)
            assert np.allclose(mode_block(out, 0, 0), sigma, atol=1e-12)
            assert np.allclose(mode_block(out, 1, 1), sigma, atol=1e-12)
            assert np.allclose(mode_block(out, 0, 1), 0.0, atol=1e-12)
            assert np.allclose(mode_block(out, 0, 2), math.sqrt(1 - tau) * delta, atol=1e-12)
            assert np.allclose(mode_block(out, 1, 2), math.sqrt(tau) * delta, atol=1e-12)
            # monogamy at block level: Frobenius weight is only redistributed
            fro = lambda m: float(np.sum(m * m))
            assert fro(mode_block(out, 0, 2)) + fro(mode_block(out, 1, 2)) == pytest.approx(
                fro(delta), rel=1e-10, abs=1e-12
            )
            # global unitarity: the three-mode symplectic spectrum is untouched
            assert np.allclose(
                symplectic_eigenvalues(out), symplectic_eigenvalues(state_in), atol=1e-9
            )

    def test_marginal_mismatch_rejected(self):
        protocol = ThreeModeProtocol(SingleModeSpec(1.2), SingleModeSpec(2.0), 0.5, 0.5)
        with pytest.raises(MarginalMismatchError):
            run_three_mode(protocol)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ThreeModeProtocol(SingleModeSpec(1.0), SingleModeSpec(2.0), 1.5, 0.5)
        # a stack of transmissivities names its out-of-range member
        taus = np.array([0.2, 0.5, 1.5])
        named = r"^tau_mix must lie in \[0, 1\], got 1.5 \(batch member 2\)$"
        pair = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
        with pytest.raises(ValueError, match=named):
            ThreeModeProtocol(SingleModeSpec(1.0), SingleModeSpec(2.0), 0.5, taus)
        with pytest.raises(ValueError, match=named):
            interfere(pair, taus)
        # the probe is a pair's mode 0: a state of any other mode count is no pair
        for state, n_modes in ((tensor([pair, vacuum_state()]), 3), (vacuum_state(), 1)):
            with pytest.raises(ValueError, match=f"two-mode pair, got {n_modes} modes$"):
                interfere(state, 0.5)

    @pytest.mark.parametrize("t_split", [0.0, 0.3, 1.0])
    def test_batched_source_equals_member_runs(self, t_split):
        n_tot = np.array([0.0, 1e-9, 0.02, 1.0, 50.0])
        beta = np.array([0.0, 0.5, 0.9, 0.0, 0.3])
        source = SingleModeSpec(n_tot, beta)
        # one split and mixer for all members, then one of each per member
        for splits, taus in (
            (t_split, 0.4),
            (
                np.array([t_split, 1e-9, 0.5, 1.0 - t_split, 0.8]),
                np.array([0.4, 0.0, 1.0, 0.7, 0.1]),
            ),
        ):
            state_in, state_out = interfere(prepare_discordant_pair(source, splits), taus)
            assert state_in.batch_shape == state_out.batch_shape == (5,)
            for i, (n, b) in enumerate(zip(n_tot, beta)):
                single = SingleModeSpec(float(n), float(b))
                split, tau = (float(np.broadcast_to(x, 5)[i]) for x in (splits, taus))
                single_in, single_out = interfere(prepare_discordant_pair(single, split), tau)
                assert np.array_equal(state_in.cm[i], single_in.cm)
                assert np.array_equal(state_out.cm[i], single_out.cm)

    def test_batched_interfere_equals_member_calls(self):
        # general pairs against a column of taus, axes (tau, pair) as in the
        # sweep: each member is bit for bit its own call
        pairs = random_two_mode_state(np.random.default_rng(41), (5,))
        taus = np.array([[0.0], [1e-9], [0.3], [1.0]])
        state_in, state_out = interfere(pairs, taus)
        assert state_in.batch_shape == (5,) and state_out.batch_shape == (4, 5)
        for j in range(5):
            pair = GaussianState(pairs.cm[j])
            for i, tau in enumerate(taus[:, 0].tolist()):
                single_in, single_out = interfere(pair, tau)
                assert np.array_equal(state_in.cm[j], single_in.cm)
                assert np.array_equal(state_out.cm[i, j], single_out.cm)

    def test_marginal_mismatch_names_member(self):
        source = SingleModeSpec(np.array([1.0, 2.0, 3.0]))
        probe = SingleModeSpec(np.array([0.5, 1.0, 1.6]))
        with pytest.raises(MarginalMismatchError, match=r"batch member 2\b"):
            run_three_mode(ThreeModeProtocol(probe, source, 0.5, 0.5))

    @pytest.mark.parametrize("t_split", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("n_source", [1e7, 1e9])
    def test_bright_source_runs(self, n_source, t_split):
        # the marginal match scales with the probe CM: at 1e7 photons and
        # t_split 0.3 or 0.5 the split's marginal rounds 4.7e-10 and 9.3e-10
        # off the probe's, which an absolute 1e-10 would refuse
        probe = SingleModeSpec(t_split * n_source)
        source = SingleModeSpec(n_source)
        _, out = run_three_mode(ThreeModeProtocol(probe, source, t_split, 0.4))
        assert np.allclose(mode_block(out, 0, 0), single_mode_cm(probe), rtol=1e-12, atol=0.0)

    def test_bright_mismatched_probe_rejected(self):
        source = SingleModeSpec(np.array([1e7, 2e7]))
        off = SingleModeSpec(0.5 * source.n_tot * np.array([1.0, 1.0 + 1e-8]))
        with pytest.raises(MarginalMismatchError, match=r"batch member 1\b"):
            run_three_mode(ThreeModeProtocol(off, source, 0.5, 0.5))


def polarization_filtered(spec1, spec2):
    """Two-mode states behind the H and V filters of the erasure preset (tau = 1/2).

    With orthogonally polarized inputs the beams do not interfere: each input
    mixes with the vacuum entering the other port, beam 1 on H and beam 2 on V.
    """
    half = bs_symplectic(0.5)
    h_state = apply_symplectic(tensor([single_mode_state(spec1), vacuum_state()]), half)
    v_state = apply_symplectic(tensor([vacuum_state(), single_mode_state(spec2)]), half)
    return h_state, v_state


class TestPolarizationFiltered:
    def test_vacuum_input(self):
        h_state, _ = polarization_filtered(SingleModeSpec(0.0), SingleModeSpec(1.0))
        assert np.allclose(h_state.cm, np.diag([0.5] * 4), atol=1e-12)

    def test_thermal_blocks(self):
        h_state, v_state = polarization_filtered(SingleModeSpec(1.0), SingleModeSpec(1.0))
        assert np.allclose(mode_block(h_state, 0, 0), np.eye(2), atol=1e-12)
        assert np.allclose(mode_block(h_state, 0, 1), -0.5 * np.eye(2), atol=1e-12)
        assert np.allclose(mode_block(v_state, 0, 1), 0.5 * np.eye(2), atol=1e-12)

    def test_matches_block_formula_oracle(self):
        # written-out filtered CMs: 1/2 [[s + s0, +/-(s0 - s)], [+/-(s0 - s), s + s0]]
        rng = np.random.default_rng(41)
        for _ in range(20):
            spec1 = random_source(rng)
            spec2 = random_source(rng)
            s1 = single_mode_cm(spec1)
            s2 = single_mode_cm(spec2)
            s0 = np.diag([0.5, 0.5])
            h_state, v_state = polarization_filtered(spec1, spec2)
            expected_h = 0.5 * np.block([[s1 + s0, s0 - s1], [s0 - s1, s1 + s0]])
            expected_v = 0.5 * np.block([[s2 + s0, s2 - s0], [s2 - s0, s2 + s0]])
            assert np.allclose(h_state.cm, expected_h, atol=1e-12)
            assert np.allclose(v_state.cm, expected_v, atol=1e-12)

    def test_outputs_physical(self):
        h_state, v_state = polarization_filtered(SingleModeSpec(2.0, 0.6), SingleModeSpec(1.0, 0.2))
        for state in (h_state, v_state):
            assert np.all(symplectic_eigenvalues(state) >= 0.5 - 1e-9)


specs = st.builds(SingleModeSpec, n_tot=st.floats(0.0, 10.0), beta=st.floats(0.0, 1.0))
# mixed products of single-mode states and generic correlated states
two_mode_states = st.one_of(
    st.builds(
        lambda a, b, tau: apply_symplectic(
            tensor([single_mode_state(a), single_mode_state(b)]), bs_symplectic(tau)
        ),
        specs, specs, st.floats(0.0, 1.0),
    ),
    st.builds(lambda seed: random_two_mode_state(np.random.default_rng(seed)), st.integers(0, 2**32)),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(state=two_mode_states, tau=st.floats(0.0, 1.0))
def test_bs_preserves_symplectic_spectrum(state, tau):
    before = symplectic_eigenvalues(state)
    after = symplectic_eigenvalues(apply_symplectic(state, bs_symplectic(tau)))
    assert np.allclose(after, before, rtol=1e-9, atol=0.0)
