"""Tests for the covariance-matrix engine."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import block_diag

from cvbench.states import (
    PHYSICALITY_TOL,
    SYMMETRY_TOL,
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
from helpers import random_single_mode_cm, random_symplectic, random_two_mode_state


def balanced_bs_4x4():
    # explicit matrix, written out so these tests do not depend on the network module
    h = 1.0 / math.sqrt(2.0)
    eye = np.eye(2)
    return np.block([[h * eye, h * eye], [-h * eye, h * eye]])


class TestSingleModeSpec:
    def test_vacuum_regardless_of_beta(self):
        assert np.allclose(single_mode_cm(SingleModeSpec(0.0, 0.7)), np.diag([0.5, 0.5]))

    def test_thermal(self):
        assert np.allclose(single_mode_cm(SingleModeSpec(1.0, 0.0)), np.diag([1.5, 1.5]))

    def test_squeezed_vacuum(self):
        cm = single_mode_cm(SingleModeSpec(1.0, 1.0))
        assert np.allclose(np.diag(cm), [1.5 + math.sqrt(2.0), 1.5 - math.sqrt(2.0)])
        assert abs(np.linalg.det(cm) - 0.25) < 1e-12  # pure state

    def test_nearly_pure_bright_modes(self):
        # f- = 1/2 + N - shift would cancel for a nearly pure squeezed mode;
        # single_mode_cm takes f- from the purity identity instead, and the
        # symplectic eigenvalue read off the built state must still be nu
        n_tot = np.geomspace(1e-6, 1e9, 4000)
        for beta in (0.5, 0.9, 0.99, 0.999, 0.99999, 1.0):
            state = single_mode_state(SingleModeSpec(n_tot, beta))
            nu = symplectic_eigenvalues(state)[:, 0]
            assert np.allclose(nu, 0.5 + (1.0 - beta) * n_tot, rtol=1e-6, atol=0.0)
        cm = single_mode_cm(SingleModeSpec(1e4, 1.0))
        assert cm[0, 0] * cm[1, 1] == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.9, 0.999, 0.99999, 1.0])
    def test_f_minus_obeys_the_purity_identity(self, beta):
        # f- = nu (nu / f+) keeps f+ f- = nu^2 to rounding, nu = 1/2 + (1 - beta) N,
        # checked in exact rationals of the float CM (measured worst 1.94 eps,
        # at N 3.2e3, beta 0.3); f- = 1/2 + N - shift loses up to 5.5e-13 of
        # nu^2 to cancellation (N 23.4, beta 0.999). A thermal mode keeps
        # f- = f+ bit for bit, as nu / f+ = 1 exactly
        n_tot = np.geomspace(1e-6, 1e9, 400)
        cm = single_mode_cm(SingleModeSpec(n_tot, beta))
        bound = 4 * Fraction(np.finfo(float).eps)
        for n, f_plus, f_minus in zip(n_tot.tolist(), cm[:, 0, 0].tolist(), cm[:, 1, 1].tolist()):
            nu = Fraction(1, 2) + (1 - Fraction(beta)) * Fraction(n)
            assert abs(Fraction(f_plus) * Fraction(f_minus) - nu * nu) <= bound * nu * nu, n
        if beta == 0.0:
            assert np.array_equal(cm[:, 1, 1], cm[:, 0, 0])

    def test_purity_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            spec = SingleModeSpec(rng.uniform(0.0, 10.0), rng.uniform(0.0, 1.0))
            expected = (0.5 + (1.0 - spec.beta) * spec.n_tot) ** 2
            assert abs(np.linalg.det(single_mode_cm(spec)) - expected) <= 1e-10 * max(1.0, expected)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SingleModeSpec(-0.1, 0.0)
        with pytest.raises(ValueError):
            SingleModeSpec(1.0, 1.2)
        with pytest.raises(ValueError):
            SingleModeSpec(float("nan"), 0.0)
        # an infinite source is refused by the spec, for a scalar and in a batch
        for n_tot in (float("inf"), np.array([1.0, np.inf, 2.0])):
            with pytest.raises(ValueError, match="n_tot must be finite and >= 0"):
                SingleModeSpec(n_tot, 0.5)

    @pytest.mark.parametrize("n_tot, beta", [(1e200, 0.5), (1e160, 1.0), (1e300, 0.0)])
    def test_overflowing_member_refused(self, n_tot, beta):
        # f+ or the purity-identity determinant nu^2 overflows. The refusal
        # names n_tot and the member, and no RuntimeWarning escapes (this
        # suite turns one into an error)
        message = re.escape(f"n_tot {n_tot:g} overflows the covariance matrix")
        with pytest.raises(ValueError, match=f"^{message}$") as exc:
            single_mode_cm(SingleModeSpec(n_tot, beta))
        assert exc.value.member is None
        with pytest.raises(ValueError, match=rf"^{message} \(batch member 2\)$") as exc:
            single_mode_cm(SingleModeSpec(np.array([1.0, 1e100, n_tot, n_tot]), beta))
        assert exc.value.member == (2,)

    @pytest.mark.parametrize("n_tot, beta", [(1e150, 0.0), (1e100, 0.5)])
    def test_bright_member_keeps_its_bits(self, n_tot, beta):
        # no overflow: f+ and f- = nu (nu / f+) of the formula in Python floats
        f_plus = 0.5 + n_tot + math.sqrt(beta * n_tot * (1.0 + n_tot * (2.0 - beta)))
        nu = 0.5 + (1.0 - beta) * n_tot
        expected = np.diag([f_plus, nu * (nu / f_plus)])
        assert np.array_equal(single_mode_cm(SingleModeSpec(n_tot, beta)), expected)
        batch = single_mode_cm(SingleModeSpec(np.array([1.0, n_tot]), beta))
        assert np.array_equal(batch[1], expected)

    def test_derived_quantities(self):
        spec = SingleModeSpec(2.0, 0.25)
        assert spec.n_thermal == pytest.approx(1.5)
        # list fields broadcast as they do for single_mode_cm
        assert np.array_equal(SingleModeSpec([1.0, 2.0], [0.0, 0.5]).n_thermal, [1.0, 1.0])


class TestGaussianState:
    def test_vacuum(self):
        assert np.allclose(vacuum_state().cm, np.diag([0.5, 0.5]))
        assert np.allclose(tensor([vacuum_state()] * 2).cm, np.diag([0.5] * 4))

    def test_rejects_below_vacuum(self):
        with pytest.raises(PhysicalityError):
            GaussianState(np.diag([0.5 - 1e-6, 0.5 - 1e-6]))

    def test_accepts_tiny_undershoot(self):
        GaussianState(np.diag([0.5 - 1e-10, 0.5 - 1e-10]))

    # the tolerance is 1e-12 of max(1, the largest entry): 1e-6 for a bright CM,
    # where an absolute 1e-12 would refuse the rounding of its entries
    @pytest.mark.parametrize(
        "scale, asymmetry, refused",
        [(1.0, 1e-6, True), (1e6, 1e-9, False), (1e6, 1e-5, True)],
        ids=["unit-refused", "bright-accepted", "bright-refused"],
    )
    def test_rejects_asymmetry(self, scale, asymmetry, refused):
        cm = np.diag([scale, scale])
        cm[0, 1] = asymmetry
        if refused:
            with pytest.raises(PhysicalityError, match=f"asymmetry {asymmetry:g} exceeds"):
                GaussianState(cm)
        else:
            assert np.array_equal(GaussianState(cm).cm, (cm + cm.T) / 2.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            GaussianState(np.eye(3))

    def test_immutable(self):
        state = thermal_state(1.0)
        with pytest.raises(ValueError):
            state.cm[0, 0] = 99.0


class TestTensorAndPartialTrace:
    def test_tensor_vacua(self):
        assert np.allclose(tensor([vacuum_state(), vacuum_state()]).cm, np.diag([0.5] * 4))

    def test_tensor_thermal_pair(self):
        sigma = single_mode_cm(SingleModeSpec(1.0, 0.0))
        prod = tensor([single_mode_state(SingleModeSpec(1.0)), single_mode_state(SingleModeSpec(1.0))])
        assert np.allclose(prod.cm[:2, :2], sigma)
        assert np.allclose(prod.cm[2:, 2:], sigma)
        assert np.allclose(prod.cm[:2, 2:], 0.0)

    def test_tensor_three_modes(self):
        state = tensor([vacuum_state(), thermal_state(1.0), thermal_state(2.0)])
        assert state.n_modes == 3
        assert state.cm.shape == (6, 6)

    def test_partial_trace_product(self):
        a = thermal_state(2.0)
        b = single_mode_state(SingleModeSpec(1.0, 0.5))
        prod = tensor([a, b])
        assert np.array_equal(partial_trace(prod, {0}).cm, a.cm)
        assert np.array_equal(partial_trace(prod, {1}).cm, b.cm)

    def test_partial_trace_split_thermal(self):
        # explicit 4x4 congruence: thermal(2) and vacuum through a balanced BS
        source = np.diag([2.5, 2.5, 0.5, 0.5])
        s = balanced_bs_4x4()
        mixed = GaussianState(s @ source @ s.T)
        reduced = partial_trace(mixed, {0})
        assert np.allclose(reduced.cm, np.diag([1.5, 1.5]), atol=1e-12)

    def test_partial_trace_keep_all(self):
        state = tensor([thermal_state(1.0), vacuum_state()])
        assert np.array_equal(partial_trace(state, (0, 1)).cm, state.cm)
        # in the listed order: (1, 0) swaps the blocks A, B and C of a pair and of a batch
        for shape in ((), (3,)):
            pair = random_two_mode_state(np.random.default_rng(8), shape)
            a, b, c = pair.cm[..., :2, :2], pair.cm[..., 2:, 2:], pair.cm[..., :2, 2:]
            swapped = np.block([[b, c.swapaxes(-1, -2)], [c, a]])
            assert np.array_equal(partial_trace(pair, (1, 0)).cm, swapped)

    def test_partial_trace_errors(self):
        state = tensor([vacuum_state()] * 2)
        with pytest.raises(ValueError):
            partial_trace(state, set())
        with pytest.raises(IndexError):
            partial_trace(state, {2})
        with pytest.raises(ValueError, match=re.escape("mode indices [0, 0] name a mode twice")):
            partial_trace(state, (0, 0))


class TestSymplecticSpectrum:
    def test_vacuum(self):
        assert np.allclose(symplectic_eigenvalues(vacuum_state()), [0.5])

    def test_thermal_is_sqrt_det(self):
        state = thermal_state(1.0)
        expected = math.sqrt(np.linalg.det(state.cm))
        assert symplectic_eigenvalues(state)[0] == pytest.approx(expected, abs=1e-12)
        assert symplectic_eigenvalues(state)[0] == pytest.approx(1.5, abs=1e-12)

    def test_squeezed_vacuum_is_pure(self):
        state = single_mode_state(SingleModeSpec(1.0, 1.0))
        assert symplectic_eigenvalues(state)[0] == pytest.approx(0.5, abs=1e-12)

    def test_sorted_ascending(self):
        state = tensor([thermal_state(3.0), vacuum_state(), thermal_state(1.0)])
        d = symplectic_eigenvalues(state)
        assert np.allclose(d, [0.5, 1.5, 3.5])


class TestSymplecticOp:
    def test_rejects_non_symplectic(self):
        with pytest.raises(SymplecticError):
            SymplecticOp(np.diag([2.0, 2.0]))
        # in a stack, the one offending member is named
        stack = np.stack([np.eye(2), np.diag([2.0, 0.5]), np.diag([2.0, 2.0]), np.eye(2)])
        with pytest.raises(SymplecticError, match=r"by 3 \(batch member 2\)$"):
            SymplecticOp(stack)

    def test_rejects_non_finite(self):
        with pytest.raises(SymplecticError):
            SymplecticOp([[np.nan, 0.0], [0.0, 1.0]])

    def test_overflowing_congruence_refused(self):
        # a valid symplectic whose congruence overflows; the closed result is
        # not eigen-checked, so apply_symplectic refuses it itself
        op = SymplecticOp(np.diag([1e200, 1e-200]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            apply_symplectic(thermal_state(1.0), op)

    def test_accepts_squeezer(self):
        op = SymplecticOp(np.diag([2.0, 0.5]))
        assert op.n_modes == 1

    def test_identity_leaves_state(self):
        state = thermal_state(2.0)
        out = apply_symplectic(state, SymplecticOp(np.eye(2)))
        assert np.array_equal(out.cm, state.cm)

    def test_balanced_bs_on_identical_inputs(self):
        sigma = single_mode_cm(SingleModeSpec(1.0, 0.0))
        pair = tensor([GaussianState(sigma), GaussianState(sigma)])
        out = apply_symplectic(pair, SymplecticOp(balanced_bs_4x4()))
        assert np.allclose(out.cm, pair.cm, atol=1e-12)

    def test_balanced_bs_vacuum_thermal(self):
        pair = tensor([vacuum_state(), thermal_state(1.0)])
        out = apply_symplectic(pair, SymplecticOp(balanced_bs_4x4()))
        assert np.allclose(mode_block(out, 0, 0), np.diag([1.0, 1.0]), atol=1e-12)
        assert np.allclose(mode_block(out, 1, 1), np.diag([1.0, 1.0]), atol=1e-12)
        assert np.allclose(np.abs(mode_block(out, 0, 1)), 0.5 * np.eye(2), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_symplectic(vacuum_state(), SymplecticOp(balanced_bs_4x4()))

    def test_congruence_preserves_spectrum_and_det(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = tensor([GaussianState(random_single_mode_cm(rng)) for _ in range(2)])
            op = SymplecticOp(random_symplectic(rng, 2))
            out = apply_symplectic(state, op)
            assert np.allclose(
                symplectic_eigenvalues(out), symplectic_eigenvalues(state), atol=1e-9
            )
            assert np.linalg.det(out.cm) == pytest.approx(np.linalg.det(state.cm), rel=1e-10)


def test_omega_structure():
    w = omega(2)
    assert np.array_equal(w[:2, :2], [[0, 1], [-1, 0]])
    assert np.array_equal(w, -w.T)
    assert np.array_equal(w[:2, 2:], np.zeros((2, 2)))


class TestOmegaCache:
    @pytest.mark.parametrize("n_modes", range(1, 7))
    def test_matches_block_diag(self, n_modes):
        w = omega(n_modes)
        ref = block_diag(*([np.array([[0.0, 1.0], [-1.0, 0.0]])] * n_modes))
        assert w.dtype == ref.dtype and np.array_equal(w, ref)

    def test_shared_instance(self):
        assert omega(3) is omega(3)

    def test_read_only(self):
        w = omega(2)
        with pytest.raises(ValueError):
            w[0, 1] = 5.0
        assert w[0, 1] == 1.0


@pytest.mark.parametrize("n_factors", range(1, 5))
def test_tensor_matches_block_diag(n_factors):
    rng = np.random.default_rng(100 + n_factors)
    for _ in range(10):
        factors = [
            random_two_mode_state(rng) if rng.random() < 0.5
            else GaussianState(random_single_mode_cm(rng))
            for _ in range(n_factors)
        ]
        ref = GaussianState(block_diag(*[f.cm for f in factors]))
        assert np.array_equal(tensor(factors).cm, ref.cm)


class TestBatchedStates:
    """A CM stack of shape (..., 2n, 2n) is a batch: each member as if built alone."""

    def test_unphysical_member_named(self):
        cms = np.stack([single_mode_cm(SingleModeSpec(n)) for n in (0.5, 1.0, 2.0, 3.0, 4.0)])
        cms[3] = np.diag([0.4, 0.4])
        with pytest.raises(PhysicalityError, match=r"batch member 3\b"):
            GaussianState(cms)
        # with several offenders the first one is named, with its own eigenvalue
        cms[4] = np.diag([0.3, 0.3])
        with pytest.raises(PhysicalityError, match=r"eigenvalue 0\.4 lies .* \(batch member 3\)$"):
            GaussianState(cms)

    def test_asymmetric_and_non_finite_members_named(self):
        cms = np.stack([np.eye(2)] * 6).reshape(2, 3, 2, 2)
        cms[1, 2, 0, 1] = 1e-6
        with pytest.raises(PhysicalityError, match=r"batch member \(1, 2\)"):
            GaussianState(cms)
        cms[1, 2, 0, 1] = 0.0
        cms[0, 1, 1, 1] = np.nan
        with pytest.raises(ValueError, match=r"non-finite entries \(batch member \(0, 1\)\)"):
            GaussianState(cms)

    def test_symmetry_reduction_refuses_what_the_member_rule_refuses(self):
        # the stack is reduced once against SYMMETRY_TOL, and only its failure
        # computes the member rule, SYMMETRY_TOL max(1, max|cm|)
        stack = np.stack([np.eye(2), np.eye(2), 1e6 * np.eye(2), np.eye(2), 1e6 * np.eye(2)])
        stack[1, 0, 1] += 1e-13  # within the tolerance
        stack[2, 0, 1] += 1e-9  # beyond SYMMETRY_TOL, within SYMMETRY_TOL max|cm| = 1e-6
        stack[3, 1, 0] += 1e-6  # beyond both at unit scale
        stack[4, 0, 1] += 1e-5  # beyond both at scale 1e6
        asym = np.abs(stack - stack.swapaxes(-1, -2)).max(axis=(-2, -1))
        rule = asym > SYMMETRY_TOL * np.maximum(1.0, np.abs(stack).max(axis=(-2, -1)))
        assert list(rule) == [False, False, False, True, True] and asym[2] > SYMMETRY_TOL
        for cm, refused in zip(stack, rule):
            if refused:
                with pytest.raises(PhysicalityError, match="asymmetry"):
                    GaussianState(cm)
            else:
                assert np.array_equal(GaussianState(cm).cm, (cm + cm.T) / 2.0)
        for members, named in ((slice(None), "1e-06 exceeds tolerance (batch member 3)"),
                               ([0, 2, 4], "1e-05 exceeds tolerance (batch member 2)")):
            with pytest.raises(PhysicalityError) as exc:
                GaussianState(stack[members])
            assert str(exc.value) == "covariance matrix asymmetry " + named
        kept = GaussianState(stack[:3]).cm
        assert np.array_equal(kept, (stack[:3] + stack[:3].swapaxes(-1, -2)) / 2.0)

    def test_single_state_messages_name_no_member(self):
        with pytest.raises(PhysicalityError) as exc:
            GaussianState(np.diag([0.4, 0.4]))
        assert "batch" not in str(exc.value)

    def test_array_spec_gives_member_cms(self):
        n_tot = np.array([0.0, 0.3, 2.0, 7.5])
        beta = np.array([0.7, 0.0, 1.0, 0.4])
        cms = single_mode_cm(SingleModeSpec(n_tot, beta))
        assert cms.shape == (4, 2, 2)
        for cm, n, b in zip(cms, n_tot, beta):
            assert np.array_equal(cm, single_mode_cm(SingleModeSpec(float(n), float(b))))

    def test_array_spec_validated_per_member(self):
        with pytest.raises(ValueError):
            SingleModeSpec(np.array([1.0, -0.1]))
        with pytest.raises(ValueError):
            SingleModeSpec(np.array([1.0, 2.0]), np.array([0.5, 1.2]))
        with pytest.raises(ValueError):
            SingleModeSpec(np.array([1.0, np.nan]))

    def test_batched_source_tensored_with_one_vacuum(self):
        n_tot = np.geomspace(0.01, 10.0, 7)
        source = single_mode_state(SingleModeSpec(n_tot))
        pair = tensor([vacuum_state(), source])
        assert pair.batch_shape == (7,) and pair.n_modes == 2
        for i, n in enumerate(n_tot):
            single = tensor([vacuum_state(), single_mode_state(SingleModeSpec(float(n)))])
            assert np.array_equal(pair.cm[i], single.cm)
        assert np.array_equal(mode_block(pair, 1, 1), source.cm)
        assert np.array_equal(partial_trace(pair, {1}).cm, source.cm)

    def test_symplectic_spectrum_per_member(self):
        rng = np.random.default_rng(5)
        states = [random_two_mode_state(rng) for _ in range(5)]
        batch = GaussianState(np.stack([s.cm for s in states]))
        assert np.array_equal(
            symplectic_eigenvalues(batch), [symplectic_eigenvalues(s) for s in states]
        )


def eigen_smallest(cm):
    """Smallest symplectic eigenvalue per member, eigen-solved: the rule of the refusal."""
    return np.abs(np.linalg.eigvals(omega(cm.shape[-1] // 2) @ cm)).min(axis=-1)


def local_squeezer(r, theta):
    """R(theta) diag(e^-r, e^r) R(theta)^T: a squeezer along the axis at angle theta."""
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([np.exp(-r), np.exp(r)]) @ rot.T


def williamson_cm(rng, n_modes, nu_min):
    """S diag(nu_1, nu_1, ..., nu_n, nu_n) S^T with S random symplectic and
    ``nu_min`` the smallest nu_k, held by a randomly chosen mode."""
    nu = rng.uniform(0.8, 2.5, n_modes)
    nu[rng.integers(n_modes)] = nu_min
    s = random_symplectic(rng, n_modes)
    return s @ np.diag(np.repeat(nu, 2)) @ s.T


class TestPhysicalityCheck:
    """The Cholesky factor of cm + i (1/2 - slack) Omega decides as the eigen-solve does.

    Away from the rounding band of the bound, a CM is accepted exactly when its
    eigen-solved symplectic spectrum reaches 1/2 - PHYSICALITY_TOL, and a
    refusal names the member and the eigenvalue that the eigen-solve finds.
    """

    BOUND = 0.5 - PHYSICALITY_TOL

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("offset", [1e-6, 1e-8, -2e-9, -1e-6])
    def test_agrees_with_the_eigen_solve(self, n_modes, offset):
        rng = np.random.default_rng(n_modes)
        cm = williamson_cm(rng, n_modes, 0.5 + offset)
        # a stack whose member 2 holds the case, among clearly physical members
        stack = np.stack([williamson_cm(rng, n_modes, 0.8) for _ in range(4)])
        stack[2] = cm
        for cms, member in ((cm, ()), (stack, (2,))):
            d_min = eigen_smallest(cms)
            # away from the band the eigen-solve reads the side of the bound that nu has
            assert np.all(d_min >= self.BOUND) == (offset > -PHYSICALITY_TOL)
            if offset > -PHYSICALITY_TOL:
                assert np.array_equal(GaussianState(cms).cm, (cms + cms.swapaxes(-1, -2)) / 2.0)
                continue
            message = f"smallest symplectic eigenvalue {d_min[member]:.12g} lies below the vacuum "
            message += "limit 1/2" + "".join(f" (batch member {i})" for i in member)
            with pytest.raises(PhysicalityError) as exc:
                GaussianState(cms)
            assert str(exc.value) == message

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("offset", [0.0, -5e-10, 1e-8])
    def test_physical_states_need_no_eigen_solve(self, monkeypatch, n_modes, offset):
        # pure modes sit at 1/2 exactly, and the slack admits a little below it
        rng = np.random.default_rng(7 * n_modes)
        cms = np.stack([williamson_cm(rng, n_modes, 0.5 + offset) for _ in range(3)])

        def refuse(*args):
            raise AssertionError("eigen-solve on a state the Cholesky factor proves")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        GaussianState(cms)
        GaussianState(cms[1])
        GaussianState(np.eye(2 * n_modes) / 2.0)

    # split thermal pairs under random local squeezers: one symplectic
    # eigenvalue is exactly 1/2, so each rounds to either side of the bound
    @pytest.mark.parametrize("n_source, r_max", [(1e4, 3.0), (1e6, 2.0), (1e8, 1.0)])
    def test_rounding_band_refuses_only_what_the_eigen_solve_refuses(self, n_source, r_max):
        a, c = (0.5 + n_source / 2.0) * np.eye(2), n_source / 2.0 * np.eye(2)
        pair = np.block([[a, c], [c, a]])
        rng = np.random.default_rng(1)
        draws = rng.uniform([-r_max, 0.0] * 2, [r_max, np.pi] * 2, (200, 4))
        for r1, theta1, r2, theta2 in draws:
            s = block_diag(local_squeezer(r1, theta1), local_squeezer(r2, theta2))
            cm = s @ pair @ s.T
            cm = (cm + cm.T) / 2.0
            try:
                GaussianState(cm)
            except PhysicalityError as exc:
                # every refusal is the eigen-solve's, with its value
                d_min = eigen_smallest(cm)
                assert d_min < self.BOUND
                assert f"eigenvalue {d_min:.12g} lies below" in str(exc)


def not_positive_definite(rng, n_modes):
    """CMs of ``n_modes`` modes that are not positive definite but whose
    symplectic eigenvalues all reach 1/2: a spectrum alone accepts them."""
    negative_mode = np.eye(2 * n_modes)
    negative_mode[-2:, -2:] *= -1.0  # one mode of variance -1, the others 1
    cases = [-williamson_cm(rng, n_modes, 0.8), negative_mode]
    if n_modes == 1:
        cases.append(np.diag([2.0, -1.0]))  # indefinite: det -2, spectrum sqrt 2
    return cases


class TestPositiveDefiniteness:
    """A CM that is not positive definite is refused, whatever its symplectic spectrum.

    The spectrum is that of -cm too, so the sign is read apart from it. The
    one-mode entry check reads it exactly; for more modes a refusal reads it
    from the smallest eigenvalue, outside a rounding band of 8 eps max|cm|.
    """

    MESSAGE = "covariance matrix is not positive definite"

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_refused_alone_and_as_member_2(self, n_modes):
        rng = np.random.default_rng(60 + n_modes)
        for cm in not_positive_definite(rng, n_modes):
            assert np.linalg.eigvalsh(cm)[0] < -0.5
            assert eigen_smallest(cm) >= 0.5
            with pytest.raises(PhysicalityError) as exc:
                GaussianState(cm)
            assert str(exc.value) == self.MESSAGE and exc.value.member is None
            stack = np.stack([williamson_cm(rng, n_modes, 0.8) for _ in range(4)])
            stack[2] = cm
            with pytest.raises(PhysicalityError) as exc:
                GaussianState(stack)
            assert str(exc.value) == self.MESSAGE + " (batch member 2)"
            assert exc.value.member == (2,)

    def test_first_offender_named_with_its_own_reason(self):
        stack = np.stack([np.eye(2)] * 4)
        stack[1] = -np.eye(2)
        stack[3] = np.diag([0.4, 0.4])
        with pytest.raises(PhysicalityError) as exc:
            GaussianState(stack)
        assert str(exc.value) == self.MESSAGE + " (batch member 1)"
        # below the vacuum and negative definite: the eigenvalue is named, as for diag(0.4, 0.4)
        stack[1] = np.diag([-0.4, -0.4])
        with pytest.raises(PhysicalityError, match=r"^smallest symplectic eigenvalue 0\.4 lies "):
            GaussianState(stack)

    @pytest.mark.parametrize("n_source, r_max", [(1.0, 12.0), (1e2, 10.0), (1e4, 8.0)])
    def test_strongly_squeezed_states_keep_their_sign(self, n_source, r_max):
        # split thermal pairs under local squeezers of variance factors down to
        # e^-24: the smallest eigenvalue of some of them reads up to 3 eps max|cm|
        # below 0, and none of those is refused for its sign
        a, c = (0.5 + n_source / 2.0) * np.eye(2), n_source / 2.0 * np.eye(2)
        pair = np.block([[a, c], [c, a]])
        rng = np.random.default_rng(1)
        draws = rng.uniform([-r_max, 0.0] * 2, [r_max, np.pi] * 2, (200, 4))
        signs_in_band = 0
        for r1, theta1, r2, theta2 in draws:
            s = block_diag(local_squeezer(r1, theta1), local_squeezer(r2, theta2))
            cm = s @ pair @ s.T
            cm = (cm + cm.T) / 2.0
            signs_in_band += np.linalg.eigvalsh(cm)[0] <= 0.0
            try:
                GaussianState(cm)
            except PhysicalityError as exc:
                assert "eigenvalue" in str(exc)
        assert signs_in_band > 0


class TestOneModeClosedForm:
    """One mode's entry check and spectrum are closed forms of the general solvers' answers.

    For cm = [[a, b], [b, c]], cm + i nu Omega has a Cholesky factor exactly
    when a > 0 and ac - b^2 > nu^2 (Simon, Mukunda & Dutta, PRA 49, 1567
    (1994)), and sqrt(ac - b^2) is the modulus of both eigenvalues of Omega cm.
    """

    BOUND = 0.5 - PHYSICALITY_TOL

    @classmethod
    def cms(cls):
        """Thermal, squeezed and rotated squeezed CMs of symplectic eigenvalue
        d near the bound, N from 1e-6 to 1e7 photons, and their negatives."""
        offsets = np.geomspace(1e-17, 1e-6, 12)
        ds = cls.BOUND * (1.0 + np.concatenate([-offsets, [0.0], offsets]))
        cms = [d * np.eye(2) for d in ds]
        cms += [(0.5 + n) * np.eye(2) for n in np.geomspace(1e-6, 1e7, 14)]
        for n in np.geomspace(1e-6, 1e7, 14):
            for d in ds:
                # d (s + 1/s) / 2 = 1/2 + N
                m = (0.5 + n) / d
                s = m + math.sqrt(m * m - 1.0)
                for theta in (0.0, 0.3, 1.1):
                    cm = d * local_squeezer(-math.log(s), theta)
                    cms.append((cm + cm.T) / 2.0)
        cms = np.array(cms)
        return np.concatenate([cms, -cms])

    @staticmethod
    def accepted(cm):
        try:
            GaussianState(cm)
        except PhysicalityError:
            return False
        return True

    def test_entry_verdict_is_the_cholesky_factor(self):
        # outside a band of 4 units of eps (|ac| + b^2 + nu^2) around the exact
        # ac - b^2 = nu^2, both verdicts are the exact one; the largest
        # disagreement measured lies 0.9 units from it
        nu2 = Fraction(self.BOUND) ** 2
        jw = 1j * self.BOUND * omega(1)
        outside = {True: 0, False: 0}
        for cm in self.cms():
            a, b, c = (Fraction(float(x)) for x in (cm[0, 0], cm[0, 1], cm[1, 1]))
            det = a * c - b * b
            unit = np.finfo(float).eps * float(abs(a * c) + b * b + nu2)
            if a > 0 and abs(float(det - nu2)) <= 4 * unit:
                continue
            exact = a > 0 and det > nu2
            try:
                np.linalg.cholesky(cm + jw)
                factored = True
            except np.linalg.LinAlgError:
                factored = False
            assert self.accepted(cm) == factored == exact, cm
            outside[exact] += 1
        # the band leaves 333 accepted and 1,407 refused CMs, the nearest of
        # them 2e-15 from the bound in relative terms
        assert outside[True] > 300 and outside[False] > 1300

    def test_spectrum_is_the_eigen_solve(self):
        # the determinant's condition kappa = (|ac| + b^2) / det scales the
        # rounding of both; the largest disagreement measured is 2 eps kappa
        cms = np.array([cm for cm in self.cms() if self.accepted(cm)])
        d = symplectic_eigenvalues(GaussianState(cms))[:, 0]
        d_eigen = eigen_smallest(cms)
        kappa = (np.abs(cms[:, 0, 0] * cms[:, 1, 1]) + cms[:, 0, 1] ** 2) / d**2
        assert np.all(np.abs(d - d_eigen) <= 8 * np.finfo(float).eps * kappa * d)
        # away from cancellation the two agree to a few eps
        calm = kappa < 10.0
        assert calm.sum() > 100
        assert np.all(np.abs(d - d_eigen)[calm] <= 8 * np.finfo(float).eps * d[calm])

class TestClosedOperations:
    """Closed operations skip the entry check; their results must pass it unchanged."""

    @staticmethod
    def states(rng):
        single = random_two_mode_state(rng)
        batch = random_two_mode_state(rng, (6,))
        return single, batch

    @pytest.mark.parametrize(
        "operation",
        [
            lambda state, rng: tensor([state, GaussianState(random_single_mode_cm(rng))]),
            lambda state, rng: partial_trace(state, {1}),
            lambda state, rng: apply_symplectic(state, SymplecticOp(random_symplectic(rng, 2))),
            lambda state, rng: vacuum_state(),
        ],
        ids=["tensor", "partial_trace", "apply_symplectic", "vacuum_state"],
    )
    def test_results_pass_the_entry_check(self, operation):
        rng = np.random.default_rng(41)
        for _ in range(20):
            for state in self.states(rng):
                out = operation(state, rng)
                assert not out.cm.flags.writeable
                assert np.array_equal(GaussianState(out.cm).cm, out.cm)

    def test_closed_operations_run_no_eigen_solve(self, monkeypatch):
        rng = np.random.default_rng(43)
        state, batch = self.states(rng)
        op = SymplecticOp(random_symplectic(rng, 2))

        def refuse(*args):
            raise AssertionError("physicality check on a closed operation")

        # the entry check factors by Cholesky and eigen-solves only what that fails on
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        for s in (state, batch):
            tensor([s, vacuum_state()])
            partial_trace(s, {0})
            apply_symplectic(s, op)
        with pytest.raises(AssertionError, match="physicality check"):
            GaussianState(state.cm)
