"""Tests for entropies, mutual information, and Gaussian discord."""

import decimal
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvbench import info
from cvbench.cli import SWEEP_N_MAX
from cvbench.info import (
    DISCORD_CLAMP,
    _clamped,
    discord_oracle,
    entropy,
    gaussian_discord,
    mutual_information,
)
from cvbench.network import bs_symplectic, interfere, prepare_discordant_pair
from cvbench.states import (
    GaussianState,
    SingleModeSpec,
    SymplecticOp,
    _p_negative,
    apply_symplectic,
    partial_trace,
    single_mode_state,
    tensor,
    thermal_state,
    vacuum_state,
)
from cvbench.stats import cm_to_intensity_corr
from helpers import random_single_mode_cm, random_symplectic, random_two_mode_state
from test_tools import cpu_features


def g_thermal(n):
    # closed-form thermal entropy (N+1) ln(N+1) - N ln N
    return (n + 1.0) * math.log(n + 1.0) - n * math.log(n) if n > 0 else 0.0


class TestEntropy:
    def test_vacuum_zero(self):
        assert entropy(vacuum_state()) == 0.0

    def test_thermal_matches_closed_form(self):
        for n in (0.1, 1.0, 10.0):
            assert entropy(thermal_state(n)) == pytest.approx(g_thermal(n), abs=1e-12)
        assert entropy(thermal_state(1.0)) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_squeezed_vacuum_pure(self):
        assert entropy(single_mode_state(SingleModeSpec(1.0, 1.0))) == 0.0

    def test_additivity_on_products(self):
        a = thermal_state(0.7)
        b = single_mode_state(SingleModeSpec(2.0, 0.4))
        assert entropy(tensor([a, b])) == pytest.approx(entropy(a) + entropy(b), abs=1e-12)

    def test_invariance_under_congruence(self):
        rng = np.random.default_rng(53)
        state = tensor([thermal_state(1.0), thermal_state(3.0)])
        for _ in range(10):
            op = SymplecticOp(random_symplectic(rng, 2))
            assert entropy(apply_symplectic(state, op)) == pytest.approx(
                entropy(state), abs=1e-10
            )


class TestMutualInformation:
    def test_product_is_zero(self):
        state = tensor([thermal_state(1.0), thermal_state(2.0)])
        assert mutual_information(state) == pytest.approx(0.0, abs=1e-12)

    def test_split_thermal_value(self):
        # joint entropy equals the source entropy (splitting is a global
        # unitary of thermal(2) x vacuum) and both marginals are thermal(1):
        # I = 2 g(1) - g(2) = 3 ln(4/3)
        pair = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
        assert entropy(partial_trace(pair, {0})) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        assert entropy(partial_trace(pair, {1})) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        assert entropy(pair) == pytest.approx(g_thermal(2.0), abs=1e-12)
        assert mutual_information(pair) == pytest.approx(3.0 * math.log(4.0 / 3.0), abs=1e-9)

    def test_report_identity(self):
        pair = prepare_discordant_pair(SingleModeSpec(1.5, 0.3), 0.4)
        s1 = entropy(partial_trace(pair, {0}))
        s2 = entropy(partial_trace(pair, {1}))
        mi = mutual_information(pair)
        assert mi == pytest.approx(s1 + s2 - entropy(pair), abs=1e-12)
        assert mi >= 0.0

    def test_entropy_increase_form(self):
        # I equals the sum of marginal entropy increases across the BS
        state_in = tensor([thermal_state(1.0), single_mode_state(SingleModeSpec(3.0, 0.5))])
        state_out = apply_symplectic(state_in, bs_symplectic(0.3))
        delta_s1 = entropy(partial_trace(state_out, {0})) - entropy(partial_trace(state_in, {0}))
        delta_s2 = entropy(partial_trace(state_out, {1})) - entropy(partial_trace(state_in, {1}))
        assert mutual_information(state_out) == pytest.approx(delta_s1 + delta_s2, abs=1e-10)

    def test_wrong_mode_count(self):
        with pytest.raises(ValueError):
            mutual_information(tensor([vacuum_state()] * 3))

    def test_positive_between_modes_1_and_3(self):
        # mixing transfers correlations: the (1,3) pair of the three-mode
        # output is correlated whenever the input pair was and tau < 1
        _, out = interfere(prepare_discordant_pair(SingleModeSpec(2.0), 0.5), 0.5)
        reduced = partial_trace(out, (0, 2))
        assert mutual_information(reduced) > 1e-3


class TestGaussianDiscord:
    def test_product_state_zero(self):
        state = tensor([thermal_state(1.0), thermal_state(2.0)])
        assert gaussian_discord(state) == 0.0
        assert gaussian_discord(partial_trace(state, (1, 0))) == 0.0

    def test_split_thermal_frozen_value(self):
        # h(3) + h(2) - h(5) in the rescaled convention, computed by hand
        pair = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
        assert gaussian_discord(pair) == pytest.approx(0.4315231086776714, abs=1e-12)

    def test_symmetric_state_sides_agree(self):
        pair = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
        swapped = partial_trace(pair, (1, 0))
        assert gaussian_discord(swapped) == pytest.approx(gaussian_discord(pair), abs=1e-9)

    def test_oracle_matches_closed_form(self):
        pair = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
        closed = gaussian_discord(pair)
        probed = discord_oracle(pair)
        assert probed.value == pytest.approx(closed, abs=1e-6)
        assert probed.value >= closed - 1e-6  # upper-bound search

    def test_oracle_on_random_states(self):
        rng = np.random.default_rng(59)
        for i in range(30):
            state = random_two_mode_state(rng)
            if i % 2:
                state = partial_trace(state, (1, 0))
            closed = gaussian_discord(state)
            probed = discord_oracle(state).value
            assert probed == pytest.approx(closed, abs=1e-6)

    def test_oracle_product_state(self):
        state = tensor([thermal_state(1.0), thermal_state(0.5)])
        assert discord_oracle(state).value == pytest.approx(0.0, abs=1e-9)

    def test_vanishes_monotonically_as_split_closes(self):
        # measurement on beam 2 (side A, the first mode of the pair) decays
        # monotonically on this grid; the side-B value peaks slightly above
        # the balanced point first
        values_a, values_b = [], []
        for t in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99):
            pair = prepare_discordant_pair(SingleModeSpec(2.0), t)
            values_a.append(gaussian_discord(partial_trace(pair, (1, 0))))
            values_b.append(gaussian_discord(pair))
        assert all(a > b for a, b in zip(values_a, values_a[1:]))
        assert values_a[-1] < 0.05
        assert values_b[-1] < 0.08  # both sides vanish at the product limit

    def test_positive_for_correlated_state(self):
        pair = prepare_discordant_pair(SingleModeSpec(0.5), 0.3)
        assert gaussian_discord(pair) > 0.0

    def test_wrong_mode_count(self):
        for read_out in (gaussian_discord, discord_oracle):
            with pytest.raises(ValueError, match="discord needs a two-mode state, got 3 modes"):
                read_out(tensor([vacuum_state()] * 3))


def test_pure_two_mode_discord_equals_marginal_entropy():
    # for pure states the discord reduces to the entanglement entropy; the
    # two-mode squeezed vacuum is written out exactly so the state stays pure
    # to machine precision (the entropy is steep at the pure limit)
    r = 0.7
    eye = np.eye(2)
    z = np.diag([1.0, -1.0])
    cm = 0.5 * np.block(
        [[math.cosh(2 * r) * eye, math.sinh(2 * r) * z], [math.sinh(2 * r) * z, math.cosh(2 * r) * eye]]
    )
    state = GaussianState(cm)
    marginal_entropy = entropy(partial_trace(state, {0}))
    assert marginal_entropy == pytest.approx(g_thermal(math.sinh(r) ** 2), abs=1e-12)
    assert gaussian_discord(state) == pytest.approx(marginal_entropy, abs=1e-9)


@pytest.mark.parametrize("n_a, n_b, tau", [(3.0, 0.5, 0.5), (10.0, 1.0, 0.3), (2.0, 0.0, 0.7)])
def test_mixed_squeezed_vacua_discord_equals_marginal_entropy(n_a, n_b, tau):
    # a pure state whose symplectic spectrum is degenerate (both eigenvalues at
    # the pure limit), where the closed form's root is most sensitive to rounding
    product = tensor([single_mode_state(SingleModeSpec(n, 1.0)) for n in (n_a, n_b)])
    state = apply_symplectic(product, bs_symplectic(tau))
    marginal_entropy = entropy(partial_trace(state, {0}))
    for measured in (state, partial_trace(state, (1, 0))):
        assert gaussian_discord(measured) == pytest.approx(marginal_entropy, abs=1e-9)


specs = st.builds(
    SingleModeSpec,
    n_tot=st.floats(0.0, 10.0),
    beta=st.floats(0.0, 1.0),
)
# the near-product limits tau -> 0 and tau -> 1 as well as the bulk
taus = st.one_of(st.floats(0.0, 1e-6), st.floats(1.0 - 1e-6, 1.0), st.floats(0.0, 1.0))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spec_a=specs, spec_b=specs, tau=taus)
# identical thermal inputs leave the beam splitter as a product state
@example(spec_a=SingleModeSpec(1e-6), spec_b=SingleModeSpec(1e-6), tau=0.3)
def test_discord_between_zero_and_mutual_information(spec_a, spec_b, tau):
    product = tensor([single_mode_state(spec_a), single_mode_state(spec_b)])
    state = apply_symplectic(product, bs_symplectic(tau))
    mi = mutual_information(state)
    for measured in (state, partial_trace(state, (1, 0))):
        assert 0.0 <= gaussian_discord(measured) <= mi + 1e-12


def mixed_pair(spec_a, spec_b, tau):
    product = tensor([single_mode_state(spec_a), single_mode_state(spec_b)])
    return apply_symplectic(product, bs_symplectic(tau))


def branch_gap(state):
    """k^2 - (1 + det B) det C^2 (det A + det CM) of the rescaled CM, measurement on B.

    Negative in the interior (general-dyne) branch of the closed-form
    discord, positive in the homodyne one, written out here from the
    invariants.
    """
    cm = 2.0 * state.cm
    ia, ib, ic, id_ = (np.linalg.det(m) for m in (cm[:2, :2], cm[2:, 2:], cm[:2, 2:], cm))
    return (id_ - ia * ib) ** 2 - (1.0 + ib) * ic**2 * (ia + id_)


#: one state deep in each branch: a split thermal pair, whose interior optimum
#: is the heterodyne, and a mixed squeezed-thermal pair
INTERIOR_ANCHOR = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
HOMODYNE_ANCHOR = mixed_pair(SingleModeSpec(1.0, 1.0), SingleModeSpec(1.0), 0.3)


@st.composite
def near_branch_boundary(draw):
    """A point within a 2^-45 step of where a segment of CMs crosses the branch boundary.

    The segment joins a mixed pair to the anchor of the other branch; CMs are
    convex, so every point on it is physical. Pure pairs already sit on the
    boundary, where both branches agree.
    """
    start = mixed_pair(draw(specs), draw(specs), draw(taus))
    side = branch_gap(start) > 0.0
    end = INTERIOR_ANCHOR if side else HOMODYNE_ANCHOR
    lo, hi = 0.0, 1.0
    for _ in range(45):
        mid = (lo + hi) / 2.0
        if (branch_gap(GaussianState((1.0 - mid) * start.cm + mid * end.cm)) > 0.0) == side:
            lo = mid
        else:
            hi = mid
    lam = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    return GaussianState((1.0 - lam) * start.cm + lam * end.cm)


# mode B close to pure: nearly no thermal photons, barely mixed with mode A
near_pure_measured_mode = st.builds(
    mixed_pair,
    specs,
    st.one_of(
        st.builds(SingleModeSpec, n_tot=st.floats(0.0, 1e-6)),
        st.builds(SingleModeSpec, n_tot=st.floats(0.0, 10.0), beta=st.floats(1.0 - 1e-9, 1.0)),
    ),
    st.floats(1.0 - 1e-4, 1.0),
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(state=st.one_of(near_branch_boundary(), near_pure_measured_mode))
def test_oracle_bounds_closed_form_from_above(state):
    # the oracle's value is the entropy of one measurement it found, so it
    # cannot fall below the minimum over all of them that the closed form gives
    assert discord_oracle(state).value >= gaussian_discord(state) - 1e-6


def homodyne_discord(state):
    """The discord read off the second Adesso-Datta expression alone, measurement on B.

    That expression is the conditional determinant of the best homodyne
    measurement, written out here from the package's invariants.
    """
    _, (ia, ib, ic, k, id_), _, fixed = info._discord_terms(state)
    root = np.sqrt(np.maximum(ic**4 + k**2 - 2.0 * ic**2 * (id_ + ia * ib), 0.0))
    e_hom = (ia * ib - ic**2 + id_ - root) / (2.0 * ib)
    return fixed + info._h_vec(np.sqrt(np.maximum(e_hom, 1.0)))


general_pairs = st.builds(
    lambda seed: random_two_mode_state(np.random.default_rng(seed)), st.integers(0, 2**32)
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(state=st.one_of(near_branch_boundary(), near_pure_measured_mode, general_pairs))
def test_homodyne_expression_bounds_the_minimum(state):
    # a real measurement reaches the homodyne expression for every state, so
    # its discord never falls below the oracle's minimum, in either branch;
    # that is why the closed form takes it everywhere and needs no margin
    # between the branches. The interior expression undershoots the minimum
    # outside its branch, so the closed form uses that one only inside it
    for measured in (state, partial_trace(state, (1, 0))):
        assert homodyne_discord(measured) >= discord_oracle(measured).value - 1e-12


# -- batched evaluation: a stack is one call, and each member is its own call --

# product states have an exactly zero C block, where the zero-C shortcut applies
products = st.builds(
    lambda a, b: tensor([single_mode_state(a), single_mode_state(b)]), specs, specs
)
# thermal inputs mixed at a beam splitter: correlated, and classical (P >= 0),
# so the analog coefficient of a stack of them is a value and not a refusal
thermal_n = st.floats(1e-6, 10.0)
classical_pairs = st.builds(
    lambda n_a, n_b, tau: mixed_pair(SingleModeSpec(n_a), SingleModeSpec(n_b), tau),
    thermal_n,
    thermal_n,
    taus,
)
stack_members = st.one_of(
    products, classical_pairs, near_branch_boundary(), near_pure_measured_mode
)


def stacked(states):
    return GaussianState(np.stack([s.cm for s in states]))


def outcome(function, *args):
    """What a call returns, or the ValueError that it raises."""
    try:
        return function(*args)
    except ValueError as exc:
        return exc


def has_photons(state):
    # both modes carry photons, so their intensity correlation is defined
    return bool(np.all(np.diag(state.cm).reshape(2, 2).sum(axis=1) > 1.0))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(members=st.lists(stack_members, min_size=1, max_size=6), tau=taus)
def test_stacked_calls_equal_member_calls(members, tau):
    batch = stacked(members)
    for order in ((0, 1), (1, 0)):
        singles = [gaussian_discord(partial_trace(m, order)) for m in members]
        assert np.array_equal(gaussian_discord(partial_trace(batch, order)), singles)
    assert np.array_equal(entropy(batch), [entropy(m) for m in members])
    assert np.array_equal(mutual_information(batch), [mutual_information(m) for m in members])
    op = bs_symplectic(tau)
    assert np.array_equal(
        apply_symplectic(batch, op).cm, [apply_symplectic(m, op).cm for m in members]
    )
    for keep in ({0}, {1}):
        assert np.array_equal(
            partial_trace(batch, keep).cm, [partial_trace(m, keep).cm for m in members]
        )
    bright = [m for m in members if has_photons(m)]
    if bright:
        for shot_noise in (False, True):
            singles = [outcome(cm_to_intensity_corr, m, 0, 1, shot_noise) for m in bright]
            refused = [i for i, single in enumerate(singles) if isinstance(single, ValueError)]
            if not refused:
                assert np.array_equal(
                    cm_to_intensity_corr(stacked(bright), 0, 1, shot_noise), singles
                )
                continue
            # a member whose P-function is negative refuses the analog value
            # alone and in the stack alike, which names its first such member
            first = singles[refused[0]]
            with pytest.raises(ValueError) as stack_error:
                cm_to_intensity_corr(stacked(bright), 0, 1, shot_noise)
            assert str(stack_error.value) == f"{first} (batch member {refused[0]})"
            assert stack_error.value.member == (refused[0],)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(specs, specs, taus), min_size=1, max_size=8))
def test_stacked_discord_between_zero_and_mutual_information(pairs):
    states = [mixed_pair(*p) for p in pairs]
    mi = np.array([mutual_information(s) for s in states])
    for batch in (stacked(states), partial_trace(stacked(states), (1, 0))):
        values = gaussian_discord(batch)
        assert np.all(0.0 <= values) and np.all(values <= mi + 1e-12)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(
    states=st.lists(
        st.one_of(near_branch_boundary(), near_pure_measured_mode), min_size=1, max_size=4
    ),
    product=products,
    position=st.integers(0, 4),
)
def test_stacked_oracle_bounds_closed_form_from_above(states, product, position):
    # one oracle call per side on a stack holding a product state; each
    # member equals its own call bit for bit, and bounds the closed form
    states.insert(position, product)
    for order in ((0, 1), (1, 0)):
        batch = partial_trace(stacked(states), order)
        closed = gaussian_discord(batch)
        result = discord_oracle(batch)
        singles = [discord_oracle(partial_trace(state, order)) for state in states]
        assert [float(v).hex() for v in result.value] == [r.value.hex() for r in singles]
        assert result.iterations.tolist() == [r.iterations for r in singles]
        assert result.converged.tolist() == [r.converged for r in singles]
        assert np.all(result.value >= closed - 1e-6)


# (source photons as a hex float, beta, quantity): single states whose
# values are checked against the same point as a member of one stack
SINGLE_STATE_INPUTS = [
    ("0x1.e39a4519fb9bdp+7", 0.5, "discord"),
    ("0x1.99136329c9dc6p-2", 0.5, "discord"),
    ("0x1.9a633dd5e87d4p-7", 1.0, "discord"),
    ("0x1.7f6ba680b4e42p-9", 0.5, "mi"),
    ("0x1.9a633dd5e87d4p-7", 1.0, "mi"),
    ("0x1.d7f4911e8736ap-9", 1.0, "c13"),
    ("0x1.d6253a1e99d21p-3", 1.0, "c13"),
    ("0x1.351c09abb2454p+3", 1.0, "c13"),
    ("0x1.e39a4519fb9bdp+7", 0.5, "entropy"),
    ("0x1.7f6ba680b4e42p-9", 0.5, "entropy"),
    ("0x1.99136329c9dc6p-2", 0.5, "oracle"),
]


@pytest.mark.parametrize("t_split", [0.15, 0.3, 0.5, 0.7, 0.85])
def test_split_thermal_discord_to_six_decimals(t_split):
    # heterodyne-optimal closed form of a split thermal pair, in thermal
    # entropies: g((1 - t) N) - g(N) + g(t N / ((1 - t) N + 1)), over the
    # sweep's photon range
    n_tot = np.geomspace(1e-3, SWEEP_N_MAX, 200)
    values = gaussian_discord(prepare_discordant_pair(SingleModeSpec(n_tot), t_split))
    for n, value in zip(n_tot.tolist(), values.tolist()):
        kept = (1.0 - t_split) * n
        expected = g_thermal(kept) - g_thermal(n) + g_thermal(t_split * n / (kept + 1.0))
        assert abs(value - expected) <= 1e-6, n


#: log-spaced toward both ends of [1e-6, 1 - 1e-6]
EDGE_SPLITS = (1e-6, 1e-4, 1e-2, 0.5, 1.0 - 1e-2, 1.0 - 1e-4, 1.0 - 1e-6)


@pytest.mark.parametrize("t_split", EDGE_SPLITS)
def test_protocol_over_the_stated_photon_range(t_split):
    # seeded draws: N log-uniform in [1e-6, 1e7], beta in [0, 1] with its
    # edges; the first two members are a dim and a bright near-thermal source
    rng = np.random.default_rng([12, EDGE_SPLITS.index(t_split)])
    n_tot = 10.0 ** rng.uniform(-6.0, 7.0, 300)
    edges = rng.choice([0.0, 1e-9, 1.0 - 1e-9, 1.0], 300)
    beta = np.where(rng.random(300) < 0.3, edges, rng.uniform(0.0, 1.0, 300))
    n_tot[:2], beta[:2] = (1e-6, 700.0), 1e-9
    source = SingleModeSpec(n_tot, beta)
    pair = prepare_discordant_pair(source, t_split)
    discord = gaussian_discord(pair)
    mi = entropy(partial_trace(pair, {0})) + entropy(partial_trace(pair, {1})) - entropy(pair)
    # 1e-12 is the mutual information's own clamp
    assert np.all(0.0 <= discord) and np.all(discord <= mi + 1e-12)
    for tau in EDGE_SPLITS:
        _, out = interfere(pair, tau)
        for mode in (0, 1):
            c = cm_to_intensity_corr(out, mode, 2, shot_noise=True)
            assert np.all((0.0 <= c) & (c <= 1.0)), (tau, mode)


@st.composite
def two_mode_pairs(draw):
    """A general two-mode pair (``random_two_mode_state``), or a product pair, whose C block is 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return tensor([GaussianState(random_single_mode_cm(rng)) for _ in range(2)])
    return random_two_mode_state(rng)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(pair=two_mode_pairs(), tau=st.floats(0.05, 0.95))
def test_any_pair_reveals_interference_exactly_when_discordant(pair, tau):
    # the paper's law beyond the split family: the probe (mode 1) is the
    # pair's own mode-0 marginal, the pair feeds modes 2 and 3, and the BS
    # mixes modes 1 and 2. Photon counting (shot noise) describes every
    # state, classical P-function or not
    state_in, out = interfere(pair, tau)

    def corr(state, h, k):
        return cm_to_intensity_corr(state, h, k, shot_noise=True)

    # identical independent inputs leave no 1-2 correlation: each cross
    # moment is a difference of two equal products, so c12 is O(eps^2)
    # (at most 3.5e-33 over 3,200 seeded general pairs)
    assert corr(out, 0, 1) <= 1e-24
    # the BS passes sqrt(1 - tau) of mode 2's field into mode 1 and leaves
    # mode 1's intensity variance that of mode 2 (at most 2 eps off over the same pairs)
    c13 = corr(out, 0, 2)
    assert abs(c13 - (1.0 - tau) * corr(state_in, 1, 2)) <= 1e-14
    # discord on either side is zero exactly when the C block is: products
    # give exact zeros, correlated pairs at least 1e-4 nats and 1e-4 in c13
    for measured in (pair, partial_trace(pair, (1, 0))):
        assert (gaussian_discord(measured) > 0.0) == (c13 > 0.0)


#: the abstract's claim as data: a split source of N = 1 photon at squeezing
#: fraction beta, t_split 0.5 and tau_mix 0.5, with the pair's discord and the
#: shot-noise c13 of the output; beta* = (3 - sqrt 5)/2 solves N (1 - beta)^2 = beta
SQUEEZING_TABLE = [
    (0.0, 0.3183, 0.1667),
    (0.3, 0.1709, 0.2375),
    ((3.0 - math.sqrt(5.0)) / 2.0, 0.1540, 0.2500),
    (0.6, 0.1523, 0.2748),
    (0.9, 0.3338, 0.2955),
]


@pytest.mark.parametrize("beta, discord, c13", SQUEEZING_TABLE)
def test_discordant_states_reveal_interference_on_either_side_of_the_p_boundary(
    beta, discord, c13
):
    # c13 rises with beta across the boundary, while the discord first falls
    # and then rises: interference is revealed with P >= 0 and with P < 0, and
    # the classicality gate's verdict is the source's, N (1 - beta)^2 >= beta
    pair = prepare_discordant_pair(SingleModeSpec(1.0, beta), 0.5)
    state_in, out = interfere(pair, 0.5)
    assert gaussian_discord(pair) == pytest.approx(discord, abs=1e-4)
    assert cm_to_intensity_corr(out, 0, 2, shot_noise=True) == pytest.approx(c13, abs=1e-4)
    classical = (1.0 - beta) ** 2 >= beta
    for state in (pair, state_in, out):
        assert _p_negative(state) == (not classical)


def test_the_rounded_p_boundary_is_refused():
    # the boundary of the table, printed as beta = 0.382, lies just outside
    # it: N (1 - beta)^2 = 0.381924 < 0.382
    pair = prepare_discordant_pair(SingleModeSpec(1.0, 0.382), 0.5)
    assert _p_negative(pair)
    with pytest.raises(ValueError, match="Glauber P-function is negative"):
        cm_to_intensity_corr(pair, 0, 1)


def test_discord_reveals_but_does_not_measure_interference():
    # noise correlated in the x quadratures, cm = I/2 + k v v^T + mu I with
    # v = (1, 0, 1, 0): a classical pair (P >= 0) whose 0.0034 nats of discord
    # reveal more interference (shot-noise c23 0.995) than the 0.6156 nats of
    # the split thermal pair of N = 10 (0.833). The monotone law of C07 holds
    # within one family of states, not across families
    v = np.array([1.0, 0.0, 1.0, 0.0])
    noisy = GaussianState(np.eye(4) / 2.0 + 1e3 * np.outer(v, v) + 2.0 * np.eye(4))
    split = prepare_discordant_pair(SingleModeSpec(10.0), 0.5)
    assert not _p_negative(noisy) and not _p_negative(split)
    for state, discord, c23 in ((noisy, 0.0034, 0.995), (split, 0.6156, 0.833)):
        assert gaussian_discord(state) == pytest.approx(discord, abs=1e-4)
        assert cm_to_intensity_corr(state, 0, 1, shot_noise=True) == pytest.approx(c23, abs=5e-4)


def split_pair(source):
    return prepare_discordant_pair(source, 0.5)


#: each quantity of a source: a read-out of its split pair at t_split 0.5 or,
#: for c13, of the three-mode output at tau_mix 0.37
READ_OUTS = {
    "discord": lambda source: gaussian_discord(split_pair(source)),
    "oracle": lambda source: discord_oracle(split_pair(source)).value,
    "entropy": lambda source: entropy(split_pair(source)),
    "mi": lambda source: mutual_information(split_pair(source)),
    "c13": lambda source: cm_to_intensity_corr(three_mode_output(source), 0, 2, shot_noise=True),
}


def test_single_state_values_keep_their_bits():
    # a single state is a batch of shape (): a numpy scalar with its member's bits
    for n_hex, beta, quantity in SINGLE_STATE_INPUTS:
        n_tot = float.fromhex(n_hex)
        single = READ_OUTS[quantity](SingleModeSpec(n_tot, beta))
        stack = READ_OUTS[quantity](SingleModeSpec(np.full(3, n_tot), beta))
        assert np.ndim(single) == 0 and isinstance(single, float)
        assert [float(v).hex() for v in stack] == [single.hex()] * 3, (n_hex, quantity)


def three_mode_output(source):
    return interfere(split_pair(source), 0.37)[1]


def test_discord_clamp_bounds():
    # the one clamp of the closed form and the oracle: rounding in
    # [-DISCORD_CLAMP, 0) reads as 0, anything below is an error
    values = _clamped(np.array([0.5, 0.0, -1e-10, -DISCORD_CLAMP]), "discord")
    assert values.tolist() == [0.5, 0.0, 0.0, 0.0]
    for value in (-2e-9, -1e-8):
        with pytest.raises(ArithmeticError, match=r"discord evaluated to .* \(batch member 1\)"):
            _clamped(np.array([0.1, value]), "discord")


#: a split thermal pair (N = 1e4, t_split 0.5) under the local squeezers
#: r = -6 at theta = 1 and r = -2 at theta = 0.5, which GaussianState accepts:
#: its invariant discord is ln 2, but its Schur complement S = B - C^T A^-1 C
#: cancels at the squeezed scale, and det CM = det A det S rounds to a
#: negative value, so nu- would be NaN and read as a pure mode
CANCELLED_DET_CM = [
    [237586005.83945292, 370018280.7164186, 6168229.252049521, 3450295.8557771537],
    [370018280.7164186, 576269328.6820005, 9606375.266160315, 5373480.850903851],
    [6168229.252049521, 9606375.266160315, 210286.21664188843, 114829.84933271483],
    [3450295.8557771537, 5373480.850903851, 114829.84933271483, 62823.419951112555],
]


def test_cancelled_det_cm_is_refused_not_read_as_a_value():
    state = GaussianState(np.array(CANCELLED_DET_CM))
    for read_out in (gaussian_discord, discord_oracle):
        with pytest.raises(ArithmeticError, match="det CM evaluated to -6.43"):
            read_out(state)
    # in a stack, the error names the member
    stack = GaussianState(np.stack([split_pair(SingleModeSpec(2.0)).cm, state.cm]))
    with pytest.raises(ArithmeticError, match=r"\(batch member 1\)") as caught:
        gaussian_discord(stack)
    assert caught.value.member == (1,)


def test_entropy_term_to_machine_precision():
    # the term of each eigenvalue x = 2 n + 1 it is given, against a 60-digit
    # reference of (y + 1) ln(y + 1) - y ln y at the exact y = (x - 1) / 2, from
    # nearly pure modes (n = 1e-12, where that difference cancels to eps / y)
    # to bright ones (n = 1e9)
    ctx = decimal.Context(prec=60)
    x = 2.0 * np.geomspace(1e-12, 1e9, 600) + 1.0

    def reference(value):
        y = ctx.divide(ctx.subtract(decimal.Decimal(value), 1), 2)
        return float(ctx.subtract(ctx.multiply(y + 1, ctx.ln(y + 1)), ctx.multiply(y, ctx.ln(y))))

    expected = np.array([reference(value) for value in x.tolist()])
    relative = np.abs(info._h_vec(x) - expected) / expected
    assert relative.max() <= 4.0 * np.finfo(float).eps


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_entropy_term_refuses_a_non_finite_eigenvalue(bad):
    # NaN > PURE_GUARD is False, so without the check it would read as 0
    with pytest.raises(ArithmeticError, match="not finite"):
        info._h_vec(np.array([3.0, bad]))


def disk_point(q, phi):
    # the oracle's disk coordinates x + iy = rho e^(2i phi), rho = (1 - q)/(1 + q),
    # of the measurement R(phi) diag(1/q, q) R(phi)^T
    rho = (1.0 - q) / (1.0 + q)
    return rho * np.cos(2.0 * phi), rho * np.sin(2.0 * phi)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("block", range(3))
def test_conditional_dets_refuse_a_non_finite_block(block, bad):
    # the oracle descends on these determinants, and a NaN fails every
    # comparison with the best point, so without the check it is skipped unseen
    blocks = [blk.copy() for blk in info._ordered_blocks(split_pair(SingleModeSpec(2.0)))]
    blocks[block][0, 0] = bad
    q_vals, phi_vals = np.linspace(1.0, 0.0, 5), np.linspace(0.0, math.pi, 4, endpoint=False)
    # inf times a zero entry is NaN, and numpy's warning of it is not the refusal
    with np.errstate(invalid="ignore"):
        invariants, s = info._schur(*blocks)
        coefficients = info._objective_coefficients(invariants[0], s, blocks[1])
        with pytest.raises(ArithmeticError, match="conditional determinant that is not finite"):
            info._conditional_dets(coefficients, *disk_point(q_vals[:, None], phi_vals))


def validate_oracle_states():
    # the draws of the validate command's oracle check, pinned below as drawn.
    # validate measures half of these: the even members as drawn, and the odd
    # ones with their modes swapped
    rng = np.random.default_rng(4)
    states = []
    for _ in range(10):
        source = SingleModeSpec(rng.uniform(0.3, 3.0), rng.uniform(0.0, 0.8))
        states.append(prepare_discordant_pair(source, rng.uniform(0.2, 0.8)))
    return states


def c03_states(indices):
    # odd members of the random states of acceptance criterion C3, with their
    # modes swapped as its check swaps them
    stack = random_two_mode_state(np.random.default_rng(303), (max(indices) + 1,))
    return [partial_trace(GaussianState(stack.cm[i]), (1, 0)) for i in indices]


#: whether numpy's AVX-512 kernels (X86_V4) are active here: one pinned value
#: below has the bits of each dispatch state, each pinned exactly
X86_V4 = bool(cpu_features().get("X86_V4"))


def by_x86_v4(active, inactive):
    return active if X86_V4 else inactive


# states -> (value as a hex float, iterations) of each state's oracle call;
# each call converges
PINNED_ORACLE_BITS = {
    "validate": (validate_oracle_states, [
        ("0x1.033af65547138p-2", 1),
        ("0x1.c170dc95b825cp-4", 1),
        ("0x1.8779e4cc13478p-2", 1),
        (by_x86_v4("0x1.8ec4f8ce25b6ap-3", "0x1.8ec4f8ce25b6ep-3"), 1),
        ("0x1.7a5575aa58778p-3", 1),
        ("0x1.d24acceb2655ep-3", 1),
        ("0x1.2a78a0f6e074cp-3", 1),
        ("0x1.1c54efb1ce2a4p-3", 1),
        ("0x1.82e6e8a47a268p-3", 1),
        ("0x1.28725ba5f0b54p-2", 1),
    ]),
    "c03": (lambda: c03_states([5, 7]), [
        ("0x1.7f61c44029ea0p-2", 3),
        ("0x1.1dcc68763b3c0p-2", 3),
    ]),
}


@pytest.mark.parametrize("name", PINNED_ORACLE_BITS)
def test_oracle_keeps_its_bits(name):
    build, pinned = PINNED_ORACLE_BITS[name]
    states = build()
    for state, expected in zip(states, pinned):
        result = discord_oracle(state)
        assert (result.value.hex(), result.iterations) == expected
        assert result.converged
    result = discord_oracle(stacked(states))
    assert [float(v).hex() for v in result.value] == [p[0] for p in pinned]
    assert result.iterations.tolist() == [p[1] for p in pinned]
    assert result.converged.all()


class TestOracleConvergence:
    def test_default_call_converges(self):
        # the heterodyne, where the steps start, is the split thermal pair's
        # optimum, so no step lowers the determinant
        pair = prepare_discordant_pair(SingleModeSpec(2.0), 0.5)
        result = discord_oracle(pair)
        assert result.converged
        assert result.iterations == 0

    def test_a_step_cap_reports_non_convergence(self, monkeypatch):
        # this state takes 3 steps (PINNED_ORACLE_BITS), so a cap of 2 stops it
        monkeypatch.setattr(info, "_ORACLE_STEPS", 2)
        with pytest.warns(RuntimeWarning, match="did not settle"):
            result = discord_oracle(c03_states([5])[0])
        assert not result.converged
        assert result.iterations == 2

    def test_a_step_cap_on_a_stack_warns_once(self, monkeypatch):
        monkeypatch.setattr(info, "_ORACLE_STEPS", 2)
        states = [prepare_discordant_pair(SingleModeSpec(2.0), 0.5), *c03_states([5, 7])]
        with pytest.warns(RuntimeWarning, match="did not settle") as caught:
            result = discord_oracle(stacked(states))
        assert len(caught) == 1
        with pytest.warns(RuntimeWarning) as first:
            discord_oracle(states[1])
        # the warning of the first unsettled member's own call, naming that member
        assert str(caught[0].message) == f"{first[0].message} (batch member 1)"
        assert result.converged.tolist() == [True, False, False]
        assert result.iterations.tolist() == [0, 2, 2]


def test_shared_term_equals_the_entropy_difference():
    # h(sqrt det B) - h(nu-) - h(nu+), the measurement-free term that both
    # discord read-outs take from _discord_terms, so that C03 compares only
    # their minima, is S(B) - S(AB): checked here against entropy(), which
    # reads the symplectic spectrum another way. Worst measured: 1.5e-14 on
    # the random draws, 8.0e-15 on the split pairs
    def gap(state):
        *_, shared = info._discord_terms(state)
        return np.max(np.abs(shared - (entropy(partial_trace(state, (1,))) - entropy(state))))

    assert gap(random_two_mode_state(np.random.default_rng(7), (400,))) <= 1e-12
    n_tot = np.geomspace(1e-3, 1e2, 200)
    for t_split in (0.15, 0.3, 0.5, 0.7, 0.85):
        assert gap(prepare_discordant_pair(SingleModeSpec(n_tot), t_split)) <= 1e-10, t_split


def test_oracle_meets_the_closed_form_to_1e_12():
    # C03's seeded states, each measured on both sides: the settled oracle
    # agrees with the closed form to below 1e-12, far inside C03's 1e-6, so
    # a method that stops early (after one step it is off by up to 0.095) fails
    stack = random_two_mode_state(np.random.default_rng(303), (100,))
    for order in ((0, 1), (1, 0)):
        batch = partial_trace(stack, order)
        result = discord_oracle(batch)
        assert result.converged.all()
        assert np.max(np.abs(result.value - gaussian_discord(batch))) <= 1e-12


def test_dinkelbach_steps_stay_on_the_disk_and_reach_the_optimum(monkeypatch):
    # each step moves to the exact minimum of N - lambda D on the closed disk:
    # the stationary point where it lies inside, otherwise a point on the rim.
    # C03's first 24 states, measured on both sides, take up to 7 steps and
    # end both inside and on the rim. A step to the stationary point alone
    # leaves the disk, where the determinant falls below its minimum (the
    # discord reads -0.12), and a stop after one step ends up to 0.095 above it
    radii = []
    conditional_dets = info._conditional_dets

    def recorded(coeffs, x, y):
        radii.append(np.hypot(x, y))
        return conditional_dets(coeffs, x, y)

    monkeypatch.setattr(info, "_conditional_dets", recorded)
    stack = random_two_mode_state(np.random.default_rng(303), (24,))
    for order in ((0, 1), (1, 0)):
        radii.clear()
        batch = partial_trace(stack, order)
        result = discord_oracle(batch)
        assert result.converged.all()
        assert np.max(np.abs(result.value - gaussian_discord(batch))) <= 1e-12
        stepped = np.concatenate(radii[1:])
        assert stepped.max() <= 1.0 + 4.0 * np.finfo(float).eps
        # the states take what the mutants get wrong: several steps, and
        # steps both inside the disk and onto its rim
        assert result.iterations.max() > 1
        assert (stepped < 0.99).any() and (stepped > 1.0 - 1e-12).any()


def test_oracle_meets_the_closed_form_next_to_the_heterodyne():
    # 400 seeded split pairs of nearly thermal sources, measured on both
    # sides: N log-uniform in [0.1, 100], beta in {1e-12, ..., 1e-2} and
    # t_split in [0.1, 0.9]. Their optimal measurements lie next to the
    # heterodyne, where all angles of polar coordinates (q, phi) meet and a
    # search on them stalls, up to 5.8e-6 above the minimum. The bound is
    # 1e-12 plus a margin for the closed form's rounding, 4 eps (1 + N)^2;
    # the measured worst is 2.1e-15 (at N = 0.13)
    rng = np.random.default_rng(1)
    n_tot = 10.0 ** rng.uniform(-1.0, 2.0, 400)
    beta = 10.0 ** rng.integers(-12, -1, 400)
    t_split = rng.uniform(0.1, 0.9, 400)
    pairs = prepare_discordant_pair(SingleModeSpec(n_tot, beta), t_split)
    bound = 1e-12 + 4.0 * np.finfo(float).eps * (1.0 + n_tot) ** 2
    for order in ((0, 1), (1, 0)):
        batch = partial_trace(pairs, order)
        result = discord_oracle(batch)
        assert result.converged.all()
        assert np.all(np.abs(result.value - gaussian_discord(batch)) <= bound)


def local_squeezer(r, theta):
    # R(theta) diag(e^-r, e^r) R(theta)^T: a single-mode squeezer along theta
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([math.exp(-r), math.exp(r)]) @ rot.T


def exact_conditional_det(a, b, c, q, phi):
    """det(a - c (b + m)^-1 c^T) in exact rationals of the float inputs.

    m = R(phi) diag(1/q, q) R(phi)^T is built from the floats cos phi and sin
    phi, normalised exactly; q = 0 is the homodyne limit a - c v v^T c^T / b_vv.
    """
    a, b, c = ([[Fraction(float(x)) for x in row] for row in blk] for blk in (a, b, c))
    u = (Fraction(math.cos(phi)), Fraction(math.sin(phi)))
    v = (-u[1], u[0])
    r2 = range(2)
    if q == 0.0:
        b_vv = sum(v[i] * b[i][j] * v[j] for i in r2 for j in r2)
        cv = [c[i][0] * v[0] + c[i][1] * v[1] for i in r2]
        e = [[a[i][j] - cv[i] * cv[j] / b_vv for j in r2] for i in r2]
    else:
        q, norm = Fraction(q), u[0] * u[0] + u[1] * u[1]
        bm = [[b[i][j] + (u[i] * u[j] / q + q * v[i] * v[j]) / norm for j in r2] for i in r2]
        det_bm = bm[0][0] * bm[1][1] - bm[0][1] * bm[1][0]
        inv = [[bm[1][1] / det_bm, -bm[0][1] / det_bm], [-bm[1][0] / det_bm, bm[0][0] / det_bm]]
        w = [[sum(c[i][k] * inv[k][l] * c[j][l] for k in r2 for l in r2) for j in r2] for i in r2]
        e = [[a[i][j] - w[i][j] for j in r2] for i in r2]
    return e[0][0] * e[1][1] - e[0][1] * e[1][0]


@pytest.mark.parametrize("n_tot", [1.0, 1e2, 1e4, 1e6])
def test_conditional_dets_lose_digits_only_as_n_eps(n_tot):
    # the oracle's objective against its exact value on the same float inputs,
    # for 6 seeded split pairs under local squeezers of |r| <= 1. The problem
    # itself cancels at scale N (S = b - c^T a^-1 c), so the bound is 64 N eps;
    # the measured worst is 17 N eps at N = 1, 11 at 1e2, 1.1 at 1e4 and 1.6
    # at 1e6. A numerator formed as det a det(b + m) minus the terms of
    # c^T adj(a) c cancels at N^2 and reads 1.7e3 N eps at N = 1e4 and 7.2e4
    # at 1e6; an entry-by-entry Schur complement a - c (b + m)^-1 c^T reads up
    # to 60 N eps. The points are the disk's images of the (q, phi) grid
    rng = np.random.default_rng([35, int(math.log10(n_tot))])
    q_vals, phi_vals = [1.0, 0.5, 0.1, 0.0], [0.1, 1.0, 2.5]
    bound = 64.0 * n_tot * np.finfo(float).eps
    for _ in range(6):
        source = SingleModeSpec(n_tot, rng.uniform(0.0, 0.5))
        local = np.zeros((4, 4))
        for i in (0, 2):
            r, theta = rng.uniform(-1.0, 1.0), rng.uniform(0.0, math.pi)
            local[i : i + 2, i : i + 2] = local_squeezer(r, theta)
        pair = prepare_discordant_pair(source, rng.uniform(0.1, 0.9))
        pair = apply_symplectic(pair, SymplecticOp(local))
        blocks = info._ordered_blocks(pair)
        points = disk_point(np.array(q_vals)[:, None], np.array(phi_vals))
        invariants, s = info._schur(*blocks)
        coefficients = info._objective_coefficients(invariants[0], s, blocks[1])
        dets = info._conditional_dets(coefficients, *points)
        for (i, q), (j, phi) in itertools.product(enumerate(q_vals), enumerate(phi_vals)):
            exact = exact_conditional_det(*blocks, q, phi)
            assert abs(Fraction(float(dets[i, j])) / exact - 1) <= bound, (q, phi)


#: the range where the closed form's rounding is measured: split pairs of up
#: to 1e7 photons, the sweep's range, at most half of them squeezed, under
#: local squeezers of |r| <= 1. Purer states and stronger squeezers lose more
#: digits
squeezings = st.floats(-1.0, 1.0)
angles = st.floats(0.0, math.pi)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    n_tot=st.floats(0.0, SWEEP_N_MAX),
    beta=st.floats(0.0, 0.5),
    t_split=st.floats(0.1, 0.9),
    r=st.tuples(squeezings, squeezings),
    theta=st.tuples(angles, angles),
)
def test_local_symplectic_maps_keep_the_correlations(n_tot, beta, t_split, r, theta):
    # discord, mutual information and marginal entropies are invariant under
    # S_A + S_B (Adesso & Datta, PRL 105, 030501 (2010)). The bound is the
    # closed form's N eps error scaled by the map's squared condition number
    # e^(4 |r|); the measured worst is 0.18 of these units
    pair = prepare_discordant_pair(SingleModeSpec(n_tot, beta), t_split)
    local = np.zeros((4, 4))
    local[:2, :2], local[2:, 2:] = (local_squeezer(*p) for p in zip(r, theta))
    mapped = apply_symplectic(pair, SymplecticOp(local))
    bound = 256.0 * np.finfo(float).eps * (1.0 + n_tot) * math.exp(4.0 * max(map(abs, r)))
    read_outs = (
        gaussian_discord,
        lambda s: gaussian_discord(partial_trace(s, (1, 0))),
        mutual_information,
        lambda s: entropy(partial_trace(s, {0})),
        lambda s: entropy(partial_trace(s, {1})),
    )
    for read_out in read_outs:
        assert abs(read_out(mapped) - read_out(pair)) <= bound
    # the oracle on the swapped state measures side A, and it reaches the
    # closed form of the same state
    swapped = partial_trace(mapped, (1, 0))
    assert abs(discord_oracle(swapped).value - gaussian_discord(swapped)) <= bound


def test_oracle_finds_a_squeezed_optimum_next_to_the_heterodyne():
    # the optimal measurement is squeezed by s = 1.007, just off the heterodyne
    pair = prepare_discordant_pair(SingleModeSpec(8.0, 1e-4), 0.5)
    result = discord_oracle(pair)
    assert result.converged
    assert result.value - gaussian_discord(pair) <= 1e-9
