"""Monotone couplings and the finite-space conditional sandwich."""

import math
import tracemalloc

import numpy as np
import pytest

from treecast import (
    ConditionalPair,
    Coupling,
    DegenerateEvent,
    InvalidParameter,
    PreconditionViolation,
    base_pair,
    build_coupling,
    deep_policy,
    evolve,
    evolve_to_depth,
    exact_policy,
    hardcore_channel,
    make_channel,
    mean_gap,
    symmetric_channel,
    verify_sandwich,
    w_of_lambda,
)

from treecast.conditioning import _compensated_cumsum

from _oracles import genuine_pair_arrays, random_sandwich_case, searched_coupling


# ----------------------------------------------------------------- coupling

def three_atom_pair():
    """A genuine pair: ``w1 = [0.3, 0.3, 0.4]``, so the diagonal is
    ``[0.1, 0.3, 0.4]`` and one crossing pair of mass 0.2 remains."""
    w0, w1 = np.array([0.1, 0.3, 0.6]), np.array([0.3, 0.3, 0.4])
    return ConditionalPair(depth=1, values=np.log(w0 / w1), w0=w0)


def test_coupling_validation():
    pair = three_atom_pair()
    at0, at1 = np.array([2]), np.array([0])
    cpl = Coupling(pair, at0, at1, np.array([0.2]))
    assert cpl.pair is pair and cpl.weight.tolist() == [0.2]
    with pytest.raises(InvalidParameter):
        Coupling(pair, np.array([2, 2]), np.array([0, 0]), np.array([0.4, -0.2]))
    with pytest.raises(InvalidParameter):
        Coupling(pair, at0, at1, np.array([math.nan]))
    with pytest.raises(InvalidParameter):  # with the diagonal, 0.9 in all
        Coupling(pair, at0, at1, np.array([0.1]))
    with pytest.raises(InvalidParameter):
        Coupling(pair, np.array([2, 2]), at1, np.array([0.2]))
    with pytest.raises(InvalidParameter):
        Coupling((pair.values, pair.w0, pair.w1), at0, at1, np.array([0.2]))


@pytest.mark.parametrize("i0", [[-1, 1], [0, 3], [0.0, 1.0]],
                         ids=["negative", "past-the-end", "float"])
def test_coupling_rejects_bad_positions(i0):
    pair = three_atom_pair()
    w = np.array([0.1, 0.1])
    with pytest.raises(InvalidParameter):
        Coupling(pair, np.array(i0), np.array([0, 1]), w)
    with pytest.raises(InvalidParameter):
        Coupling(pair, np.array([0, 1]), np.array(i0), w)


def test_coupling_values_are_support_positions():
    pair = three_atom_pair()
    v = pair.values
    cpl = Coupling(pair, np.array([2, 1]), np.array([0, 1]), np.array([0.15, 0.05]))
    assert cpl.y0.tolist() == [v[2], 0.0] and cpl.y1.tolist() == [v[0], 0.0]
    assert cpl.crossing_ok()
    assert cpl.mean_difference() == 0.15 * (v[2] - v[0])
    # a crossing pair with y0 < 0 or y1 > 0 breaks the crossing
    for i0, i1 in (([0, 1], [1, 1]), ([1, 1], [2, 1])):
        bad = Coupling(pair, np.array(i0), np.array(i1), np.array([0.15, 0.05]))
        assert not bad.crossing_ok(), (i0, i1)


def test_marginal_residuals_require_the_pairs_support():
    c = symmetric_channel(0.2)
    pair = evolve_to_depth(c, 2, 3)
    cpl = build_coupling(pair, c)
    assert cpl.pair is pair
    # an equal copy of the support is accepted
    same = ConditionalPair(depth=3, values=pair.values.copy(), w0=pair.w0, q=pair.q)
    assert max(cpl.marginal_residuals(same)) < 1e-12
    moved = pair.values.copy()
    moved[len(moved) // 2] = np.nextafter(moved[len(moved) // 2], np.inf)
    other = ConditionalPair(depth=3, values=moved, w0=pair.w0, q=pair.q)
    with pytest.raises(InvalidParameter):
        cpl.marginal_residuals(other)
    shorter = ConditionalPair(depth=1, values=[-math.log(3.0), math.log(3.0)], w0=[0.25, 0.75])
    with pytest.raises(InvalidParameter):
        cpl.marginal_residuals(shorter)


def test_marginal_residuals_report_moved_mass():
    """Weight moved from one crossing pair to another shows up as that
    residual in both marginals: the check still catches a wrong coupling."""
    c = symmetric_channel(0.2)
    pair = evolve_to_depth(c, 2, 2)
    cpl = build_coupling(pair, c)
    base = max(cpl.marginal_residuals(pair))
    src, dst = 0, len(cpl.weight) - 1
    assert cpl.i0[src] != cpl.i0[dst] and cpl.i1[src] != cpl.i1[dst]
    delta = 2.0 ** -12
    assert cpl.weight[src] > delta
    w = cpl.weight.copy()
    w[src] -= delta
    w[dst] += delta
    wrong = Coupling(pair, cpl.i0, cpl.i1, w)
    for got in wrong.marginal_residuals(pair):
        assert abs(got - delta) <= base + 1e-16, (got, delta)


def test_identical_laws_couple_on_diagonal():
    """Equal laws are an observation that says nothing: one atom at LLR 0,
    all of it on the diagonal, and no crossing pair."""
    pair = ConditionalPair(depth=1, values=[0.0], w0=[1.0])
    cpl = build_coupling(pair, symmetric_channel(0.3))
    assert len(cpl.i0) == len(cpl.i1) == len(cpl.weight) == 0
    assert cpl.diagonal.tolist() == [1.0]
    r0, r1 = cpl.marginal_residuals(pair)
    assert r0 == 0.0 and r1 == 0.0
    assert cpl.crossing_ok() and cpl.mean_difference() == 0.0


def test_uninformative_channel_couples_at_zero():
    c = symmetric_channel(0.5)
    cpl = build_coupling(base_pair(c, 2), c)
    assert len(cpl.weight) == 0
    assert [x.tolist() for x in cpl.pairs()] == [[0.0], [0.0], [1.0]]


def test_coupling_depth_two_exhaustive():
    """Marginals, crossing, and the mean identity at an enumerable depth."""
    c = symmetric_channel(0.2)
    pair = evolve_to_depth(c, 2, 2)
    cpl = build_coupling(pair, c)
    r0, r1 = cpl.marginal_residuals(pair)
    assert r0 < 1e-12 and r1 < 1e-12
    assert cpl.crossing_ok()
    assert np.all(cpl.weight > 0)
    assert abs(cpl.mean_difference() - mean_gap(pair)) < 1e-12
    assert abs(cpl.diagonal.sum() + cpl.weight.sum() - 1.0) < 1e-12
    # the output rows: the diagonal atoms of positive mass, then the crossing pairs
    y0, y1, w = cpl.pairs()
    live = cpl.diagonal > 0
    n = int(live.sum())
    assert np.array_equal(y0[:n], pair.values[live]) and np.array_equal(y1[:n], y0[:n])
    assert np.array_equal(y0[n:], cpl.y0) and np.array_equal(y1[n:], cpl.y1)
    assert np.array_equal(w, np.concatenate((cpl.diagonal[live], cpl.weight)))


def test_coupling_small_grid():
    """Marginals and crossing across families, branching, and depth."""
    cases = [(symmetric_channel(0.1), 1), (symmetric_channel(0.3), 2),
             (hardcore_channel(1.0), 1), (hardcore_channel(1.0), 2)]
    for c, k in cases:
        for depth in (1, 2, 4):
            pair = evolve_to_depth(c, k, depth, deep_policy())
            cpl = build_coupling(pair, c)
            r0, r1 = cpl.marginal_residuals(pair)
            assert max(r0, r1) < 1e-12, (k, depth)
            assert cpl.crossing_ok(), (k, depth)


def test_weightless_pairs_are_ignored():
    """A crossing pair of weight 0 neither breaks the crossing nor enters
    the mean difference, even at inf - inf."""
    w0 = np.array([0.0, 1 / 3, 2 / 3, 0.0])
    v = np.array([-math.inf, -math.log(2.0), math.log(2.0), math.inf])
    pair = ConditionalPair(depth=1, values=v, w0=w0)
    cpl = Coupling(pair, np.array([2, 0, 3]), np.array([1, 3, 0]),
                   np.array([1 / 3, 0.0, 0.0]))
    assert cpl.crossing_ok()
    assert cpl.mean_difference() == (v[2] - v[1]) * (1 / 3)


def test_exact_step_and_coupling_memory_at_depth_six():
    """tracemalloc peaks on the exact depth-6 law at eps=0.2, k=2 (6.5M
    atoms; 13M coupling pairs, diagonal atoms and crossing pairs): the
    step holds at most 4.5 times its result, and the coupling at most 2
    times the crossing pairs it stores above its input."""
    c = symmetric_channel(0.2)
    pair = evolve_to_depth(c, 2, 5, exact_policy())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        law = evolve(pair, c, 2, exact_policy())
        step_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        cpl = build_coupling(law, c)
        coupling_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(law) > 6_000_000
    assert np.count_nonzero(cpl.diagonal) + len(cpl.weight) > 13_000_000
    law_bytes = law.values.nbytes + law.w0.nbytes + law.w1.nbytes
    coupling_bytes = cpl.i0.nbytes + cpl.i1.nbytes + cpl.weight.nbytes
    assert step_peak <= 4.5 * law_bytes, step_peak / law_bytes
    assert coupling_peak <= 2.0 * coupling_bytes, coupling_peak / coupling_bytes


def test_coupling_marginals_at_depth_six_within_an_ulp():
    """Criterion 06's worst cell (eps=0.1, k=2, exact depth 6, 6.5M atoms,
    3.3M surplus atoms a side): with compensated cumulative masses the two
    surplus totals agree, so no atom takes a drifted remainder."""
    c = symmetric_channel(0.1)
    pair = evolve_to_depth(c, 2, 6, exact_policy())
    cpl = build_coupling(pair, c)
    assert max(cpl.marginal_residuals(pair)) <= 1e-15


def test_compensated_cumsum_ends_within_an_ulp_of_fsum():
    """Each prefix sum is within an ulp of the exact one, and the run never
    decreases, on terms spread over twelve decades."""
    rng = np.random.default_rng(36)
    for n in (1, 2, 17, 1000, 200_000):
        for _ in range(5):
            x = rng.random(n) * 10.0 ** rng.uniform(-12.0, 0.0, n)
            got = _compensated_cumsum(x)
            want = math.fsum(x)
            assert abs(got[-1] - want) <= np.spacing(want), (n, got[-1] - want)
            assert np.all(got[1:] >= got[:-1])
            for i in rng.integers(0, n, 5):
                want = math.fsum(x[:i + 1])
                assert abs(got[i] - want) <= np.spacing(want), (n, i)


def test_coupling_infinite_gap():
    """Hard-core base case: infinite atoms force an infinite mean difference."""
    c = hardcore_channel(1.0)
    pair = base_pair(c, 2)
    cpl = build_coupling(pair, c)
    assert cpl.mean_difference() == math.inf
    assert cpl.mean_difference() == mean_gap(pair)


def test_coupling_mean_identity_random_pairs():
    """E[y0 - y1] equals the mean gap for arbitrary genuine pairs."""
    rng = np.random.default_rng(32)
    c = symmetric_channel(0.25)
    for _ in range(50):
        v, q, _ = genuine_pair_arrays(rng, n=16)
        pair = ConditionalPair(depth=1, values=v, w0=q)
        cpl = build_coupling(pair, c)
        assert abs(cpl.mean_difference() - mean_gap(pair)) < 1e-10
        res = cpl.marginal_residuals(pair)
        assert max(res) < 1e-12
        assert cpl.crossing_ok()


def assert_pairing_matches_search(pair):
    """The crossing pairs' values and weights are bitwise the searched ones."""
    cpl = build_coupling(pair, symmetric_channel(0.3))
    for got, want in zip((cpl.y0, cpl.y1, cpl.weight),
                         searched_coupling(pair.values, pair.w0, pair.w1)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_merged_pairing_equals_searched_pairing_on_random_pairs():
    rng = np.random.default_rng(34)
    for n in (2, 3, 16, 200):
        for _ in range(10):
            v, q, _ = genuine_pair_arrays(rng, n=n)
            assert_pairing_matches_search(ConditionalPair(depth=1, values=v, w0=q))


def test_merged_pairing_equals_searched_pairing_on_edge_cases():
    # values = ln(w0/w1) at ratios that are powers of 2, so the derived w1
    # is exact and the cumulative masses tie exactly
    ln2, inf = math.log(2.0), math.inf
    cases = [
        # the mass 0.5 ends a cumulative run on both sides; one law-0 atom
        ([-inf, -ln2, 0.0, inf], [0.0, 0.25, 0.25, 0.5], 0.25),
        # one law-1 atom against two law-0 atoms
        ([-inf, 0.0, ln2, 2 * ln2], [0.0, 0.25, 0.25, 0.5], 0.5),
        # dyadic masses: the runs 1/8, 1/2 and 3/8, 1/2 share their total
        ([-2 * ln2, -ln2, ln2, 2 * ln2], [0.125, 0.125, 0.25, 0.5], 0.0),
    ]
    for values, w0, q in cases:
        pair = ConditionalPair(depth=1, values=values, w0=w0, q=q)
        assert (np.maximum(pair.w0 - pair.w1, 0.0).sum()
                == np.maximum(pair.w1 - pair.w0, 0.0).sum())
        assert_pairing_matches_search(pair)
    # +-inf atoms: the hard-core base pair and two steps on from it
    c = hardcore_channel(w_of_lambda(1.0, 2))
    pair = base_pair(c, 2)
    assert np.isinf(pair.values).any()
    for _ in range(3):
        assert_pairing_matches_search(pair)
        pair = evolve(pair, c, 2, exact_policy())
    # residual totals a few ulps apart, either side longer: past the end of
    # the shorter cumulative run its last atom takes the remainder
    rng = np.random.default_rng(35)
    longer = {True: 0, False: 0}
    while min(longer.values()) < 5:
        v, q, _ = genuine_pair_arrays(rng, n=12)
        pair = ConditionalPair(depth=1, values=v, w0=q)
        r0 = _compensated_cumsum(np.maximum(pair.w0 - pair.w1, 0.0))[-1]
        r1 = _compensated_cumsum(np.maximum(pair.w1 - pair.w0, 0.0))[-1]
        if r0 != r1:
            longer[bool(r0 > r1)] += 1
            assert_pairing_matches_search(pair)


def test_merged_pairing_equals_searched_pairing_on_deep_laws():
    """Exact laws at depths 2..5, k = 2, up to the 3,613-atom eps = 0.2 law."""
    for c, atoms in ((symmetric_channel(0.2), 3613), (make_channel(0.81, 0.27), 26796)):
        pair = base_pair(c, 2)
        for _ in range(4):
            pair = evolve(pair, c, 2, exact_policy())
            assert_pairing_matches_search(pair)
        assert len(pair) == atoms


# ----------------------------------------------------------------- sandwich

def test_sandwich_empty_event_all_zero():
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    b = np.array([True, True, False, False])
    cells = np.array([0, 1, 0, 1])
    d = np.zeros(4, dtype=bool)
    v = verify_sandwich(probs, b, cells, d, 0.0, 0.9)
    assert v.lower == v.conditional == v.upper == 0.0
    assert v.passed


def test_sandwich_independent_case_all_one():
    """Trivial partition, D the whole space, p0 = p1 = P(B)."""
    rng = np.random.default_rng(33)
    probs = rng.dirichlet(np.ones(8))
    b = np.zeros(8, dtype=bool)
    b[:3] = True
    pb = probs[b].sum()
    cells = np.zeros(8, dtype=int)
    d = np.ones(8, dtype=bool)
    v = verify_sandwich(probs, b, cells, d, pb, pb)
    assert abs(v.lower - 1.0) < 1e-10
    assert abs(v.conditional - 1.0) < 1e-12
    assert abs(v.upper - 1.0) < 1e-10
    assert v.passed


def test_sandwich_vacuous_upper_bound():
    """p1 = 1 with D disjoint from the complement makes the upper bound +inf."""
    probs = np.array([0.3, 0.2, 0.5])
    b = np.array([True, True, False])
    cells = np.array([0, 1, 2])
    d = np.array([True, False, False])
    v = verify_sandwich(probs, b, cells, d, 0.5, 1.0)
    assert v.upper == math.inf
    assert v.lower == 0.0
    assert v.passed


def test_sandwich_random_spaces():
    """The two-sided bound holds on 2000 random finite spaces."""
    rng = np.random.default_rng(34)
    done = 0
    while done < 2000:
        case = random_sandwich_case(rng)
        if case is None:
            continue
        v = verify_sandwich(*case)
        assert v.passed
        assert v.lower <= v.conditional + 1e-12 <= v.upper + 2e-12
        done += 1


def test_sandwich_precondition_errors():
    probs = np.array([0.25, 0.25, 0.25, 0.25])
    b = np.array([True, False, True, False])
    cells = np.array([0, 0, 1, 1])
    split_d = np.array([True, False, False, False])
    with pytest.raises(PreconditionViolation):
        verify_sandwich(probs, b, cells, split_d, 0.0, 1.0)
    d = np.array([True, True, False, False])
    with pytest.raises(PreconditionViolation):
        # P(B | cell 0) = 0.5 sits outside [0.8, 0.9]
        verify_sandwich(probs, b, cells, d, 0.8, 0.9)


def test_sandwich_degenerate_event():
    probs = np.array([0.5, 0.5])
    cells = np.array([0, 1])
    d = np.array([True, False])
    with pytest.raises(DegenerateEvent):
        verify_sandwich(probs, np.array([False, False]), cells, d, 0.0, 1.0)
    with pytest.raises(DegenerateEvent):
        verify_sandwich(probs, np.array([True, True]), cells, d, 0.0, 1.0)


def test_sandwich_invalid_inputs():
    probs = np.array([0.5, 0.5])
    b = np.array([True, False])
    cells = np.array([0, 1])
    d = np.array([True, False])
    with pytest.raises(InvalidParameter):
        verify_sandwich(probs, b, cells, d, 0.7, 0.3)
    with pytest.raises(InvalidParameter):
        verify_sandwich(np.array([0.5, 0.4]), b, cells, d, 0.0, 1.0)
    with pytest.raises(InvalidParameter):
        verify_sandwich(probs, b[:1], cells, d, 0.0, 1.0)
