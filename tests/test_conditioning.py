"""Monotone couplings and the finite-space conditional sandwich."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    gap_identity_residual,
    hardcore_channel,
    make_channel,
    mean_gap,
    symmetric_channel,
    verify_sandwich,
    w_of_lambda,
)

from treecast import conditioning
from treecast.conditioning import _compensated_cumsum

from _oracles import (crossing_ok_by_values, full_compensated_cumsum, genuine_pair_arrays,
                      merge_coupling, random_sandwich_case, searched_coupling,
                      stable_merge_flags)


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


# 2**32 + 1 wraps to 1, a valid position, if it is cast to int32 before
# the range check
@pytest.mark.parametrize("i0", [np.array([-1, 1]), np.array([0, 3]), np.array([0.0, 1.0]),
                                np.array([0, 2**32 + 1], dtype=np.int64),
                                np.array([0, 2**32 + 1], dtype=np.uint64)],
                         ids=["negative", "past-the-end", "float", "int64-wraps-to-1",
                              "uint64-wraps-to-1"])
def test_coupling_rejects_bad_positions(i0):
    pair = three_atom_pair()
    w = np.array([0.1, 0.1])
    with pytest.raises(InvalidParameter):
        Coupling(pair, i0, np.array([0, 1]), w)
    with pytest.raises(InvalidParameter):
        Coupling(pair, np.array([0, 1]), i0, w)


def test_coupling_positions_are_int32(monkeypatch):
    pair = three_atom_pair()
    for dtype in (np.int8, np.uint16, np.int64, np.uint64):
        cpl = Coupling(pair, np.array([2], dtype=dtype), np.array([0], dtype=dtype),
                       np.array([0.2]))
        assert cpl.i0.dtype == cpl.i1.dtype == np.int32
        assert cpl.i0.tolist() == [2] and cpl.i1.tolist() == [0]
    # a support of 2**31 atoms or more is refused, whatever the positions
    monkeypatch.setattr(ConditionalPair, "__len__", lambda self: 2**31)
    with pytest.raises(InvalidParameter, match="int32"):
        Coupling(pair, np.array([2]), np.array([0]), np.array([0.2]))


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


@pytest.mark.parametrize("where", ["inside-a-block", "across-a-block-edge"])
@pytest.mark.parametrize("side", ["i0", "i1"])
def test_marginal_residuals_refuse_decreasing_positions(where, side):
    """The marginal check reads the pairs landing on a block of atoms as one
    run of the comonotone order, so positions that step down are refused,
    inside a block of pairs and between the last pair of one block and the
    first of the next."""
    v, q, _ = genuine_pair_arrays(np.random.default_rng(38), n=3 * conditioning._BLOCK)
    pair = ConditionalPair(depth=1, values=v, w0=q)
    cpl = build_coupling(pair, symmetric_channel(0.3))
    assert len(cpl.weight) > conditioning._BLOCK + 1
    assert max(cpl.marginal_residuals(pair)) < 1e-12
    j = 5 if where == "inside-a-block" else conditioning._BLOCK
    at = {"i0": cpl.i0.copy(), "i1": cpl.i1.copy()}
    at[side][j - 1] = at[side][j] + 1
    wrong = Coupling(pair, at["i0"], at["i1"], cpl.weight)
    with pytest.raises(InvalidParameter, match="never decrease"):
        wrong.marginal_residuals(pair)


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


# supports with an atom at exactly 0 (symmetric, k = 2), atoms at +inf
# (hard-core) and at -inf (p01 = 0), and one with none of these
CROSSING_PAIRS = [base_pair(symmetric_channel(0.2), 2), base_pair(hardcore_channel(1.0), 3),
                  base_pair(make_channel(1.0, 0.3), 3),
                  evolve_to_depth(symmetric_channel(0.3), 2, 3, exact_policy()),
                  evolve_to_depth(hardcore_channel(2.0), 2, 2, exact_policy())]


@st.composite
def crossing_couplings(draw):
    """Crossing pairs on one of ``CROSSING_PAIRS``: mostly straddling 0,
    any of them moved to any atom (so to the wrong side of 0 on either
    end), with weights that may be 0."""
    pair = draw(st.sampled_from(CROSSING_PAIRS))
    v = pair.values
    anywhere = st.integers(0, len(v) - 1)
    n = draw(st.integers(1, 8))
    i0 = draw(st.lists(st.one_of(st.sampled_from(np.flatnonzero(v >= 0).tolist()), anywhere),
                       min_size=n, max_size=n))
    i1 = draw(st.lists(st.one_of(st.sampled_from(np.flatnonzero(v <= 0).tolist()), anywhere),
                       min_size=n, max_size=n))
    w = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]),
                               min_size=n, max_size=n)))
    rest = 1.0 - np.minimum(pair.w0, pair.w1).sum()
    w = w * (rest / w.sum()) if w.sum() > 0 else np.full(n, rest / n)
    return Coupling(pair, np.array(i0), np.array(i1), w)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(crossing_couplings())
def test_crossing_check_by_positions_is_the_check_by_values(cpl):
    assert cpl.crossing_ok() == crossing_ok_by_values(cpl)


def test_exact_step_and_coupling_memory_at_depth_six():
    """tracemalloc peaks on the exact depth-6 law at eps=0.2, k=2 (6.5M
    atoms; 13M coupling pairs, diagonal atoms and crossing pairs), in
    multiples of the law's ``values.nbytes``: the step with its merge, a
    pair's construction, the gap identity, the coupling, its weight check,
    its two checks, its mean difference and its output rows allocate no
    full-size array that no result needs."""
    c = symmetric_channel(0.2)
    pair = evolve_to_depth(c, 2, 5, exact_policy())
    peaks = {}

    def peak(name, call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = call()
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return out

    law = peak("evolve", lambda: evolve(pair, c, 2, exact_policy()))
    peak("pair", lambda: ConditionalPair(law.depth, law.values, law.w0, law.q))
    peak("gap_identity_residual", lambda: gap_identity_residual(law, pair, c, 2))
    cpl = peak("build_coupling", lambda: build_coupling(law, c))
    peak("coupling_check", lambda: Coupling(law, cpl.i0, cpl.i1, cpl.weight))
    peak("marginal_residuals", lambda: cpl.marginal_residuals(law))
    peak("crossing_ok", cpl.crossing_ok)
    peak("mean_difference", cpl.mean_difference)
    peak("pairs", cpl.pairs)
    assert len(law) > 6_000_000
    assert np.count_nonzero(cpl.diagonal) + len(cpl.weight) > 13_000_000
    # measured 5.26, 1.00, 1.00, 2.45, 0.01, 0.03, 0.25, 1.15 and 6.02; the
    # bounds are the peaks before the temporaries were cut, except that the
    # gap identity's (2.00 while the unused TV term was formed), the
    # coupling's and the weight check's (1.00 while the diagonal was formed
    # to be summed, then 0.13 while the check formed a bool mask), the
    # pair's (1.13 with that mask), build_coupling's (3.00 with a full-size
    # argsort of the merge and full-size temporaries of the prefix sums),
    # marginal_residuals' (1.01 with a full-size accumulator), the mean
    # difference's (3.13 with y0, y1 and their live subsets whole) and
    # pairs' (9.13 with the diagonal, its live atoms and each output's two
    # parts whole) are their measured peaks plus a margin.  The pair's 1.00
    # is its derived w1; build_coupling's 2.45 is the merged masses, the
    # stored positions, the surplus positions of law 1 and the merge flags;
    # the mean difference's 1.15 is the dotted vector and a bool mask, and
    # pairs' 6.02 its three outputs
    bounds = {"evolve": 7.38, "pair": 1.05, "gap_identity_residual": 1.5,
              "build_coupling": 2.5, "coupling_check": 0.05,
              "marginal_residuals": 0.05, "crossing_ok": 3.0,
              "mean_difference": 1.2, "pairs": 6.05}
    ratios = {name: peaks[name] / law.values.nbytes for name in bounds}
    assert all(ratios[name] <= bounds[name] for name in bounds), ratios
    # the stored crossing pairs: int32 positions and the weights, whose
    # buffer is the merge's (no more entries than the law has atoms)
    held = [cpl.i0, cpl.i1, cpl.weight if cpl.weight.base is None else cpl.weight.base]
    assert sum(x.nbytes for x in held) <= 2.0 * law.values.nbytes


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


B = conditioning._BLOCK
# values k * ln 2 whose exp(-value) numpy rounds to exactly 2**-k
EXACT_K = [-11, -10, -5, -2, -1, 1, 2, 4, 5, 9, 10]


def pair_with_infinite_atoms(values, w0, top, q):
    """The pair of finite ``values`` and ``w0``, with a +inf atom of root-0
    weight ``top`` and a -inf atom of root-1 weight ``q`` (each kept, at
    weight 0 too, when ``top`` or ``q`` is not None)."""
    if top is not None:
        values, w0 = np.append(values, math.inf), np.append(w0, top)
    if q is not None:
        values, w0 = np.insert(values, 0, -math.inf), np.insert(w0, 0, 0.0)
    return ConditionalPair(depth=1, values=values, w0=w0, q=q or 0.0)


@st.composite
def dyadic_pairs(draw):
    """Pairs whose residuals and cumulative masses are exact: values
    k * ln 2, weights small multiples of a power of 2 and totals exactly 1,
    so masses are shared by c0 and c1 and the two surplus totals agree."""
    ks = sorted(draw(st.sets(st.sampled_from(EXACT_K + [0]), min_size=2)))
    m = np.array(draw(st.lists(st.integers(0, 8), min_size=len(ks), max_size=len(ks))))
    ks = np.array(ks)
    a, b = int(m.sum()), float((m * 2.0 ** -ks).sum())  # root-0 and root-1 units
    assume(a > 0)
    scale = 2.0 ** -math.ceil(math.log2(max(a, b)))
    top, q = 1 - a * scale, 1 - b * scale
    return pair_with_infinite_atoms(ks * math.log(2.0), m * scale,
                                    top if top or draw(st.booleans()) else None,
                                    q if q or draw(st.booleans()) else None)


@st.composite
def float_pairs(draw):
    """Pairs with surplus runs of n0 and n1 atoms, up to one above twice the
    block size, at random values and weights (so the two surplus totals
    differ by rounding), with weightless atoms, an atom at 0, +-inf atoms,
    and runs whose tail is too small to move the cumulative mass."""
    sizes = [1, 2, 3, B - 1, B, B + 1, 2 * B + 1]
    n0, n1 = draw(st.sampled_from(sizes)), draw(st.sampled_from(sizes))
    zeros, tiny = draw(st.integers(0, 3)), draw(st.sampled_from([None, 1.0, -1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = 0.01 + np.cumsum(rng.uniform(0.5, 1.5, n0 + zeros)) * (3.0 / (n0 + zeros))
    neg = -0.01 - np.cumsum(rng.uniform(0.5, 1.5, n1 + zeros)) * (3.0 / (n1 + zeros))
    centre = [0.0] if draw(st.booleans()) else []
    values = np.concatenate((neg[::-1], centre, pos))
    u = rng.uniform(0.5, 1.5, len(values))
    u[rng.choice(len(neg), zeros, replace=False)] = 0.0
    u[len(values) - len(pos) + rng.choice(len(pos), zeros, replace=False)] = 0.0
    if tiny is not None:  # all but the first atom of the run on the side of sign tiny
        u[np.flatnonzero(values * tiny > 0)[1:]] *= 1e-30
    a, b = u.sum(), (u * np.exp(-values)).sum()
    w0 = u / max(a, b)
    top, q = max(1 - w0.sum(), 0.0), max(1 - (w0 * np.exp(-values)).sum(), 0.0)
    return pair_with_infinite_atoms(values, w0, top if top or draw(st.booleans()) else None,
                                    q if q or draw(st.booleans()) else None)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(dyadic_pairs(), float_pairs()))
def test_block_merge_equals_full_size_merge(pair):
    """The coupling is bitwise the one merged with every array at full
    size: positions as int64 values, weights by bytes.  So are the steps
    taken a block at a time: the surplus positions and cumulative masses,
    and the merge flags."""
    cpl = build_coupling(pair, symmetric_channel(0.3))
    i0, i1, w = merge_coupling(pair)
    assert cpl.i0.dtype == cpl.i1.dtype == np.int32
    assert np.array_equal(cpl.i0.astype(np.int64), i0)
    assert np.array_equal(cpl.i1.astype(np.int64), i1)
    assert cpl.weight.dtype == w.dtype and cpl.weight.tobytes() == w.tobytes()
    w0, w1 = pair.w0, pair.w1
    s0, s1 = np.flatnonzero(w0 > w1), np.flatnonzero(w1 > w0)
    if len(s0) == 0 or len(s1) == 0:
        return
    c0 = full_compensated_cumsum(w0[s0] - w1[s0])
    c1 = full_compensated_cumsum(w1[s1] - w0[s1])
    got0, got1 = np.empty(len(s0), np.int32), np.empty(len(s1), np.int32)
    merged = np.empty(len(s0) + len(s1))
    conditioning._surplus(w0, w1, got0, got1, merged)
    assert np.array_equal(got0, s0) and np.array_equal(got1, s1)
    _compensated_cumsum(merged[:len(s0)], out=merged[:len(s0)])
    _compensated_cumsum(merged[len(s0):], out=merged[len(s0):])
    assert merged.tobytes() == np.concatenate((c0, c1)).tobytes()
    assert np.array_equal(conditioning._merge_flags(c0, c1), stable_merge_flags(c0, c1))


@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B + 1])
def test_block_compensated_cumsum_equals_full_size(n):
    """Block by block, with the running sum, error sum and maximum carried
    across block edges, the prefix sums keep the full-size bits: into a
    new array, into a given one and over their own input."""
    rng = np.random.default_rng(n)
    x = rng.random(n) * 10.0 ** rng.uniform(-12.0, 0.0, n)
    x[rng.integers(0, n, n // 7)] = 0.0  # steps that add nothing
    want = full_compensated_cumsum(x.copy()).tobytes()
    assert _compensated_cumsum(x).tobytes() == want
    out = np.empty(n)
    assert _compensated_cumsum(x, out=out) is out and out.tobytes() == want
    y = x.copy()
    assert _compensated_cumsum(y, out=y) is y and y.tobytes() == want
    # a term below 0 makes the sums fall, which the running maximum undoes;
    # at the first entry of a block, only the carried maximum does
    x[B::B] = -1.0
    assert _compensated_cumsum(x).tobytes() == full_compensated_cumsum(x.copy()).tobytes()


def merge_flag_cases():
    """Non-decreasing runs ``(c0, c1)`` whose merge blocks hold only one
    run's entries, whose runs cross block edges, and whose tied masses sit
    at and across block edges."""
    rng = np.random.default_rng(37)
    low, high = np.arange(1.0, B + 4.0), np.arange(1.0, 2 * B + 2.0) + 3 * B
    tied = np.arange(1.0, B + 2.0)
    cases = {
        "c1-below-c0": (high, low),  # the first block has no entry of c0
        "c0-below-c1": (low, high),  # the last block has none
        "c1-inside-c0": (np.concatenate((low, high)), tied + B + 3.5),
        "all-tied": (tied, tied),  # each tie two entries, block edges between ties
        "ties-across-edges": (np.concatenate(([0.5], tied)), tied),  # edges inside ties
        "ties-at-the-end": (tied[:-2], tied[1:]),
        "single-entries": (np.array([2.0]), np.array([2.0])),
    }
    for n0, n1 in ((B + 7, 2 * B - 3), (3, 2 * B + 1), (2 * B + 1, 1)):
        # few distinct masses: runs of ties longer than a block
        cases[f"random-ties-{n0}-{n1}"] = (np.sort(rng.integers(0, 50, n0)).astype(float),
                                           np.sort(rng.integers(0, 50, n1)).astype(float))
    return cases


MERGE_FLAG_CASES = merge_flag_cases()


@pytest.mark.parametrize("name", sorted(MERGE_FLAG_CASES))
def test_block_merge_flags_equal_stable_argsort(name):
    c0, c1 = MERGE_FLAG_CASES[name]
    assert np.array_equal(conditioning._merge_flags(c0, c1), stable_merge_flags(c0, c1))


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
