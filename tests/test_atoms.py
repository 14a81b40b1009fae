"""Shared-support pairs, merging, posterior maps."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treecast import (
    ConditionalPair,
    DegenerateChannel,
    InvalidParameter,
    base_pair,
    grid_merge,
    hardcore_channel,
    make_channel,
    posterior_from_llr,
    symmetric_channel,
)
from treecast import evolution
from treecast.atoms import run_count


from _oracles import genuine_pair_arrays, stable_grid_merge


def genuine_pair(rng, n=12, depth=1):
    """Random pair arising from an actual binary experiment."""
    v, q, _ = genuine_pair_arrays(rng, n)
    return ConditionalPair(depth=depth, values=v, w0=q)


# ------------------------------------------------------------------- pairs

def test_pair_validation():
    # a genuine pair: values = ln(w0/w1) with w1 = [0.75, 0.25]
    v = np.array([-math.log(3.0), math.log(3.0)])
    w = np.array([0.25, 0.75])
    ConditionalPair(depth=1, values=v, w0=w)
    with pytest.raises(InvalidParameter):
        ConditionalPair(depth=0, values=v, w0=w)
    with pytest.raises(InvalidParameter):
        ConditionalPair(depth=1, values=v[::-1].copy(), w0=w[::-1].copy())
    with pytest.raises(InvalidParameter):
        ConditionalPair(depth=1, values=v, w0=np.array([1.2, -0.2]))
    with pytest.raises(InvalidParameter):
        ConditionalPair(depth=1, values=v, w0=np.array([0.25, 0.65]))
    with pytest.raises(InvalidParameter):
        ConditionalPair(depth=1, values=np.array([0.0, math.nan]), w0=w)
    with pytest.raises(InvalidParameter):
        ConditionalPair(depth=1, values=np.array([]), w0=np.array([]))
    # two +inf atoms: a difference of neighbours would be inf - inf = NaN
    # (and a RuntimeWarning), which no check of "<= 0" catches
    with pytest.raises(InvalidParameter, match="strictly increasing"):
        ConditionalPair(depth=1, values=np.array([-1.0, math.inf, math.inf]),
                        w0=np.array([1 / math.e, 0.3, 1 - 1 / math.e - 0.3]))
    # w0 of one law with the values of another: the derived w1 sums to 1.27
    with pytest.raises(InvalidParameter, match="w1 sums to"):
        ConditionalPair(depth=1, values=np.array([-1.0, 1.0]), w0=w)
    # root value 0 puts no mass at -inf, and a -inf mass needs a -inf atom
    with pytest.raises(InvalidParameter):
        ConditionalPair(depth=1, values=np.array([-math.inf, 0.0]), w0=np.array([0.5, 0.5]))
    with pytest.raises(InvalidParameter):
        ConditionalPair(depth=1, values=np.array([0.0]), w0=np.array([1.0]), q=1e-12)


def test_pair_derives_root_one_weights():
    """w1 is w0*exp(-value) on finite atoms, 0 at +inf and q at -inf."""
    q = 0.25
    v = np.array([-math.inf, 0.25, math.inf])
    w0 = np.array([0.0, (1.0 - q) * math.exp(0.25), 0.0])
    w0[2] = 1.0 - w0[1]
    pair = ConditionalPair(depth=2, values=v, w0=w0, q=q)
    assert pair.w1[0] == q and pair.w1[2] == 0.0
    assert abs(pair.w1[1] - w0[1] * np.exp(-v[1])) <= 1e-16
    assert pair.q == q


@pytest.mark.parametrize("entries, k", [((1 - 1e-15, 0.5), 25), ((1 - 1e-15, 0.5), 30),
                                        ((0.9999999, 0.3), 60)])
def test_pair_refuses_root_one_mass_w0_cannot_hold(entries, k):
    """Base laws whose atoms below ln(tiny) carry root-1 mass (7.8e-5,
    2.6e-3 and 5.7e-2 here) while their w0 underflowed: deriving w1 would
    lose that mass, so the pair refuses."""
    with pytest.raises(DegenerateChannel, match="below ln"):
        base_pair(make_channel(*entries), k)


def test_genuine_pair_is_unbiased_and_dominant():
    """Any likelihood-ratio pair satisfies the posterior-mean and
    one-sided weight-ordering identities automatically."""
    rng = np.random.default_rng(12)
    c = make_channel(0.7, 0.2)
    for _ in range(50):
        pair = genuine_pair(rng)
        assert pair.posterior_mean_residual(c) < 1e-12
        assert np.all(pair.w1[pair.values > 0] <= pair.w0[pair.values > 0])
        assert np.all(pair.w1[pair.values < 0] >= pair.w0[pair.values < 0])


# ------------------------------------------------------------------ merging

def test_merge_requires_positive_tol():
    with pytest.raises(InvalidParameter):
        grid_merge(np.array([0.0]), np.array([1.0]), tol=0.0)


def test_merge_rejects_nan_values():
    """A NaN atom has no cell; it must not come back as 0.0 with its weight."""
    with pytest.raises(InvalidParameter):
        grid_merge(np.array([math.nan, 1.0, 2.0]), np.full(3, 1 / 3), tol=1e-12)


def test_merge_combines_cellmates_with_weighted_mean():
    v = np.array([0.03, 0.04, 0.5])
    w = np.array([0.25, 0.25, 0.5])
    mv, mw = grid_merge(v, w, tol=0.1)
    assert len(mv) == 2
    assert abs(mv[0] - 0.035) < 1e-15
    assert abs(mw[0] - 0.5) < 1e-15


def test_merge_never_crosses_zero():
    """Atoms of opposite sign stay apart no matter how close they are."""
    mv, mw = grid_merge(np.array([-0.04, 0.03]), np.array([0.5, 0.5]), tol=0.1)
    assert len(mv) == 2
    assert mv[0] < 0.0 < mv[1]
    assert abs(mw[0] - 0.5) < 1e-15


def test_merge_snaps_rounding_residue_to_zero():
    """Values within 1e-12 of 0 become exactly 0 (sign-barrier hygiene)."""
    mv, mw = grid_merge(np.array([2e-13, 1.0]), np.array([0.5, 0.5]), tol=1e-12)
    assert mv[0] == 0.0
    mv, mw = grid_merge(np.array([-3e-16, 4e-16]), np.array([0.5, 0.5]), tol=1e-12)
    assert len(mv) == 1 and mv[0] == 0.0 and mw[0] == 1.0


def test_merge_keeps_infinite_atoms():
    v = np.array([-math.inf, -1.0, 2.0, math.inf])
    w = np.array([0.1, 0.2, 0.3, 0.4])
    mv, mw = grid_merge(v, w, tol=0.5)
    assert mv[0] == -math.inf and mv[-1] == math.inf
    assert abs(mw[0] - 0.1) < 1e-15 and abs(mw[-1] - 0.4) < 1e-15


def test_merge_keeps_far_atoms():
    """Atoms far from 0 come back unchanged at any tolerance: no cell range."""
    w = np.full(5, 0.2)
    for tol in (1e-12, 1e-6):
        mv, mw = grid_merge(np.array([-2e7, -1.5e7, 1.0, 1.5e7, 2e7]), w, tol=tol)
        assert list(mv) == [-2e7, -1.5e7, 1.0, 1.5e7, 2e7]
        assert np.array_equal(mw, w)
    for big in (2e7, -2e7, 1e300):
        v, vw = np.array([big, 1.0]), np.array([0.25, 0.75])
        order = np.argsort(v)
        mv, mw = grid_merge(v, vw, tol=1e-12)
        assert np.array_equal(mv, v[order]) and np.array_equal(mw, vw[order])


# finite values keep |v| >= 1e-9 (or exactly 0), outside the 1e-12
# snap-to-zero band, so each value's sign is the sign it is merged with
MERGE_VALUES = st.one_of(
    st.just(0.0), st.just(math.inf), st.just(-math.inf),
    st.builds(operator.mul, st.sampled_from([-1.0, 1.0]), st.floats(1e-9, 1e3)))


@st.composite
def merge_inputs(draw):
    values = np.array(draw(st.lists(MERGE_VALUES, min_size=1, max_size=40)))
    weight_list = st.lists(st.floats(0.0, 1.0), min_size=len(values),
                           max_size=len(values))
    tol = 10.0 ** draw(st.floats(-12.0, 0.0))
    return values, np.array(draw(weight_list)), tol


@settings(derandomize=True, max_examples=300, deadline=None)
@given(merge_inputs())
def test_merge_properties(case):
    values, w, tol = case
    mv, mw = grid_merge(values, w, tol=tol)
    assert np.all(mv[1:] > mv[:-1])
    # consecutive atoms of one sign lie at least tol apart
    neg = mv < 0
    assert np.all(np.diff(mv)[neg[1:] == neg[:-1]] >= tol)
    # each atom lies in the range of its run: the sorted inputs split where
    # the gap reaches tol or the sign turns non-negative
    s = np.sort(values)
    with np.errstate(invalid="ignore"):
        cut = (np.diff(s) >= tol) | ((s[:-1] < 0) & (s[1:] >= 0))
    runs = np.split(s, np.flatnonzero(cut) + 1)
    assert len(runs) == len(mv) == run_count(values, tol)
    assert all(run[0] <= m <= run[-1] for run, m in zip(runs, mv))
    assert math.isclose(mw.sum(), w.sum(), rel_tol=1e-12, abs_tol=1e-300)
    for inf in (math.inf, -math.inf):
        at = values == inf
        assert np.count_nonzero(mv == inf) == int(at.any())
        if at.any():
            assert math.isclose(mw[mv == inf][0], w[at].sum(), rel_tol=1e-12)
    # no atom mixes signs: merging each side alone gives the same atoms
    sides = [grid_merge(values[side], w[side], tol=tol)
             for side in (values < 0, values >= 0)]
    for got, neg_part, nonneg_part in zip((mv, mw), *sides):
        np.testing.assert_array_equal(got, np.concatenate([neg_part, nonneg_part]))


# few distinct values, so most atoms tie with another (2e-13 snaps to 0)
TIED_VALUES = st.sampled_from([-math.inf, -2.0, -1.0, 0.0, 2e-13, 1.0, 2.0, math.inf])


@st.composite
def tied_merge_inputs(draw):
    values = np.array(draw(st.lists(TIED_VALUES, max_size=80)), dtype=np.float64)
    weight_list = st.lists(st.floats(0.0, 1.0), min_size=len(values),
                           max_size=len(values))
    tol = draw(st.sampled_from([1e-12, 0.5, 1.0, 1.5, 3.0]))
    return values, np.array(draw(weight_list), dtype=np.float64), tol


def assert_same_merge(got, want):
    """Equal dtype, shape and bytes, array by array."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tied_merge_inputs())
def test_merge_is_the_stable_sort_merge_on_ties(case):
    values, w, tol = case
    assert_same_merge(grid_merge(values, w, tol=tol), stable_grid_merge(values, w, tol=tol))


def test_merge_is_the_stable_sort_merge_on_exact_laws(monkeypatch):
    """Every merge of a hard-core base pair (40 atoms at +inf) and of the
    exact steps to depth 6 at eps=0.2, k=2 (6.5M sums in the last) is the
    stable-sort merge, bit for bit."""
    sizes = []

    def both(values, weights, tol):
        got = grid_merge(values, weights, tol=tol)
        assert_same_merge(got, stable_grid_merge(values, weights, tol=tol))
        sizes.append(len(values))
        return got

    monkeypatch.setattr(evolution, "grid_merge", both)
    evolution.base_pair(hardcore_channel(1.0), 40)
    assert sizes == [41]
    evolution.evolve_to_depth(symmetric_channel(0.2), 2, 6, evolution.exact_policy())
    assert max(sizes) > 6_000_000


def test_merge_joint_weight_vectors():
    """A root-1 vector tied to the merged one by w1 = w0*exp(-v) needs no
    merge of its own: on the merged support, w0*exp(-value) is each run's
    root-1 sum, to within the run's width."""
    v = np.array([1.0, 1.0 + 1e-13, 3.0])
    a = np.array([0.2, 0.3, 0.5])
    b = a * np.exp(-v)
    mv, ma = grid_merge(v, a, tol=1e-12)
    assert len(mv) == 2
    assert abs(ma[0] - 0.5) < 1e-15
    derived = ma * np.exp(-mv)
    assert abs(derived[0] - (b[0] + b[1])) <= 1e-13 * derived[0]
    assert derived[1] == b[2]


def test_merge_conserves_total_weight():
    rng = np.random.default_rng(13)
    for _ in range(50):
        v = rng.normal(scale=2.0, size=500)
        a = rng.dirichlet(np.ones(500))
        mv, ma = grid_merge(v, a, tol=0.05)
        assert abs(ma.sum() - 1.0) < 1e-10
        assert np.all(np.diff(mv) > 0)


# ---------------------------------------------------------- posterior maps

def test_posterior_map_anchors():
    c = make_channel(0.7, 0.2)
    assert abs(posterior_from_llr(0.0, c) - c.pi0) < 1e-15
    assert posterior_from_llr(math.inf, c) == 1.0
    assert posterior_from_llr(-math.inf, c) == 0.0


def test_posterior_map_roundtrip():
    """The posterior map is inverted by ``logit(a) - ln(pi0/pi1)`` on 1000
    random points, with and without a prior shift ln(pi0/pi1)."""
    rng = np.random.default_rng(14)
    for c in (symmetric_channel(0.3), make_channel(0.7, 0.2)):
        a = rng.uniform(1e-6, 1.0 - 1e-6, size=1000)
        back = posterior_from_llr(np.log(a / (1.0 - a)) - c.log_prior_ratio, c)
        assert np.max(np.abs(back - a)) < 1e-12
        x = rng.uniform(-12.0, 12.0, size=1000)
        a = posterior_from_llr(x, c)
        forth = np.log(a / (1.0 - a)) - c.log_prior_ratio
        assert np.max(np.abs(forth - x)) < 1e-10


def test_posterior_map_scalar_and_vector():
    c = symmetric_channel(0.2)
    assert isinstance(posterior_from_llr(1.0, c), float)
    out = posterior_from_llr(np.array([0.0, 1.0]), c)
    assert out.shape == (2,)
    assert np.all(np.diff(posterior_from_llr(np.linspace(-5, 5, 50), c)) > 0)
