"""Shared-support pairs, merging, posterior maps."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treecast import (
    ConditionalPair,
    InvalidParameter,
    grid_merge,
    llr_from_posterior,
    make_channel,
    posterior_from_llr,
    symmetric_channel,
)


from _oracles import genuine_pair_arrays


def genuine_pair(rng, n=12, depth=1):
    """Random pair arising from an actual binary experiment."""
    v, q, r = genuine_pair_arrays(rng, n)
    return ConditionalPair(depth=depth, values=v, w0=q, w1=r)


# ------------------------------------------------------------------- pairs

def test_pair_validation():
    v = np.array([-1.0, 1.0])
    w = np.array([0.5, 0.5])
    with pytest.raises(InvalidParameter):
        ConditionalPair(depth=0, values=v, w0=w, w1=w)
    with pytest.raises(InvalidParameter):
        ConditionalPair(depth=1, values=v[::-1].copy(), w0=w, w1=w)
    with pytest.raises(InvalidParameter):
        ConditionalPair(depth=1, values=v, w0=np.array([1.2, -0.2]), w1=w)
    with pytest.raises(InvalidParameter):
        ConditionalPair(depth=1, values=v, w0=np.array([0.5, 0.4]), w1=w)
    with pytest.raises(InvalidParameter):
        ConditionalPair(depth=1, values=np.array([0.0, math.nan]), w0=w, w1=w)
    with pytest.raises(InvalidParameter):
        ConditionalPair(depth=1, values=np.array([]), w0=np.array([]), w1=np.array([]))


def test_genuine_pair_is_unbiased_and_dominant():
    """Any likelihood-ratio pair satisfies the posterior-mean and
    one-sided weight-ordering identities automatically."""
    rng = np.random.default_rng(12)
    c = make_channel(0.7, 0.2)
    for _ in range(50):
        pair = genuine_pair(rng)
        assert pair.posterior_mean_residual(c) < 1e-12
        assert pair.dominance_violation() == 0.0


def test_dominance_violation_detects_bad_pair():
    pair = ConditionalPair(depth=1,
                           values=np.array([-1.0, 1.0]),
                           w0=np.array([0.6, 0.4]),
                           w1=np.array([0.4, 0.6]))
    assert abs(pair.dominance_violation() - 0.2) < 1e-15


# ------------------------------------------------------------------ merging

def test_merge_requires_positive_tol():
    with pytest.raises(InvalidParameter):
        grid_merge(np.array([0.0]), np.array([1.0]), tol=0.0)


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


def test_merge_rejects_cells_beyond_int64():
    """|value/tol| past 2**63 raises instead of wrapping into the -inf cell."""
    w = np.full(5, 0.2)
    with pytest.raises(InvalidParameter):
        grid_merge(np.array([-2e7, -1.5e7, 1.0, 1.5e7, 2e7]), w, tol=1e-12)
    for big in (2e7, -2e7, 1e300):
        with pytest.raises(InvalidParameter):
            grid_merge(np.array([big, 1.0]), np.array([0.5, 0.5]), tol=1e-12)
    # the same atoms merge correctly on a grid they fit
    mv, mw = grid_merge(np.array([-2e7, -1.5e7, 1.0, 1.5e7, 2e7]), w, tol=1e-6)
    assert list(mv) == [-2e7, -1.5e7, 1.0, 1.5e7, 2e7]
    assert np.array_equal(mw, w)


# finite values keep |v| >= 1e-9 (or exactly 0) so that no merged mean lands
# inside the 1e-12 snap-to-zero band from the negative side
MERGE_VALUES = st.one_of(
    st.just(0.0), st.just(math.inf), st.just(-math.inf),
    st.builds(operator.mul, st.sampled_from([-1.0, 1.0]), st.floats(1e-9, 1e3)))


@st.composite
def merge_inputs(draw):
    values = np.array(draw(st.lists(MERGE_VALUES, min_size=1, max_size=40)))
    weight_list = st.lists(st.floats(0.0, 1.0), min_size=len(values),
                           max_size=len(values))
    weights = [np.array(draw(weight_list)) for _ in range(draw(st.integers(1, 2)))]
    tol = 10.0 ** draw(st.floats(-12.0, 0.0))
    return values, weights, tol


@settings(derandomize=True, max_examples=300, deadline=None)
@given(merge_inputs())
def test_merge_properties(case):
    values, weights, tol = case
    mv, *merged = grid_merge(values, *weights, tol=tol)
    assert np.all(mv[1:] > mv[:-1])
    for w, mw in zip(weights, merged):
        assert math.isclose(mw.sum(), w.sum(), rel_tol=1e-12, abs_tol=1e-300)
        for inf in (math.inf, -math.inf):
            at = values == inf
            assert np.count_nonzero(mv == inf) == int(at.any())
            if at.any():
                assert math.isclose(mw[mv == inf][0], w[at].sum(), rel_tol=1e-12)
    # no atom mixes signs: merging each side alone gives the same atoms
    sides = [grid_merge(values[side], *(w[side] for w in weights), tol=tol)
             for side in (values < 0, values >= 0)]
    for got, neg_part, nonneg_part in zip((mv, *merged), *sides):
        np.testing.assert_array_equal(got, np.concatenate([neg_part, nonneg_part]))


def test_merge_joint_weight_vectors():
    """Parallel weight vectors are merged on one shared support."""
    v = np.array([1.0, 1.0 + 1e-14, 3.0])
    a = np.array([0.2, 0.3, 0.5])
    b = np.array([0.6, 0.1, 0.3])
    mv, ma, mb = grid_merge(v, a, b, tol=1e-12)
    assert len(mv) == 2
    assert abs(ma[0] - 0.5) < 1e-15
    assert abs(mb[0] - 0.7) < 1e-15


def test_merge_conserves_total_weight():
    rng = np.random.default_rng(13)
    for _ in range(50):
        v = rng.normal(scale=2.0, size=500)
        a = rng.dirichlet(np.ones(500))
        b = rng.dirichlet(np.ones(500))
        mv, ma, mb = grid_merge(v, a, b, tol=0.05)
        assert abs(ma.sum() - 1.0) < 1e-10
        assert abs(mb.sum() - 1.0) < 1e-10
        assert np.all(np.diff(mv) > 0)


# ---------------------------------------------------------- posterior maps

def test_posterior_map_anchors():
    c = make_channel(0.7, 0.2)
    assert abs(posterior_from_llr(0.0, c) - c.pi0) < 1e-15
    assert posterior_from_llr(math.inf, c) == 1.0
    assert posterior_from_llr(-math.inf, c) == 0.0
    assert llr_from_posterior(1.0, c) == math.inf
    assert llr_from_posterior(0.0, c) == -math.inf
    with pytest.raises(InvalidParameter):
        llr_from_posterior(1.2, c)


def test_posterior_map_roundtrip():
    """Both directions invert each other on 1000 random points."""
    rng = np.random.default_rng(14)
    c = symmetric_channel(0.3)
    a = rng.uniform(1e-6, 1.0 - 1e-6, size=1000)
    back = posterior_from_llr(llr_from_posterior(a, c), c)
    assert np.max(np.abs(back - a)) < 1e-12
    x = rng.uniform(-12.0, 12.0, size=1000)
    forth = llr_from_posterior(posterior_from_llr(x, c), c)
    assert np.max(np.abs(forth - x)) < 1e-10


def test_posterior_map_scalar_and_vector():
    c = symmetric_channel(0.2)
    assert isinstance(posterior_from_llr(1.0, c), float)
    out = posterior_from_llr(np.array([0.0, 1.0]), c)
    assert out.shape == (2,)
    assert np.all(np.diff(posterior_from_llr(np.linspace(-5, 5, 50), c)) > 0)
