"""Monotone couplings and the finite-space conditional sandwich."""

import math

import numpy as np
import pytest

from treecast import (
    ConditionalPair,
    Coupling,
    DegenerateEvent,
    DominanceViolation,
    InvalidParameter,
    PreconditionViolation,
    base_pair,
    build_coupling,
    deep_policy,
    evolve_to_depth,
    hardcore_channel,
    mean_gap,
    symmetric_channel,
    verify_sandwich,
)

from _oracles import genuine_pair_arrays, random_sandwich_case


# ----------------------------------------------------------------- coupling

def test_coupling_validation():
    v = np.array([0.0, 1.0])
    with pytest.raises(InvalidParameter):
        Coupling(y0=v, y1=v, weight=np.array([1.5, -0.5]))
    with pytest.raises(InvalidParameter):
        Coupling(y0=v, y1=v, weight=np.array([0.5, 0.4]))


def test_identical_laws_couple_on_diagonal():
    v, q, _ = genuine_pair_arrays(np.random.default_rng(31))
    pair = ConditionalPair(depth=1, values=v, w0=q, w1=q.copy())
    cpl = build_coupling(pair, symmetric_channel(0.3))
    assert np.all(cpl.y0 == cpl.y1)
    r0, r1 = cpl.marginal_residuals(pair)
    assert r0 < 1e-12 and r1 < 1e-12
    assert cpl.crossing_ok()


def test_uninformative_channel_couples_at_zero():
    c = symmetric_channel(0.5)
    cpl = build_coupling(base_pair(c, 2), c)
    assert len(cpl.weight) == 1
    assert cpl.y0[0] == 0.0 and cpl.y1[0] == 0.0 and cpl.weight[0] == 1.0


def test_coupling_depth_two_exhaustive():
    """Marginals, crossing, and the mean identity at an enumerable depth."""
    c = symmetric_channel(0.2)
    pair = evolve_to_depth(c, 2, 2)
    cpl = build_coupling(pair, c)
    r0, r1 = cpl.marginal_residuals(pair)
    assert r0 < 1e-12 and r1 < 1e-12
    assert cpl.crossing_ok()
    assert abs(cpl.mean_difference() - mean_gap(pair)) < 1e-12
    assert abs(cpl.weight.sum() - 1.0) < 1e-12


def test_coupling_small_grid():
    """Marginals and crossing across families, branching, and depth."""
    cases = [(symmetric_channel(0.1), 1), (symmetric_channel(0.3), 2),
             (hardcore_channel(1.0, 1)[0], 1), (hardcore_channel(1.0, 2)[0], 2)]
    for c, k in cases:
        for depth in (1, 2, 4):
            pair = evolve_to_depth(c, k, depth, deep_policy())
            cpl = build_coupling(pair, c)
            r0, r1 = cpl.marginal_residuals(pair)
            assert max(r0, r1) < 1e-12, (k, depth)
            assert cpl.crossing_ok(), (k, depth)


def test_coupling_infinite_gap():
    """Hard-core base case: infinite atoms force an infinite mean difference."""
    c, _ = hardcore_channel(1.0, 2)
    pair = base_pair(c, 2)
    cpl = build_coupling(pair, c)
    assert cpl.mean_difference() == math.inf
    assert cpl.mean_difference() == mean_gap(pair)


def test_coupling_rejects_dominance_violation():
    pair = ConditionalPair(depth=1,
                           values=np.array([-1.0, 1.0]),
                           w0=np.array([0.6, 0.4]),
                           w1=np.array([0.4, 0.6]))
    with pytest.raises(DominanceViolation):
        build_coupling(pair, symmetric_channel(0.3))


def test_coupling_tolerates_tiny_violation():
    d = 5e-11  # below DOMINANCE_TOL = 1e-10
    pair = ConditionalPair(depth=1,
                           values=np.array([-1.0, 1.0]),
                           w0=np.array([0.5 + d, 0.5 - d]),
                           w1=np.array([0.5, 0.5]))
    cpl = build_coupling(pair, symmetric_channel(0.3))
    assert abs(cpl.weight.sum() - 1.0) < 1e-10


def test_coupling_mean_identity_random_pairs():
    """E[y0 - y1] equals the mean gap for arbitrary genuine pairs."""
    rng = np.random.default_rng(32)
    c = symmetric_channel(0.25)
    for _ in range(50):
        v, q, r = genuine_pair_arrays(rng, n=16)
        pair = ConditionalPair(depth=1, values=v, w0=q, w1=r)
        cpl = build_coupling(pair, c)
        assert abs(cpl.mean_difference() - mean_gap(pair)) < 1e-10
        res = cpl.marginal_residuals(pair)
        assert max(res) < 1e-12
        assert cpl.crossing_ok()


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
