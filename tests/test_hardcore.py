"""Independent-set enumeration, activity measures, single-site conditionals."""

import math
import time

import numpy as np
import pytest

from treecast import hardcore
from treecast import (
    FiniteGraph,
    InvalidParameter,
    NotInterior,
    ResourceLimit,
    brw_independence_check,
    enumerate_independent_sets,
    gibbs_conditional_check,
    gibbs_conditional_sweep,
    hardcore_channel,
    hardcore_measure,
    symmetric_channel,
    truncated_tree,
)

from _oracles import brute_independent_sets, hardcore_joint_gibbs_residual


# -------------------------------------------------------------------- graphs

def test_graph_validation():
    with pytest.raises(InvalidParameter):
        FiniteGraph(n=3, edges=((0, 0),))
    with pytest.raises(InvalidParameter):
        FiniteGraph(n=3, edges=((0, 1), (1, 0)))
    with pytest.raises(InvalidParameter):
        FiniteGraph(n=2, edges=((0, 2),))
    with pytest.raises(InvalidParameter):
        FiniteGraph(n=-1, edges=())


def test_graph_normalizes_edges():
    g = FiniteGraph(n=4, edges=((3, 1), (2, 0)))
    assert g.edges == ((0, 2), (1, 3))
    assert g.neighbors[1] == [3]


# --------------------------------------------------------------- enumeration

def test_enumeration_examples():
    assert len(enumerate_independent_sets(FiniteGraph(n=2, edges=((0, 1),)))) == 3
    path3 = FiniteGraph(n=3, edges=((0, 1), (1, 2)))
    assert len(enumerate_independent_sets(path3)) == 5
    empty = FiniteGraph(n=4, edges=())
    assert len(enumerate_independent_sets(empty)) == 16


def test_enumeration_matches_brute_force():
    """Stack-based enumeration equals the subset scan on random graphs."""
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        take = rng.random(len(possible)) < 0.4
        edges = tuple(e for e, t in zip(possible, take) if t)
        g = FiniteGraph(n=n, edges=edges)
        got = {frozenset(s) for s in enumerate_independent_sets(g)}
        want = {frozenset(j for j in range(n) if (mask >> j) & 1)
                for mask in brute_independent_sets(n, edges)}
        assert got == want


def test_enumeration_is_sorted_and_capped():
    g = FiniteGraph(n=3, edges=((0, 1),))
    sets = enumerate_independent_sets(g)
    keys = [(len(s), sorted(s)) for s in sets]
    assert keys == sorted(keys)
    with pytest.raises(ResourceLimit):
        enumerate_independent_sets(FiniteGraph(n=26, edges=()))


# ------------------------------------------------------------------- measure

def test_measure_uniform_on_single_edge():
    g = FiniteGraph(n=2, edges=((0, 1),))
    m = hardcore_measure(g, 1.0)
    assert abs(m.partition_function - 3.0) < 1e-12
    for members in ((), (0,), (1,)):
        assert abs(m.probability(members) - 1.0 / 3.0) < 1e-12
    assert m.probability((0, 1)) == 0.0


def test_measure_path3_activity2():
    g = FiniteGraph(n=3, edges=((0, 1), (1, 2)))
    m = hardcore_measure(g, 2.0)
    assert abs(m.partition_function - 11.0) < 1e-12
    assert abs(m.probability((0, 2)) - 4.0 / 11.0) < 1e-12


def test_measure_concentrates_at_small_activity():
    g = FiniteGraph(n=3, edges=((0, 1), (1, 2)))
    m = hardcore_measure(g, 1e-9)
    assert m.probability(()) > 1.0 - 1e-8


def test_measure_sums_to_one():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        take = rng.random(len(possible)) < 0.5
        g = FiniteGraph(n=n, edges=tuple(e for e, t in zip(possible, take) if t))
        m = hardcore_measure(g, float(rng.uniform(0.1, 5.0)))
        assert abs(float(m.probs.sum()) - 1.0) < 1e-12
        with pytest.raises(InvalidParameter):
            hardcore_measure(g, 0.0)


def test_partition_function_fibonacci_on_paths():
    """Z(path_n, 1) counts independent sets: the Fibonacci number F(n+2)."""
    fib = [1, 1]
    while len(fib) < 18:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 16):
        g = FiniteGraph(n=n, edges=tuple((i, i + 1) for i in range(n - 1)))
        m = hardcore_measure(g, 1.0)
        assert abs(m.partition_function - fib[n + 1]) < 1e-9


# ---------------------------------------------------------------- tree index

def test_truncated_tree_shapes():
    t = truncated_tree(2, 3)
    assert t.n == 15
    assert t.parent[0] == -1 and t.root_degree == 2
    assert t.children[0] == (1, 2)
    tc = truncated_tree(2, 3, center_root=True)
    assert tc.n == 22 and tc.root_degree == 3
    assert len(tc.children[0]) == 3


def test_truncated_tree_interior_nodes():
    t = truncated_tree(2, 3)
    # interior = levels 1..2 of the 15-node tree (root and leaves excluded)
    assert t.interior_nodes() == list(range(1, 7))
    tc = truncated_tree(2, 2, center_root=True)
    assert 0 in tc.interior_nodes()


def test_truncated_tree_as_graph():
    g = truncated_tree(2, 2).as_graph()
    assert g.n == 7 and len(g.edges) == 6
    assert (0, 1) in g.edges and (2, 6) in g.edges


# ---------------------------------------------------- single-site conditional

def test_gibbs_conditional_example():
    """w=1, k=2: empty neighborhood gives occupancy lambda/(1+lambda) = 4/5."""
    _, params = hardcore_channel(1.0, 2)
    assert params.lam == pytest.approx(4.0, abs=1e-12)
    res = gibbs_conditional_check(params, 3, node=1)
    assert res < 1e-12


def test_gibbs_sweep_small_weights():
    for w in (0.5, 1.0, 2.0):
        _, params = hardcore_channel(w, 2)
        assert gibbs_conditional_sweep(params, 3) < 1e-12


def test_gibbs_sweep_center_variant():
    _, params = hardcore_channel(1.0, 2)
    assert gibbs_conditional_sweep(params, 3, center_root=True) < 1e-12
    _, params = hardcore_channel(0.7, 3)
    assert gibbs_conditional_sweep(params, 2, center_root=True) < 1e-12


def test_gibbs_sweep_builds_no_tree(monkeypatch):
    """One node per neighborhood shape, no tree; the residual is the
    per-node check's maximum over the whole truncation."""
    real, calls = hardcore.truncated_tree, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for w, k, depth, center in ((0.7, 3, 3, False), (2.0, 2, 5, True),
                                (0.5, 4, 1, True)):
        _, params = hardcore_channel(w, k)
        nodes = real(k, depth, center_root=center).interior_nodes()
        per_node = max(gibbs_conditional_check(params, depth, node, center_root=center)
                       for node in nodes)
        calls.clear()
        monkeypatch.setattr(hardcore, "truncated_tree", counting)
        assert gibbs_conditional_sweep(params, depth, center_root=center) == per_node
        assert calls == []
        monkeypatch.setattr(hardcore, "truncated_tree", real)


def test_gibbs_sweep_is_linear_in_k():
    """The residual loops over occupied-children counts, not the 2**(k+1)
    neighbourhood patterns: a k=20 sweep of both shapes is immediate."""
    _, params = hardcore_channel(0.5, 20)
    start = time.perf_counter()
    residual = max(gibbs_conditional_sweep(params, 2),
                   gibbs_conditional_sweep(params, 2, center_root=True))
    assert time.perf_counter() - start < 1.0
    assert residual <= 1e-12


def test_gibbs_non_interior_node_rejected():
    _, params = hardcore_channel(1.0, 2)
    with pytest.raises(NotInterior):
        gibbs_conditional_check(params, 3, node=0)  # rooted root: no parent
    with pytest.raises(NotInterior):
        gibbs_conditional_check(params, 3, node=14)  # leaf
    with pytest.raises(NotInterior):
        gibbs_conditional_sweep(params, 1)  # depth-1 tree has no interior
    with pytest.raises(InvalidParameter):
        gibbs_conditional_sweep(params, 0, center_root=True)


def test_blanket_conditional_matches_full_joint_rooted():
    """Markov-blanket factorization against 2**15 full-joint enumeration."""
    for w in (0.5, 1.0, 2.0):
        assert hardcore_joint_gibbs_residual(w, 2, 3) < 1e-12
        _, params = hardcore_channel(w, 2)
        assert gibbs_conditional_sweep(params, 3) < 1e-12


def test_blanket_conditional_matches_full_joint_center():
    """Center variant: 22-node tree, 2**22 configurations, w = 1."""
    assert hardcore_joint_gibbs_residual(1.0, 2, 3, center_root=True) < 1e-12
    _, params = hardcore_channel(1.0, 2)
    assert gibbs_conditional_sweep(params, 3, center_root=True) < 1e-12


# ------------------------------------------------------------- sampler check

def test_independence_check_passes():
    c, _ = hardcore_channel(1.0, 2)
    verdict = brw_independence_check(c, 2, 6, 1000, seed=43)
    assert verdict.passed and verdict.violations == 0
    assert verdict.samples == 1000 and verdict.depth == 6


def test_independence_check_high_activity():
    c, _ = hardcore_channel(50.0, 2)
    assert brw_independence_check(c, 2, 4, 2000, seed=44).passed


def test_independence_check_requires_hardcore_row():
    with pytest.raises(InvalidParameter):
        brw_independence_check(symmetric_channel(0.2), 2, 3, 100)
