"""Single-site Gibbs conditionals and the sampler's independence check."""

import time

import numpy as np
import pytest

from treecast import (
    InvalidParameter,
    brw_independence_check,
    gibbs_conditional_sweep,
    hardcore_channel,
    lambda_of_w,
    symmetric_channel,
)
from treecast.hardcore import _node_residual

from _oracles import bfs_tree, hardcore_joint_gibbs_residual


# ---------------------------------------------------- single-site conditional

def test_gibbs_conditional_example():
    """w=1, k=2: empty neighborhood gives occupancy lambda/(1+lambda) = 4/5."""
    assert lambda_of_w(1.0, 2) == pytest.approx(4.0, abs=1e-12)
    assert gibbs_conditional_sweep(1.0, 2, 3) < 1e-12


def test_gibbs_sweep_small_weights():
    for w in (0.5, 1.0, 2.0):
        assert gibbs_conditional_sweep(w, 2, 3) < 1e-12


def test_gibbs_sweep_center_variant():
    assert gibbs_conditional_sweep(1.0, 2, 3, center_root=True) < 1e-12
    assert gibbs_conditional_sweep(0.7, 3, 2, center_root=True) < 1e-12


def test_gibbs_sweep_builds_no_tree():
    """One node per neighborhood shape, no tree: the sweep equals the
    largest residual over the (is_root, n_children) shapes of every
    interior node of the breadth-first truncation."""
    for w, k, depth, center in ((0.7, 3, 3, False), (2.0, 2, 5, True),
                                (0.5, 4, 1, True)):
        parent = bfs_tree(k, depth, root_degree=k + 1 if center else k)
        n_children = np.bincount(parent[1:], minlength=len(parent))
        # interior: every neighbor inside the truncation (k+1 of them)
        shapes = [(p == -1, int(n)) for p, n in zip(parent, n_children)
                  if n + (p != -1) == k + 1]
        assert shapes
        lam = lambda_of_w(w, k)
        per_node = max(_node_residual(w, lam, is_root, n) for is_root, n in shapes)
        assert gibbs_conditional_sweep(w, k, depth, center_root=center) == per_node


def test_gibbs_sweep_is_linear_in_k():
    """The residual loops over occupied-children counts, not the 2**(k+1)
    neighbourhood patterns: a k=20 sweep of both shapes is immediate."""
    start = time.perf_counter()
    residual = max(gibbs_conditional_sweep(0.5, 20, 2),
                   gibbs_conditional_sweep(0.5, 20, 2, center_root=True))
    assert time.perf_counter() - start < 1.0
    assert residual <= 1e-12


def test_gibbs_non_interior_node_rejected():
    with pytest.raises(InvalidParameter, match="no interior nodes at depth 1"):
        gibbs_conditional_sweep(1.0, 2, 1)  # depth-1 tree has no interior
    with pytest.raises(InvalidParameter):
        gibbs_conditional_sweep(1.0, 2, 0, center_root=True)


def test_blanket_conditional_matches_full_joint_rooted():
    """Markov-blanket factorization against 2**15 full-joint enumeration."""
    for w in (0.5, 1.0, 2.0):
        assert hardcore_joint_gibbs_residual(w, 2, 3) < 1e-12
        assert gibbs_conditional_sweep(w, 2, 3) < 1e-12


def test_blanket_conditional_matches_full_joint_center():
    """Center variant: 22-node tree, 2**22 configurations, w = 1."""
    assert hardcore_joint_gibbs_residual(1.0, 2, 3, center_root=True) < 1e-12
    assert gibbs_conditional_sweep(1.0, 2, 3, center_root=True) < 1e-12


# ------------------------------------------------------------- sampler check

def test_independence_check_passes():
    c = hardcore_channel(1.0)
    verdict = brw_independence_check(c, 2, 6, 1000, seed=43)
    assert verdict.passed and verdict.violations == 0
    assert verdict.samples == 1000 and verdict.depth == 6


def test_independence_check_high_activity():
    c = hardcore_channel(50.0)
    assert brw_independence_check(c, 2, 4, 2000, seed=44).passed


def test_independence_check_requires_hardcore_row():
    with pytest.raises(InvalidParameter):
        brw_independence_check(symmetric_channel(0.2), 2, 3, 100)
