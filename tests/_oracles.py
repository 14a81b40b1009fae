"""Independent reference computations for the test suite.

Everything here works from first principles: exhaustive enumeration over
binary tree configurations, finite differences on dense grids, or direct
formula evaluation.  None of it calls the recursive machinery under test
(the plain population's initial draw borrows only the library's weighted
draw), so a library bug cannot leak into its own reference values.  The
exceptions are the four straightforward forms that the library replaced
with faster ones, kept to pin the faster forms down: the full outer-product
convolution, the searched comonotone coupling, the merge by a stable sort
and the anchored population step that draws both a tilted and a uniform
index for every child.  The convolution carries both conditional weight
vectors through every fold, where the library folds the root-0 weights
alone and derives the root-1 ones, and merges each fold's sums with the
stable-sort merge below: the same runs of atoms closer than ``MERGE_TOL``,
so it pins the folds and the derived weights down but not the merging,
which ``test_atoms`` checks property by property.  The population step borrows
the library's tilt weights, draws, one-child update and projection, so it
pins down only how the children are drawn.

Every truncated tree here comes from ``bfs_tree``: the brute-force laws,
the full-joint Gibbs residual and the list of interior-node shapes that
the hard-core sweep is checked against.
"""

import math
from typing import NamedTuple

import numpy as np

from treecast.atoms import _run_edges, _snap
from treecast.channels import llr_step
from treecast.conditioning import _compensated_cumsum
from treecast.evolution import MERGE_TOL
from treecast.sampling import (Population, _project_unit_mean, _tilt_weights,
                               _weighted_draw)


def bfs_tree(k, depth, root_degree=None):
    """Parent indices of the truncated k-ary tree in breadth-first order.

    Node 0 is the root (parent -1); the root has ``root_degree`` children
    (default k) and every other non-leaf node has k.
    """
    deg0 = k if root_degree is None else root_degree
    parent = [-1]
    frontier = [0]
    for level in range(depth):
        nxt = []
        for node in frontier:
            for _ in range(deg0 if level == 0 else k):
                parent.append(node)
                nxt.append(len(parent) - 1)
        frontier = nxt
    return parent


def brute_leaf_likelihoods(c, k, depth):
    """P(leaf pattern | root value) by full enumeration of internal nodes.

    Returns
    -------
    (q0, q1) : ndarray
        Arrays of length 2**(k**depth); entry ``key`` is the probability
        of the leaf pattern whose breadth-first leaf j has value bit j of
        ``key``, given root value 0 / 1.  Internal nodes are summed out by
        enumerating every assignment, not by any recursion.
    """
    parent = bfs_tree(k, depth)
    n = len(parent)
    n_leaves = k ** depth
    non_root = n - 1
    prob_row = np.array([[c.p00, c.p01], [c.p10, c.p11]])
    idx = np.arange(1 << non_root, dtype=np.int64)

    def bit(node):
        # node i >= 1 occupies bit i-1 of the enumeration index
        return (idx >> (node - 1)) & 1

    key = np.zeros(len(idx), dtype=np.int64)
    for j, leaf in enumerate(range(n - n_leaves, n)):
        key |= bit(leaf) << j

    out = []
    for r in (0, 1):
        prob = np.ones(len(idx))
        for i in range(1, n):
            pv = np.full(len(idx), r, dtype=np.int64) if parent[i] == 0 else bit(parent[i])
            prob = prob * prob_row[pv, bit(i)]
        out.append(np.bincount(key, weights=prob, minlength=1 << n_leaves))
    return out[0], out[1]


def brute_pair_laws(c, k, depth, group_tol=1e-9):
    """The two conditional root-LLR laws by exhaustive enumeration.

    Returns (values, w0, w1): sorted shared support (LLR of each leaf
    pattern, patterns grouped when closer than ``group_tol``) with the
    conditional pattern probabilities as weights.
    """
    q0, q1 = brute_leaf_likelihoods(c, k, depth)
    keep = (q0 > 0) | (q1 > 0)
    q0, q1 = q0[keep], q1[keep]
    with np.errstate(divide="ignore"):
        llr = np.log(q0) - np.log(q1)
    order = np.argsort(llr)
    llr, q0, q1 = llr[order], q0[order], q1[order]

    vals, w0, w1 = [], [], []
    for v, a, b in zip(llr, q0, q1):
        if vals and (v == vals[-1] or (math.isfinite(v) and math.isfinite(vals[-1])
                                       and v - vals[-1] <= group_tol)):
            prev_w = w0[-1] + w1[-1]
            if math.isfinite(v) and prev_w + a + b > 0:
                vals[-1] = (vals[-1] * prev_w + v * (a + b)) / (prev_w + a + b)
            w0[-1] += a
            w1[-1] += b
        else:
            vals.append(v)
            w0.append(a)
            w1.append(b)
    return np.array(vals), np.array(w0), np.array(w1)


def brute_root_posterior(c, k, depth, leaves):
    """P(root = 0 | leaves) by Bayes over the enumerated likelihoods."""
    q0, q1 = brute_leaf_likelihoods(c, k, depth)
    key = 0
    for j, v in enumerate(np.asarray(leaves).ravel()):
        key |= int(v) << j
    pi0 = c.p10 / (c.p01 + c.p10)
    num = pi0 * q0[key]
    den = num + (1.0 - pi0) * q1[key]
    return num / den


def compare_laws(values_a, weights_a, values_b, weights_b):
    """Largest per-atom value and weight discrepancy between two laws."""
    if len(values_a) != len(values_b):
        return math.inf, math.inf
    va, vb = np.asarray(values_a), np.asarray(values_b)
    both_inf = ~np.isfinite(va) & ~np.isfinite(vb) & (np.sign(va) == np.sign(vb))
    with np.errstate(invalid="ignore"):
        dv = np.where(both_inf, 0.0, np.abs(va - vb))
    dw = np.abs(np.asarray(weights_a) - np.asarray(weights_b))
    return float(np.max(dv, initial=0.0)), float(np.max(dw, initial=0.0))


def grid_kernel_sup(c, lo=-20.0, hi=20.0, n=100_001):
    """Maximum finite-difference slope of the gap kernel on a dense grid.

    The kernel is evaluated directly from the channel entries, not through
    the library.
    """
    x = np.linspace(lo, hi, n)
    c0 = c.p01 / c.p00
    c1 = c.p11 / c.p10
    f = (c.p11 - c.p01) * np.log1p((c0 - c1) / (np.exp(x) + c1))
    return float(np.max(np.diff(f) / np.diff(x)))


def hardcore_joint_gibbs_residual(w, k, depth, center_root=False):
    """Worst single-site conditional residual from the full joint law.

    Enumerates every configuration of the truncated broadcast tree
    (2**n for n nodes), conditions each interior node on all the others
    directly from the joint probabilities, and compares against
    ``lambda/(1+lambda)`` times the empty-neighborhood indicator.
    """
    parent = bfs_tree(k, depth, root_degree=k + 1 if center_root else k)
    n = len(parent)
    children = [[] for _ in parent]
    for i, p in enumerate(parent):
        if p != -1:
            children[p].append(i)
    pi0 = (1.0 + w) / (1.0 + 2.0 * w)
    prob_row = np.array([[1.0 / (1.0 + w), w / (1.0 + w)], [1.0, 0.0]])
    lam = w * (1.0 + w) ** k
    occupied = lam / (1.0 + lam)

    idx = np.arange(1 << n, dtype=np.int64)
    prob = np.where((idx & 1) == 1, 1.0 - pi0, pi0)
    for i in range(1, n):
        prob = prob * prob_row[(idx >> parent[i]) & 1, (idx >> i) & 1]

    if center_root:
        interior = [0] + [i for i in range(1, n) if len(children[i]) == k]
    else:
        interior = [i for i in range(1, n) if len(children[i]) == k]

    worst = 0.0
    for node in interior:
        low = idx & ((1 << node) - 1)
        rest = low | ((idx >> (node + 1)) << node)
        sel = ((idx >> node) & 1) == 1
        size = 1 << (n - 1)
        p1 = np.bincount(rest[sel], weights=prob[sel], minlength=size)
        p0 = np.bincount(rest[~sel], weights=prob[~sel], minlength=size)
        total = p0 + p1
        rest_ids = np.nonzero(total > 0)[0]
        cond = p1[rest_ids] / total[rest_ids]
        nbrs = ([parent[node]] if parent[node] != -1 else []) + children[node]
        empty = np.ones(len(rest_ids), dtype=bool)
        for j in nbrs:
            shifted = j if j < node else j - 1
            empty &= ((rest_ids >> shifted) & 1) == 0
        expected = np.where(empty, occupied, 0.0)
        worst = max(worst, float(np.max(np.abs(cond - expected))))
    return worst


def random_sandwich_case(rng, max_outcomes=32):
    """Random finite space honoring the sandwich preconditions, or None.

    Returns (probs, b_mask, labels, d_mask, p0, p1) with [p0, p1]
    covering the per-cell conditional range of the selected cells, or
    None when the draw is degenerate (caller retries).
    """
    n = int(rng.integers(4, max_outcomes + 1))
    probs = rng.dirichlet(np.ones(n))
    b = rng.random(n) < rng.uniform(0.2, 0.8)
    if not 0.0 < probs[b].sum() < 1.0:
        return None
    labels = rng.integers(0, max(2, n // 3), size=n)
    cells = np.unique(labels)
    chosen = cells[rng.random(len(cells)) < 0.6]
    if len(chosen) == 0:
        return None
    d = np.isin(labels, chosen)
    conds = []
    for cell in chosen:
        mask = labels == cell
        mass = probs[mask].sum()
        if mass > 0:
            conds.append(probs[mask & b].sum() / mass)
    if not conds:
        return None
    slack = rng.uniform(0.0, 0.05)
    p0 = max(0.0, min(conds) - slack)
    p1 = min(1.0, max(conds) + slack)
    return probs, b, labels, d, p0, p1


def random_channel(rng, low=0.0, high=1.0):
    """A uniformly random valid channel; entries clipped to [low, high]."""
    return float(rng.uniform(low, high)), float(rng.uniform(low, high))


def genuine_pair_arrays(rng, n=12):
    """Support and conditional weights of a random likelihood-ratio pair.

    Drawing both conditional laws of a finite observation and keying the
    support by the log-likelihood ratio makes the per-atom identity
    ``w1 = w0 * exp(-value)`` hold by construction.
    """
    q = rng.dirichlet(np.ones(n))
    r = rng.dirichlet(np.ones(n))
    v = np.log(q / r)
    order = np.argsort(v)
    v, q, r = v[order], q[order], r[order]
    keep = np.concatenate([[True], np.diff(v) > 0])
    return v[keep], q[keep], r[keep]


class PlainPopulation(NamedTuple):
    """The plain scheme's state: one sample array per root value."""

    depth: int
    samples0: np.ndarray
    samples1: np.ndarray
    rng: np.random.Generator


def plain_population_from_pair(pair, n, seed):
    """Draw n samples of each conditional law of a pair, root 0 first.

    Each law is drawn from its atoms of positive weight only, with the
    library's weighted draw on a Philox stream seeded by ``seed``.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def draw(w):
        keep = w > 0
        return pair.values[keep][_weighted_draw(rng, w[keep] / w[keep].sum(), n)]

    samples0 = draw(pair.w0)
    return PlainPopulation(pair.depth, samples0, draw(pair.w1), rng)


def population_evolve(pop, c, k):
    """Plain population-dynamics step: two independent conditional arrays.

    The reference sampler for shallow depths.  Each new conditional-0
    sample draws k child values from the first channel row, an LLR for
    each child uniformly from the array matching the child's value, and
    applies the depth recursion; conditional-1 samples use the second row.
    The one-child update is evaluated here from the channel entries.  It
    is unbiased, but the two arrays are tied together only weakly, so its
    error grows with depth near the threshold; the library steps with the
    anchored scheme instead.  Consumes the population's own stream.
    """
    rng = pop.rng
    n = len(pop.samples0)
    c0 = c.p01 / c.p00
    c1 = c.p11 / c.p10
    const = k * math.log(c.p00 / c.p10)

    new = []
    for p_one in (c.p01, c.p11):
        ones = rng.random((n, k)) < p_one
        idx = rng.integers(0, n, size=(n, k))
        child = np.where(ones, pop.samples1[idx], pop.samples0[idx])
        with np.errstate(over="ignore", divide="ignore"):
            g = np.log1p((c0 - c1) / (np.exp(child) + c1))
        g = np.where(np.isposinf(child), 0.0, g)
        new.append(const + g.sum(axis=1))
    return PlainPopulation(pop.depth + 1, new[0], new[1], rng)


def every_child_anchored_step(pop, c, k):
    """The anchored population step with two draws for every child.

    Draws the ``(N, k)`` child types, then a uniform and a tilted index
    for every child, and keeps the one its type needs.  Same Markov kernel
    as ``population_evolve_anchored``, which draws each child once, so the
    two agree in law but not in bytes.  Consumes the population's stream.
    """
    rng = pop.rng
    n = pop.size
    s = pop.samples0
    tilt = _tilt_weights(s)
    ones = rng.random((n, k)) < c.p01
    idx_plain = rng.integers(0, n, size=(n, k))
    idx_tilt = _weighted_draw(rng, tilt, (n, k))
    child = np.where(ones, s[idx_tilt], s[idx_plain])
    s_new = k * math.log(c.p00 / c.p10) + llr_step(c, child).sum(axis=1)
    if c.p01 > 0:
        s_new = _project_unit_mean(s_new)
    return Population(depth=pop.depth + 1, samples0=s_new, rng=rng)


def full_product_convolve(h, m0, m1, k):
    """The exact step's k-fold sum of child contributions ``h``, with every
    fold a full outer product of both weight vectors.

    Forms all ``m*m`` ordered pairs in the first fold, so each unordered
    pair twice; the library's self-fold forms each once.  Same arguments as
    ``exact_policy()``; returns the sums and both their weight vectors, the
    root-1 one folded from ``m1`` rather than derived.  Each run of sums is
    valued at its mean under both weight vectors.  No pair or atom budget.
    """
    y, m0, m1 = stable_grid_merge(h, m0, m1, tol=MERGE_TOL)
    s, sw0, sw1 = y, m0, m1
    for _ in range(k - 1):
        total = (s[:, None] + y[None, :]).ravel()
        t0 = (sw0[:, None] * m0[None, :]).ravel()
        t1 = (sw1[:, None] * m1[None, :]).ravel()
        s, sw0, sw1 = stable_grid_merge(total, t0, t1, tol=MERGE_TOL)
    return s, sw0, sw1


def full_product_evolve(law, c, k):
    """One depth of the recursion on a carried law ``(values, w0, w1)``,
    folded by :func:`full_product_convolve`.

    Both weight vectors are carried: none is derived from the other.
    Contributions at ``-inf`` (``p01 = 0``) stay in the folds as atoms of
    root-0 weight 0.
    """
    values, w0, w1 = law
    mix0 = c.p00 * w0 + c.p01 * w1
    mix1 = c.p10 * w0 + c.p11 * w1
    h = llr_step(c, values) + math.log(c.p00 / c.p10)
    return full_product_convolve(h, mix0, mix1, k)


def searched_coupling(v, w0, w1):
    """Crossing pairs of the diagonal-plus-crossing coupling, paired by search.

    The comonotone pairing looks every mass of the union of the two
    residual cumulative masses up in each one with ``searchsorted``; the
    library merges the two sorted runs instead.  The cumulative masses
    come from the library's compensated prefix sum, so the two pairings
    see the same masses.  Returns ``(y0, y1, w)``.
    """
    diag = np.minimum(w0, w1)
    r0 = w0 - diag
    r1 = w1 - diag
    i0 = np.flatnonzero(r0 > 0)
    i1 = np.flatnonzero(r1 > 0)
    if len(i0) == 0 or len(i1) == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    c0 = _compensated_cumsum(r0[i0])
    c1 = _compensated_cumsum(r1[i1])
    grid = np.union1d(c0, c1)
    seg = np.diff(np.concatenate(([0.0], grid)))
    pos = np.searchsorted(c0, grid - 1e-300, side="left")
    a_idx = i0[np.clip(pos, 0, len(i0) - 1)]
    pos = np.searchsorted(c1, grid - 1e-300, side="left")
    b_idx = i1[np.clip(pos, 0, len(i1) - 1)]
    keep = seg > 0
    return v[a_idx[keep]], v[b_idx[keep]], seg[keep]


def stable_grid_merge(values, *weight_vectors, tol):
    """``grid_merge`` with a stable ``argsort``, for any number of weight
    vectors merged on one support.

    The library sorts with numpy's default argsort and puts each block of
    equal values back in index order; with one weight vector this form
    pins that down bitwise (same return value as ``grid_merge``).  With
    several, each run is valued at its mean under their sum.
    """
    v = _snap(values)
    order = np.argsort(v, kind="stable")
    vs = v[order]
    edge = _run_edges(vs, tol)
    gid = np.cumsum(edge[:-1]) - 1
    lo, hi = vs[edge[:-1]], vs[edge[1:]]

    # gather each weight vector once, for its run sums and the per-atom total
    merged_w = []
    total = np.zeros(len(lo))
    combined = np.zeros(len(vs))
    for w in weight_vectors:
        ws = np.asarray(w, dtype=np.float64)[order]
        merged_w.append(np.bincount(gid, weights=ws, minlength=len(lo)))
        total += merged_w[-1]
        combined += ws
        del ws  # at most one gathered copy is alive at a time
    num = np.bincount(gid, weights=np.where(np.isfinite(vs), vs, 0.0) * combined,
                      minlength=len(lo))
    # the clip keeps infinite runs infinite, gives a weightless run a member's
    # value, and keeps the merged values strictly increasing
    mv = np.clip(num / np.where(total > 0, total, 1.0), lo, hi)
    return (mv, *merged_w)
