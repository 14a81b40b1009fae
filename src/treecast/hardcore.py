"""Hard-core (independent-set) model semantics and consistency checks.

Three layers: exact enumeration of independent sets and the activity-
weighted measure on small graphs; truncated k-ary broadcast trees with a
single-site conditional check (the broadcast law must give an occupied
probability of exactly ``lambda/(1+lambda)`` at an interior node whose
whole neighborhood is empty, and 0 whenever a neighbor is occupied); and
a structural sampler check that broadcasts never place two occupied
neighbors.

The single-site conditional is computed from the Markov blanket: with
parent value ``a`` and child values ``c_1..c_k`` the two candidate
weights are ``p(a->x) * prod_j p(x->c_j)`` for ``x`` in {0, 1}, because
everything outside the blanket factors out of the directed tree law.  The
test suite validates this factorization against full-joint enumeration on
feasible sizes.

The variant whose root has ``k+1`` children realizes the unrooted
(k+1)-regular tree; with the stationary root law, the root's conditional
matches the same formula with its ``k+1`` children as the blanket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NotInterior, ResourceLimit
from .channels import BinaryChannel, HardCoreParams, hardcore_channel
from .sampling import sample_broadcast_batch


@dataclass(frozen=True)
class FiniteGraph:
    """Undirected simple graph on nodes ``0..n-1``.

    ``edges`` is a tuple of ``(u, v)`` pairs with ``u < v``; adjacency is
    derived.  Self-loops and duplicate edges are rejected.
    """

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 0:
            raise InvalidParameter(f"node count must be >= 0, got {self.n}")
        seen = set()
        norm = []
        for e in self.edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise InvalidParameter(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidParameter(f"edge ({u},{v}) outside 0..{self.n - 1}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InvalidParameter(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @property
    def neighbors(self) -> list:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return [sorted(a) for a in adj]


def enumerate_independent_sets(g: FiniteGraph) -> list:
    """All independent sets of ``g`` including the empty set.

    Returned as frozensets ordered by (size, sorted members) so output is
    deterministic.  Exponential; capped at 25 nodes.
    """
    if g.n > 25:
        raise ResourceLimit(f"enumeration capped at 25 nodes, graph has {g.n}")
    nbr_mask = [0] * g.n
    for u, v in g.edges:
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u

    results = []
    # depth-first over nodes: skip or take (taking blocks its neighbors)
    stack = [(0, 0, 0)]  # (next node, chosen mask, blocked mask)
    while stack:
        i, chosen, blocked = stack.pop()
        if i == g.n:
            results.append(chosen)
            continue
        stack.append((i + 1, chosen, blocked))
        if not (blocked >> i) & 1:
            stack.append((i + 1, chosen | (1 << i), blocked | nbr_mask[i]))
    sets = [frozenset(j for j in range(g.n) if (mask >> j) & 1) for mask in results]
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class HardCoreMeasure:
    """Activity-weighted law over the independent sets of a finite graph."""

    graph: FiniteGraph
    lam: float
    sets: tuple
    probs: np.ndarray
    partition_function: float

    def probability(self, members) -> float:
        target = frozenset(members)
        for s, p in zip(self.sets, self.probs):
            if s == target:
                return float(p)
        return 0.0


def hardcore_measure(g: FiniteGraph, lam: float) -> HardCoreMeasure:
    """Exact hard-core measure: each independent set ``I`` gets mass
    ``lam**|I| / Z``.

    At ``lam = 1`` this is the uniform law over independent sets and ``Z``
    counts them.
    """
    if not (isinstance(lam, (int, float)) and lam > 0 and math.isfinite(lam)):
        raise InvalidParameter(f"lambda must be positive and finite, got {lam!r}")
    sets = enumerate_independent_sets(g)
    weights = np.array([float(lam) ** len(s) for s in sets])
    z = float(weights.sum())
    return HardCoreMeasure(graph=g, lam=float(lam), sets=tuple(sets),
                           probs=weights / z, partition_function=z)


@dataclass(frozen=True)
class TreeIndex:
    """Truncated broadcast tree in breadth-first order.

    ``parent[i]`` is -1 for the root; ``children[i]`` lists direct
    children.  ``root_degree`` is k for the rooted truncation and k+1 for
    the variant realizing the unrooted (k+1)-regular tree.
    """

    k: int
    depth: int
    root_degree: int
    parent: tuple
    children: tuple

    @property
    def n(self) -> int:
        return len(self.parent)

    def interior_nodes(self) -> list:
        """Nodes with a full neighborhood: a parent plus k children, or
        the root itself when it carries k+1 children (variant only)."""
        out = []
        for i in range(self.n):
            if self.parent[i] == -1:
                if self.root_degree == self.k + 1:
                    out.append(i)
            elif len(self.children[i]) == self.k:
                out.append(i)
        return out

    def as_graph(self) -> FiniteGraph:
        edges = tuple((self.parent[i], i) for i in range(self.n) if self.parent[i] != -1)
        return FiniteGraph(n=self.n, edges=edges)


def truncated_tree(k: int, depth: int, center_root: bool = False) -> TreeIndex:
    """Build the depth-``depth`` truncation of the k-ary broadcast tree.

    With ``center_root`` the root has ``k+1`` children (every other node
    keeps ``k``), which is the rooted realization of the (k+1)-regular
    tree.
    """
    if depth < 1:
        raise InvalidParameter(f"depth must be >= 1, got {depth}")
    root_degree = k + 1 if center_root else k
    parent = [-1]
    frontier = [0]
    for level in range(depth):
        width = root_degree if level == 0 else k
        nxt = []
        for node in frontier:
            for _ in range(width):
                parent.append(node)
                nxt.append(len(parent) - 1)
        frontier = nxt
    children = [[] for _ in parent]
    for i, p in enumerate(parent):
        if p != -1:
            children[p].append(i)
    return TreeIndex(k=k, depth=depth, root_degree=root_degree,
                     parent=tuple(parent), children=tuple(tuple(c) for c in children))


def gibbs_conditional_check(params: HardCoreParams, depth: int, node: int,
                            center_root: bool = False) -> float:
    """Worst-case single-site conditional residual at one interior node.

    For every value pattern on the node's neighborhood (all of which have
    positive probability under the hard-core broadcast law), compares the
    conditional probability that the node is occupied against
    ``lambda/(1+lambda)`` times the indicator that the whole neighborhood
    is empty.

    Returns
    -------
    float
        Maximum absolute deviation over the patterns; exact agreement
        returns 0.0.

    Raises
    ------
    NotInterior
        If the node lacks a parent or a full set of children inside the
        truncation (the root qualifies only in the ``center_root``
        variant).
    """
    tree = truncated_tree(params.k, depth, center_root=center_root)
    if node not in tree.interior_nodes():
        raise NotInterior(f"node {node} lacks a full neighborhood at depth {depth}")
    return _node_residual(params, tree.parent[node] == -1, len(tree.children[node]))


def gibbs_conditional_sweep(params: HardCoreParams, depth: int,
                            center_root: bool = False) -> float:
    """Largest :func:`gibbs_conditional_check` residual over all interior nodes.

    The residual depends on a node only through the shape of its
    neighborhood, and a truncation has at most two: a parent plus ``k``
    children, at every non-root node above the leaves (present from depth
    2), and the ``k+1`` children of the root in the ``center_root``
    variant.  One node of each shape is evaluated, without building the
    tree.
    """
    if depth < 1:
        raise InvalidParameter(f"depth must be >= 1, got {depth}")
    shapes = [(False, params.k)] if depth >= 2 else []
    if center_root:
        shapes.append((True, params.k + 1))
    if not shapes:
        raise NotInterior(f"no interior nodes at depth {depth}")
    return max(_node_residual(params, is_root, n_children)
               for is_root, n_children in shapes)


def _node_residual(params: HardCoreParams, is_root: bool, n_children: int) -> float:
    """Single-site conditional residual at an interior node with ``n_children``
    children, and a parent unless ``is_root``."""
    c, _ = hardcore_channel(params.w, params.k)
    lam_cond = params.lam / (1.0 + params.lam)

    row = [[c.p00, c.p01], [c.p10, c.p11]]
    # the conditional depends on a pattern only through the parent bit and
    # the number of occupied children (a root has no parent: bit 0 stands in)
    worst = 0.0
    for parent_bit in (0,) if is_root else (0, 1):
        weight = [c.pi0, c.pi1] if is_root else row[parent_bit]
        for occupied in range(n_children + 1):
            child_bits = [1] * occupied + [0] * (n_children - occupied)
            like = [weight[x] * math.prod(row[x][b] for b in child_bits) for x in (0, 1)]
            total = like[0] + like[1]
            if total == 0.0:
                continue  # zero-probability neighborhood pattern (none for hard-core)
            conditional = like[1] / total
            expected = lam_cond if parent_bit == 0 and occupied == 0 else 0.0
            worst = max(worst, abs(conditional - expected))
    return worst


@dataclass(frozen=True)
class IndependenceVerdict:
    """Outcome of the adjacent-occupancy scan over sampled broadcasts."""

    samples: int
    depth: int
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def brw_independence_check(c: BinaryChannel, k: int, depth: int,
                           n_samples: int, seed: int = 0) -> IndependenceVerdict:
    """Count parent-child pairs that are both occupied over sampled broadcasts.

    The hard-core channel forbids an occupied child of an occupied parent,
    so any positive count is a hard failure of the sampler or channel.
    Roots are drawn from the stationary law.
    """
    if c.p11 != 0.0:
        raise InvalidParameter("independence check applies to channels with p11 = 0")
    levels = sample_broadcast_batch(c, k, depth, n_samples, root_value=None, seed=seed)
    violations = 0
    for ell in range(1, depth + 1):
        parent = np.repeat(levels[ell - 1], k, axis=1)
        violations += int(np.sum((parent == 1) & (levels[ell] == 1)))
    return IndependenceVerdict(samples=n_samples, depth=depth, violations=violations)
