"""Hard-core (independent-set) model consistency checks.

Two checks: a single-site conditional check on truncated k-ary broadcast
trees (the broadcast law must give an occupied probability of exactly
``lambda/(1+lambda)`` at an interior node whose whole neighborhood is
empty, and 0 whenever a neighbor is occupied); and a structural sampler
check that broadcasts never place two occupied neighbors.

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

from .errors import InvalidParameter
from .channels import BinaryChannel, _count, hardcore_channel, lambda_of_w
from .sampling import sample_broadcast_batch


def gibbs_conditional_sweep(w: float, k: int, depth: int,
                            center_root: bool = False) -> float:
    """Worst single-site conditional residual over all interior nodes.

    At an interior node (a parent plus ``k`` children, or the root with
    ``k+1`` children in the ``center_root`` variant) every value pattern
    on the neighborhood has positive probability under the hard-core
    broadcast law; the residual is the largest absolute deviation of the
    conditional probability that the node is occupied from
    ``lambda/(1+lambda)`` times the indicator that the whole neighborhood
    is empty, so exact agreement returns 0.0.  The channel has occupation
    weight ``w`` and ``lambda = lambda_of_w(w, k)``.

    The residual depends on a node only through the shape of its
    neighborhood, and a truncation has at most two: a parent plus ``k``
    children, at every non-root node above the leaves (present from depth
    2), and the ``k+1`` children of the root in the ``center_root``
    variant.  One node of each shape is evaluated, without building the
    tree.

    Raises
    ------
    InvalidParameter
        If :func:`lambda_of_w` refuses ``w`` or ``k``, if ``depth`` is not
        an integer >= 1, or if the truncation has no interior node (depth
        1 without ``center_root``).
    """
    lam = lambda_of_w(w, k)
    depth = _count("depth", depth)
    shapes = [(False, k)] if depth >= 2 else []
    if center_root:
        shapes.append((True, k + 1))
    if not shapes:
        raise InvalidParameter(f"no interior nodes at depth {depth}")
    return max(_node_residual(w, lam, is_root, n_children)
               for is_root, n_children in shapes)


def _node_residual(w: float, lam: float, is_root: bool, n_children: int) -> float:
    """Single-site conditional residual at an interior node with ``n_children``
    children, and a parent unless ``is_root``, for occupation weight ``w``
    and activity ``lam``."""
    c = hardcore_channel(w)
    lam_cond = lam / (1.0 + lam)

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
