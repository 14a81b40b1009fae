"""Exact density evolution of the conditional root-LLR laws.

One evolution step takes the depth-``d`` pair of conditional laws to depth
``d+1``: each of the ``k`` children contributes an independent draw from
the appropriate mixture of the two laws, the draw is passed through the
one-child update ``g``, the ``k`` contributions are summed by exact atom
convolution, and the constant ``k*ln(p00/p10)`` is added.  All arithmetic
stays in log-likelihood coordinates; products of likelihoods never appear.

Atom growth is the only obstacle: a convolution of ``m``-atom laws has up
to ``C(m+k-1, k)`` atoms.  Each step first merges on a fine grid of width
:data:`MERGE_TOL`, refusing laws above the policy's atom cap or folds
above :data:`PAIR_BUDGET` pairs.  A :class:`PruningPolicy` with
``span_bins`` set then retries once on a coarse span-proportional grid
instead of failing, which is how depth-12 curves for k up to 5 stay
affordable; the grid stays anchored at 0 so the sign of every atom (and
hence the total variation between the laws) survives coarsening.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .errors import AtomExplosion, InvalidParameter
from .channels import BinaryChannel, llr_step, gap_kernel
from .atoms import ConditionalPair, grid_merge, posterior_from_llr


MERGE_TOL = 1e-12  # fine grid width: merges only atoms equal up to rounding
PAIR_BUDGET = 1 << 25  # most atom pairs one convolution fold may form


@dataclass(frozen=True)
class PruningPolicy:
    """Knobs bounding the size of an exact evolution step.

    Parameters
    ----------
    weight_floor : float
        Atoms whose weight falls below this on one conditional law are
        zeroed there (and dropped once both laws agree they are gone);
        weights are renormalized.  0 disables flooring.
    atom_cap : int
        Maximum atom count after merging.
    span_bins : int or None
        When set, a step that overflows on the fine grid is recomputed once
        on a grid of width ``span * k / span_bins`` (``span`` the range of
        the finite child contributions); when None the overflow raises
        :class:`~treecast.errors.AtomExplosion`.
    """

    weight_floor: float
    atom_cap: int
    span_bins: int | None


def exact_policy() -> PruningPolicy:
    """Policy for oracle-grade runs: dedup-only merging, no weight floor."""
    return PruningPolicy(weight_floor=0.0, atom_cap=20_000_000, span_bins=None)


def deep_policy() -> PruningPolicy:
    """Policy for deep runs: fall back to a span-proportional grid on overflow."""
    return PruningPolicy(weight_floor=1e-15, atom_cap=200_000, span_bins=2048)


def base_pair(c: BinaryChannel, k: int) -> ConditionalPair:
    """Depth-1 conditional pair by direct enumeration of the k children.

    The root LLR after observing the children depends only on how many of
    them equal 1, so the k+1 count values are enumerated with binomial
    weights under each root value.  Extended-real atoms are produced where
    a count is impossible under one root value (for example the hard-core
    channel sends any occupied child to ``+inf``).

    Parameters
    ----------
    c : BinaryChannel
    k : int
        Branching number, at least 1.

    Returns
    -------
    ConditionalPair
        Depth-1 pair on a shared support.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise InvalidParameter(f"k must be a positive integer, got {k!r}")
    k = int(k)

    def log_ratio(num: float, den: float) -> float:
        if num > 0 and den > 0:
            return math.log(num / den)
        if num == 0 and den > 0:
            return -math.inf
        if num > 0 and den == 0:
            return math.inf
        return math.nan  # 0/0: only reachable on zero-weight rows

    lr0 = log_ratio(c.p00, c.p10)  # per child with value 0
    lr1 = log_ratio(c.p01, c.p11)  # per child with value 1

    counts = np.arange(k + 1)
    w0 = binom.pmf(counts, k, c.p01)
    w1 = binom.pmf(counts, k, c.p11)
    keep = (w0 > 0) | (w1 > 0)
    values = np.empty(k + 1)
    for n1 in counts:
        n0 = k - n1
        term0 = 0.0 if n0 == 0 else n0 * lr0
        term1 = 0.0 if n1 == 0 else n1 * lr1
        values[n1] = term0 + term1
    values, w0, w1 = values[keep], w0[keep], w1[keep]

    values, w0, w1 = grid_merge(values, w0, w1, tol=MERGE_TOL)
    w0 = w0 / w0.sum()
    w1 = w1 / w1.sum()
    return ConditionalPair(depth=1, values=values, w0=w0, w1=w1)


def evolve(pair: ConditionalPair, c: BinaryChannel, k: int,
           policy: PruningPolicy | None = None) -> ConditionalPair:
    """One exact density-evolution step: depth ``d`` to depth ``d+1``.

    Parameters
    ----------
    pair : ConditionalPair
        Input pair at depth >= 1.
    c : BinaryChannel
        Channel with ``p00 > 0`` and ``p10 > 0`` (the update constant and
        ``g`` need both).
    k : int
        Branching number.
    policy : PruningPolicy, optional
        Defaults to :func:`deep_policy`.

    Returns
    -------
    ConditionalPair
        Pair at depth ``d+1``; support is fully finite (the update maps
        ``+-inf`` children to finite contributions).

    Raises
    ------
    AtomExplosion
        If the atom count or intermediate pair count exceeds the policy
        on the fine grid and the policy allows no coarse grid.
    UndefinedLimit
        If an atom sits at ``-inf`` while ``p11 = 0``.
    """
    if policy is None:
        policy = deep_policy()
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise InvalidParameter(f"k must be a positive integer, got {k!r}")
    k = int(k)

    # child mixtures share the pair's support: only weights mix
    mix0 = c.p00 * pair.w0 + c.p01 * pair.w1
    mix1 = c.p10 * pair.w0 + c.p11 * pair.w1
    g_arr = llr_step(c, pair.values)  # may raise UndefinedLimit
    const = k * math.log(c.p00 / c.p10)

    try:
        values, w0, w1 = _convolve(g_arr, mix0, mix1, k, const, MERGE_TOL, policy.atom_cap)
    except AtomExplosion:
        if policy.span_bins is None:
            raise
        # One coarse attempt always fits: a width-W interval holds at most
        # W/eff + 2 cells and every j-fold partial sum lies in j*[gmin, gmax],
        # so the law keeps at most span_bins + 3 atoms (one at -inf when
        # p01 = 0) and no fold forms more than ~2.1M pairs, far below the cap
        # and PAIR_BUDGET.  The fine attempt fails only when k*span/MERGE_TOL
        # exceeds ~5.8e3, so eff = span*k/span_bins always exceeds MERGE_TOL.
        finite = g_arr[np.isfinite(g_arr)]
        eff = float(finite.max() - finite.min()) * k / policy.span_bins
        values, w0, w1 = _convolve(g_arr, mix0, mix1, k, const, eff, policy.atom_cap)

    if policy.weight_floor > 0:
        w0 = np.where(w0 >= policy.weight_floor, w0, 0.0)
        w1 = np.where(w1 >= policy.weight_floor, w1, 0.0)
        keep = (w0 > 0) | (w1 > 0)
        values, w0, w1 = values[keep], w0[keep], w1[keep]
        w0 = w0 / w0.sum()
        w1 = w1 / w1.sum()
    return ConditionalPair(depth=pair.depth + 1, values=values, w0=w0, w1=w1)


def _convolve(g_arr, mix0, mix1, k, const, eff, atom_cap):
    """k-fold i.i.d. sum of the g-image plus the depth constant."""
    y, m0, m1 = grid_merge(g_arr, mix0, mix1, tol=eff)
    s, sw0, sw1 = y, m0, m1
    for _ in range(k - 1):
        n_pairs = len(s) * len(y)
        if n_pairs > PAIR_BUDGET:
            raise AtomExplosion(
                f"convolution needs {n_pairs} atom pairs "
                f"(budget {PAIR_BUDGET})", count=n_pairs)
        total = (s[:, None] + y[None, :]).ravel()
        t0 = (sw0[:, None] * m0[None, :]).ravel()
        t1 = (sw1[:, None] * m1[None, :]).ravel()
        s, sw0, sw1 = grid_merge(total, t0, t1, tol=eff)
        if len(s) > atom_cap:
            raise AtomExplosion(
                f"law has {len(s)} atoms (cap {atom_cap})", count=len(s))
    s = s + const
    s, sw0, sw1 = grid_merge(s, sw0, sw1, tol=eff)
    if len(s) > atom_cap:
        raise AtomExplosion(
            f"law has {len(s)} atoms (cap {atom_cap})", count=len(s))
    return s, sw0, sw1


def trajectory(state, step, depth: int):
    """Iterate the depth recursion from a depth-1 state of either engine.

    Yields ``state`` and then ``step`` applied ``depth - 1`` times, one
    state per depth, computing each step only when it is requested.
    ``state`` is a depth-1 :class:`ConditionalPair` or
    :class:`~treecast.sampling.Population`; ``step`` maps a state to the
    next depth's (for example ``lambda p: evolve(p, c, k, policy)``).
    """
    if depth < 1:
        raise InvalidParameter(f"depth must be >= 1, got {depth}")
    return itertools.accumulate(range(depth - 1), lambda s, _: step(s),
                                initial=state)


def evolve_to_depth(c: BinaryChannel, k: int, depth: int,
                    policy: PruningPolicy | None = None) -> ConditionalPair:
    """Run :func:`base_pair` then :func:`evolve` up to ``depth``."""
    for pair in trajectory(base_pair(c, k), lambda p: evolve(p, c, k, policy), depth):
        pass
    return pair


def mean_gap(pair: ConditionalPair) -> float:
    """Difference of conditional means, ``E[L | root=0] - E[L | root=1]``.

    Any atom at ``+-inf`` with positive weight on either law makes the gap
    ``+inf`` (the convention callers rely on for the hard-core base case).
    Otherwise the coupling argument guarantees the result is >= -1e-10.
    """
    infinite = ~np.isfinite(pair.values)
    if np.any(infinite & ((pair.w0 > 0) | (pair.w1 > 0))):
        return math.inf
    return float(pair.values @ pair.w0 - pair.values @ pair.w1)


def diagnostics(pair: ConditionalPair, c: BinaryChannel) -> dict:
    """Scalar summaries of how far apart the two conditional laws are.

    Returns
    -------
    dict
        ``tv``: total variation distance between the laws (exact on the
        shared support); ``mean_gap``: see :func:`mean_gap`; ``var_A``:
        variance of the root posterior under the stationary mixture.
        All three decay to 0 exactly when the laws merge.
    """
    tv = 0.5 * float(np.abs(pair.w0 - pair.w1).sum())
    a = posterior_from_llr(pair.values, c)
    mix = c.pi0 * pair.w0 + c.pi1 * pair.w1
    mean_a = float(a @ mix)
    var_a = float((a - mean_a) ** 2 @ mix)
    return {"tv": tv, "mean_gap": mean_gap(pair), "var_A": var_a}


def gap_identity_residual(pair_d: ConditionalPair, pair_dm1: ConditionalPair,
                          c: BinaryChannel, k: int) -> float:
    """Residual of the depth-recursion mean identity.

    The mean gap at depth ``d`` must equal ``k`` times the gap of the
    expected gap-kernel value at depth ``d-1``.  The left side is computed
    from the materialized depth-``d`` law (so the convolution engine is
    actually exercised), the right side from the depth-``d-1`` pair.

    Returns
    -------
    float
        ``|mean_gap(pair_d) - k*(E0[f] - E1[f])|``; at most ~1e-9 for
        unpruned evolution.
    """
    if pair_d.depth != pair_dm1.depth + 1:
        raise InvalidParameter(
            f"pair depths must be consecutive, got {pair_d.depth} and {pair_dm1.depth}")
    lhs = mean_gap(pair_d)
    f = np.asarray(gap_kernel(c, pair_dm1.values), dtype=np.float64)
    rhs = k * float(f @ pair_dm1.w0 - f @ pair_dm1.w1)
    return abs(lhs - rhs)
