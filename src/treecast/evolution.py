"""Density evolution of the conditional root-LLR laws.

One evolution step takes the depth-``d`` pair of conditional laws to depth
``d+1``: each of the ``k`` children contributes an independent draw from
the appropriate mixture of the two laws, the draw is passed through the
one-child update ``g``, the ``k`` contributions are summed, and the
constant ``k*ln(p00/p10)`` is added.  All arithmetic stays in
log-likelihood coordinates; products of likelihoods never appear.

Two step functions form the sum, and :func:`evolve` calls the one it is
given.  :func:`exact_policy` returns the exact one, which convolves atoms
and merges only those equal up to rounding (:data:`MERGE_TOL`), refusing
laws above :data:`ATOM_CAP` atoms or folds above :data:`PAIR_BUDGET`
pairs; a convolution of ``m``-atom laws has up to ``C(m+k-1, k)`` atoms,
so this is for shallow, oracle-grade runs.  :func:`deep_policy` returns
the lattice one, which splits each child
contribution onto the lattice of width :data:`LATTICE_WIDTH` anchored at 0
and takes the k-fold convolution power of the lattice vector.  The split
keeps both conditional masses and the per-atom identity
``w1 = w0 * exp(-value)``; the true child law is a degraded version of the
split one (Tal & Vardy's upgrading quantizer), so the lattice law is an
*upper law*: its total variation, at every depth, is at least that of the
exact law, and exceeds it by O(``LATTICE_WIDTH``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.stats import binom

from .errors import AtomExplosion, InvalidParameter
from .channels import BinaryChannel, llr_step, gap_kernel
from .atoms import ConditionalPair, grid_merge


MERGE_TOL = 1e-12  # fine grid width: merges only atoms equal up to rounding
LATTICE_WIDTH = 2e-3  # lattice spacing of the deep step's upper law
PAIR_BUDGET = 1 << 25  # most atom pairs one convolution fold may form
ATOM_CAP = 20_000_000  # most atoms an exact law may hold


def exact_policy():
    """The exact step, for oracle-grade runs: dedup-only merging, exact laws."""
    return _convolve


def deep_policy():
    """The lattice step, for deep runs: an upper law at any depth."""
    return _lattice_power


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
        return math.nan  # 0/0: only on rows of zero weight, never formed

    lr0 = log_ratio(c.p00, c.p10)  # per child with value 0
    lr1 = log_ratio(c.p01, c.p11)  # per child with value 1

    counts = np.arange(k + 1)
    w0 = binom.pmf(counts, k, c.p01)
    w1 = binom.pmf(counts, k, c.p11)
    # only rows of positive weight are formed: a row that neither root
    # value reaches can add -inf to +inf
    n1 = counts[(w0 > 0) | (w1 > 0)]
    values = np.array([(0.0 if n == k else (k - n) * lr0) + (0.0 if n == 0 else n * lr1)
                       for n in n1])
    w0, w1 = w0[n1], w1[n1]

    values, w0, w1 = grid_merge(values, w0, w1, tol=MERGE_TOL)
    w0 = w0 / w0.sum()
    w1 = w1 / w1.sum()
    return ConditionalPair(depth=1, values=values, w0=w0, w1=w1)


def evolve(pair: ConditionalPair, c: BinaryChannel, k: int,
           policy=None) -> ConditionalPair:
    """One density-evolution step: depth ``d`` to depth ``d+1``.

    Parameters
    ----------
    pair : ConditionalPair
        Input pair at depth >= 1.
    c : BinaryChannel
        Channel with ``p00 > 0`` and ``p10 > 0`` (the update constant and
        ``g`` need both).
    k : int
        Branching number.
    policy : callable, optional
        The step's k-fold sum, ``policy(g, m0, m1, k, child_const)``.
        Defaults to :func:`exact_policy`; :func:`deep_policy` gives the
        lattice upper law.

    Returns
    -------
    ConditionalPair
        Pair at depth ``d+1``; the support is finite except for a ``-inf``
        atom when ``p01 = 0`` (a 1 anywhere below rules out root value 0).

    Raises
    ------
    AtomExplosion
        If the exact step's atom count exceeds :data:`ATOM_CAP`, or a
        convolution fold would form more than :data:`PAIR_BUDGET` pairs.
    UndefinedLimit
        If an atom sits at ``-inf`` while ``p11 = 0``.
    """
    if policy is None:
        policy = exact_policy()
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise InvalidParameter(f"k must be a positive integer, got {k!r}")
    k = int(k)

    # child mixtures share the pair's support: only weights mix
    mix0 = c.p00 * pair.w0 + c.p01 * pair.w1
    mix1 = c.p10 * pair.w0 + c.p11 * pair.w1
    g_arr = llr_step(c, pair.values)  # may raise UndefinedLimit
    child_const = math.log(c.p00 / c.p10)
    values, w0, w1 = policy(g_arr, mix0, mix1, k, child_const)
    return ConditionalPair(depth=pair.depth + 1, values=values, w0=w0, w1=w1)


def _fold_budget(n_pairs: int) -> None:
    """Refuse a convolution fold before it forms more than PAIR_BUDGET pairs."""
    if n_pairs > PAIR_BUDGET:
        raise AtomExplosion(
            f"convolution needs {n_pairs} atom pairs (budget {PAIR_BUDGET})",
            count=n_pairs)


def _lattice_power(g_arr, m0, m1, k, child_const):
    """k-fold i.i.d. sum of child contributions split onto the lattice.

    The per-child contributions ``h = g + child_const`` (``child_const``
    is ``ln(p00/p10)``) have child weights ``m0``, ``m1``.  Each finite atom
    moves to the two lattice points around it, ``beta0`` of its root-0
    weight up and the rest down, with ``beta0`` chosen so its root-1 weight
    ``m1`` is kept too.  Every lattice law then has root-1 weights
    ``w0 * exp(-value)``, which is how they are formed, so only the root-0
    vector is convolved.  Contributions at ``-inf`` (only when ``p01 = 0``)
    carry no root-0 weight and stay off the lattice: a sum is ``-inf`` with
    root-1 probability ``1 - (1 - q)**k``, which is 1 when ``q`` is.
    The whole fold chain is checked against :data:`PAIR_BUDGET` before the
    first fold: fold ``j`` forms ``(j*(L-1) + 1) * L`` pairs for an
    ``L``-point lattice vector, so the last fold decides.
    """
    t = LATTICE_WIDTH
    h = g_arr + child_const
    sure = np.isneginf(h)  # g is finite except g(-inf) = -inf when p01 = 0
    q = min(float(m1[sure].sum()), 1.0)
    h, m0, m1 = h[~sure], m0[~sure], m1[~sure]
    cell = np.floor(h / t)
    # beta0 = (m0*exp(-a) - m1) / (exp(-a) - exp(-a-t)) at a = cell*t; m1
    # stands in for m0*exp(-h), which rounding in h would move by ~1e-14
    up = np.clip((m0 - m1 * np.exp(cell * t)) / -math.expm1(-t), 0.0, m0)
    cell = cell.astype(np.int64)
    low = int(cell.min())
    size = int(cell.max()) - low + 2
    f = (np.bincount(cell - low, m0 - up, minlength=size)
         + np.bincount(cell - low + 1, up, minlength=size))
    if k > 1:
        _fold_budget(((k - 1) * (size - 1) + 1) * size)
    s = f
    for _ in range(k - 1):
        s = np.convolve(s, f)
    live = np.flatnonzero(s > 0)
    values = (live + k * low) * t
    # both masses are reset to their exact totals each step: fed back
    # through the child mixtures, a rounding error in either total would
    # grow by a factor of up to k per depth
    # root-1 mass (1 - q)**k off -inf; none when q = 1
    log_finite1 = k * math.log1p(-q) if q < 1 else -math.inf
    w0 = s[live] / s[live].sum()
    w1 = w0 * np.exp(-values)
    w1 *= math.exp(log_finite1) / w1.sum()
    if q > 0:
        values = np.concatenate(([-np.inf], values))
        w0 = np.concatenate(([0.0], w0))
        w1 = np.concatenate(([-math.expm1(log_finite1)], w1))
    return values, w0, w1


def _convolve(g_arr, mix0, mix1, k, child_const):
    """k-fold i.i.d. sum of the g-image plus the depth constant, exactly.

    Atoms merge only on the :data:`MERGE_TOL` grid; a law above
    :data:`ATOM_CAP` atoms raises :class:`~treecast.errors.AtomExplosion`.
    """
    y, m0, m1 = grid_merge(g_arr, mix0, mix1, tol=MERGE_TOL)
    s, sw0, sw1 = y, m0, m1
    for _ in range(k - 1):
        _fold_budget(len(s) * len(y))
        total = (s[:, None] + y[None, :]).ravel()
        t0 = (sw0[:, None] * m0[None, :]).ravel()
        t1 = (sw1[:, None] * m1[None, :]).ravel()
        s, sw0, sw1 = grid_merge(total, t0, t1, tol=MERGE_TOL)
        _atom_budget(len(s))
    s = s + k * child_const
    s, sw0, sw1 = grid_merge(s, sw0, sw1, tol=MERGE_TOL)
    _atom_budget(len(s))
    return s, sw0, sw1


def _atom_budget(n_atoms: int) -> None:
    if n_atoms > ATOM_CAP:
        raise AtomExplosion(f"law has {n_atoms} atoms (cap {ATOM_CAP})", count=n_atoms)


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
                    policy=None) -> ConditionalPair:
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
        All three decay to 0 exactly when the laws merge.  ``var_A`` sums
        over atoms of positive mixture weight only, so an atom the mixture
        never reaches (``-inf`` when ``pi1 = 0``) cannot make it NaN.
    """
    tv = 0.5 * float(np.abs(pair.w0 - pair.w1).sum())
    a, mix = pair.posterior_mixture(c)
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
