"""Density evolution of the conditional root-LLR laws.

One evolution step takes the depth-``d`` pair of conditional laws to depth
``d+1``: each of the ``k`` children contributes an independent draw from
the appropriate mixture of the two laws, passed through the one-child
update to ``h = g + ln(p00/p10)``, and the ``k`` contributions are summed.
All arithmetic stays in log-likelihood coordinates; products of
likelihoods never appear.  A step forms the root-0 law only: the root-1
law follows from it through ``w1 = w0 * exp(-value)``, which
:class:`~treecast.atoms.ConditionalPair` derives, except for its mass at
``-inf``, which :func:`evolve` forms from the child contributions at
``-inf`` (only when ``p01 = 0``) for both step functions.

Two step functions ``policy(h, m0, m1, k)`` form the sum from the finite
child contributions and their child weights, and return the sums and
their root-0 weights; :func:`evolve` calls the one it is given.
:func:`exact_policy` returns the exact one, which convolves
atoms and merges each run of sorted sums whose consecutive gaps are below
:data:`MERGE_TOL`, so no value is held as two atoms.  A run chains every
such gap, so on a law whose distinct sums lie that close (8.4e-11 wide at
symmetric eps = 0.45, k = 2, depth 6) it also merges distinct values; it
never crosses 0, so the total variation is kept.  It refuses folds above
:data:`PAIR_BUDGET` pairs, which also bounds every law, since a merged law
has at most as many atoms as its fold had pairs; a convolution of
``m``-atom laws has up to ``C(m+k-1, k)`` atoms, so this is for shallow,
oracle-grade runs.
:func:`deep_policy` returns the lattice one, which splits each child
contribution onto the lattice of width :data:`LATTICE_WIDTH` anchored at
0 and takes the k-fold convolution power of the lattice vector.  The
split keeps both conditional masses, so the per-atom identity holds on
the lattice too; the true child law is a degraded version of the
split one (Tal & Vardy's upgrading quantizer), so the lattice law is an
*upper law*: its total variation, at every depth, is at least that of the
exact law, and exceeds it by O(``LATTICE_WIDTH``).
"""

from __future__ import annotations

import decimal
import itertools
import math

import numpy as np

from .errors import AtomExplosion, InvalidParameter
from .channels import DECIMAL_40, BinaryChannel, _count, llr_step, gap_kernel
from .atoms import ConditionalPair, grid_merge, root0_terms, run_count


# exact-step run gap: sorted atoms closer than this merge, and a run chains
# every such gap, so it can be wider than MERGE_TOL; runs never cross 0
MERGE_TOL = 1e-12
LATTICE_WIDTH = 2e-3  # lattice spacing of the deep step's upper law
PAIR_BUDGET = 1 << 25  # most atom pairs one convolution fold may form


def exact_policy():
    """The exact step, for oracle-grade runs: dedup-only merging, exact laws."""
    return _convolve


def deep_policy():
    """The lattice step, for deep runs: an upper law at any depth."""
    return _lattice_power


def _binomial_pmf(k: int, p: float, fail: float) -> np.ndarray:
    """Binomial probabilities of 0..k successes, each rounded once.

    ``fail**k``, then ``* (k-n)/(n+1) * p/fail`` per step, in
    ``DECIMAL_40``; a term below the float64 range becomes 0.  ``p`` and
    ``fail`` are a channel row's two entries, taken as given: a ``p00`` of
    1e-103 is kept where ``1 - p01`` would round to 0, and the terms sum to
    ``(p + fail)**k``, 1 only within rounding.
    """
    out = np.zeros(k + 1)
    with decimal.localcontext(DECIMAL_40):
        p_dec = decimal.Decimal(p)
        q = decimal.Decimal(fail)
        if q == 0:
            out[k] = 1.0
            return out
        odds = p_dec / q
        term = q ** k
        for n in range(k + 1):
            out[n] = float(term)
            term = term * (k - n) / (n + 1) * odds
    return out


def base_pair(c: BinaryChannel, k: int) -> ConditionalPair:
    """Depth-1 conditional pair by direct enumeration of the k children.

    The root LLR after observing the children depends only on how many of
    them equal 1, so the k+1 count values are enumerated with binomial
    weights under each root value.  Extended-real atoms are produced where
    a count is impossible under one root value (for example the hard-core
    channel sends any occupied child to ``+inf``).  Of the root-1 weights
    only the mass at ``-inf`` is kept; the pair derives the rest.

    Parameters
    ----------
    c : BinaryChannel
    k : int
        Branching number, at least 1.

    Returns
    -------
    ConditionalPair
        Depth-1 pair on a shared support.

    Raises
    ------
    DegenerateChannel
        If a count that root value 1 reaches has a root-0 weight below the
        float64 range, so its value falls below ``ln(tiny)`` (for example
        ``make_channel(1 - 1e-15, 0.5)`` at k = 25).
    """
    k = _count("k", k)

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
    w0 = _binomial_pmf(k, c.p01, c.p00)
    w1 = _binomial_pmf(k, c.p11, c.p10)
    # only rows of positive weight are formed: a row that neither root
    # value reaches can add -inf to +inf.  A row only root 1 reaches sits at
    # -inf, or below ln(tiny) where w0 underflowed, which the pair refuses
    n1 = counts[(w0 > 0) | (w1 > 0)]
    values = np.array([(0.0 if n == k else (k - n) * lr0) + (0.0 if n == 0 else n * lr1)
                       for n in n1])
    # the root-1 law follows from w0 and the values, except its -inf mass;
    # a row's two entries sum to 1 only within rounding, so both binomial
    # rows are normalized
    w1 = w1[n1]
    q = float(w1[values == -np.inf].sum() / w1.sum())
    values, w0 = grid_merge(values, w0[n1], tol=MERGE_TOL)
    return ConditionalPair(depth=1, values=values, w0=w0 / w0.sum(), q=q)


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
        The step's k-fold sum of child contributions, ``policy(h, m0, m1, k)``
        with finite ``h = g + ln(p00/p10)`` and child weights ``m0``,
        ``m1``; it returns the sums and their root-0 weights.  Defaults to
        :func:`exact_policy`; :func:`deep_policy` gives the lattice upper
        law.

    Returns
    -------
    ConditionalPair
        Pair at depth ``d+1``; the support is finite except for a ``-inf``
        atom when ``p01 = 0`` (a 1 anywhere below rules out root value 0).

    Raises
    ------
    AtomExplosion
        If a convolution fold would form more than :data:`PAIR_BUDGET`
        pairs.
    UndefinedLimit
        If an atom sits at ``-inf`` while ``p11 = 0``.
    DegenerateChannel
        If ``llr_step`` leaves float64, or a sum falls below ``ln(tiny)``,
        where ``w0`` cannot hold the root-1 weight (see
        :class:`~treecast.atoms.ConditionalPair`).
    """
    if policy is None:
        policy = exact_policy()
    k = _count("k", k)

    # child mixtures share the pair's support: only weights mix
    mix0 = c.p00 * pair.w0 + c.p01 * pair.w1
    mix1 = c.p10 * pair.w0 + c.p11 * pair.w1
    h = llr_step(c, pair.values) + math.log(c.p00 / c.p10)  # may raise UndefinedLimit
    # h is finite except h(-inf) = -inf when p01 = 0, a contribution only
    # root 1 makes: a sum is -inf with root-1 probability 1 - (1 - q_child)**k
    q = 0.0
    if h[0] == -np.inf:
        q_child = min(float(mix1[0]), 1.0)
        q = -math.expm1(k * math.log1p(-q_child)) if q_child < 1 else 1.0
        h, mix0, mix1 = h[1:], mix0[1:], mix1[1:]
    values, w0 = policy(h, mix0, mix1, k)
    # the root-0 mass is reset to 1 each step: fed back through the child
    # mixtures, a rounding error in it would grow by a factor of up to k
    w0 /= w0.sum()
    if q > 0:
        values, w0 = np.concatenate(([-np.inf], values)), np.concatenate(([0.0], w0))
    return ConditionalPair(depth=pair.depth + 1, values=values, w0=w0, q=q)


def _fold_budget(n_pairs: int) -> None:
    """Refuse a convolution fold before it forms more than PAIR_BUDGET pairs."""
    if n_pairs > PAIR_BUDGET:
        raise AtomExplosion(
            f"convolution needs {n_pairs} atom pairs (budget {PAIR_BUDGET})",
            count=n_pairs)


def _lattice_power(h, m0, m1, k):
    """k-fold i.i.d. sum of child contributions split onto the lattice.

    The finite child contributions ``h`` have child weights ``m0``, ``m1``.
    Each moves to the two lattice points around it, ``beta0`` of its
    root-0 weight up and the rest down, with ``beta0`` chosen so its root-1
    weight ``m1`` is kept too.  Every lattice law then has root-1 weights
    ``w0 * exp(-value)``, so only the root-0 vector is convolved.
    The whole fold chain is checked against :data:`PAIR_BUDGET` before the
    first fold: fold ``j`` forms ``(j*(L-1) + 1) * L`` pairs for an
    ``L``-point lattice vector, so the last fold decides.
    """
    t = LATTICE_WIDTH
    cell = np.floor(h / t)
    # beta0 = (m0*exp(-a) - m1) / (exp(-a) - exp(-a-t)) at a = cell*t; m1
    # stands in for m0*exp(-h), which rounding in h would move by ~|h| ulps
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
    return (live + k * low) * t, s[live]


def _convolve(h, m0, m1, k):
    """k-fold i.i.d. sum of the child contributions ``h``, exactly.

    The first fold adds the law to itself, so it forms each unordered
    pair ``i <= j`` once, ``m(m+1)/2`` pairs for an ``m``-atom law, with
    the weight of an off-diagonal pair doubled; later folds add one more
    copy as a full outer product.  Atoms merge only in runs closer than
    :data:`MERGE_TOL`, one merge per child, so the last merge is on the
    returned sums.  Each fold is checked against :data:`PAIR_BUDGET`
    before it is formed; when a second fold follows, its pair count (one
    pair per run of the first fold's sums and atom of the law) is counted
    from the sums alone, so a refused step forms no weights and no merge.
    Only the root-0 weights ``m0`` are folded: the root-1 law of the sums
    follows from theirs, so ``m1`` is not read.
    """
    y, w = grid_merge(h, m0, tol=MERGE_TOL)
    if k == 1:
        return y, w
    m = len(y)
    _fold_budget(m * (m + 1) // 2)
    total = _self_pairs(np.add, y)
    if k > 2:
        _fold_budget(run_count(total, MERGE_TOL) * m)
    # an off-diagonal pair i < j stands for both ordered pairs, so its
    # weight is doubled, bitwise w[i]*w[j] + w[j]*w[i]; row i starts at i = j
    rows = np.arange(m, 0, -1)
    diagonal = np.cumsum(rows) - rows
    t = _self_pairs(np.multiply, w)
    t *= 2.0
    t[diagonal] = w * w
    s, sw = grid_merge(total, t, tol=MERGE_TOL)
    del total, t  # a later fold forms its own
    for _ in range(k - 2):
        _fold_budget(len(s) * m)
        total = (s[:, None] + y[None, :]).ravel()
        t = (sw[:, None] * w[None, :]).ravel()
        s, sw = grid_merge(total, t, tol=MERGE_TOL)
        del total, t
    return s, sw


def _self_pairs(op, x):
    """``op(x[i], x[j])`` over the unordered pairs ``i <= j``, row by row.

    Row ``i`` holds ``j = i..m-1``; ``x[i] + x[j]`` is bitwise
    ``x[j] + x[i]``, so each sum stands for both orders.  No ``m x m``
    array is ever allocated.
    """
    m = len(x)
    out = np.empty(m * (m + 1) // 2)
    start = 0
    for i in range(m):
        op(x[i], x[i:], out=out[start:start + m - i])
        start += m - i
    return out


def trajectory(state, step, depth: int):
    """Iterate the depth recursion from a depth-1 state of either engine.

    Yields ``state`` and then ``step`` applied ``depth - 1`` times, one
    state per depth, computing each step only when it is requested.
    ``state`` is a depth-1 :class:`ConditionalPair` or
    :class:`~treecast.sampling.Population`; ``step`` maps a state to the
    next depth's (for example ``lambda p: evolve(p, c, k, policy)``).
    Raises :class:`InvalidParameter` at call time unless ``depth`` is an
    integer >= 1 (so not 2.0, 2.5 or NaN).
    """
    depth = _count("depth", depth)
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

    The root-0 mean of the gap term of :func:`~treecast.atoms.root0_terms`,
    ``v * (1 - exp(-v))``, over the atoms of positive root-0 weight: a sum
    of non-negative terms, so never below 0.  An atom at ``+inf`` of
    positive root-0 weight, or a root-1 mass at ``-inf``, makes the gap
    ``+inf`` (the convention callers rely on for the hard-core base case).
    """
    if pair.q > 0:
        return math.inf
    v, w = pair.live()
    return float(root0_terms(v, tv=False)[1] @ w)


def diagnostics(pair: ConditionalPair, c: BinaryChannel) -> dict:
    """Scalar summaries of how far apart the two conditional laws are.

    Each is the root-0 mean of its term of
    :func:`~treecast.atoms.root0_terms` over the atoms of positive root-0
    weight, plus what the root-1 mass ``q`` at ``-inf`` adds.

    Returns
    -------
    dict
        ``tv``: total variation distance between the laws, the root-0
        surplus ``sum(w0 * max(1 - exp(-v), 0))``; ``mean_gap``: see
        :func:`mean_gap`; ``var_A``: variance of the root posterior under
        the stationary mixture, plus ``pi1 * pi0**2 * q`` from the
        ``-inf`` atom (posterior 0).  All three decay to 0 exactly when
        the laws merge, and none is NaN at an atom the mixture never
        reaches.
    """
    v, w = pair.live()
    tv, gap, var = (float(t @ w) for t in root0_terms(v, c))
    return {"tv": tv, "mean_gap": math.inf if pair.q > 0 else gap,
            "var_A": var + c.pi1 * c.pi0 ** 2 * pair.q}


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
        unpruned evolution.  Each expectation runs over its atoms of
        positive weight only, so a ``-inf`` kernel value where a law has
        no mass adds nothing.  Equal infinities on both sides give
        residual 0, but then the identity is not tested at all: for a
        ``p01 = 0`` channel the root-1 law has mass at ``-inf``, so both
        sides are ``+inf`` by the convention of :func:`mean_gap`, and a
        residual of 0 there says only that the sides agree on that.
    """
    if pair_d.depth != pair_dm1.depth + 1:
        raise InvalidParameter(
            f"pair depths must be consecutive, got {pair_d.depth} and {pair_dm1.depth}")
    lhs = mean_gap(pair_d)
    f = np.asarray(gap_kernel(c, pair_dm1.values), dtype=np.float64)

    def expect(w):
        keep = w > 0
        return float(f[keep] @ w[keep])

    rhs = k * (expect(pair_dm1.w0) - expect(pair_dm1.w1))
    return 0.0 if lhs == rhs else abs(lhs - rhs)
