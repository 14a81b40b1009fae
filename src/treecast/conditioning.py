"""Monotone coupling of the two conditional laws, and the finite-space
conditional-probability sandwich that underpins it.

The coupling puts as much mass as possible on the diagonal (the two laws
agree there) and pairs the leftover mass so that every crossing pair
straddles 0 in LLR coordinates: the root-0 law's surplus lives on the
positive side, the root-1 law's surplus on the negative side, since
``w1 = w0 * exp(-value)`` is below ``w0`` exactly where the value is
positive.  The diagonal, ``min(w0, w1)`` at every atom, is read from the
pair being coupled, so only the crossing pairs are stored.  They are the
sorted (comonotone) transport between the two residuals; any measurable
pairing would satisfy the same marginal and crossing guarantees, so
sorted order is chosen for determinism.  A pair is kept as two int32
positions in the pair's support, not as two values: the construction
already has them, and in the sorted order neither position ever
decreases, so the marginal check reads, a block of atoms at a time, the
one run of pairs whose positions land there.  The construction and every
check work a block at a time, so the only full-size arrays they form are
the coupling's own and the merge's.

``verify_sandwich`` checks the underlying two-sided bound on a finite
probability space: if the conditional probability of an event ``B`` given
a partition is bounded within ``[p0, p1]`` on the cells making up ``D``,
then ``P(D | B)`` is sandwiched between odds-ratio multiples of
``P(D | not B)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEvent, InvalidParameter, PreconditionViolation
from .channels import BinaryChannel, _probabilities, _probability, _real
from .atoms import ConditionalPair

_BLOCK = 1 << 16  # entries per block where a loop avoids a full-size temporary


@dataclass(frozen=True)
class Coupling:
    """Joint law of a pair ``(y0, y1)`` whose marginals are the two laws
    of ``pair``.

    The diagonal carries ``min(w0, w1)`` at every atom of the pair's
    support and is derived from the pair (:attr:`diagonal`).  Stored are
    the crossing pairs only, as positions in that support: crossing pair
    ``j`` carries ``weight[j]`` at ``(y0[j], y1[j]) = (values[i0[j]],
    values[i1[j]])``, and when that weight is positive, ``y1 <= 0 <= y0``.
    The weights must be non-negative (a NaN weight is refused) and sum,
    with the diagonal, to 1.

    The positions are stored as int32.  Given positions of any integer
    dtype are checked to lie in ``[0, len(pair))`` in that dtype, then
    cast, so an out-of-range position is refused and never wraps into
    range; a support of ``2**31`` atoms or more is refused.  Every refusal
    is an :class:`InvalidParameter`.

    Any order of the pairs is accepted here, but :meth:`marginal_residuals`
    needs the comonotone order that :func:`build_coupling` gives: ``i0``
    and ``i1`` never decrease.
    """

    pair: ConditionalPair
    i0: np.ndarray
    i1: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        if not isinstance(self.pair, ConditionalPair):
            raise InvalidParameter("a coupling couples a ConditionalPair")
        n = len(self.pair)
        if n >= 2**31:
            raise InvalidParameter(f"positions are int32: a support of {n} atoms is too large")
        a, b = np.asarray(self.i0), np.asarray(self.i1)
        w = _probabilities("coupling weight", self.weight, held=_diagonal_mass(self.pair))
        if not (a.shape == b.shape == w.shape and a.dtype.kind in "iu" and b.dtype.kind in "iu"):
            raise InvalidParameter("positions i0, i1 must be integer arrays as long as weight")
        if len(a) and any(x.min() < 0 or x.max() >= n for x in (a, b)):
            raise InvalidParameter(f"positions must lie in [0, {n})")
        a, b = a.astype(np.int32, copy=False), b.astype(np.int32, copy=False)
        for name, x in (("i0", a), ("i1", b), ("weight", w)):
            object.__setattr__(self, name, x)

    @property
    def diagonal(self) -> np.ndarray:
        """Mass ``min(w0, w1)`` kept in place at each atom of the support."""
        return np.minimum(self.pair.w0, self.pair.w1)

    @property
    def y0(self) -> np.ndarray:
        return self.pair.values[self.i0]

    @property
    def y1(self) -> np.ndarray:
        return self.pair.values[self.i1]

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(y0, y1, weight)`` of every pair for output: the diagonal atoms
        of positive mass in support order, then the crossing pairs.  The
        three outputs are filled a block at a time."""
        v, m = self.pair.values, len(self.weight)
        nd = sum(int(np.count_nonzero(d)) for _, d in _diagonal_blocks(self.pair))
        y0, y1, w = (np.empty(nd + m) for _ in range(3))
        k = 0
        for i, d in _diagonal_blocks(self.pair):
            live = d > 0
            at = slice(k, k + int(np.count_nonzero(live)))
            y0[at] = y1[at] = v[i:i + len(d)][live]
            w[at] = d[live]
            k = at.stop
        for i in range(0, m, _BLOCK):
            at = slice(nd + i, nd + i + _BLOCK)
            y0[at] = v[self.i0[i:i + _BLOCK]]
            y1[at] = v[self.i1[i:i + _BLOCK]]
        w[nd:] = self.weight
        return y0, y1, w

    def crossing_ok(self) -> bool:
        """True when every crossing pair of positive weight straddles 0.

        Read from positions: on the strictly increasing support, ``y1 <= 0``
        is ``i1`` below the count of values ``<= 0``, and ``y0 >= 0`` is
        ``i0`` at or above the count of values ``< 0``.
        """
        v, live = self.pair.values, self.weight > 0
        return not (np.any(live & (self.i1 >= np.searchsorted(v, 0.0, "right")))
                    or np.any(live & (self.i0 < np.searchsorted(v, 0.0, "left"))))

    def marginal_residuals(self, pair: ConditionalPair) -> tuple[float, float]:
        """Worst per-atom deviation of each marginal from ``pair``'s laws.

        Read a block of atoms at a time, with no full-size array: since
        ``i0`` never decreases, the pairs whose ``i0`` lands in a block are
        one run of the pairs, found with ``np.searchsorted``, and
        ``np.add.at`` adds their weights in pair order from 0.0 (a block of
        pairs at a time, into one accumulator: the bits of a ``bincount``
        of the run); the same holds for ``i1``.

        Raises :class:`InvalidParameter` unless ``pair`` has the support of
        the coupled pair, and when ``i0`` or ``i1`` decreases anywhere.
        """
        v = self.pair.values
        if not (pair.values is v or np.array_equal(pair.values, v)):
            raise InvalidParameter("coupling support is not the pair's support")
        if _count_steps(self.i0, np.less) or _count_steps(self.i1, np.less):
            raise InvalidParameter("the marginal check needs positions i0, i1 that never decrease")
        acc = np.empty(min(_BLOCK, len(v)))  # the block's crossing mass
        res = []
        for at, law in ((self.i0, pair.w0), (self.i1, pair.w1)):
            worst, lo = [], 0
            for i, b in _diagonal_blocks(self.pair):
                n = len(b)
                # an int32 key: a Python int would make an int64 copy of at
                hi = int(np.searchsorted(at, np.int32(i + n)))
                a = acc[:n]
                a.fill(0.0)
                for j in range(lo, hi, _BLOCK):
                    k = slice(j, min(j + _BLOCK, hi))
                    np.add.at(a, at[k] - np.int32(i), self.weight[k])
                b -= law[i:i + n]
                b += a
                worst.append(np.abs(b, out=b).max())
                lo = hi
            res.append(float(np.max(worst)))
        return res[0], res[1]

    def mean_difference(self) -> float:
        """E[y0 - y1], to which the diagonal adds 0; +inf when an infinite
        atom carries crossing weight.  Meaningful when :meth:`crossing_ok`,
        where every ``y0 - y1`` is ``>= 0``.

        The differences of the pairs of positive weight are formed a block
        at a time into the one vector dotted with their weights."""
        v, live = self.pair.values, self.weight > 0
        every = bool(live.all())
        w = self.weight if every else self.weight[live]
        diff = np.empty(len(w))
        k = 0
        for i in range(0, len(live), _BLOCK):
            a, b = self.i0[i:i + _BLOCK], self.i1[i:i + _BLOCK]
            if not every:
                a, b = a[live[i:i + _BLOCK]], b[live[i:i + _BLOCK]]
            np.subtract(v[a], v[b], out=diff[k:k + len(a)])
            k += len(a)
        return float(diff @ w)


def _diagonal_blocks(pair: ConditionalPair):
    """``(i, d)`` for each block of atoms from position ``i``, with ``d``
    the diagonal ``min(w0, w1)`` there, in one buffer that the next block
    overwrites: no full-size array of the diagonal is made."""
    buf = np.empty(min(_BLOCK, len(pair)))
    for i in range(0, len(pair), _BLOCK):
        a, b = pair.w0[i:i + _BLOCK], pair.w1[i:i + _BLOCK]
        yield i, np.minimum(a, b, out=buf[:len(a)])


def _diagonal_mass(pair: ConditionalPair) -> float:
    """``sum(min(w0, w1))``, the coupling's diagonal mass, a block at a time."""
    total = 0.0
    for _, d in _diagonal_blocks(pair):
        total += float(d.sum())
    return total


def _count_steps(x: np.ndarray, op) -> int:
    """How many consecutive entries ``x[i], x[i + 1]`` have
    ``op(x[i + 1], x[i])``, counted a block at a time (each block reaches
    one entry into the next, so a step across a block edge counts)."""
    total = 0
    for i in range(0, len(x), _BLOCK):
        y = x[i:i + _BLOCK + 1]
        total += int(np.count_nonzero(op(y[1:], y[:-1])))
    return total


def _compensated_cumsum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Prefix sums of a non-negative ``x``, each within about an ulp.

    ``np.cumsum`` plus the running sum of each step's exact rounding error
    (Knuth's TwoSum: for ``c = prev + x``, ``b = c - prev`` and the error
    is ``(prev - (c - b)) + (x - b)``), kept non-decreasing.  A plain
    ``cumsum`` over n entries drifts by up to ``n`` ulps.  The sums are
    written to ``out`` when it is given, which may be ``x`` itself.

    They are formed a block at a time, carrying the plain running sum, the
    running error sum and the running maximum into the next block.  Both
    ``np.cumsum`` and ``np.maximum.accumulate`` work in order from the
    first entry, so the sums have the bits of the same steps taken over
    the whole array at once, without its full-size temporaries.
    """
    out = np.empty(len(x)) if out is None else out
    t, b, e = (np.empty(min(_BLOCK, len(x))) for _ in range(3))
    prev = err = 0.0  # the plain running sum and the error sum so far
    top = -math.inf  # the largest sum so far
    for i in range(0, len(x), _BLOCK):
        o = out[i:i + _BLOCK]
        n = len(o)
        xs, bs, es = t[:n], b[:n], e[:n]
        xs[:] = x[i:i + n]  # before o is written: out may be x
        first = xs[0]
        xs[0] += prev
        np.cumsum(xs, out=o)  # the plain sums c
        xs[0] = first
        np.subtract(o[1:], o[:-1], out=bs[1:])  # b = c - prev
        bs[0] = o[0] - prev
        np.subtract(o, bs, out=es)  # c - b
        np.subtract(o[:-1], es[1:], out=es[1:])  # prev - (c - b)
        es[0] = prev - es[0]
        xs -= bs
        es += xs  # each step's error; 0 at the first entry
        es[0] += err
        np.cumsum(es, out=es)
        prev, err = o[-1], es[-1]
        o += es
        o[0] = max(o[0], top)
        np.maximum.accumulate(o, out=o)
        top = o[-1]
    return out


def _surplus(w0: np.ndarray, w1: np.ndarray, s0: np.ndarray, s1: np.ndarray,
             out: np.ndarray) -> None:
    """Write the positions where ``w0 > w1`` to ``s0`` and those where
    ``w1 > w0`` to ``s1``, and each side's surplus there (``w0 - w1``, then
    ``w1 - w0``) to ``out``, the first side's before the second's.

    One pass over the atoms, a block at a time, with one subtraction:
    ``w0 - w1`` is positive exactly where ``w0 > w1`` (a difference of
    distinct floats is never 0) and rounds to the negation of ``w1 - w0``,
    so the surpluses have the bits of subtracting each side's gathered
    weights.
    """
    d = np.empty(min(_BLOCK, len(w0)))
    k0, k1, n0 = 0, 0, len(s0)
    for i in range(0, len(w0), _BLOCK):
        a = w0[i:i + _BLOCK]
        x = np.subtract(a, w1[i:i + _BLOCK], out=d[:len(a)])
        f = np.flatnonzero(x > 0)
        s0[k0:k0 + len(f)] = f + i
        out[k0:k0 + len(f)] = x[f]
        k0 += len(f)
        f = np.flatnonzero(x < 0)
        s1[k1:k1 + len(f)] = f + i
        np.negative(x[f], out=out[n0 + k1:n0 + k1 + len(f)])
        k1 += len(f)


def _merge_path(c0: np.ndarray, c1: np.ndarray, a: int) -> int:
    """How many entries of ``c0`` the stable merge of the non-decreasing
    ``c0`` then ``c1`` puts among its first ``a``.  Entry ``x`` of ``c0``
    is among them when fewer than ``a - x`` entries of ``c1`` lie below it,
    that is when it is at most ``c1[a - x - 1]``; that holds for every
    ``x`` below the count and for none above, so it is found by bisection.
    """
    lo, hi = max(0, a - len(c1)), min(a, len(c0))
    while lo < hi:
        x = (lo + hi) // 2
        if c0[x] <= c1[a - x - 1]:
            lo = x + 1
        else:
            hi = x
    return lo


def _merge_flags(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """Whether each entry of the stable merge of the non-decreasing ``c0``
    then ``c1`` (ties put ``c0`` first) is from ``c0``.

    A block of the merge holds the next entries of both runs, as many of
    each as :func:`_merge_path` counts, so a stable ``argsort`` of those two
    slices side by side orders the block: no array longer than a block is
    formed beside the flags.
    """
    n = len(c0) + len(c1)
    flags = np.empty(n, dtype=bool)
    buf = np.empty(min(_BLOCK, n))
    x = 0  # entries of c0 in the blocks so far
    for a in range(0, n, _BLOCK):
        end = min(a + _BLOCK, n)
        y = _merge_path(c0, c1, end)
        buf[:y - x] = c0[x:y]
        buf[y - x:end - a] = c1[a - x:end - y]
        np.less(np.argsort(buf[:end - a], kind="stable"), y - x, out=flags[a:end])
        x = y
    return flags


def _first_occurrences(merged: np.ndarray, from0: np.ndarray):
    """For each block of the sorted masses ``merged`` from position ``a``:
    ``(a, block, f, p0)``, where ``f`` holds the block offsets of the first
    occurrence of each mass and ``p0`` the count of ``from0`` entries before
    each, in a buffer that the next block overwrites.  The block's last
    mass is read before it is yielded, so the caller may then write over
    the entries before ``a + len(f)``."""
    below0, last = 0, 0.0  # the masses are positive: the first one is new
    n = min(_BLOCK, len(merged))
    new, before = np.empty(n, dtype=bool), np.empty(n, dtype=np.intp)
    for a in range(0, len(merged), _BLOCK):
        block, mask = merged[a:a + _BLOCK], from0[a:a + _BLOCK]
        is_new, p0 = new[:len(block)], before[:len(block)]
        is_new[0] = block[0] != last
        np.not_equal(block[1:], block[:-1], out=is_new[1:])
        p0[0] = below0
        p0[1:] = mask[:-1]
        np.cumsum(p0, out=p0)
        below0, last = int(p0[-1]) + int(mask[-1]), block[-1]
        f = np.flatnonzero(is_new)
        yield a, block, f, (p0 if len(f) == len(block) else p0[f])


def build_coupling(pair: ConditionalPair, c: BinaryChannel) -> Coupling:
    """Construct the diagonal-plus-crossing coupling of a conditional pair.

    Parameters
    ----------
    pair : ConditionalPair
    c : BinaryChannel
        Unused: the sign barrier sits at LLR 0 whatever the channel.  It is
        accepted because the CLI and the benchmark harness pass it.

    Returns
    -------
    Coupling
        Of ``pair`` itself: the diagonal ``min(w0, w1)`` is the pair's, and
        the crossing pairs match, in sorted order, the positive-side
        surplus of law 0 with the negative-side surplus of law 1.  They are
        listed in that comonotone order, so ``i0`` and ``i1`` never
        decrease, as :meth:`Coupling.marginal_residuals` needs.
    """
    w0, w1 = pair.w0, pair.w1
    # the surplus of law 0 (v > 0) sits where w0 > w1, that of law 1
    # (v < 0) where w1 > w0; with either empty, the diagonal is all
    n0, n1 = int(np.count_nonzero(w0 > w1)), int(np.count_nonzero(w1 > w0))
    if n0 == 0 or n1 == 0:
        none = np.empty(0, dtype=np.int32)
        return Coupling(pair, none, none, np.empty(0))

    # comonotone pairing on the union of the residual cumulative masses c0
    # and c1: in their stable merge, the first occurrence of each mass m has
    # before it exactly the entries of c0 and of c1 below m
    s0, s1 = np.empty(n0, dtype=np.int32), np.empty(n1, dtype=np.int32)
    merged = np.empty(n0 + n1)
    _surplus(w0, w1, s0, s1, merged)
    _compensated_cumsum(merged[:n0], out=merged[:n0])  # c0
    _compensated_cumsum(merged[n0:], out=merged[n0:])  # c1
    # of the merge's order only whether each entry is from c0 is kept; the
    # masses are positive and equal ones have equal bits, so sorting them
    # in place gives the merge bitwise
    from0 = _merge_flags(merged[:n0], merged[n0:])
    merged.sort(kind="stable")
    # one pair per first occurrence f: it carries the step of the grid of
    # distinct masses (which rises strictly from above 0, so each step has
    # mass), its c0 entry is the count of c0 entries before f, and its c1
    # entry the rest of the f entries before it.  Past the end of the
    # shorter run (totals that differ by rounding), the last atom of that
    # run takes the remainder
    size = 1 + _count_steps(merged, np.not_equal)
    i0 = np.empty(size, dtype=np.int32)
    done = 0
    for _, _, f, p0 in _first_occurrences(merged, from0):
        i0[done:done + len(f)] = s0[np.minimum(p0, n0 - 1, out=p0)]
        done += len(f)
    del s0
    i1 = np.empty(size, dtype=np.int32)
    # the grid's steps are written over the front of merged, which the
    # blocks have already read
    done, last = 0, 0.0
    for a, block, f, p0 in _first_occurrences(merged, from0):
        at = slice(done, done + len(f))
        grid, end = block[f], block[-1]  # end: the grid's last mass so far
        p1 = np.subtract(f, p0, out=f)
        p1 += a
        i1[at] = s1[np.minimum(p1, n1 - 1, out=p1)]
        if len(f):
            merged[done] = grid[0] - last
            np.subtract(grid[1:], grid[:-1], out=merged[done + 1:at.stop])
        last = end
        done += len(f)
    return Coupling(pair, i0, i1, merged[:size])


@dataclass(frozen=True)
class SandwichVerdict:
    """Outcome of :func:`verify_sandwich`.

    ``lower <= conditional <= upper`` must hold to 1e-12; ``passed``
    records it, and the probabilities used are included for reporting.
    """

    lower: float
    conditional: float
    upper: float
    passed: bool
    prob_b: float
    prob_d_given_not_b: float


def _ratio(p: float) -> float:
    """Odds p/(1-p) with the endpoint mapped to +inf."""
    if p >= 1.0:
        return math.inf
    return p / (1.0 - p)


def _bound(prior_ratio: float, odds: float, base: float, vacuous_inf: bool) -> float:
    """prior_ratio * odds * base with the inf * 0 cases resolved.

    When ``base`` (the complementary conditional probability) is 0 the
    constraint degenerates: the lower bound collapses to 0, while the
    upper bound is vacuous (+inf) only if the odds are infinite.
    """
    if base == 0.0:
        return math.inf if (vacuous_inf and math.isinf(odds)) else 0.0
    return prior_ratio * odds * base


def verify_sandwich(probs, b_mask, cell_labels, d_mask,
                    p0: float, p1: float, tol: float = 1e-12) -> SandwichVerdict:
    """Check the two-sided conditional-probability bound on a finite space.

    Parameters
    ----------
    probs : array of float
        Outcome probabilities: non-negative, without NaN, summing to 1.
    b_mask : array of bool
        The event ``B``.
    cell_labels : array of int
        Partition of the space; outcomes with equal labels share a cell.
    d_mask : array of bool
        The event ``D``; must be a union of whole cells.
    p0, p1 : float
        Bounds with ``0 <= p0 <= p1 <= 1``; every positive-probability
        cell inside ``D`` must have ``P(B | cell)`` within ``[p0, p1]``.
    tol : float
        Verification tolerance: finite and non-negative.

    Returns
    -------
    SandwichVerdict

    Raises
    ------
    PreconditionViolation
        If ``D`` is not a union of cells, or a cell of ``D`` has
        ``P(B | cell)`` outside ``[p0, p1]``.
    DegenerateEvent
        If ``P(B)`` is 0 or 1.
    InvalidParameter
        If the inputs are malformed.
    """
    p = _probabilities("probs", probs)
    b = np.asarray(b_mask, dtype=bool)
    g = np.asarray(cell_labels)
    d = np.asarray(d_mask, dtype=bool)
    if not p.shape == b.shape == g.shape == d.shape:
        raise InvalidParameter("probs, b_mask, cell_labels, d_mask must be parallel 1-d arrays")
    p0, p1 = _probability("p0", p0), _probability("p1", p1)
    if p0 > p1:
        raise InvalidParameter(f"need 0 <= p0 <= p1 <= 1, got p0={p0}, p1={p1}")
    tol = _real("tol", tol)
    if not 0.0 <= tol < math.inf:
        raise InvalidParameter(f"tol must be finite and non-negative, got {tol}")

    prob_b = float(p[b].sum())
    if prob_b <= 0.0 or prob_b >= 1.0:
        raise DegenerateEvent(f"P(B)={prob_b} must be strictly inside (0, 1)")

    for label in np.unique(g):
        cell = g == label
        in_d = d[cell]
        if in_d.any() and not in_d.all():
            raise PreconditionViolation(f"cell {label!r} is split by D")
        cell_mass = float(p[cell].sum())
        if in_d.any() and cell_mass > 0:
            cond = float(p[cell & b].sum()) / cell_mass
            if cond < p0 - tol or cond > p1 + tol:
                raise PreconditionViolation(
                    f"P(B | cell {label!r}) = {cond} outside [{p0}, {p1}]")

    prob_bc = 1.0 - prob_b
    cond_d_b = float(p[d & b].sum()) / prob_b
    cond_d_bc = float(p[d & ~b].sum()) / prob_bc
    prior_ratio = prob_bc / prob_b

    lower = _bound(prior_ratio, _ratio(p0), cond_d_bc, vacuous_inf=False)
    upper = _bound(prior_ratio, _ratio(p1), cond_d_bc, vacuous_inf=True)

    passed = (lower - tol <= cond_d_b) and (cond_d_b <= upper + tol)
    return SandwichVerdict(lower=lower, conditional=cond_d_b, upper=upper,
                           passed=bool(passed), prob_b=prob_b,
                           prob_d_given_not_b=cond_d_bc)
