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
sorted order is chosen for determinism.  A pair is kept as two positions
in the pair's support, not as two values: the construction already has
them, and each marginal check is then one ``bincount`` instead of a
search of the support for every pair.

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
    """

    pair: ConditionalPair
    i0: np.ndarray
    i1: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        if not isinstance(self.pair, ConditionalPair):
            raise InvalidParameter("a coupling couples a ConditionalPair")
        a, b = np.asarray(self.i0), np.asarray(self.i1)
        w = _probabilities("coupling weight", self.weight, held=_diagonal_mass(self.pair))
        if not (a.shape == b.shape == w.shape and a.dtype.kind in "iu" and b.dtype.kind in "iu"):
            raise InvalidParameter("positions i0, i1 must be integer arrays as long as weight")
        a, b = a.astype(np.intp, copy=False), b.astype(np.intp, copy=False)
        n = len(self.pair)
        if len(a) and (min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= n):
            raise InvalidParameter(f"positions must lie in [0, {n})")
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
        of positive mass in support order, then the crossing pairs."""
        d = self.diagonal
        live = d > 0
        at = self.pair.values[live]
        return (np.concatenate((at, self.y0)), np.concatenate((at, self.y1)),
                np.concatenate((d[live], self.weight)))

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

        Raises :class:`InvalidParameter` unless ``pair`` has the support of
        the coupled pair.
        """
        v = self.pair.values
        if not (pair.values is v or np.array_equal(pair.values, v)):
            raise InvalidParameter("coupling support is not the pair's support")
        m = np.empty(len(v))  # one buffer for both marginals
        res = []
        for at, law in ((self.i0, pair.w0), (self.i1, pair.w1)):
            np.minimum(self.pair.w0, self.pair.w1, out=m)  # the diagonal
            m -= law
            m += np.bincount(at, weights=self.weight, minlength=len(v))
            res.append(float(np.abs(m, out=m).max()))
        return res[0], res[1]

    def mean_difference(self) -> float:
        """E[y0 - y1], to which the diagonal adds 0; +inf when an infinite
        atom carries crossing weight.  Meaningful when :meth:`crossing_ok`,
        where every ``y0 - y1`` is ``>= 0``."""
        live = self.weight > 0
        return float((self.y0[live] - self.y1[live]) @ self.weight[live])


def _diagonal_mass(pair: ConditionalPair) -> float:
    """``sum(min(w0, w1))``, the coupling's diagonal mass, formed 65536
    atoms at a time so that no full-size array of the diagonal is made."""
    block = 1 << 16
    buf = np.empty(min(block, len(pair)))
    total = 0.0
    for i in range(0, len(pair), block):
        a, b = pair.w0[i:i + block], pair.w1[i:i + block]
        total += float(np.minimum(a, b, out=buf[:len(a)]).sum())
    return total


def _compensated_cumsum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Prefix sums of a non-negative ``x``, each within about an ulp.

    ``np.cumsum`` plus the running sum of each step's exact rounding error
    (Knuth's TwoSum: for ``c = prev + x``, ``b = c - prev`` and the error
    is ``(prev - (c - b)) + (x - b)``), kept non-decreasing.  A plain
    ``cumsum`` over n entries drifts by up to ``n`` ulps.  The sums are
    written to ``out`` when it is given.
    """
    c = np.cumsum(x, out=out)
    b = np.subtract(c[1:], c[:-1])
    err = np.subtract(c[1:], b)
    np.subtract(c[:-1], err, out=err)
    np.subtract(x[1:], b, out=b)
    err += b
    c[1:] += np.cumsum(err, out=err)
    return np.maximum.accumulate(c, out=c)


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
        surplus of law 0 with the negative-side surplus of law 1.
    """
    w0, w1 = pair.w0, pair.w1
    # the surplus of law 0 (v > 0) sits where w0 > w1, that of law 1
    # (v < 0) where w1 > w0; with either empty, the diagonal is all
    s0 = np.flatnonzero(w0 > w1)
    s1 = np.flatnonzero(w1 > w0)
    if len(s0) == 0 or len(s1) == 0:
        return Coupling(pair, s0[:0], s1[:0], np.empty(0))

    # comonotone pairing on the union of the residual cumulative masses:
    # a stable sort merges the two sorted runs, and the first occurrence of
    # each mass m has before it exactly the entries of c0 and of c1 below m
    n0 = len(s0)
    merged = np.empty(n0 + len(s1))
    x = w0[s0]
    x -= w1[s0]
    _compensated_cumsum(x, out=merged[:n0])  # c0
    x = w1[s1]
    x -= w0[s1]
    _compensated_cumsum(x, out=merged[n0:])  # c1
    del x
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    first = np.flatnonzero(np.concatenate(([True], merged[1:] != merged[:-1])))
    grid = merged[first]
    del merged
    # one pair per segment of grid, which rises strictly from above 0, so
    # each carries mass
    w = grid.copy()
    w[1:] -= grid[:-1]
    del grid
    # each run keeps its order in the merge, so the entry o of the merge
    # at a first occurrence f has below it o entries of c0 when o < n0, and
    # o - n0 entries of c1 otherwise; the rest of the f entries below it
    # are of the other run.  With d = f - o, which is >= 0 in the first
    # case and <= 0 in the second, c0 has min(o, n0) + min(d, 0) entries
    # below it and c1 the rest
    p0 = order[first]
    del order
    d = first - p0
    np.minimum(p0, n0, out=p0)
    p0 += np.minimum(d, 0, out=d)
    del d
    first -= p0  # the entries of c1 below each mass
    # past the end of the shorter run (totals that differ by rounding),
    # the last atom of that run takes the remainder
    i0 = np.take(s0, np.minimum(p0, len(s0) - 1, out=p0))
    del p0, s0
    i1 = np.take(s1, np.minimum(first, len(s1) - 1, out=first))
    del first, s1
    return Coupling(pair, i0, i1, w)


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
