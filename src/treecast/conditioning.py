"""Monotone coupling of the two conditional laws, and the finite-space
conditional-probability sandwich that underpins it.

The coupling puts as much mass as possible on the diagonal (the two laws
agree there) and pairs the leftover mass so that every off-diagonal pair
straddles 0 in LLR coordinates: the root-0 law's surplus lives on the
positive side, the root-1 law's surplus on the negative side, since
``w1 = w0 * exp(-value)`` is below ``w0`` exactly where the value is
positive.  Off the diagonal the pairing
is the sorted (comonotone) transport between the two residuals; any
measurable pairing would satisfy the same marginal and crossing
guarantees, so sorted order is chosen for determinism.  A pair is kept as
two positions in the laws' shared support, not as two values: the
construction already has them, and each marginal check is then one
``bincount`` instead of a search of the support for every pair.

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
from .channels import BinaryChannel, _probabilities, _real
from .atoms import ConditionalPair


@dataclass(frozen=True)
class Coupling:
    """Joint law of a pair ``(y0, y1)`` with prescribed marginals.

    Pairs are held as positions in the sorted ``support`` they came from:
    pair ``j`` carries ``weight[j]`` at ``(y0[j], y1[j]) = (support[i0[j]],
    support[i1[j]])``, so each marginal is one ``bincount`` of a position
    array, with no search of the support.  Positive-weight pairs satisfy
    ``i0 == i1`` or ``y1 <= 0 <= y0``.  The weights must be non-negative
    (a NaN weight is refused) and sum to 1.
    """

    support: np.ndarray
    i0: np.ndarray
    i1: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.support, dtype=np.float64)
        a, b = np.asarray(self.i0), np.asarray(self.i1)
        w = _probabilities("coupling weight", self.weight)
        if not (a.shape == b.shape == w.shape) or s.ndim != 1:
            raise InvalidParameter("need a 1-d support and 1-d i0, i1, weight of equal length")
        if not (np.issubdtype(a.dtype, np.integer) and np.issubdtype(b.dtype, np.integer)):
            raise InvalidParameter("positions i0, i1 must be integer arrays")
        a, b = a.astype(np.intp, copy=False), b.astype(np.intp, copy=False)
        if min(a.min(), b.min()) < 0 or max(a.max(), b.max()) >= len(s):
            raise InvalidParameter(f"positions must lie in [0, {len(s)})")
        for name, x in (("support", s), ("i0", a), ("i1", b), ("weight", w)):
            object.__setattr__(self, name, x)

    @property
    def y0(self) -> np.ndarray:
        return self.support[self.i0]

    @property
    def y1(self) -> np.ndarray:
        return self.support[self.i1]

    def crossing_ok(self) -> bool:
        """True when every positive-weight pair is diagonal or straddles 0."""
        off = np.flatnonzero((self.i0 != self.i1) & (self.weight > 0))
        return bool(np.all(self.support[self.i1[off]] <= 0)
                    and np.all(self.support[self.i0[off]] >= 0))

    def marginal_residuals(self, pair: ConditionalPair) -> tuple[float, float]:
        """Worst per-atom deviation of each marginal from the pair's laws.

        Raises :class:`InvalidParameter` unless ``support`` is the pair's.
        """
        if not (self.support is pair.values or np.array_equal(self.support, pair.values)):
            raise InvalidParameter("coupling support is not the pair's support")
        n = len(self.support)
        m0 = np.bincount(self.i0, weights=self.weight, minlength=n)
        m1 = np.bincount(self.i1, weights=self.weight, minlength=n)
        return (float(np.abs(m0 - pair.w0).max()),
                float(np.abs(m1 - pair.w1).max()))

    def mean_difference(self) -> float:
        """E[y0 - y1]; +inf when an infinite atom carries weight."""
        diff = self.support[self.i0]
        with np.errstate(invalid="ignore"):  # inf - inf: dropped if weightless, else +inf
            diff -= self.support[self.i1]
        weight = self.weight
        live = weight > 0
        if not live.all():
            diff, weight = diff[live], weight[live]
        if not np.isfinite(diff).all():
            return math.inf
        return float(diff @ weight)


def build_coupling(pair: ConditionalPair, c: BinaryChannel) -> Coupling:
    """Construct the diagonal-plus-crossing coupling of a conditional pair.

    Parameters
    ----------
    pair : ConditionalPair
    c : BinaryChannel
        Unused by the construction itself (the sign barrier sits at LLR 0
        in every coordinate system) but kept for interface symmetry and
        future posterior-coordinate output.

    Returns
    -------
    Coupling
        On ``pair.values`` itself (the same array): diagonal mass
        ``min(w0, w1)`` at every atom; residual mass paired in sorted
        order between the positive-side surplus of law 0 and the
        negative-side surplus of law 1.
    """
    v, w0, w1 = pair.values, pair.w0, pair.w1
    # the diagonal carries min(w0, w1); the surplus of law 0 (v > 0) sits
    # where w0 > w1, that of law 1 (v < 0) where w1 > w0
    live = np.flatnonzero((w0 > 0) & (w1 > 0))
    s0 = np.flatnonzero(w0 > w1)
    s1 = np.flatnonzero(w1 > w0)
    if len(s0) == 0 or len(s1) == 0:
        d = np.minimum(w0[live], w1[live])
        return Coupling(support=v, i0=live, i1=live, weight=d / d.sum())

    # comonotone pairing on the union of the residual cumulative masses:
    # a stable sort merges the two sorted runs, and the first occurrence of
    # each mass m has before it exactly the entries of c0 and of c1 below m
    c0 = np.cumsum(w0[s0] - w1[s0])
    c1 = np.cumsum(w1[s1] - w0[s1])
    merged = np.concatenate((c0, c1))
    del c1
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    from0 = order < len(c0)
    del order, c0
    first = np.flatnonzero(np.concatenate(([True], merged[1:] != merged[:-1])))
    grid = merged[first]
    del merged
    p0 = np.cumsum(from0)[first] - from0[first]
    del from0
    # the pairs are written in place: the diagonal first, then one pair per
    # segment of grid, which rises strictly from above 0, so each carries mass
    n_live = len(live)
    size = n_live + len(grid)
    w = np.empty(size)
    w[:n_live] = w0[live]
    np.minimum(w[:n_live], w1[live], out=w[:n_live])
    w[n_live] = grid[0]
    np.subtract(grid[1:], grid[:-1], out=w[n_live + 1:])
    del grid
    w /= w.sum()
    # past the end of the shorter run (totals that differ by rounding),
    # the last atom of that run takes the remainder
    first -= p0  # the entries of c1 below each mass
    i0 = np.empty(size, dtype=np.intp)
    i0[:n_live] = live
    np.take(s0, np.minimum(p0, len(s0) - 1, out=p0), out=i0[n_live:])
    del p0, s0
    i1 = np.empty(size, dtype=np.intp)
    i1[:n_live] = live
    np.take(s1, np.minimum(first, len(s1) - 1, out=first), out=i1[n_live:])
    return Coupling(support=v, i0=i0, i1=i1, weight=w)


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
    if not (0.0 <= p0 <= p1 <= 1.0):
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
