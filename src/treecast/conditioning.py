"""Monotone coupling of the two conditional laws, and the finite-space
conditional-probability sandwich that underpins it.

The coupling puts as much mass as possible on the diagonal (the two laws
agree there) and pairs the leftover mass so that every off-diagonal pair
straddles 0 in LLR coordinates: the root-0 law's surplus lives on the
non-negative side, the root-1 law's surplus on the non-positive side, a
consequence of the per-atom weight ordering.  Off the diagonal the pairing
is the sorted (comonotone) transport between the two residuals; any
measurable pairing would satisfy the same marginal and crossing
guarantees, so sorted order is chosen for determinism.

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

from .errors import (DegenerateEvent, DominanceViolation, InvalidParameter,
                     PreconditionViolation)
from .channels import BinaryChannel
from .atoms import ConditionalPair

DOMINANCE_TOL = 1e-10  # largest admissible violation of the weight ordering


@dataclass(frozen=True)
class Coupling:
    """Joint law of a pair ``(y0, y1)`` with prescribed marginals.

    ``y0``, ``y1`` and ``weight`` are parallel arrays; positive-weight
    pairs satisfy ``y0 == y1`` or ``y1 <= 0 <= y0``.
    """

    y0: np.ndarray
    y1: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.y0, dtype=np.float64)
        b = np.asarray(self.y1, dtype=np.float64)
        w = np.asarray(self.weight, dtype=np.float64)
        object.__setattr__(self, "y0", a)
        object.__setattr__(self, "y1", b)
        object.__setattr__(self, "weight", w)
        if not (a.shape == b.shape == w.shape) or a.ndim != 1:
            raise InvalidParameter("y0, y1, weight must be 1-d arrays of equal length")
        if np.any(w < 0):
            raise InvalidParameter("coupling weights must be non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-10:
            raise InvalidParameter(f"coupling weights sum to {w.sum()}, not 1")

    def crossing_ok(self) -> bool:
        """True when every positive-weight pair is diagonal or straddles 0."""
        live = self.weight > 0
        diag = self.y0[live] == self.y1[live]
        straddle = (self.y1[live] <= 0) & (self.y0[live] >= 0)
        return bool(np.all(diag | straddle))

    def marginal_residuals(self, pair: ConditionalPair) -> tuple[float, float]:
        """Worst per-atom deviation of each marginal from the pair's laws."""
        m0 = _project(self.y0, self.weight, pair.values)
        m1 = _project(self.y1, self.weight, pair.values)
        return (float(np.abs(m0 - pair.w0).max()),
                float(np.abs(m1 - pair.w1).max()))

    def mean_difference(self) -> float:
        """E[y0 - y1]; +inf when an infinite atom carries weight."""
        live = self.weight > 0
        diff = self.y0[live] - self.y1[live]
        if np.any(~np.isfinite(diff)):
            return math.inf
        return float(diff @ self.weight[live])


def _project(points: np.ndarray, weights: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Accumulate weights of ``points`` onto their positions in ``support``."""
    idx = np.searchsorted(support, points)
    idx = np.clip(idx, 0, len(support) - 1)
    # +-inf atoms compare exactly, finite atoms must match the support
    if np.any(support[idx] != points):
        raise InvalidParameter("coupling support is not a subset of the pair support")
    return np.bincount(idx, weights=weights, minlength=len(support))


def build_coupling(pair: ConditionalPair, c: BinaryChannel) -> Coupling:
    """Construct the diagonal-plus-crossing coupling of a conditional pair.

    Parameters
    ----------
    pair : ConditionalPair
        Must satisfy the per-atom weight ordering up to
        :data:`DOMINANCE_TOL`.
    c : BinaryChannel
        Unused by the construction itself (the sign barrier sits at LLR 0
        in every coordinate system) but kept for interface symmetry and
        future posterior-coordinate output.

    Returns
    -------
    Coupling
        Diagonal mass ``min(w0, w1)`` at every atom; residual mass paired
        in sorted order between the non-negative-side surplus of law 0 and
        the non-positive-side surplus of law 1.

    Raises
    ------
    DominanceViolation
        If the weight ordering fails beyond :data:`DOMINANCE_TOL` (an
        upstream evolution bug, not a fixable input).
    """
    violation = pair.dominance_violation()
    if violation > DOMINANCE_TOL:
        raise DominanceViolation(
            f"per-atom weight ordering violated by {violation:.3e} "
            f"(tolerance {DOMINANCE_TOL:.1e})")

    v, w0, w1 = pair.values, pair.w0, pair.w1
    diag = np.minimum(w0, w1)
    r0 = w0 - diag  # law-0 surplus, supported on v >= 0 (up to tolerance)
    r1 = w1 - diag  # law-1 surplus, supported on v <= 0

    i0 = np.flatnonzero(r0 > 0)
    i1 = np.flatnonzero(r1 > 0)
    if len(i0) == 0 or len(i1) == 0:
        live = diag > 0
        d = diag[live] / diag[live].sum()
        return Coupling(y0=v[live], y1=v[live], weight=d)

    # comonotone pairing via the union of the residual cumulative masses
    c0 = np.cumsum(r0[i0])
    c1 = np.cumsum(r1[i1])
    grid = np.union1d(c0, c1)
    seg = np.diff(np.concatenate(([0.0], grid)))
    pos = np.searchsorted(c0, grid - 1e-300, side="left")
    a_idx = i0[np.clip(pos, 0, len(i0) - 1)]
    pos = np.searchsorted(c1, grid - 1e-300, side="left")
    b_idx = i1[np.clip(pos, 0, len(i1) - 1)]
    keep = seg > 0
    off_y0 = v[a_idx[keep]]
    off_y1 = v[b_idx[keep]]
    off_w = seg[keep]

    live = diag > 0
    y0 = np.concatenate((v[live], off_y0))
    y1 = np.concatenate((v[live], off_y1))
    w = np.concatenate((diag[live], off_w))
    w = w / w.sum()
    return Coupling(y0=y0, y1=y1, weight=w)


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
        Outcome probabilities, summing to 1.
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
        Verification tolerance.

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
    p = np.asarray(probs, dtype=np.float64)
    b = np.asarray(b_mask, dtype=bool)
    g = np.asarray(cell_labels)
    d = np.asarray(d_mask, dtype=bool)
    if not (p.shape == b.shape == g.shape == d.shape) or p.ndim != 1:
        raise InvalidParameter("probs, b_mask, cell_labels, d_mask must be parallel 1-d arrays")
    if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 1e-10:
        raise InvalidParameter("probs must be non-negative and sum to 1")
    if not (0.0 <= p0 <= p1 <= 1.0):
        raise InvalidParameter(f"need 0 <= p0 <= p1 <= 1, got p0={p0}, p1={p1}")

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
