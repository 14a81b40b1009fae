"""Finite atomic laws on the extended real line.

The central object is :class:`ConditionalPair`, the one exact-law type:
it stores the two conditional laws of the root log-likelihood ratio on
one shared sorted support with two weight vectors.  The shared support is
what makes exact density evolution cheap: mixtures and couplings become
elementwise operations, and the per-atom identity ``w1 = w0 * exp(-value)``
ties the two weight vectors together.

Merging nearby atoms uses a fixed grid anchored at 0: each value is mapped
to cell ``floor(value/tol)``, and atoms sharing a cell are combined by
weighted mean.  Anchoring at 0 guarantees that atoms with opposite signs
are never merged, which preserves the total variation distance between the
two conditional laws (only sign-straddling merges can destroy it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .errors import InvalidParameter
from .channels import BinaryChannel

_POS_CELL = np.iinfo(np.int64).max
_NEG_CELL = np.iinfo(np.int64).min


@dataclass(frozen=True)
class ConditionalPair:
    """The two conditional root-LLR laws at one depth, on a shared support.

    ``w0[i]`` and ``w1[i]`` are the probabilities that the root LLR equals
    ``values[i]`` given root value 0 and 1 respectively.  Either vector may
    contain zeros: an atom can be reachable from one root value only.
    """

    depth: int
    values: np.ndarray
    w0: np.ndarray
    w1: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        a = np.asarray(self.w0, dtype=np.float64)
        b = np.asarray(self.w1, dtype=np.float64)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "w0", a)
        object.__setattr__(self, "w1", b)
        if not (v.shape == a.shape == b.shape) or v.ndim != 1:
            raise InvalidParameter("values, w0, w1 must be 1-d arrays of equal length")
        if self.depth < 1:
            raise InvalidParameter(f"depth must be >= 1, got {self.depth}")
        if np.any(np.isnan(v)) or np.any(np.diff(v) <= 0):
            raise InvalidParameter("shared support must be strictly increasing, without NaN")
        if np.any(a < 0) or np.any(b < 0):
            raise InvalidParameter("weights must be non-negative")
        for name, w in (("w0", a), ("w1", b)):
            if abs(float(w.sum()) - 1.0) > 1e-10:
                raise InvalidParameter(f"{name} sums to {w.sum()}, not 1")

    def __len__(self) -> int:
        return len(self.values)

    def posterior_mean_residual(self, c: BinaryChannel) -> float:
        """|E[posterior] - pi0| under the stationary mixture of the two laws.

        The posterior of root value 0 is a bounded function of the LLR, so
        this is finite even with infinite atoms; it should vanish at every
        depth (the estimator is unbiased for the prior).  Only atoms with
        positive mixture weight count (see :meth:`posterior_mixture`).
        """
        a, mix = self.posterior_mixture(c)
        return abs(float(a @ mix) - c.pi0)

    def posterior_mixture(self, c: BinaryChannel) -> tuple[np.ndarray, np.ndarray]:
        """Root-0 posteriors and stationary-mixture weights of the atoms.

        Returns ``(a, mix)`` over the atoms of positive mixture weight only:
        where a stationary weight vanishes, the posterior at the opposite
        infinite atom is undefined.
        """
        mix = c.pi0 * self.w0 + c.pi1 * self.w1
        live = mix > 0
        return posterior_from_llr(self.values[live], c), mix[live]

    def dominance_violation(self) -> float:
        """Largest violation of the one-sided weight ordering.

        For atoms left of 0 the root-0 weight should not exceed the root-1
        weight, and symmetrically right of 0.  Returns the worst excess
        (0.0 when the ordering holds exactly).
        """
        neg = self.values < 0
        pos = self.values > 0
        worst = 0.0
        if np.any(neg):
            worst = max(worst, float(np.max(self.w0[neg] - self.w1[neg], initial=0.0)))
        if np.any(pos):
            worst = max(worst, float(np.max(self.w1[pos] - self.w0[pos], initial=0.0)))
        return worst


def grid_merge(values: np.ndarray, *weight_vectors: np.ndarray, tol: float):
    """Merge atoms that share a grid cell of width ``tol`` anchored at 0.

    Parameters
    ----------
    values : ndarray
        Atom locations, any order, ``+-inf`` allowed.
    *weight_vectors : ndarray
        One or more parallel weight vectors; merged jointly so all vectors
        keep a shared support.
    tol : float
        Cell width.  The merged value is the mean of the cell's members
        weighted by the sum of all weight vectors; infinite atoms keep
        their value.

    Returns
    -------
    (values, *weights) : tuple of ndarray
        Sorted strictly-increasing support and the merged weight vectors.

    Raises
    ------
    InvalidParameter
        If ``tol`` is not positive, or a finite ``value/tol`` leaves the
        int64 cell range (the cell index would wrap around).
    """
    if tol <= 0:
        raise InvalidParameter(f"merge tolerance must be positive, got {tol}")
    v = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(v)
    cells = np.empty(len(v), dtype=np.int64)
    # the int64 extremes stay reserved for the infinite atoms
    reach = float(np.max(np.abs(v), where=finite, initial=0.0))
    if reach / tol >= 2.0 ** 63:
        raise InvalidParameter(
            f"atom value {reach:g} is beyond the int64 cell range at merge "
            f"tolerance {tol:g}")
    # floor anchors the grid at 0 so cells never straddle the sign change
    cells[finite] = np.floor(v[finite] / tol).astype(np.int64)
    cells[np.isposinf(v)] = _POS_CELL
    cells[np.isneginf(v)] = _NEG_CELL

    order = np.argsort(cells, kind="stable")
    cs = cells[order]
    boundary = np.empty(len(cs), dtype=bool)
    if len(cs):
        boundary[0] = True
        boundary[1:] = cs[1:] != cs[:-1]
    gid = np.cumsum(boundary) - 1
    n_groups = int(gid[-1]) + 1 if len(cs) else 0

    # gather each weight vector once, for its cell sums and the per-atom total
    merged_w = []
    total = np.zeros(n_groups)
    combined = np.zeros(len(cs))
    for w in weight_vectors:
        ws = np.asarray(w, dtype=np.float64)[order]
        merged_w.append(np.bincount(gid, weights=ws, minlength=n_groups))
        total += merged_w[-1]
        combined += ws
        del ws  # at most one gathered copy is alive at a time
    vs = v[order]
    finite_s = finite[order]
    # weighted mean of finite values; groups are sign-pure so no cancellation
    wsafe = np.where(total > 0, total, 1.0)
    num = np.bincount(gid, weights=np.where(finite_s, vs, 0.0) * combined,
                      minlength=n_groups)
    mv = num / wsafe
    # groups holding an infinite atom keep the infinite value
    first_idx = np.flatnonzero(boundary)
    group_cell = cs[first_idx]
    mv = np.where(group_cell == _POS_CELL, np.inf, mv)
    mv = np.where(group_cell == _NEG_CELL, -np.inf, mv)
    # zero-total groups (possible only with all-zero weights) keep a representative value
    empty = total == 0
    if np.any(empty):
        rep = vs[first_idx]
        mv = np.where(empty, rep, mv)
    # values within the identity tolerance of 0 are canonically 0; without
    # the snap, rounding residue (~1e-16) can put a symmetric atom on the
    # wrong side of the sign barrier
    mv[np.abs(mv) < 1e-12] = 0.0

    order2 = np.argsort(mv, kind="stable")
    mv = mv[order2]
    merged_w = [w[order2] for w in merged_w]
    if np.any(np.diff(mv) <= 0):
        # collisions across distinct cells (weighted means landed together):
        # collapse again with ties resolved by exact equality
        mv, merged_w = _collapse_exact(mv, merged_w)
    return (mv, *merged_w)


def _collapse_exact(values: np.ndarray, weight_vectors: list[np.ndarray]):
    """Combine exactly-equal consecutive values (post-merge tie cleanup)."""
    boundary = np.empty(len(values), dtype=bool)
    boundary[0] = True
    boundary[1:] = np.diff(values) > 0
    gid = np.cumsum(boundary) - 1
    n = int(gid[-1]) + 1
    out_v = values[np.flatnonzero(boundary)]
    out_w = [np.bincount(gid, weights=w, minlength=n) for w in weight_vectors]
    return out_v, out_w


def posterior_from_llr(x, c: BinaryChannel):
    """Posterior probability of root value 0 from the root LLR.

    The map is ``a = sigmoid(x + ln(pi0/pi1))``: a monotone bijection from
    the extended reals onto [0, 1] with ``0 -> pi0``, ``+inf -> 1`` and
    ``-inf -> 0``.  Vectorized over ``x``.
    """
    arr = np.asarray(x, dtype=np.float64)
    out = expit(arr + c.log_prior_ratio)
    if np.ndim(x) == 0:
        return float(out)
    return out


def llr_from_posterior(a, c: BinaryChannel):
    """Inverse of :func:`posterior_from_llr`: ``x = logit(a) - ln(pi0/pi1)``.

    Vectorized over ``a``; endpoints map to ``+-inf``.
    """
    arr = np.asarray(a, dtype=np.float64)
    if np.any((arr < 0) | (arr > 1)):
        raise InvalidParameter("posterior values must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        out = logit(arr) - c.log_prior_ratio
    if np.ndim(a) == 0:
        return float(out)
    return out
