"""Finite atomic laws on the extended real line.

The central object is :class:`ConditionalPair`, the one exact-law type:
it stores the two conditional laws of the root log-likelihood ratio on
one shared sorted support with two weight vectors.  The shared support is
what makes exact density evolution cheap: mixtures and couplings become
elementwise operations, and the per-atom identity ``w1 = w0 * exp(-value)``
ties the two weight vectors together.

Merging nearby atoms sorts them once and combines each run of atoms whose
consecutive gaps are below the tolerance by weighted mean.  A run never
crosses from negative to non-negative values, so atoms with opposite signs
are never merged, which preserves the total variation distance between the
two conditional laws (only sign-straddling merges can destroy it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter
from .channels import BinaryChannel, _count, _probabilities


@dataclass(frozen=True)
class ConditionalPair:
    """The two conditional root-LLR laws at one depth, on a shared support.

    ``w0[i]`` and ``w1[i]`` are the probabilities that the root LLR equals
    ``values[i]`` given root value 0 and 1 respectively.  Either vector may
    contain zeros: an atom can be reachable from one root value only.
    ``depth`` must be an integer >= 1, the support strictly increasing and
    each weight vector non-negative with sum 1; a NaN atom or weight is refused.
    """

    depth: int
    values: np.ndarray
    w0: np.ndarray
    w1: np.ndarray

    def __post_init__(self):
        depth, v = _count("depth", self.depth), np.asarray(self.values, dtype=np.float64)
        a, b = _probabilities("w0", self.w0), _probabilities("w1", self.w1)
        for name, x in (("depth", depth), ("values", v), ("w0", a), ("w1", b)):
            object.__setattr__(self, name, x)
        if not v.shape == a.shape == b.shape:
            raise InvalidParameter("values, w0, w1 must be 1-d arrays of equal length")
        if np.any(np.isnan(v)) or np.any(np.diff(v) <= 0):
            raise InvalidParameter("shared support must be strictly increasing, without NaN")

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
    """Merge each run of sorted atoms whose consecutive gaps are below ``tol``.

    Parameters
    ----------
    values : ndarray
        Atom locations, any order, ``+-inf`` allowed.  Values within 1e-12
        of 0 are first set to exactly 0.
    *weight_vectors : ndarray
        One or more parallel weight vectors; merged jointly so all vectors
        keep a shared support.
    tol : float
        Run gap.  A run never holds atoms of both signs (negative and
        non-negative), and it may be wider than ``tol`` when it chains
        several close gaps.  The merged value is the mean of the run's
        finite members weighted by the sum of all weight vectors, clipped
        to the run's range, so infinite atoms keep their value.

    Returns
    -------
    (values, *weights) : tuple of ndarray
        Strictly increasing support, consecutive atoms of one sign at least
        ``tol`` apart, and the merged weight vectors.

    Raises
    ------
    InvalidParameter
        If ``tol`` is not positive or a value is NaN.
    """
    v = _snap(values)
    # numpy's default sort is not stable; equal values are put back in
    # index order, so the permutation is the stable one
    order = np.argsort(v)
    vs = v[order]
    del v
    eq = vs[1:] == vs[:-1]
    if eq.any():
        tied = np.flatnonzero(np.concatenate(([False], eq)) | np.concatenate((eq, [False])))
        sub = order[tied]
        order[tied] = sub[np.lexsort((sub, vs[tied]))]
    edge = _run_edges(vs, tol)
    gid = np.cumsum(edge[:-1])
    gid -= 1
    runs = np.count_nonzero(edge[:-1])

    # gather each weight vector once, for its run sums and the per-atom total
    merged_w = []
    combined = np.zeros(len(vs))
    for w in weight_vectors:
        ws = np.asarray(w, dtype=np.float64)[order]
        merged_w.append(np.bincount(gid, weights=ws, minlength=runs))
        combined += ws
        del ws  # at most one gathered copy is alive at a time
    del order
    combined *= np.where(np.isfinite(vs), vs, 0.0)
    num = np.bincount(gid, weights=combined, minlength=runs)
    del gid, combined
    total = np.zeros(runs)
    for mw in merged_w:
        total += mw
    total[~(total > 0)] = 1.0
    mv = np.divide(num, total, out=total)  # bincount of no atoms is int64
    del num
    # the clip keeps infinite runs infinite, gives a weightless run a member's
    # value, and keeps the merged values strictly increasing
    np.clip(mv, vs[edge[:-1]], vs[edge[1:]], out=mv)
    return (mv, *merged_w)


def run_count(values: np.ndarray, tol: float) -> int:
    """Number of atoms :func:`grid_merge` would return for ``values``.

    Applies the same snap and run rule to the sorted values alone, with no
    weights, so a caller can size a merge before forming its weights.
    """
    return int(_run_edges(np.sort(_snap(values)), tol)[:-1].sum())


def _snap(values) -> np.ndarray:
    """``values`` as float64, with those within 1e-12 of 0 set to exactly 0.

    Without the snap, rounding residue (~1e-16) can put a symmetric atom on
    the wrong side of the sign barrier.
    """
    v = np.asarray(values, dtype=np.float64)
    return np.where(np.abs(v) < 1e-12, 0.0, v)


def _run_edges(vs: np.ndarray, tol: float) -> np.ndarray:
    """The run rule on sorted snapped values ``vs``.

    ``edge[i]`` is true where a run starts at atom ``i`` and the previous
    one ends at ``i - 1`` (``edge`` has one more entry than ``vs``, and its
    first and last are true).  A run starts at every gap of at least
    ``tol`` and wherever the values turn from negative to non-negative;
    the sign edge preserves the total variation between the conditional
    laws, and since ``inf - inf`` is NaN, equal infinities stay in one run.
    """
    if tol <= 0:
        raise InvalidParameter(f"merge tolerance must be positive, got {tol}")
    if len(vs) and np.isnan(vs[-1]):  # NaN sorts last
        raise InvalidParameter("atom values must not be NaN")
    edge = np.ones(len(vs) + 1, dtype=bool)
    with np.errstate(invalid="ignore"):
        edge[1:-1] = (np.diff(vs) >= tol) | ((vs[:-1] < 0) & (vs[1:] >= 0))
    return edge


def posterior_from_llr(x, c: BinaryChannel):
    """Posterior probability of root value 0 from the root LLR.

    The map is ``a = sigmoid(x + ln(pi0/pi1))``: a monotone bijection from
    the extended reals onto [0, 1] with ``0 -> pi0``, ``+inf -> 1`` and
    ``-inf -> 0``.  Vectorized over ``x``.
    """
    arr = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # exp(+inf) = inf gives the posterior 0
        out = 1.0 / (1.0 + np.exp(-(arr + c.log_prior_ratio)))
    if np.ndim(x) == 0:
        return float(out)
    return out
