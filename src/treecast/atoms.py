"""Finite atomic laws on the extended real line.

The central object is :class:`ConditionalPair`, the one exact-law type:
it holds the two conditional laws of the root log-likelihood ratio on one
shared sorted support.  Only the root-0 weights and the root-1 mass at
``-inf`` are given; the root-1 weights follow from them through the
per-atom identity ``w1 = w0 * exp(-value)``, which every LLR law obeys.
The shared support is what makes exact density evolution cheap: mixtures
and couplings become elementwise operations.

Merging nearby atoms sorts them once and combines each run of atoms whose
consecutive gaps are below the tolerance by weighted mean.  A run never
crosses from negative to non-negative values, so atoms with opposite signs
are never merged, which preserves the total variation distance between the
two conditional laws (only sign-straddling merges can destroy it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateChannel, InvalidParameter
from .channels import _TINY, BinaryChannel, _count, _probabilities, _probability

_LOG_TINY = math.log(_TINY)  # a weight below exp(_LOG_TINY) is subnormal


@dataclass(frozen=True)
class ConditionalPair:
    """The two conditional root-LLR laws at one depth, on a shared support.

    ``w0[i]`` is the probability that the root LLR equals ``values[i]``
    given root value 0, and ``q`` the probability that it is ``-inf``
    given root value 1.  The root-1 weights are not given but derived,
    once, as the attribute ``w1``: dP1/dP0 = exp(-L) gives
    ``w1 = w0 * exp(-values)`` on finite atoms, 0 at ``+inf`` and ``q`` at
    ``-inf``, where root value 0 puts no mass.  ``depth`` must be an
    integer >= 1, the support strictly increasing, ``w0`` non-negative
    with sum 1, and so must the derived ``w1`` be: a ``w0`` and ``q`` of
    two different laws are refused, and so is a NaN atom or weight.  Once
    checked, the finite part of ``w1`` is scaled to its exact mass
    ``1 - q``, a factor within 1e-10 of 1.

    Raises :class:`DegenerateChannel` for a finite atom below ``ln(tiny)``
    (about -708.4): its ``w0`` is subnormal or 0 in float64, so ``w1``
    could not be derived from it.
    """

    depth: int
    values: np.ndarray
    w0: np.ndarray
    q: float = 0.0
    w1: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        depth, v = _count("depth", self.depth), np.asarray(self.values, dtype=np.float64)
        a, q = _probabilities("w0", self.w0), _probability("q", self.q)
        if v.shape != a.shape:
            raise InvalidParameter("values and w0 must be 1-d arrays of equal length")
        if np.any(np.isnan(v)) or np.any(np.diff(v) <= 0):
            raise InvalidParameter("shared support must be strictly increasing, without NaN")
        # w0 sums to 1, so there is an atom, and -inf can only be the first;
        # with no root-0 mass there, another atom follows it
        sure = int(v[0] == -np.inf)
        if (a[0] > 0) if sure else (q > 0):
            raise InvalidParameter("the -inf atom holds root-1 mass q only, and q > 0 needs one")
        if v[sure] < _LOG_TINY:
            raise DegenerateChannel(
                f"atom {v[sure]:.6g} lies below ln(tiny) = {_LOG_TINY:.1f}, where w0 cannot "
                "hold its root-1 weight: the channel is too close to deterministic")
        # exp(-inf) = 0 at +inf; the -inf atom's 0 * inf is replaced by q
        w1 = np.negative(v)
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(w1, out=w1)
            w1 *= a
        if sure:
            w1[0] = q
        _probabilities("w1", w1)
        # the finite part is then scaled to its exact mass 1 - q: rounding in
        # a value moves its weight by ~|value| ulps, and fed back through the
        # child mixtures an error in the total would grow up to k-fold a depth
        finite = w1[sure:]
        total = finite.sum()
        if total > 0:
            finite *= (1.0 - q) / total
        for name, x in (("depth", depth), ("values", v), ("w0", a), ("q", q), ("w1", w1)):
            object.__setattr__(self, name, x)

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


def grid_merge(values: np.ndarray, weights: np.ndarray, tol: float):
    """Merge each run of sorted atoms whose consecutive gaps are below ``tol``.

    Parameters
    ----------
    values : ndarray
        Atom locations, any order, ``+-inf`` allowed.  Values within 1e-12
        of 0 are first set to exactly 0.
    weights : ndarray
        The atoms' weights, summed over each run.
    tol : float
        Run gap.  A run never holds atoms of both signs (negative and
        non-negative), and it may be wider than ``tol`` when it chains
        several close gaps.  The merged value is the weighted mean of the
        run's finite members, clipped to the run's range, so infinite
        atoms keep their value.

    Returns
    -------
    (values, weights) : tuple of ndarray
        Strictly increasing support, consecutive atoms of one sign at least
        ``tol`` apart, and the merged weights.

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

    ws = np.asarray(weights, dtype=np.float64)[order]
    del order
    merged = np.bincount(gid, weights=ws, minlength=runs)
    ws *= np.where(np.isfinite(vs), vs, 0.0)
    # bincount of no atoms is int64
    mv = np.bincount(gid, weights=ws, minlength=runs).astype(np.float64, copy=False)
    del gid, ws
    np.divide(mv, merged, out=mv, where=merged > 0)
    # the clip keeps infinite runs infinite, gives a weightless run a member's
    # value, and keeps the merged values strictly increasing
    np.clip(mv, vs[edge[:-1]], vs[edge[1:]], out=mv)
    return mv, merged


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
