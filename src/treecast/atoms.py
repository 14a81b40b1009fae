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
from .channels import (_TINY, BinaryChannel, _count, _probabilities, _probability, _vector,
                       _weights)

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
        # neighbours are compared, not differenced: inf - inf is NaN, which
        # would let two equal infinite atoms through
        if np.any(np.isnan(v)) or np.any(v[1:] <= v[:-1]):
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

        Read from the root-0 law like the statistics of
        :func:`root0_terms`: an atom of value ``v`` has mixture weight
        ``w0 * m`` with ``m = pi0 + pi1*exp(-v)``, and there ``m * (a - pi0)
        = pi0*pi1*(1 - exp(-v))``; the ``-inf`` atom, of posterior 0, has
        mixture weight ``pi1 * q``.  So the residual is ``pi0*pi1 *
        |sum(w0 * (1 - exp(-v))) - q|``, over the atoms of positive root-0
        weight: it vanishes when ``sum(w0 * exp(-v)) = 1 - q``, the identity
        the derived ``w1`` is checked against before its scaling.
        """
        v, w = self.live()
        surplus = -np.expm1(-v)  # 1 - exp(-v), 1 at +inf
        return c.pi0 * c.pi1 * abs(float(surplus @ w) - self.q)

    def live(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, w0)`` over the atoms of positive root-0 weight: the
        pair's own arrays, not copies, when every atom has some."""
        live = self.w0 > 0
        if live.all():
            return self.values, self.w0
        return self.values[live], self.w0[live]


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
        If ``tol`` is not positive, a value is NaN, a weight is negative
        or NaN, the weights' total is not finite, or ``values`` and
        ``weights`` are not 1-d arrays of equal length.
    """
    v, (w, _) = _vector("values", values), _weights("weights", weights)
    if len(v) != len(w):
        raise InvalidParameter(f"{len(v)} values but {len(w)} weights")
    # numpy's default sort is not stable; equal values are put back in
    # index order, so the permutation is the stable one.  The snap keeps
    # the sorted values sorted, and the values it makes equal are tied too
    order = np.argsort(v)
    vs = _snap(v[order])
    eq = vs[1:] == vs[:-1]
    if eq.any():
        tied = np.flatnonzero(np.concatenate(([False], eq)) | np.concatenate((eq, [False])))
        sub = order[tied]
        order[tied] = sub[np.lexsort((sub, vs[tied]))]
    del eq
    edge = _run_edges(vs, tol)
    ws = w[order]
    del order
    first, last = edge[:-1], edge[1:]
    # a run of one atom merges to that atom (its weight sum is its weight,
    # its mean clipped to [v, v] is v), so only runs of several are summed
    several = first & last
    np.logical_not(several, out=several)
    if not several.any():
        return vs, ws
    # the members of those runs and their range, then the merged support,
    # on which lone atoms are final
    x = vs[several]
    lo, hi = vs[first & several], vs[last & several]
    vs = vs[first]
    part = ws[several]
    ws = ws[first]
    gid = first[several].astype(np.intp)  # cumsum of bools would copy them as ints
    np.cumsum(gid, out=gid)
    gid -= 1
    merged = np.bincount(gid, weights=part)
    x[np.isinf(x)] = 0.0
    part *= x
    del x
    mv = np.bincount(gid, weights=part)
    del gid, part
    np.divide(mv, merged, out=mv, where=merged > 0)
    # the clip keeps infinite runs infinite, gives a weightless run a member's
    # value, and keeps the merged values strictly increasing
    np.clip(mv, lo, hi, out=mv)
    at = several[first]
    vs[at] = mv
    ws[at] = merged
    return vs, ws


def run_count(values: np.ndarray, tol: float) -> int:
    """Number of atoms :func:`grid_merge` would return for ``values``.

    Applies the same snap and run rule to the sorted values alone, with no
    weights, so a caller can size a merge before forming its weights.
    """
    vs = _snap(np.sort(_vector("values", values)))
    return int(np.count_nonzero(_run_edges(vs, tol)[:-1]))


def _snap(v: np.ndarray) -> np.ndarray:
    """Set the entries of ``v`` within 1e-12 of 0 to exactly 0, in place.

    Without the snap, rounding residue (~1e-16) can put a symmetric atom on
    the wrong side of the sign barrier.  Returns ``v``.
    """
    v[(v > -1e-12) & (v < 1e-12)] = 0.0
    return v


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
    return float(out) if np.ndim(x) == 0 else out


def root0_terms(x, c: BinaryChannel | None = None, *, tv: bool = True, gap: bool = True):
    """Per-atom terms of ``tv``, ``mean_gap`` and ``var_A`` under the root-0 law.

    dP1/dP0 = exp(-L) (the L-density symmetry), so each statistic of the
    two conditional laws is the root-0 expectation of one term of the LLR
    value ``v``, finite or ``+inf``.  With ``d = 1 - exp(-v)`` formed as
    ``-expm1(-v)``, so that a small ``v`` or a small surplus keeps its
    digits:

    - ``tv``: ``max(d, 0)``, the surplus of root 0 over root 1;
    - ``mean_gap``: ``v * d``, non-negative for every ``v``, so the gap is
      a sum with no cancellation;
    - ``var_A`` (posterior variance under the stationary mixture):
      ``m * (a - pi0)**2`` with ``m = pi0 + pi1*exp(-v)`` the mixture's
      density against root 0 and ``a`` the posterior of root value 0.
      Since ``a - pi0 = s / m`` with ``s = pi0*pi1*d``, it is formed as
      ``s * (s / m)``, so ``a - pi0`` is never a difference of nearby
      numbers; it is 0 where ``m = 0`` (``pi0 = 0`` at ``+inf``, an atom
      the mixture never reaches).

    A root-1 mass ``q`` at ``-inf``, which the root-0 law cannot carry, is
    the caller's to add: it makes the gap ``+inf`` and adds
    ``pi1 * pi0**2 * q`` to ``var_A``.

    Returns
    -------
    (tv, gap, var) : tuple of ndarray
        Elementwise over ``x``.  A term not asked for is None: ``var``
        when no channel is given, so a caller of the TV or the gap alone
        forms no posterior, and ``tv`` or ``gap`` when its flag is False.
        The last term formed is written over ``d``, so a caller of one
        term alone gets one array.
    """
    v = np.asarray(x, dtype=np.float64)
    var = None
    with np.errstate(over="ignore"):  # below -709.78, d = -inf and m = inf
        d = np.negative(v)
        np.expm1(d, out=d)
        np.negative(d, out=d)
        if c is not None:
            s, m = c.pi0 * c.pi1 * d, c.pi0 + c.pi1 * np.exp(-v)
            # a - pi0 = s / m, and its limit -pi0 where m is inf (a = 0) or
            # 0 (then pi0 = 0)
            shift = np.divide(s, m, out=np.full_like(s, -c.pi0),
                              where=(m > 0) & (m < np.inf))
            var = s * shift
        gap_t = np.multiply(v, d, out=None if tv else d) if gap else None
    return (np.maximum(d, 0.0, out=d) if tv else None), gap_t, var
