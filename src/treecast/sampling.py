"""Forward simulation, upward belief propagation, and population dynamics.

Randomness policy: every operation takes an explicit 64-bit seed (or an
already-running population stream) and uses the counter-based Philox
generator.  Level-wise streams are derived by ``SeedSequence.spawn`` so a
broadcast can be generated level-parallel and still reproduce exactly.

One population step is provided, ``population_evolve_anchored``
(Mezard & Montanari, J. Stat. Phys. 2006).  A population holds one array,
samples of the LLR law under root value 0.  The root-1 law is not stored:
the two laws satisfy ``dP1/dP0 = exp(-L)``, so it is the same samples
weighted by ``exp(-L)``, plus a mass at ``-inf`` when ``p00 = 0`` or
``p01 = 0``, and every root-1 statistic is read through that weight.  The
plain scheme, in which two conditional arrays each advance on their own,
ties the two empirical laws together only weakly: near criticality their
coupled fluctuation mode grows by about ``k * |1 - 2*eps|`` per level,
and deep runs drift to spurious attractors.  The anchored step removes
that mode: the root-1 children are drawn from the array reweighted by
``exp(-L)``, and each new level is shifted so the empirical mean of
``exp(-L)`` is 1, a constraint the true law satisfies at every depth when
``p01 > 0``.  The CLI and the threshold engine both step with it.

A step draws one uniform per child and one more, and searches for no
index: a 0-child's uniform scales to its index, and the 1-children share
one systematic draw from the tilted array (Douc, Cappe & Moulines,
"Comparison of resampling schemes for particle filtering", 2005), which
is also how a population is first drawn from an exact pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannel, InvalidParameter, ResourceLimit
from .channels import BinaryChannel, _LOG_FLOAT_MAX, _count, _shown, llr_step
from .atoms import ConditionalPair, posterior_from_llr, root0_terms

# Cap on the nodes of one broadcast batch (samples x nodes per sample).  A
# k=2 batch at the cap peaks near 1.4 GB, mostly in the two float64
# temporaries of its last level; as k grows the last level approaches the
# whole batch and the peak about 2.4 GB.
NODE_CAP = 2 ** 27

# The lowest finite sample a Population holds; see Population for why.
_HALF_LOG_ROOM = (_LOG_FLOAT_MAX - math.log(NODE_CAP)) / 2
_SAMPLE_FLOOR = -(_HALF_LOG_ROOM - math.log(_HALF_LOG_ROOM))


def _level_streams(seed: int, depth: int) -> list:
    ss = np.random.SeedSequence(_count("seed", seed, 0))
    return [np.random.Generator(np.random.Philox(child))
            for child in ss.spawn(depth + 1)]


def sample_broadcast_batch(c: BinaryChannel, k: int, depth: int, n: int,
                           root_value: int | None = None, seed: int = 0) -> list:
    """Sample ``n`` independent broadcasts, vectorized level by level.

    Parameters
    ----------
    root_value : int or None
        Fixed root value, or None to draw each root from the stationary
        law.

    Returns
    -------
    list of ndarray
        ``levels[l]`` has shape ``(n, k**l)`` and dtype int8.

    Raises
    ------
    ResourceLimit
        If the batch holds more than ``NODE_CAP`` nodes in all; checked
        before anything is allocated.  ``InvalidParameter`` unless ``k``
        and ``n`` are integers >= 1 and ``depth`` an integer >= 0.
    """
    k, depth, n = _count("k", k), _count("depth", depth, 0), _count("sample count", n)
    # n * (1 + k + ... + k**depth) nodes; at k >= 2 depth 64 is already far
    # past the cap, and counting no deeper keeps k**depth from growing to
    # thousands of digits, too many to compute quickly or print
    total = (n * (depth + 1) if k == 1
             else n * (k ** (min(depth, 64) + 1) - 1) // (k - 1))
    if total > NODE_CAP:
        raise ResourceLimit(f"a broadcast batch of {_shown(n)} samples to depth "
                            f"{_shown(depth)} needs more than {NODE_CAP} nodes (the cap)",
                            count=total)
    streams = _level_streams(seed, depth)
    if root_value is None:
        root = (streams[0].random(n) < c.pi1).astype(np.int8)
    elif root_value in (0, 1):
        root = np.full(n, root_value, dtype=np.int8)
    else:
        raise InvalidParameter(f"root_value must be 0, 1 or None, got {root_value!r}")
    levels = [root.reshape(n, 1)]
    for ell in range(1, depth + 1):
        parent = np.repeat(levels[-1], k, axis=1)
        p_one = np.where(parent == 0, c.p01, c.p11)
        levels.append((streams[ell].random(parent.shape) < p_one).astype(np.int8))
    return levels


def bp_root_posterior(leaves, c: BinaryChannel, k: int, depth: int | None = None):
    """Exact posterior probability of root value 0 given the leaf level.

    Runs the upward message recursion in log space, so deep trees neither
    overflow nor underflow, and a leaf pattern impossible under root value
    1 yields posterior exactly 1.

    Parameters
    ----------
    leaves : array
        Shape ``(k**depth,)`` for one pattern or ``(n, k**depth)`` for a
        batch.
    k : int
        Branching number, at least 1.
    depth : int, optional
        Inferred from the length when ``k >= 2``; required when ``k = 1``.

    Returns
    -------
    float or ndarray
        Posterior(s) in [0, 1].
    """
    k = _count("k", k)
    arr = np.asarray(leaves)
    single = arr.ndim == 1
    if single:
        arr = arr.reshape(1, -1)
    m = arr.shape[1]
    if depth is None:
        if k == 1:
            raise InvalidParameter("depth is required when k = 1")
        depth = round(math.log(max(m, 1)) / math.log(k))
    depth = _count("depth", depth, 0)
    if k ** depth != m:
        raise InvalidParameter(f"got {m} leaves, expected k**depth = {k ** depth}")

    logp = [[_safe_log(c.p00), _safe_log(c.p01)],
            [_safe_log(c.p10), _safe_log(c.p11)]]
    # per-node log-likelihood of the observed subtree given node value 0 / 1
    ll0 = np.where(arr == 0, 0.0, -np.inf)
    ll1 = np.where(arr == 0, -np.inf, 0.0)
    n = arr.shape[0]
    for _ in range(depth):
        msg0 = np.logaddexp(logp[0][0] + ll0, logp[0][1] + ll1)
        msg1 = np.logaddexp(logp[1][0] + ll0, logp[1][1] + ll1)
        ll0 = msg0.reshape(n, -1, k).sum(axis=2)
        ll1 = msg1.reshape(n, -1, k).sum(axis=2)
    llr = (ll0 - ll1).ravel()
    post = posterior_from_llr(llr, c)  # llr is 1-d, so post is an array
    return float(post[0]) if single else post


def _safe_log(p: float) -> float:
    return math.log(p) if p > 0 else -math.inf


@dataclass
class Population:
    """Sampled conditional LLR laws at one depth, held as one array.

    ``samples0`` holds N extended-real LLR values drawn under root value 0;
    ``rng`` is the live Philox stream that later steps consume.  The
    root-1 law is read from the same samples, weighted by ``exp(-L)``; see
    :func:`estimate_diagnostics`.  A sample at ``-inf`` is refused, since
    the root-0 law has no mass there, and so are a NaN sample, an empty
    array and a depth that is not an integer >= 1, all with
    :class:`InvalidParameter`.

    A finite sample below ``_SAMPLE_FLOOR`` (about -339.7) raises
    :class:`DegenerateChannel`, as an atom below ``ln(tiny)`` does in
    :class:`~treecast.atoms.ConditionalPair`, since below it
    :func:`estimate_diagnostics` can overflow.  For a sample ``L = -x < 0``
    the largest per-sample term is the mean gap's ``x * (e**x - 1)``,
    below ``x * e**x``.  Every gap term is >= 0, so no deviation from their
    mean exceeds the largest term, and the sum of N squared deviations that
    ``np.std`` forms for ``se_mean_gap`` stays below the float64 maximum
    for every N up to ``NODE_CAP`` while ``NODE_CAP * x**2 * e**(2*x)``
    does: ``x + ln(x) <= B`` with ``B = (ln(max) - ln(NODE_CAP)) / 2``.
    The floor is ``-(B - ln(B))``, which meets it since
    ``ln(B - ln(B)) < ln(B)``, and lies within 0.02 of the exact root.  An
    engine step never comes near it: the unit-mean shift keeps every
    sample above about ``-ln N``.
    """

    depth: int
    samples0: np.ndarray
    rng: np.random.Generator

    def __post_init__(self):
        self.depth = _count("depth", self.depth)
        s = self.samples0 = np.asarray(self.samples0, dtype=np.float64)
        if s.ndim != 1 or not s.size or not (s >= _SAMPLE_FLOOR).all():
            if s.ndim == 1 and s.size and (s > -np.inf).all():
                raise DegenerateChannel(
                    f"sample {s.min():.6g} lies below {_SAMPLE_FLOOR:.1f}, where the diagnostics "
                    "can overflow: the channel is too close to deterministic")
            raise InvalidParameter("samples0 must be a non-empty 1-d array without NaN or "
                                   "-inf (the root-0 law has no mass there)")

    @property
    def size(self) -> int:
        return len(self.samples0)


def population_from_pair(pair: ConditionalPair, n: int, seed: int) -> Population:
    """Initialize a population by sampling the root-0 law of a pair.

    The N samples are one systematic draw (:func:`_systematic_draw`)
    from the atoms of positive weight, on one uniform of the new stream:
    each atom appears within one of N times its weight, in the order of
    the support, and an atom that root value 0 cannot reach (``-inf``)
    never enters the samples.  Raises :class:`InvalidParameter` unless
    ``n`` is an integer >= 1 and ``seed`` one >= 0, and
    :class:`ResourceLimit` for ``n`` above :data:`NODE_CAP`, which no step
    could hold, before drawing anything.
    """
    n = _population_size(n, 1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(_count("seed", seed, 0))))
    keep = pair.w0 > 0
    samples0 = pair.values[keep][_systematic_draw(pair.w0[keep], n, rng.random())]
    return Population(depth=pair.depth, samples0=samples0, rng=rng)


def _population_size(n, k: int) -> int:
    """``n`` as the size N of a population whose step, k * N values, fits
    NODE_CAP: :class:`InvalidParameter` unless it is an integer >= 1, and
    :class:`ResourceLimit` for a step above the cap."""
    n = _count("population size", n)
    if k * n > NODE_CAP:
        raise ResourceLimit(f"a population step would hold k * N values, more than "
                            f"{NODE_CAP} (the cap)", count=k * n)
    return n


def _systematic_draw(w: np.ndarray, m: int, u0: float) -> np.ndarray:
    """``m`` indices drawn with probabilities proportional to ``w`` by
    systematic resampling (Douc, Cappe & Moulines 2005), in sorted order.

    With ``F`` the cumulative weights scaled so ``F[-1]`` is exactly 1,
    index i appears ``ceil(m*F[i] - u0) - ceil(m*F[i-1] - u0)`` times: the
    number of the points ``u0, u0 + 1, ..., u0 + m - 1`` in
    ``[m*F[i-1], m*F[i])``.  Each ceiling is taken exactly, as
    ``floor(y) + (frac(y) > u0)`` for ``y = m*F[i]``, so there are ``m``
    indices for every ``u0`` in [0, 1), a zero weight is never drawn, and
    each index appears within 1 of ``m`` times its probability, up to the
    rounding of ``F``.  The list is ``np.repeat(np.arange(len(w)),
    counts)``: its entry j is the number of ceilings at or below j.

    Raises
    ------
    InvalidParameter
        If a weight is NaN or negative, or the total is not finite and
        positive.
    """
    y = w.cumsum()
    total = y[-1]
    if not (0 < total < np.inf and w.min() >= 0):  # NaN fails both
        raise InvalidParameter(
            "sampling weights must be non-negative with a finite positive total")
    y /= total
    y *= m
    cum = y.astype(np.intp)  # floor, as y >= 0
    y -= cum  # exactly the fractional part
    cum += y > u0  # ceil(y - u0)
    del y
    idx = np.bincount(cum, minlength=m + 1)[:m]
    return np.cumsum(idx, out=idx)


def _project_unit_mean(s: np.ndarray) -> np.ndarray:
    """Shift samples so the empirical mean of exp(-L) equals 1 exactly."""
    finite = np.isfinite(s)
    if not finite.any():
        return s
    # ln(sum exp(-L)) with the maximal terms split off and counted, so the
    # rest enters through log1p: the usual logsumexp, step for step
    a = -s[finite]
    a_max = a.max()
    top = a == a_max
    m = np.float64(np.count_nonzero(top))
    e = np.exp(a - a_max)
    e[top] = 0.0
    log_sum = np.log1p(e.sum() / m) + np.log(m) + a_max
    return s + (log_sum - math.log(len(s)))


def population_evolve_anchored(pop: Population, c: BinaryChannel, k: int) -> Population:
    """Population-dynamics step: depth ``d`` to depth ``d+1``.

    Each new sample draws k child values from the first channel row; a
    0-child takes an LLR drawn uniformly from the array, a 1-child one
    drawn from the array reweighted by ``exp(-L)`` (the exact density
    ratio of the root-1 law to the root-0 law).  The new level is shifted
    so the empirical mean of ``exp(-L)`` is 1, as it is under the true law
    when ``p01 > 0``.  Both devices remove the slow noise mode that
    otherwise grows by a factor of about ``k * |1-2*eps|`` per level and
    derails deep runs.  When ``p01 = 0`` no child of a root-0 node is 1 and
    the level is left unshifted.

    Each child is drawn once, by :func:`_child_indices`, with no index
    searched for.  The one-child update is evaluated once per parent
    sample and gathered, which is elementwise the same.  Consumes the
    population's own stream.
    """
    if pop.size < 1000:
        raise InvalidParameter(f"population size must be >= 1000, got {pop.size}")
    _population_size(pop.size, k)  # refuses a step above NODE_CAP
    rng = pop.rng
    s = pop.samples0
    tilt = _tilt_weights(s)
    g = llr_step(c, s)  # rejects p00 = 0 or p10 = 0
    s_new = k * math.log(c.p00 / c.p10) + g[_child_indices(rng, tilt, c, k)].sum(axis=0)
    if c.p01 > 0:
        s_new = _project_unit_mean(s_new)
    return Population(depth=pop.depth + 1, samples0=s_new, rng=rng)


def _child_indices(rng: np.random.Generator, tilt: np.ndarray, c: BinaryChannel,
                   k: int) -> np.ndarray:
    """The ``(k, N)`` parent indices of the children of N new samples.

    The stream gives one uniform ``u`` per child and then one more,
    ``u0``.  A child is a 1-child iff ``u < p01``.  A 0-child takes index
    ``floor((u - p01) * N / p00)``, at most N - 1, so uniform.  The
    ``m`` 1-children share one systematic draw of ``m`` indices with
    probabilities proportional to ``tilt`` (:func:`_systematic_draw` on
    ``u0``), handed out in the order of their own uniforms: the ranks of
    i.i.d. keys, so a uniformly random order.  Each child's index thus
    has the law of the mixture ``p00 * uniform + p01 * tilted``.
    """
    n = len(tilt)
    u = rng.random(k * n)
    u0 = rng.random()
    ones = np.flatnonzero(u < c.p01)
    ones = ones[u[ones].argsort()]  # the 1-children in the order of their uniforms
    u -= c.p01
    u *= n / c.p00
    idx = u.astype(np.intp)  # the floor, except at 1-children, set next
    del u  # k*N floats freed before the systematic draw: a lower peak
    np.minimum(idx, n - 1, out=idx)
    idx[ones] = _systematic_draw(tilt, len(ones), u0)
    return idx.reshape(k, n)


def _tilt_weights(s: np.ndarray) -> np.ndarray:
    """Importance weights proportional to exp(-L), the largest 1, inf-safe."""
    finite = np.isfinite(s)
    if not finite.any():
        # every sample is +inf, where the root-1 law has no mass
        raise ResourceLimit(
            f"no sample of {len(s)} is finite, so the population holds no "
            "sample of the root-1 law")
    t = -s
    peak = t[finite].max()
    w = np.exp(np.clip(t - peak, -745.0, 0.0))
    w[~finite] = 0.0  # +inf LLR has zero mass under the tilted law
    return w


def population_tv(pop: Population) -> float:
    """The ``tv`` of ``estimate_diagnostics`` alone, without its other statistics."""
    return float(root0_terms(pop.samples0, gap=False)[0].mean())


def _mean_se(t: np.ndarray) -> tuple[float, float]:
    se = float(t.std(ddof=1) / math.sqrt(len(t))) if len(t) > 1 else math.inf
    return float(t.mean()), se


def estimate_diagnostics(pop: Population, c: BinaryChannel) -> dict:
    """Plug-in diagnostics, each the mean of one per-sample term.

    The root-1 law is the root-0 samples weighted by ``r = exp(-L)`` (0 at
    ``+inf``), plus a mass ``q`` at ``-inf``: ``q = max(mean(1 - r), 0)``
    when ``p00 = 0`` or ``p01 = 0`` (a root-0 node's children are then
    fixed, so a pattern can be impossible under root value 0 alone), and
    0 otherwise.  So every statistic is the mean over the root-0 array of
    its term of :func:`~treecast.atoms.root0_terms`, the terms the exact
    engine's :func:`~treecast.evolution.diagnostics` weights by ``w0``:

    - ``tv``: ``max(1 - r, 0)``;
    - ``mean_gap``: ``L * (1 - r)``, and ``+inf`` when ``inf_mass0 > 0``
      or ``q > 0``;
    - ``var_A`` (posterior variance under the stationary mixture):
      ``(pi0 + pi1*r) * (a - pi0)**2`` with ``a`` the posterior of root
      value 0, plus ``pi1 * pi0**2 * (1 - r)`` when ``q > 0``: the ``-inf``
      atom, where ``a = 0``, has mixture weight ``pi1 * q`` and ``q`` is the
      mean of ``1 - r``.

    Each ``se_*`` is ``std(ddof=1) / sqrt(N)`` of its term: the spread of
    the last generation alone.  It leaves out the error that earlier
    generations carried into that sample, which can be the larger part.
    Over seeds 0..29 at N = 2e4 and k = 2, symmetric eps = 0.25 at depth 6
    gives a median ``se_mean_gap`` of 4.2e-4 against a seed-to-seed
    spread of 6.7e-4, and eps = 0.15 at depth 12 a median ``se_tv`` of
    2.1e-3 against a spread of 3.7e-3.  At depth 20, seed 0 and eps =
    0.1757, ``tv`` = 0.07807 with ``se_tv`` = 0.00072, 1.7 SE above the
    lattice upper law 0.07686, which the exact TV cannot exceed; the mean
    over seeds 0..39 is 0.07677, with a standard error of 0.00020.

    ``tilt_ess`` = ``(sum r)**2 / sum r**2`` is the effective sample size
    of that weighting, the number of equally weighted samples that every
    root-1 statistic above rests on: N when every sample is equal, near 1
    when one sample carries almost all of the weight, and 0 when every
    sample is ``+inf``.  The ``se_*`` do not see it.

    Returns
    -------
    dict
        ``tv``, ``mean_gap``, ``var_A`` and their ``se_*``; ``inf_mass0``,
        the fraction of samples at ``+inf``, ``inf_mass1`` = ``q`` and
        ``tilt_ess``.
    """
    s = pop.samples0
    tv_terms, gap_terms, var_terms = root0_terms(s, c)
    inf0 = float(np.mean(~np.isfinite(s)))
    q = 0.0
    if c.p00 == 0 or c.p01 == 0:
        surplus = -np.expm1(-s)  # 1 - r, whose mean is q
        q = max(float(surplus.mean()), 0.0)
        if q > 0:
            var_terms += c.pi1 * c.pi0 ** 2 * surplus

    tv, se_tv = _mean_se(tv_terms)
    gap, se_gap = (math.inf, math.inf) if inf0 > 0 or q > 0 else _mean_se(gap_terms)
    var_a, se_var = _mean_se(var_terms)
    if inf0 < 1.0:
        t = _tilt_weights(s)
        ess = float(t.sum() ** 2 / (t @ t))
    else:
        ess = 0.0
    return {"tv": tv, "se_tv": se_tv, "mean_gap": gap, "se_mean_gap": se_gap,
            "var_A": var_a, "se_var_A": se_var,
            "inf_mass0": inf0, "inf_mass1": q, "tilt_ess": ess}
