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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, ResourceLimit
from .channels import BinaryChannel, branching_number, llr_step
from .atoms import ConditionalPair, posterior_from_llr

# Cap on the nodes of one broadcast batch (samples x nodes per sample).  A
# k=2 batch at the cap peaks near 1.4 GB, mostly in the two float64
# temporaries of its last level; as k grows the last level approaches the
# whole batch and the peak about 2.4 GB.
NODE_CAP = 2 ** 27


def _level_streams(seed: int, depth: int) -> list:
    ss = np.random.SeedSequence(seed)
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
        before anything is allocated.  ``InvalidParameter`` if ``k < 1``,
        ``n < 1`` or ``depth < 0``.
    """
    k = branching_number(k)
    if depth < 0 or n < 1:
        raise InvalidParameter(f"need depth >= 0 and sample count n >= 1, got {depth} and {n}")
    # n * (1 + k + ... + k**depth) nodes; at k >= 2 depth 64 is already far
    # past the cap, and counting no deeper keeps k**depth from growing to
    # thousands of digits, too many to compute quickly or print
    if k == 1:
        total = n * (depth + 1)
    else:
        total = n * (k ** (min(depth, 64) + 1) - 1) // (k - 1)
    if total > NODE_CAP:
        raise ResourceLimit(f"broadcast batch of {n} samples to depth {depth} "
                            f"needs more than {NODE_CAP} nodes (the cap)")
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
    k = branching_number(k)
    arr = np.asarray(leaves)
    single = arr.ndim == 1
    if single:
        arr = arr.reshape(1, -1)
    m = arr.shape[1]
    if depth is None:
        if k == 1:
            raise InvalidParameter("depth is required when k = 1")
        depth = round(math.log(m) / math.log(k))
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
    post = posterior_from_llr(llr, c)
    if single:
        return float(np.asarray(post).ravel()[0])
    return np.asarray(post)


def _safe_log(p: float) -> float:
    return math.log(p) if p > 0 else -math.inf


@dataclass
class Population:
    """Sampled conditional LLR laws at one depth, held as one array.

    ``samples0`` holds N extended-real LLR values drawn under root value 0;
    ``rng`` is the live Philox stream that later steps consume.  The
    root-1 law is read from the same samples, weighted by ``exp(-L)``; see
    :func:`estimate_diagnostics`.  A sample at ``-inf`` is refused, since
    the root-0 law has no mass there.
    """

    depth: int
    samples0: np.ndarray
    rng: np.random.Generator

    def __post_init__(self):
        self.samples0 = np.asarray(self.samples0, dtype=np.float64)
        if self.samples0.ndim != 1:
            raise InvalidParameter("samples0 must be a 1-d array")
        if np.isneginf(self.samples0).any():
            raise InvalidParameter(
                "a root-0 sample cannot be -inf: the root-0 law has no mass there")

    @property
    def size(self) -> int:
        return len(self.samples0)


def population_from_pair(pair: ConditionalPair, n: int, seed: int) -> Population:
    """Initialize a population by sampling the root-0 law of a pair.

    The law is drawn from its atoms of positive weight only, so an atom
    that root value 0 cannot reach (``-inf``) never enters the samples.
    """
    if n < 1:
        raise InvalidParameter(f"population size must be positive, got {n}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    keep = pair.w0 > 0
    w = pair.w0[keep]
    return Population(depth=pair.depth,
                      samples0=pair.values[keep][_weighted_draw(rng, w / w.sum(), n)],
                      rng=rng)


def _weighted_draw(rng: np.random.Generator, p: np.ndarray, shape) -> np.ndarray:
    """Indices into ``p`` drawn with probabilities proportional to ``p``.

    Returns exactly what ``rng.choice(len(p), size=shape, p=p)`` returns
    and leaves ``rng`` in the same state: the same normalized cumulative
    table, the same uniforms, the same right-side search.  Only the order
    of the searches differs.  The uniforms are searched in sorted order,
    so consecutive binary searches take nearly the same path instead of
    mispredicting at random; each key's result is unique, so the order
    cannot change it.  At N = 2e4 this halves the draw.

    Raises
    ------
    InvalidParameter
        If a weight is NaN or negative, or the total is not finite and
        positive.
    """
    cdf = p.cumsum()
    total = cdf[-1]
    if not (np.isfinite(total) and total > 0) or (p < 0).any():
        raise InvalidParameter(
            "sampling weights must be non-negative with a finite positive total")
    cdf /= total
    u = rng.random(shape).ravel()
    order = u.argsort()
    idx = np.empty(u.size, dtype=np.intp)
    idx[order] = cdf.searchsorted(u[order], side="right")
    return idx.reshape(shape)


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
    the level is left unshifted.  Consumes the population's own stream.
    """
    if pop.size < 1000:
        raise InvalidParameter(f"population size must be >= 1000, got {pop.size}")
    rng = pop.rng
    n = pop.size

    s = pop.samples0
    tilt = _tilt_weights(s)
    ones = rng.random((n, k)) < c.p01
    idx_plain = rng.integers(0, n, size=(n, k))
    idx_tilt = _weighted_draw(rng, tilt, (n, k))
    child = np.where(ones, s[idx_tilt], s[idx_plain])
    g_sum = llr_step(c, child).sum(axis=1)  # rejects p00 = 0 or p10 = 0
    s_new = k * math.log(c.p00 / c.p10) + g_sum
    if c.p01 > 0:
        s_new = _project_unit_mean(s_new)
    return Population(depth=pop.depth + 1, samples0=s_new, rng=rng)


def _tilt_weights(s: np.ndarray) -> np.ndarray:
    """Normalized importance weights proportional to exp(-L), inf-safe."""
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
    return w / w.sum()


def _ratio(s: np.ndarray) -> np.ndarray:
    """Per-sample density ratio ``r = exp(-L)`` of the root-1 law to the
    root-0 law, 0 at ``+inf``."""
    with np.errstate(over="ignore"):
        return np.exp(-s)


def _tv_terms(r: np.ndarray) -> np.ndarray:
    """Per-sample terms ``max(1 - r, 0)`` of the TV estimator."""
    return np.clip(1.0 - r, 0.0, None)


def population_tv(pop: Population) -> float:
    """The ``tv`` of ``estimate_diagnostics`` alone, without its other statistics."""
    return float(_tv_terms(_ratio(pop.samples0)).mean())


def _mean_se(t: np.ndarray) -> tuple[float, float]:
    se = float(t.std(ddof=1) / math.sqrt(len(t))) if len(t) > 1 else math.inf
    return float(t.mean()), se


def estimate_diagnostics(pop: Population, c: BinaryChannel) -> dict:
    """Plug-in diagnostics, each the mean of one per-sample term.

    The root-1 law is the root-0 samples weighted by ``r = exp(-L)`` (0 at
    ``+inf``), plus a mass ``q`` at ``-inf``: ``q = max(1 - mean(r), 0)``
    when ``p00 = 0`` or ``p01 = 0`` (a root-0 node's children are then
    fixed, so a pattern can be impossible under root value 0 alone), and
    0 otherwise.  So every statistic is the mean over the root-0 array of
    one per-sample term, with ``a`` the posterior of root value 0:

    - ``tv``: ``max(1 - r, 0)``;
    - ``mean_gap``: ``L * (1 - r)``, and ``+inf`` when ``inf_mass0 > 0``
      or ``q > 0``;
    - ``var_A`` (posterior variance under the stationary mixture):
      ``(pi0 + pi1*r) * (a - pi0)**2``, plus ``pi1 * pi0**2 * (1 - r)``
      when ``q > 0``: the ``-inf`` atom, where ``a = 0``, has mixture
      weight ``pi1 * q`` and ``q`` is the mean of ``1 - r``.

    Each ``se_*`` is ``std(ddof=1) / sqrt(N)`` of its term: the spread of
    the last generation alone.  It leaves out the error that earlier
    generations carried into that sample, which can be the larger part.
    Over seeds 0..29 at N = 2e4 and k = 2, symmetric eps = 0.25 at depth 6
    gives a median ``se_mean_gap`` of 4.2e-4 against a seed-to-seed
    spread of 8.4e-4, and eps = 0.15 at depth 12 a median ``se_tv`` of
    2.1e-3 against a spread of 4.5e-3.  At depth 20, seed 0 and eps =
    0.1757, ``tv`` = 0.07714 with ``se_tv`` = 0.00071, against the
    lattice upper law 0.07686, which the exact TV cannot exceed.

    Returns
    -------
    dict
        ``tv``, ``mean_gap``, ``var_A`` and their ``se_*``; ``inf_mass0``,
        the fraction of samples at ``+inf``, and ``inf_mass1`` = ``q``.
    """
    s = pop.samples0
    r = _ratio(s)
    inf0 = float(np.mean(~np.isfinite(s)))
    q = max(1.0 - float(r.mean()), 0.0) if c.p00 == 0 or c.p01 == 0 else 0.0

    tv, se_tv = _mean_se(_tv_terms(r))
    if inf0 > 0 or q > 0:
        gap, se_gap = math.inf, math.inf
    else:
        gap, se_gap = _mean_se(s * (1.0 - r))
    a = np.asarray(posterior_from_llr(s, c))
    var_terms = (c.pi0 + c.pi1 * r) * (a - c.pi0) ** 2
    if q > 0:
        var_terms += c.pi1 * c.pi0 ** 2 * (1.0 - r)
    var_a, se_var = _mean_se(var_terms)
    return {"tv": tv, "se_tv": se_tv, "mean_gap": gap, "se_mean_gap": se_gap,
            "var_A": var_a, "se_var_A": se_var,
            "inf_mass0": inf0, "inf_mass1": q}
