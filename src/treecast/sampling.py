"""Forward simulation, upward belief propagation, and population dynamics.

Randomness policy: every operation takes an explicit 64-bit seed (or an
already-running population stream) and uses the counter-based Philox
generator.  Level-wise streams are derived by ``SeedSequence.spawn`` so a
broadcast can be generated level-parallel and still reproduce exactly.

One population step is provided, ``population_evolve_anchored``
(Mezard & Montanari, J. Stat. Phys. 2006).  The plain scheme, in which
each conditional array advances on its own by drawing child LLRs from the
array matching the child's value, ties the two empirical laws together
only weakly: near criticality their coupled fluctuation mode grows by
about ``k * |1 - 2*eps|`` per level, and deep runs drift to spurious
attractors.  The anchored step removes that mode: the root-1 children are
drawn from the root-0 array reweighted by ``exp(-L)`` (the exact density
ratio between the two conditional laws), and each new level is shifted so
the empirical mean of ``exp(-L)`` is 1, a constraint the true law
satisfies at every depth when ``p01 > 0``.  The CLI and the threshold
engine both step with it.
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
    """Sampled representation of the two conditional LLR laws at one depth.

    ``samples0`` and ``samples1`` are arrays of N extended-real LLR values
    conditional on root value 0 and 1; ``rng`` is the live Philox stream
    that subsequent evolution steps consume.
    """

    depth: int
    samples0: np.ndarray
    samples1: np.ndarray
    rng: np.random.Generator

    def __post_init__(self):
        self.samples0 = np.asarray(self.samples0, dtype=np.float64)
        self.samples1 = np.asarray(self.samples1, dtype=np.float64)
        if self.samples0.shape != self.samples1.shape or self.samples0.ndim != 1:
            raise InvalidParameter("samples0 and samples1 must be 1-d arrays of equal length")

    @property
    def size(self) -> int:
        return len(self.samples0)


def population_from_pair(pair: ConditionalPair, n: int, seed: int) -> Population:
    """Initialize a population by sampling each conditional law of a pair.

    Each law is drawn from its atoms of positive weight only, so an atom
    that one root value cannot reach (such as ``+inf`` under root value 1
    of the hard-core channel) never enters that root value's samples.
    """
    if n < 1:
        raise InvalidParameter(f"population size must be positive, got {n}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def draw(w):
        keep = w > 0
        return pair.values[keep][_weighted_draw(rng, w[keep] / w[keep].sum(), n)]

    return Population(depth=pair.depth, samples0=draw(pair.w0),
                      samples1=draw(pair.w1), rng=rng)


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

    Each new conditional-0 sample draws k child values from the first
    channel row; a 0-child takes an LLR drawn uniformly from the
    conditional-0 array, a 1-child one drawn from that array reweighted by
    ``exp(-L)`` (the exact density ratio between the two laws).  The new
    level is shifted so the empirical mean of ``exp(-L)`` is 1, and the
    conditional-1 array is its tilted resample.  Both devices remove the
    slow noise mode that otherwise grows by a factor of about
    ``k * |1-2*eps|`` per level and derails deep runs.  When ``p01 = 0`` no
    child of a root-0 node is 1, so the conditional-0 array is left
    unshifted, and the conditional-1 array puts the share
    ``1 - mean(exp(-L))`` it loses on ``-inf``.  Consumes the population's
    own stream.
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
    # slaved conditional-1 array: tilted resample of the new level
    s1_new = s_new[_weighted_draw(rng, _tilt_weights(s_new), n)]
    if c.p01 == 0:
        # the root-0 leaves are all 0, so L >= 0 and exp(-L) <= 1
        sure = 1.0 - float(np.mean(np.exp(-s_new)))
        if sure > 0:
            s1_new[rng.random(n) < sure] = -np.inf
    return Population(depth=pop.depth + 1, samples0=s_new, samples1=s1_new, rng=rng)


def _tilt_weights(s: np.ndarray) -> np.ndarray:
    """Normalized importance weights proportional to exp(-L), inf-safe."""
    neg = np.isneginf(s)
    if neg.any():
        # exp(-L) diverges there: the tilted law is carried by those samples
        w = neg.astype(np.float64)
        return w / w.sum()
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


def _tv_terms(s0: np.ndarray) -> np.ndarray:
    """Per-sample terms ``max(1 - exp(-L), 0)`` of the TV estimator."""
    with np.errstate(over="ignore"):
        return np.clip(1.0 - np.exp(-s0), 0.0, None)


def population_tv(pop: Population) -> float:
    """The ``tv`` of ``estimate_diagnostics`` alone, without its other statistics."""
    return float(_tv_terms(pop.samples0).mean())


def estimate_diagnostics(pop: Population, c: BinaryChannel) -> dict:
    """Plug-in diagnostics with jackknife standard errors.

    Every standard error is the spread of the last generation's samples
    alone.  It leaves out the error that earlier generations carried into
    that sample, which in a deep run can be the larger part: at depth 20,
    N = 2e4, seed 0, symmetric eps = 0.1757 and k = 2 give
    ``tv`` = 0.07981 with ``se_tv`` = 0.00074, while the lattice upper
    law, which the exact TV cannot exceed, is 0.07686, about 4 SE lower.

    Returns
    -------
    dict
        ``tv`` and ``se_tv`` (estimator ``mean(max(1 - exp(-L), 0))`` over
        the conditional-0 samples, exact under the density identity
        between the laws); ``mean_gap`` and ``se_mean_gap``; ``var_A`` and
        ``se_var_A`` (posterior variance under the stationary mixture);
        ``inf_mass0`` / ``inf_mass1``: fractions of infinite samples.  A
        positive infinite fraction makes ``mean_gap`` +inf.
    """
    s0, s1 = pop.samples0, pop.samples1
    n = pop.size
    inf0 = float(np.mean(~np.isfinite(s0)))
    inf1 = float(np.mean(~np.isfinite(s1)))

    t = _tv_terms(s0)
    tv = float(t.mean())
    se_tv = float(t.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf

    if inf0 > 0 or inf1 > 0:
        gap, se_gap = math.inf, math.inf
    else:
        gap = float(s0.mean() - s1.mean())
        se_gap = float(math.sqrt(s0.var(ddof=1) / n + s1.var(ddof=1) / n))

    # a component of stationary weight 0 is dropped, as in ``diagnostics``
    parts = [(np.asarray(posterior_from_llr(s, c)), weight)
             for s, weight in ((s0, c.pi0), (s1, c.pi1)) if weight > 0]
    var_a, se_var = _mixture_variance_jackknife(parts)
    return {"tv": tv, "se_tv": se_tv, "mean_gap": gap, "se_mean_gap": se_gap,
            "var_A": var_a, "se_var_A": se_var,
            "inf_mass0": inf0, "inf_mass1": inf1}


def _mixture_variance_jackknife(parts) -> tuple[float, float]:
    """Variance of a mixture and its delete-one jackknife SE.

    ``parts`` holds one ``(samples, weight)`` pair per component, all
    arrays of one length and the weights summing to 1.  The statistic is
    smooth in each component's mean and second moment, so the
    leave-one-out values have a closed form and the jackknife runs in
    linear time over each array.
    """
    n = len(parts[0][0])
    weights = [w for _, w in parts]

    def stat(moments):
        mean = sum(w * m for w, (m, _) in zip(weights, moments))
        return sum(w * q for w, (_, q) in zip(weights, moments)) - mean ** 2

    moments = [(float(a.mean()), float((a ** 2).mean())) for a, _ in parts]
    value = stat(moments)
    if n < 2:
        return value, math.inf

    spread = 0.0
    for i, (a, _) in enumerate(parts):
        m, q = moments[i]
        loo = list(moments)
        loo[i] = ((n * m - a) / (n - 1), (n * q - a ** 2) / (n - 1))
        t = stat(loo)
        spread += float(((t - t.mean()) ** 2).sum())
    return value, math.sqrt((n - 1) / n * spread)
