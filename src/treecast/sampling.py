"""Forward simulation, upward belief propagation, and population dynamics.

Randomness policy: every operation takes an explicit 64-bit seed (or an
already-running population stream) and uses the counter-based Philox
generator.  Level-wise streams are derived by ``SeedSequence.spawn`` so a
broadcast can be generated level-parallel and still reproduce exactly.

Two population steps are provided.  ``population_evolve`` is the plain
scheme: each conditional sample array advances independently by drawing
child values from its own channel row and child LLRs uniformly from the
matching array.  It is unbiased but the pair of empirical laws is only
weakly tied together, and near criticality the coupled fluctuation mode
grows by about ``k * |1 - 2*eps|`` per level, so deep runs drift to
spurious attractors.  ``population_evolve_anchored`` removes that mode:
the root-1 children are drawn from the root-0 array reweighted by
``exp(-L)`` (the exact density ratio between the two conditional laws),
and each new level is shifted so the empirical mean of ``exp(-L)`` is 1,
a constraint the true law satisfies at every depth.  The anchored step is
what the threshold engine uses for depth-40 bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import InvalidParameter, ResourceLimit
from .channels import BinaryChannel, llr_step
from .atoms import ConditionalPair, posterior_from_llr

# Cap on the nodes of one broadcast batch (samples x nodes per sample).  A
# k=2 batch at the cap peaks near 1.4 GB, mostly in the two float64
# temporaries of its last level; as k grows the last level approaches the
# whole batch and the peak about 2.4 GB.
NODE_CAP = 2 ** 27


@dataclass(frozen=True)
class BroadcastSample:
    """One sampled configuration of the broadcast process.

    ``levels[l]`` holds the k**l node values of level ``l`` in
    breadth-first order (children of node ``i`` occupy positions
    ``k*i .. k*i+k-1`` of the next level).
    """

    k: int
    depth: int
    levels: list
    root_value: int
    seed: int

    def __post_init__(self):
        if len(self.levels) != self.depth + 1:
            raise InvalidParameter("levels must hold depth+1 arrays")
        for ell, arr in enumerate(self.levels):
            if len(arr) != self.k ** ell:
                raise InvalidParameter(f"level {ell} must have k**{ell} entries")


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
        before anything is allocated.
    """
    if depth < 0:
        raise InvalidParameter(f"depth must be >= 0, got {depth}")
    total = n * sum(k ** ell for ell in range(depth + 1))
    if total > NODE_CAP:
        raise ResourceLimit(
            f"broadcast batch needs {total} nodes ({n} samples; cap {NODE_CAP})")
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


def sample_broadcast(c: BinaryChannel, k: int, depth: int,
                     root_value: int | None = None, seed: int = 0) -> BroadcastSample:
    """Sample one broadcast configuration; deterministic in ``seed``."""
    levels = sample_broadcast_batch(c, k, depth, 1, root_value=root_value, seed=seed)
    flat = [lvl[0].copy() for lvl in levels]
    return BroadcastSample(k=k, depth=depth, levels=flat,
                           root_value=int(flat[0][0]), seed=seed)


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
    depth : int, optional
        Inferred from the length when ``k >= 2``; required when ``k = 1``.

    Returns
    -------
    float or ndarray
        Posterior(s) in [0, 1].
    """
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
    """Initialize a population by sampling each conditional law of a pair."""
    if n < 1:
        raise InvalidParameter(f"population size must be positive, got {n}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    law0, law1 = pair.law0, pair.law1
    s0 = rng.choice(law0.values, size=n, p=law0.weights / law0.weights.sum())
    s1 = rng.choice(law1.values, size=n, p=law1.weights / law1.weights.sum())
    return Population(depth=pair.depth, samples0=s0, samples1=s1, rng=rng)


def population_evolve(pop: Population, c: BinaryChannel, k: int) -> Population:
    """Plain population-dynamics step (independent conditional arrays).

    Each new conditional-0 sample draws k child values from the first
    channel row, an LLR for each child uniformly from the array matching
    the child's value, and applies the depth recursion; conditional-1
    samples use the second row.  Consumes the population's own stream.
    """
    if pop.size < 1000:
        raise InvalidParameter(f"population size must be >= 1000, got {pop.size}")
    rng = pop.rng
    n = pop.size
    const = k * math.log(c.p00 / c.p10)

    new = []
    for p_one in (c.p01, c.p11):
        ones = rng.random((n, k)) < p_one
        idx = rng.integers(0, n, size=(n, k))
        child = np.where(ones, pop.samples1[idx], pop.samples0[idx])
        new.append(const + llr_step(c, child).sum(axis=1))
    return Population(depth=pop.depth + 1, samples0=new[0], samples1=new[1], rng=rng)


def _project_unit_mean(s: np.ndarray) -> np.ndarray:
    """Shift samples so the empirical mean of exp(-L) equals 1 exactly."""
    finite = np.isfinite(s)
    if not finite.any():
        return s
    shift = logsumexp(-s[finite]) - math.log(len(s))
    return s + shift


def population_evolve_anchored(pop: Population, c: BinaryChannel, k: int) -> Population:
    """Stabilized population step for deep runs.

    Identical in expectation to :func:`population_evolve`, but the
    conditional-1 child draws come from the conditional-0 array reweighted
    by ``exp(-L)`` (the exact density ratio between the two laws), and the
    new level is shifted so the empirical mean of ``exp(-L)`` is 1.  Both
    devices remove the slow noise mode that otherwise grows by a factor of
    about ``k * |1-2*eps|`` per level and derails depth-40 runs.
    """
    if pop.size < 1000:
        raise InvalidParameter(f"population size must be >= 1000, got {pop.size}")
    rng = pop.rng
    n = pop.size
    const = k * math.log(c.p00 / c.p10)

    s = pop.samples0
    tilt = _tilt_weights(s)
    ones = rng.random((n, k)) < c.p01
    idx_plain = rng.integers(0, n, size=(n, k))
    idx_tilt = rng.choice(n, size=(n, k), p=tilt)
    child = np.where(ones, s[idx_tilt], s[idx_plain])
    s_new = _project_unit_mean(const + llr_step(c, child).sum(axis=1))
    # slaved conditional-1 array: tilted resample of the new level
    s1_new = s_new[rng.choice(n, size=n, p=_tilt_weights(s_new))]
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
        return np.full(len(s), 1.0 / len(s))
    t = -s
    peak = t[finite].max()
    w = np.exp(np.clip(t - peak, -745.0, 0.0))
    w[~finite] = 0.0  # +inf LLR has zero mass under the tilted law
    return w / w.sum()


def estimate_diagnostics(pop: Population, c: BinaryChannel) -> dict:
    """Plug-in diagnostics with jackknife standard errors.

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

    with np.errstate(over="ignore"):
        t = np.clip(1.0 - np.exp(-s0), 0.0, None)
    tv = float(t.mean())
    se_tv = float(t.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf

    if inf0 > 0 or inf1 > 0:
        gap, se_gap = math.inf, math.inf
    else:
        gap = float(s0.mean() - s1.mean())
        se_gap = float(math.sqrt(s0.var(ddof=1) / n + s1.var(ddof=1) / n))

    a0 = np.asarray(posterior_from_llr(s0, c))
    a1 = np.asarray(posterior_from_llr(s1, c))
    var_a, se_var = _mixture_variance_jackknife(a0, a1, c.pi0)
    return {"tv": tv, "se_tv": se_tv, "mean_gap": gap, "se_mean_gap": se_gap,
            "var_A": var_a, "se_var_A": se_var,
            "inf_mass0": inf0, "inf_mass1": inf1}


def _mixture_variance_jackknife(a0: np.ndarray, a1: np.ndarray,
                                pi0: float) -> tuple[float, float]:
    """Variance of the two-component mixture and its delete-one jackknife SE.

    The statistic is smooth in the four moments (two means, two second
    moments), so the leave-one-out values have a closed form and the
    jackknife runs in linear time over each array.
    """
    pi1 = 1.0 - pi0
    n = len(a0)

    def stat(m0, q0, m1, q1):
        mean = pi0 * m0 + pi1 * m1
        return pi0 * q0 + pi1 * q1 - mean ** 2

    m0, q0 = float(a0.mean()), float((a0 ** 2).mean())
    m1, q1 = float(a1.mean()), float((a1 ** 2).mean())
    value = stat(m0, q0, m1, q1)
    if n < 2:
        return value, math.inf

    loo_m0 = (n * m0 - a0) / (n - 1)
    loo_q0 = (n * q0 - a0 ** 2) / (n - 1)
    t0 = stat(loo_m0, loo_q0, m1, q1)
    loo_m1 = (n * m1 - a1) / (n - 1)
    loo_q1 = (n * q1 - a1 ** 2) / (n - 1)
    t1 = stat(m0, q0, loo_m1, loo_q1)
    var_total = (n - 1) / n * (float(((t0 - t0.mean()) ** 2).sum())
                               + float(((t1 - t1.mean()) ** 2).sum()))
    return value, math.sqrt(var_total)
