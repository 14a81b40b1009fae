"""Reconstruction decisions, threshold bisection, and bound reports.

A decision point runs density evolution (exact or population engine) to a
chosen depth, collects the total-variation curve between the two
conditional laws, and classifies its tail with one fixed rule: a last
value below ``FLOOR`` or a fitted geometric rate below ``DECAY_RATE``
means the root information dies out; a fitted rate above
``NONDECAY_RATE`` means it persists; rates inside the band are reported
as inconclusive data rather than silently resolved.  Bisection over a
monotone one-parameter family then brackets the transition;
inconclusive midpoints are counted as non-decaying so the bracket
always keeps its decaying portion, which keeps the estimate on the
conservative side of the ambiguity band.

``bounds_report`` returns a dict of every closed-form comparison value
for a family, by name: the symmetric-channel critical flip probability,
the hard-core uniqueness threshold, the constant activity lower bound
``e - 1``, and the large-k comparison curve for the critical occupation
weight.  One solver, ``_crossover``, finds every parameter where an
impossibility bound's statistic crosses ``1/k``: in the flip probability
for the symmetric family, and in the occupation weight for the hard-core
family, where the crossing recovers the uniqueness threshold.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BadBracket, InvalidParameter
from .channels import (BinaryChannel, _LOG_FLOAT_MAX, _bisect_root, _real,
                       _count, symmetric_channel, hardcore_channel,
                       w_of_lambda, lambda_of_w, kelly_threshold, kesten_stigum_eps_c,
                       brightwell_winkler_lower_w, mossel_peres_lhs,
                       geometric_mean_bound_lhs)
from .evolution import deep_policy, base_pair, evolve, diagnostics, trajectory
from .sampling import (_population_size, population_from_pair, population_evolve_anchored,
                       population_tv)

# The decision rule.  Below FLOOR the TV statistic counts as fully decayed
# whatever its fitted rate (deep-collapsed populations sit at float-residual
# values whose fitted rate reads exactly 1); fitted rates between
# DECAY_RATE and NONDECAY_RATE are inconclusive.
FLOOR = 1e-10
DECAY_RATE = 0.985
NONDECAY_RATE = 0.995


@dataclass(frozen=True)
class ChannelFamily:
    """One-parameter channel family ordered by information content.

    ``symmetric`` is parametrized by the flip probability (less
    informative as it grows toward 1/2); ``hardcore`` by the activity
    (more informative as it grows).
    """

    kind: str
    k: int

    def __post_init__(self):
        if self.kind not in ("symmetric", "hardcore"):
            raise InvalidParameter(f"unknown family kind {self.kind!r}")
        _count("k", self.k)

    def channel(self, param: float) -> BinaryChannel:
        param = _real(f"{self.kind} parameter", param)
        if self.kind == "symmetric":
            if not 0.0 <= param <= 0.5:
                raise InvalidParameter(
                    f"symmetric parameter must be in [0, 0.5], got {param}")
            return symmetric_channel(param)
        return hardcore_channel(w_of_lambda(param, self.k))

    @property
    def decaying_side(self) -> str:
        """Which end of the parameter axis loses the root information."""
        return "high" if self.kind == "symmetric" else "low"


@dataclass(frozen=True)
class Decision:
    """Outcome of one reconstruction decision point."""

    param: float
    depth: int
    engine: str
    statistic: float
    rate: float
    verdict: str  # "decaying" | "non-decaying" | "inconclusive"
    curve: tuple
    seed: int | None


def fitted_rate(curve) -> float:
    """Least-squares geometric rate of the curve tail (depths d/2 .. d).

    ``curve[i]`` is the value at depth ``i + 1``, so ``d = len(curve)``.  A
    non-positive value in the window means the curve already collapsed;
    the rate is reported as 0.
    """
    depth = len(curve)
    start = max(depth // 2, 1)
    window = np.asarray(curve[start - 1:], dtype=np.float64)
    depths = np.arange(start, depth + 1, dtype=np.float64)
    if len(window) < 2:
        raise InvalidParameter("need at least two depths to fit a rate")
    if np.any(window <= 0):
        return 0.0
    slope = np.polyfit(depths, np.log(window), 1)[0]
    return float(np.exp(slope))


def decide_reconstruction(family: ChannelFamily, param: float, depth: int,
                          engine: str = "exact",
                          pop_size: int = 100_000, seed: int = 0) -> Decision:
    """Classify one family point as decaying / non-decaying / inconclusive.

    Parameters
    ----------
    engine : str
        "exact" (the lattice upper law of ``deep_policy()``) or
        "population" (anchored population dynamics of size ``pop_size``).

    Returns
    -------
    Decision
    """
    depth = _count("depth", depth, 2)
    if engine not in ("exact", "population"):
        raise InvalidParameter(f"unknown engine {engine!r}")
    c, k = family.channel(param), family.k
    first = base_pair(c, k)
    if engine == "exact":
        step = lambda p: evolve(p, c, k, deep_policy())
        measure = lambda p: diagnostics(p, c)["tv"]
        used_seed = None
    else:
        # a step too large for the cap is refused before the first draw
        first = population_from_pair(first, _population_size(pop_size, k), seed)
        step = lambda p: population_evolve_anchored(p, c, k)
        measure = population_tv
        used_seed = seed
    curve = [measure(s) for s in trajectory(first, step, depth)]

    stat = float(curve[-1])
    rate = fitted_rate(curve)
    if stat < FLOOR or rate < DECAY_RATE:
        verdict = "decaying"
    elif rate > NONDECAY_RATE:
        verdict = "non-decaying"
    else:
        verdict = "inconclusive"
    return Decision(param=param, depth=depth, engine=engine, statistic=stat,
                    rate=rate, verdict=verdict, curve=tuple(curve), seed=used_seed)


def _usable_cpus() -> int:
    """CPUs this process may run on (``sched_getaffinity`` is Linux-only)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ThresholdEstimate:
    """Bisection result with full evaluation history."""

    family_kind: str
    k: int
    depth: int
    engine: str
    diagnostic: str
    estimate: float
    bracket_initial: tuple
    bracket_final: tuple
    tol: float
    seed: int
    pop_size: int | None
    history: tuple  # of {"param", "verdict", "rate", "statistic"}
    inconclusive_count: int


def bisect_threshold(family: ChannelFamily, depth: int | None = None,
                     engine: str | None = None, tol: float | None = None,
                     seed: int = 0, bracket: tuple | None = None,
                     pop_size: int = 100_000) -> ThresholdEstimate:
    """Bracket the reconstruction transition of a monotone family.

    Inconclusive verdicts count as non-decaying, so the bracket always
    keeps its decaying portion; their number is recorded on the estimate.

    On the population engine, when the process may use two CPUs or more,
    decisions run two at a time: one helper thread computes the endpoint
    ``hi`` while the caller's thread computes ``lo``, and then, beside
    each midpoint not already computed, the midpoint the bisection visits
    next if that one reads decaying.  Every decision draws its own stream
    from ``seed``, so the estimate and ``history`` are those of the
    one-at-a-time bisection: ``history`` lists the visited points only, in
    visiting order, and a guess off the path is dropped with any error it
    raised.  An interrupt (Ctrl-C) waits for at most the helper's running
    decision.  The exact engine, whose decisions gain nothing from a
    second thread, runs them one at a time on the caller's thread.

    Defaults: population engine (N = ``pop_size``) at depth 40 for the
    symmetric family (the exact curve's transient at shallow depth biases
    the bracket low near the transition, while the anchored population at
    depth 40 is calibrated to a few-thousandths error), exact engine at
    depth 12 for the hard-core family; bracket (0.02, 0.48) with tol
    0.005 for the symmetric family, (1.0, 100.0) with tol 0.5 for the
    hard-core family.

    The exact engine steps with ``deep_policy()``, the lattice upper law
    of width ``LATTICE_WIDTH``: every TV on its curve is at least the
    exact law's, by O(``LATTICE_WIDTH``).  So a "decaying" verdict from
    a last value below ``FLOOR`` holds for the exact curve too; a fitted
    rate has no such direction, and near the crossing a verdict can move
    with the width (the hard-core k=2 default gives 78.15 at widths 2e-3
    and 1e-3 alike).

    Raises
    ------
    InvalidParameter
        If ``tol`` or an endpoint of the bracket is not a real number in
        the float64 range, the bracket does not hold two endpoints, or
        ``tol`` is not finite or is below the float spacing of the bracket
        (zero and negative values included), where the halving would never
        stop.
    BadBracket
        If an endpoint of the bracket is not finite or ``lo >= hi``, or if
        the endpoint verdicts agree, or disagree with the family's monotone
        orientation.
    """
    if engine is None:
        engine = "population" if family.kind == "symmetric" else "exact"
    if depth is None:
        depth = 12 if engine == "exact" else 40
    if tol is None:
        tol = 0.005 if family.kind == "symmetric" else 0.5
    if bracket is None:
        bracket = (0.02, 0.48) if family.kind == "symmetric" else (1.0, 100.0)
    if len(bracket) != 2:
        raise InvalidParameter(f"bracket must hold two endpoints, got {len(bracket)}")
    lo, hi = _real("bracket lo", bracket[0]), _real("bracket hi", bracket[1])
    tol = _real("tol", tol)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise BadBracket(f"bracket must be finite with lo < hi, got ({lo}, {hi})")
    # a bracket narrower than one float spacing cannot be halved any further
    if not (math.isfinite(tol) and tol >= math.ulp(max(abs(lo), abs(hi)))):
        raise InvalidParameter(
            f"tol must be finite and at least the bracket's float spacing, got {tol}")

    def decide(param: float) -> Decision:
        return decide_reconstruction(family, param, depth, engine=engine,
                                     pop_size=pop_size, seed=seed)

    expect_decay_at_hi = family.decaying_side == "high"
    history = []
    ahead = {}  # param -> the helper's Future for it
    pool = None
    if engine == "population" and _usable_cpus() >= 2:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=1)

    def run_ahead(param: float) -> None:
        # in a copy of the caller's context, so its numpy errstate holds there
        ahead[param] = pool.submit(contextvars.copy_context().run, decide, param)

    def visit(param: float) -> bool:
        fut = ahead.pop(param, None)
        d = decide(param) if fut is None else fut.result()
        history.append({"param": param, "verdict": d.verdict,
                        "rate": d.rate, "statistic": d.statistic})
        return d.verdict == "decaying"

    try:
        if pool is not None:
            run_ahead(hi)
        decay_lo = visit(lo)
        decay_hi = visit(hi)
        if decay_lo == decay_hi:
            raise BadBracket(
                f"both endpoints read {'decaying' if decay_lo else 'non-decaying'}; "
                f"widen the bracket ({lo}, {hi})")
        if decay_hi != expect_decay_at_hi:
            raise BadBracket(
                "endpoint verdicts contradict the family's monotone orientation: "
                f"decaying side should be {family.decaying_side}")

        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if pool is not None and mid not in ahead:
                # a missed guess lies outside the bracket from here on
                for fut in ahead.values():
                    fut.cancel()
                ahead.clear()
                # the midpoint the loop visits next if this one reads decaying
                if expect_decay_at_hi and mid - lo > tol:
                    run_ahead(0.5 * (lo + mid))
                elif not expect_decay_at_hi and hi - mid > tol:
                    run_ahead(0.5 * (mid + hi))
            if visit(mid) == expect_decay_at_hi:
                hi = mid
            else:
                lo = mid
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    return ThresholdEstimate(
        family_kind=family.kind, k=family.k, depth=depth, engine=engine,
        diagnostic="tv", estimate=0.5 * (lo + hi),
        bracket_initial=(float(bracket[0]), float(bracket[1])),
        bracket_final=(lo, hi), tol=tol, seed=seed,
        pop_size=pop_size if engine == "population" else None,
        history=tuple(history),
        inconclusive_count=sum(h["verdict"] == "inconclusive" for h in history))


def _crossover(k: int, stat, channel, lo: float, hi: float) -> float:
    """The parameter in ``[lo, hi]`` where ``stat(channel(x))`` crosses ``1/k``."""
    return _bisect_root(lambda x: stat(channel(x)) - 1.0 / k, lo, hi)


def restricted_bound_crossover(k: int, which: str = "geometric") -> float:
    """Activity where an impossibility bound restricted to the hard-core
    family stops certifying (its statistic crosses ``1/k``).

    Solved numerically in the occupation weight and mapped to the
    activity; for both supported bounds the crossing reproduces the
    uniqueness threshold ``k**k/(k-1)**(k+1)``.
    """
    k = _count("k", k, 2)
    if which == "geometric":
        stat = geometric_mean_bound_lhs
    elif which == "mossel_peres":
        stat = mossel_peres_lhs
    else:
        raise InvalidParameter(f"unknown bound {which!r}")
    # (k+1)*ln(1+w) bounds ln(w*(1+w)**k), so the activity at hi is finite
    hi = min(1e6, math.expm1(_LOG_FLOAT_MAX / (k + 1)))
    return lambda_of_w(_crossover(k, stat, hardcore_channel, 1e-9, hi), k)


def bounds_report(k: int, family_kind: str) -> dict:
    """Every closed-form bound relevant to a family, by name.

    Both families report ``family_kind`` and ``k``.  For the symmetric
    family: ``ks_eps``, the eigenvalue criterion's critical flip
    probability, and ``mp_crossover_eps`` and ``geometric_crossover_eps``,
    where the two impossibility bounds cross ``1/k``; they cross at
    ``ks_eps`` itself, and both crossings are solved numerically as a
    consistency exercise.  For the hard-core family: ``kelly``, the
    uniqueness threshold; ``activity_lower_bound``, the constant ``e - 1``;
    ``stronger_lower_bound``, which of the two is larger (``"kelly"`` or
    ``"activity_constant"``); ``mp_crossover_lambda`` and
    ``geometric_crossover_lambda`` from :func:`restricted_bound_crossover`;
    and, for ``k >= 3``, the large-k comparison curve for the critical
    occupation weight, ``bw_lower_w``, and its activity ``bw_lower_lambda``.
    """
    if family_kind not in ("symmetric", "hardcore"):
        raise InvalidParameter(f"unknown family kind {family_kind!r}")
    k = _count("k", k, 2)
    report = {"family_kind": family_kind, "k": k}
    if family_kind == "symmetric":
        report["ks_eps"] = kesten_stigum_eps_c(k)
        for name, stat in (("mp", mossel_peres_lhs), ("geometric", geometric_mean_bound_lhs)):
            report[f"{name}_crossover_eps"] = _crossover(k, stat, symmetric_channel,
                                                         1e-9, 0.5 - 1e-12)
        return report
    kelly, const = kelly_threshold(k), math.e - 1.0
    report.update(kelly=kelly, activity_lower_bound=const,
                  stronger_lower_bound="kelly" if kelly > const else "activity_constant",
                  mp_crossover_lambda=restricted_bound_crossover(k, "mossel_peres"),
                  geometric_crossover_lambda=restricted_bound_crossover(k, "geometric"))
    if k >= 3:
        bw_w = brightwell_winkler_lower_w(k)
        report.update(bw_lower_w=bw_w, bw_lower_lambda=lambda_of_w(bw_w, k))
    return report
