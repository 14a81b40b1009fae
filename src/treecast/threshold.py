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

``bounds_report`` collects every closed-form comparison value for a
family: the symmetric-channel critical flip probability, the hard-core
uniqueness threshold (recovered numerically as the activity where the
occupancy-restricted geometric-mean bound stops certifying
impossibility), the constant activity lower bound ``e - 1``, and the
large-k comparison curve for the critical occupation weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy.optimize import brentq

from .errors import BadBracket, InvalidParameter
from .channels import (BinaryChannel, symmetric_channel, hardcore_channel,
                       w_of_lambda, lambda_of_w, kelly_threshold,
                       kesten_stigum_eps_c, brightwell_winkler_lower_w,
                       mossel_peres_lhs, geometric_mean_bound_lhs)
from .evolution import deep_policy, base_pair, evolve, diagnostics, trajectory
from .sampling import population_from_pair, population_evolve_anchored, estimate_diagnostics

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
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise InvalidParameter(f"k must be a positive integer, got {self.k!r}")

    def channel(self, param: float) -> BinaryChannel:
        if self.kind == "symmetric":
            if not 0.0 <= param <= 0.5:
                raise InvalidParameter(
                    f"symmetric parameter must be in [0, 0.5], got {param}")
            return symmetric_channel(param)
        if param <= 0:
            raise InvalidParameter(f"activity must be positive, got {param}")
        c, _ = hardcore_channel(w_of_lambda(param, self.k), self.k)
        return c

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

    @property
    def decaying(self):
        """True/False, or None when the verdict is inconclusive."""
        if self.verdict == "inconclusive":
            return None
        return self.verdict == "decaying"


def fitted_rate(curve, depth: int) -> float:
    """Least-squares geometric rate of the curve tail (depths d/2 .. d).

    A non-positive value in the window means the curve already collapsed;
    the rate is reported as 0.
    """
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
        "exact" (atom convolution with the deep policy) or
        "population" (anchored population dynamics of size ``pop_size``).

    Returns
    -------
    Decision
    """
    if depth < 2:
        raise InvalidParameter(f"depth must be >= 2, got {depth}")
    if engine not in ("exact", "population"):
        raise InvalidParameter(f"unknown engine {engine!r}")
    c, k = family.channel(param), family.k
    first = base_pair(c, k)
    if engine == "exact":
        step = lambda p: evolve(p, c, k, deep_policy())
        measure = diagnostics
        used_seed = None
    else:
        first = population_from_pair(first, pop_size, seed)
        step = lambda p: population_evolve_anchored(p, c, k)
        measure = estimate_diagnostics
        used_seed = seed
    curve = [measure(s, c)["tv"] for s in trajectory(first, step, depth)]

    stat = float(curve[-1])
    rate = fitted_rate(curve, depth)
    if stat < FLOOR or rate < DECAY_RATE:
        verdict = "decaying"
    elif rate > NONDECAY_RATE:
        verdict = "non-decaying"
    else:
        verdict = "inconclusive"
    return Decision(param=param, depth=depth, engine=engine, statistic=stat,
                    rate=rate, verdict=verdict, curve=tuple(curve), seed=used_seed)


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

    Defaults: population engine (N = ``pop_size``) at depth 40 for the
    symmetric family (the exact curve's transient at shallow depth biases
    the bracket low near the transition, while the anchored population at
    depth 40 is calibrated to a few-thousandths error), exact engine at
    depth 12 for the hard-core family; bracket (0.02, 0.48) with tol
    0.005 for the symmetric family, (1.0, 100.0) with tol 0.5 for the
    hard-core family.

    Raises
    ------
    InvalidParameter
        If ``tol`` is not finite or is below the float spacing of the
        bracket (zero and negative values included), where the halving
        would never stop.
    BadBracket
        If the endpoint verdicts agree, or disagree with the family's
        monotone orientation.
    """
    if engine is None:
        engine = "population" if family.kind == "symmetric" else "exact"
    if depth is None:
        depth = 12 if engine == "exact" else 40
    if tol is None:
        tol = 0.005 if family.kind == "symmetric" else 0.5
    if bracket is None:
        bracket = (0.02, 0.48) if family.kind == "symmetric" else (1.0, 100.0)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BadBracket(f"bracket must satisfy lo < hi, got ({lo}, {hi})")
    # a bracket narrower than one float spacing cannot be halved any further
    if not (math.isfinite(tol) and tol >= math.ulp(max(abs(lo), abs(hi)))):
        raise InvalidParameter(
            f"tol must be finite and at least the bracket's float spacing, got {tol}")

    history = []
    inconclusive = 0

    def eval_point(param: float) -> bool:
        nonlocal inconclusive
        d = decide_reconstruction(family, param, depth, engine=engine,
                                  pop_size=pop_size, seed=seed)
        if d.verdict == "inconclusive":
            inconclusive += 1
        history.append({"param": param, "verdict": d.verdict,
                        "rate": d.rate, "statistic": d.statistic})
        return d.verdict == "decaying"

    decay_lo = eval_point(lo)
    decay_hi = eval_point(hi)
    if decay_lo == decay_hi:
        raise BadBracket(
            f"both endpoints read {'decaying' if decay_lo else 'non-decaying'}; "
            f"widen the bracket ({lo}, {hi})")
    expect_decay_at_hi = family.decaying_side == "high"
    if decay_hi != expect_decay_at_hi:
        raise BadBracket(
            "endpoint verdicts contradict the family's monotone orientation: "
            f"decaying side should be {family.decaying_side}")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if eval_point(mid) == expect_decay_at_hi:
            hi = mid
        else:
            lo = mid

    return ThresholdEstimate(
        family_kind=family.kind, k=family.k, depth=depth, engine=engine,
        diagnostic="tv", estimate=0.5 * (lo + hi),
        bracket_initial=(float(bracket[0]), float(bracket[1])),
        bracket_final=(lo, hi), tol=tol, seed=seed,
        pop_size=pop_size if engine == "population" else None,
        history=tuple(history), inconclusive_count=inconclusive)


def restricted_bound_crossover(k: int, which: str = "geometric") -> float:
    """Activity where an impossibility bound restricted to the hard-core
    family stops certifying (its statistic crosses ``1/k``).

    Solved numerically in the occupation weight and mapped to the
    activity; for both supported bounds the crossing reproduces the
    uniqueness threshold ``k**k/(k-1)**(k+1)``.
    """
    if k < 2:
        raise InvalidParameter(f"crossover requires k >= 2, got {k}")
    if which == "geometric":
        stat = geometric_mean_bound_lhs
    elif which == "mossel_peres":
        stat = mossel_peres_lhs
    else:
        raise InvalidParameter(f"unknown bound {which!r}")

    def excess(w: float) -> float:
        c, _ = hardcore_channel(w, k)
        return stat(c) - 1.0 / k

    w_star = brentq(excess, 1e-9, 1e6, xtol=1e-15, rtol=8.9e-16)
    return lambda_of_w(w_star, k)


@dataclass(frozen=True)
class BoundsReport:
    """Closed-form comparison values for one family at one branching number.

    Fields irrelevant to the family are None and dropped by
    :meth:`as_dict`.
    """

    family_kind: str
    k: int
    ks_eps: float | None = None
    mp_crossover_eps: float | None = None
    geometric_crossover_eps: float | None = None
    kelly: float | None = None
    activity_lower_bound: float | None = None
    stronger_lower_bound: str | None = None
    bw_lower_w: float | None = None
    bw_lower_lambda: float | None = None
    mp_crossover_lambda: float | None = None
    geometric_crossover_lambda: float | None = None

    def as_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


def bounds_report(k: int, family_kind: str) -> BoundsReport:
    """Aggregate every closed-form bound relevant to a family.

    For the symmetric family the two impossibility bounds cross ``1/k`` at
    the same flip probability as the eigenvalue criterion; both crossings
    are located numerically as a consistency exercise.  For the hard-core
    family the report compares the uniqueness threshold against the
    constant activity lower bound ``e - 1`` and includes the large-k
    comparison curve for the critical occupation weight (``k >= 3``).
    """
    if family_kind not in ("symmetric", "hardcore"):
        raise InvalidParameter(f"unknown family kind {family_kind!r}")
    if not (isinstance(k, (int, np.integer)) and k >= 2):
        raise InvalidParameter(f"bounds_report requires integer k >= 2, got {k!r}")
    k = int(k)
    if family_kind == "symmetric":
        def eps_cross(stat):
            def excess(eps: float) -> float:
                return stat(symmetric_channel(eps)) - 1.0 / k
            return brentq(excess, 1e-9, 0.5 - 1e-12, xtol=1e-15)
        return BoundsReport(
            family_kind=family_kind, k=k,
            ks_eps=kesten_stigum_eps_c(k),
            mp_crossover_eps=eps_cross(mossel_peres_lhs),
            geometric_crossover_eps=eps_cross(geometric_mean_bound_lhs))

    kelly = kelly_threshold(k)
    const = math.e - 1.0
    bw_w = brightwell_winkler_lower_w(k) if k >= 3 else None
    return BoundsReport(
        family_kind=family_kind, k=k,
        kelly=kelly,
        activity_lower_bound=const,
        stronger_lower_bound="kelly" if kelly > const else "activity_constant",
        bw_lower_w=bw_w,
        bw_lower_lambda=lambda_of_w(bw_w, k) if bw_w is not None else None,
        mp_crossover_lambda=restricted_bound_crossover(k, "mossel_peres"),
        geometric_crossover_lambda=restricted_bound_crossover(k, "geometric"))
