"""Reconstruction decisions, threshold bisection, and bound reports."""

import math
import os
import threading
import time

import numpy as np
import pytest

import treecast.threshold as threshold_mod
from treecast import (
    BadBracket,
    ChannelFamily,
    Decision,
    InvalidParameter,
    base_pair,
    bisect_threshold,
    bounds_report,
    decide_reconstruction,
    deep_policy,
    diagnostics,
    evolve,
    fitted_rate,
    kelly_threshold,
    kesten_stigum_eps_c,
    restricted_bound_crossover,
    trajectory,
)


# ------------------------------------------------------------------ families

def test_family_validation():
    with pytest.raises(InvalidParameter):
        ChannelFamily(kind="gaussian", k=2)
    with pytest.raises(InvalidParameter):
        ChannelFamily(kind="symmetric", k=0)
    fam = ChannelFamily(kind="symmetric", k=2)
    with pytest.raises(InvalidParameter):
        fam.channel(0.7)
    with pytest.raises(InvalidParameter):
        ChannelFamily(kind="hardcore", k=2).channel(0.0)


def test_family_channel_mapping():
    fam = ChannelFamily(kind="symmetric", k=3)
    c = fam.channel(0.2)
    assert abs(c.p01 - 0.2) < 1e-15
    assert fam.decaying_side == "high"
    fam = ChannelFamily(kind="hardcore", k=2)
    c = fam.channel(4.0)  # activity 4 at k=2 is weight 1
    assert abs(c.p01 - 0.5) < 1e-10
    assert fam.decaying_side == "low"


# ---------------------------------------------------------------- rate fits

def test_fitted_rate_recovers_geometric_decay():
    rng = np.random.default_rng(51)
    for _ in range(20):
        r = float(rng.uniform(0.3, 1.1))
        scale = float(rng.uniform(0.1, 5.0))
        curve = [scale * r ** d for d in range(1, 13)]
        assert abs(fitted_rate(curve) - r) < 1e-9


def test_fitted_rate_collapsed_curve():
    assert fitted_rate([0.5, 0.1, 0.0, 0.0]) == 0.0
    with pytest.raises(InvalidParameter):
        fitted_rate([0.5])


# ---------------------------------------------------------------- decisions

def test_decide_subcritical_symmetric():
    fam = ChannelFamily(kind="symmetric", k=2)
    d = decide_reconstruction(fam, 0.3, depth=8)
    assert d.verdict == "decaying"
    assert d.engine == "exact" and d.seed is None
    assert len(d.curve) == 8


def test_decide_supercritical_symmetric():
    fam = ChannelFamily(kind="symmetric", k=2)
    d = decide_reconstruction(fam, 0.05, depth=8)
    assert d.verdict == "non-decaying"
    assert d.statistic > 0.1


def test_decide_uninformative_statistic_exact_zero():
    fam = ChannelFamily(kind="symmetric", k=2)
    d = decide_reconstruction(fam, 0.5, depth=6)
    assert d.statistic == 0.0
    assert d.verdict == "decaying"


def test_decide_validation():
    fam = ChannelFamily(kind="symmetric", k=2)
    with pytest.raises(InvalidParameter):
        decide_reconstruction(fam, 0.3, depth=1)
    with pytest.raises(InvalidParameter):
        decide_reconstruction(fam, 0.3, depth=6, engine="quantum")


def test_decide_inconclusive_band(monkeypatch):
    """A band covering every rate forces the inconclusive verdict, which is
    reported as data."""
    monkeypatch.setattr(threshold_mod, "DECAY_RATE", 1e-9)
    monkeypatch.setattr(threshold_mod, "NONDECAY_RATE", 1.5)
    fam = ChannelFamily(kind="symmetric", k=2)
    d = decide_reconstruction(fam, 0.3, depth=6)
    assert d.verdict == "inconclusive"


def test_decide_population_deterministic():
    fam = ChannelFamily(kind="symmetric", k=2)
    a = decide_reconstruction(fam, 0.3, depth=5, engine="population",
                              pop_size=5000, seed=3)
    b = decide_reconstruction(fam, 0.3, depth=5, engine="population",
                              pop_size=5000, seed=3)
    assert a.curve == b.curve and a.seed == 3
    assert a.verdict == "decaying"


def test_decide_hardcore_sides():
    """Verdicts at depth 8 straddle the shallow-depth pseudo-transition."""
    fam = ChannelFamily(kind="hardcore", k=2)
    low = decide_reconstruction(fam, 1.5, depth=8)
    high = decide_reconstruction(fam, 500.0, depth=8)
    assert low.verdict == "decaying"
    assert high.verdict == "non-decaying"


@pytest.mark.parametrize("kind, param", [("hardcore", 30.0), ("symmetric", 0.2)])
def test_exact_decision_curve_is_the_diagnostics_tv(kind, param):
    """The exact engine reads the TV alone, with the bits of the ``tv`` that
    ``diagnostics`` reports beside the mean gap and ``var_A``."""
    fam = ChannelFamily(kind=kind, k=2)
    c = fam.channel(param)
    d = decide_reconstruction(fam, param, depth=12)
    pairs = trajectory(base_pair(c, 2), lambda p: evolve(p, c, 2, deep_policy()), 12)
    want = [diagnostics(p, c)["tv"] for p in pairs]
    assert np.array(d.curve).tobytes() == np.array(want).tobytes()
    assert d.statistic == want[-1] > 0


# ---------------------------------------------------------------- bisection

def test_bisect_symmetric_cheap_config():
    fam = ChannelFamily(kind="symmetric", k=2)
    est = bisect_threshold(fam, depth=6, engine="exact", tol=0.05,
                           bracket=(0.05, 0.45))
    lo, hi = est.bracket_final
    assert lo < est.estimate < hi
    assert hi - lo <= 0.05
    assert est.engine == "exact" and est.pop_size is None
    assert est.history[0]["param"] == 0.05
    assert est.history[0]["verdict"] == "non-decaying"
    assert est.history[1]["verdict"] == "decaying"
    # crude depth biases the location; only the mechanics are pinned here
    assert 0.05 < est.estimate < 0.45


def test_bisect_hardcore_cheap_config():
    fam = ChannelFamily(kind="hardcore", k=2)
    est = bisect_threshold(fam, depth=6, tol=100.0, bracket=(0.5, 1000.0))
    lo, hi = est.bracket_final
    assert lo < est.estimate < hi and hi - lo <= 100.0
    assert est.family_kind == "hardcore"


def test_bisect_rejects_degenerate_bracket():
    """An empty, reversed or non-finite bracket is refused before the tol
    check, which would refuse tol = 0."""
    fam = ChannelFamily(kind="symmetric", k=2)
    for bracket in ((0.3, 0.3), (0.4, 0.3), (0.1, math.inf), (-math.inf, 0.3),
                    (math.nan, 0.3), (0.1, math.nan)):
        with pytest.raises(BadBracket, match="bracket must be finite with lo < hi"):
            bisect_threshold(fam, depth=6, tol=0.0, bracket=bracket)


def test_bisect_rejects_agreeing_endpoints():
    fam = ChannelFamily(kind="symmetric", k=2)
    with pytest.raises(BadBracket):
        bisect_threshold(fam, depth=6, engine="exact", tol=0.01,
                         bracket=(0.38, 0.46))


def fake_decider(split, inconclusive_below=None):
    def fake(family, param, depth, engine="exact",
             pop_size=100_000, seed=0):
        if inconclusive_below is not None and param < inconclusive_below:
            verdict = "inconclusive"
        else:
            verdict = "decaying" if param > split else "non-decaying"
        return Decision(param=param, depth=depth, engine=engine,
                        statistic=0.5, rate=0.99, verdict=verdict,
                        curve=(0.5,) * depth, seed=seed)
    return fake


def test_bisect_rejects_inverted_orientation(monkeypatch):
    """Decay on the informative side contradicts the family ordering."""
    def inverted(family, param, depth, **kwargs):
        verdict = "decaying" if param < 0.2 else "non-decaying"
        return Decision(param=param, depth=depth, engine="exact",
                        statistic=0.5, rate=0.99, verdict=verdict,
                        curve=(0.5,) * depth, seed=None)
    monkeypatch.setattr(threshold_mod, "decide_reconstruction", inverted)
    fam = ChannelFamily(kind="symmetric", k=2)
    with pytest.raises(BadBracket):
        threshold_mod.bisect_threshold(fam, depth=6, tol=0.01,
                                       bracket=(0.05, 0.45))


def test_bisect_counts_inconclusive_as_nondecaying(monkeypatch):
    """Inconclusive points keep the bracket's non-decaying side."""
    monkeypatch.setattr(threshold_mod, "decide_reconstruction",
                        fake_decider(split=0.3, inconclusive_below=0.3))
    fam = ChannelFamily(kind="symmetric", k=2)
    est = threshold_mod.bisect_threshold(fam, depth=6, tol=0.01,
                                         bracket=(0.05, 0.45))
    assert abs(est.estimate - 0.3) <= 0.01
    assert est.inconclusive_count > 0


def test_bisect_converges_to_planted_split(monkeypatch):
    monkeypatch.setattr(threshold_mod, "decide_reconstruction",
                        fake_decider(split=0.2173))
    fam = ChannelFamily(kind="symmetric", k=2)
    est = threshold_mod.bisect_threshold(fam, depth=6, tol=0.001,
                                         bracket=(0.02, 0.48))
    assert abs(est.estimate - 0.2173) <= 0.001
    lo, hi = est.bracket_final
    assert hi - lo <= 0.001


def test_bisect_rejects_tol_that_cannot_stop(monkeypatch):
    """A tolerance below the bracket's float spacing would halve forever, a
    NaN one would return the initial midpoint."""
    monkeypatch.setattr(threshold_mod, "decide_reconstruction",
                        fake_decider(split=0.2173))
    fam = ChannelFamily(kind="symmetric", k=2)
    for tol in (0.0, -1.0, 1e-20, math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            threshold_mod.bisect_threshold(fam, depth=6, tol=tol,
                                           bracket=(0.02, 0.48))


# ---------------------------------------------- two decisions at a time

def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _recording(decider, calls):
    """``decider`` that records each call's param and thread."""
    def record(family, param, depth, **kwargs):
        calls.append((param, threading.current_thread()))
        return decider(family, param, depth, **kwargs)
    return record


@pytest.mark.parametrize("family, kwargs", [
    (ChannelFamily("symmetric", 2), dict(depth=8, tol=0.03)),
    (ChannelFamily("hardcore", 2), dict(depth=8, tol=100.0, bracket=(1.0, 1000.0))),
], ids=["symmetric", "hardcore"])
def test_bisect_population_two_at_a_time_is_the_sequential_bisection(
        monkeypatch, family, kwargs):
    """With a helper thread, the population estimate and its history are
    the one-at-a-time ones, and the helper did compute some decisions."""
    calls = []
    monkeypatch.setattr(threshold_mod, "decide_reconstruction",
                        _recording(decide_reconstruction, calls))
    runs = {}
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        calls.clear()
        runs[cpus] = bisect_threshold(family, engine="population", pop_size=2000,
                                      seed=5, **kwargs)
        threads = {t for _, t in calls}
        assert (threads == {threading.main_thread()}) == (cpus == 1)
    assert runs[2] == runs[1]
    assert len(runs[1].history) >= 5


def _pause_on_callers_thread():
    """Let a decision on the caller's thread take 30 ms, so the helper has
    run its guess before the caller's decision ends."""
    if threading.current_thread() is threading.main_thread():
        time.sleep(0.03)


def _slow_fake(split, raise_at=(), error=ValueError):
    """``fake_decider`` slowed by :func:`_pause_on_callers_thread` that
    raises ``error`` at the params in ``raise_at``."""
    fake = fake_decider(split)

    def slow(family, param, depth, **kwargs):
        _pause_on_callers_thread()
        if param in raise_at:
            raise error(f"decision at {param} failed")
        return fake(family, param, depth, **kwargs)
    return slow


def _planted(monkeypatch, decider, cpus, engine="population"):
    monkeypatch.setattr(threshold_mod, "decide_reconstruction", decider)
    _cpus(monkeypatch, cpus)
    return threshold_mod.bisect_threshold(ChannelFamily("symmetric", 2), depth=6,
                                          engine=engine, tol=0.01, bracket=(0.02, 0.48))


def test_bisect_drops_errors_off_the_path(monkeypatch):
    """Guesses the bisection never visits may raise; the estimate is still
    the sequential one, and no thread outlives the call."""
    before = threading.active_count()
    sequential = _planted(monkeypatch, _slow_fake(0.2173), cpus=1)
    path = {h["param"] for h in sequential.history}
    calls = []
    _planted(monkeypatch, _recording(_slow_fake(0.2173), calls), cpus=2)
    off_path = {p for p, _ in calls} - path  # the missed guesses
    assert off_path
    calls.clear()
    est = _planted(monkeypatch, _recording(_slow_fake(0.2173, off_path), calls), cpus=2)
    assert est == sequential
    assert {p for p, _ in calls} - path == off_path
    assert threading.active_count() == before


class _Failure(Exception):
    pass


@pytest.mark.parametrize("where", [0.02, 0.48, 0.25, 0.135],
                         ids=["lo", "hi-on-helper", "mid", "guess-on-helper"])
def test_bisect_raises_errors_on_the_path(monkeypatch, where):
    """An error at a visited point reaches the caller as the same exception
    type, whichever thread computed it, and no thread outlives the call."""
    before = threading.active_count()
    for cpus in (1, 2):
        with pytest.raises(_Failure, match=f"decision at {where} failed"):
            _planted(monkeypatch, _slow_fake(0.2173, [where], _Failure), cpus)
        assert threading.active_count() == before


@pytest.mark.parametrize("kind, bracket, tol", [("symmetric", (0.02, 0.48), 0.01),
                                                 ("hardcore", (1.0, 1000.0), 10.0)])
def test_bisect_guesses_the_child_of_a_decaying_midpoint(monkeypatch, kind, bracket, tol):
    """Where every point but the informative endpoint reads decaying, every
    guess is the next midpoint, so no decision is wasted."""
    informative = bracket[0] if kind == "symmetric" else bracket[1]
    calls = []

    def decider(family, param, depth, **kwargs):
        calls.append(param)
        _pause_on_callers_thread()
        verdict = "non-decaying" if param == informative else "decaying"
        return Decision(param=param, depth=depth, engine="population", statistic=0.5,
                        rate=0.99, verdict=verdict, curve=(0.5,) * depth, seed=0)
    monkeypatch.setattr(threshold_mod, "decide_reconstruction", decider)
    _cpus(monkeypatch, 2)
    est = threshold_mod.bisect_threshold(ChannelFamily(kind, 2), depth=6,
                                         engine="population", tol=tol, bracket=bracket)
    assert sorted(calls) == sorted(h["param"] for h in est.history)
    assert len(est.history) >= 7


def test_bisect_helper_keeps_the_callers_errstate(monkeypatch):
    """A decision on the helper thread runs under the caller's numpy error
    handling, as it would on the caller's thread."""
    seen = []
    fake = fake_decider(0.2173)

    def record(family, param, depth, **kwargs):
        seen.append((threading.current_thread(), np.geterr()["over"]))
        return fake(family, param, depth, **kwargs)
    with np.errstate(over="raise"):
        _planted(monkeypatch, record, cpus=2)
    assert {t for t, _ in seen} != {threading.main_thread()}
    assert {over for _, over in seen} == {"raise"}


@pytest.mark.parametrize("cpus, engine", [(1, "population"), (2, "exact")])
def test_bisect_one_at_a_time_on_the_callers_thread(monkeypatch, cpus, engine):
    """With one CPU, or on the exact engine, each visited point is decided
    once, in order, on the caller's thread."""
    calls = []
    est = _planted(monkeypatch, _recording(fake_decider(0.2173), calls), cpus, engine)
    assert [p for p, _ in calls] == [h["param"] for h in est.history]
    assert {t for _, t in calls} == {threading.main_thread()}


# ------------------------------------------------------------ bound reports

def test_crossover_reproduces_uniqueness_threshold():
    """Both restricted bounds cross 1/k exactly at the uniqueness activity,
    also where the activity at w = 1e6 would overflow (k >= 51)."""
    for k in (2, 3, 4, 51, 100, 1000):
        target = kelly_threshold(k)
        for which in ("geometric", "mossel_peres"):
            got = restricted_bound_crossover(k, which)
            assert abs(got - target) < 1e-6 * max(1.0, target), (k, which)
            assert abs(got - target) < 1e-10 * target, (k, which)
    for k in (1, 2.5, None, "3"):
        with pytest.raises(InvalidParameter):
            restricted_bound_crossover(k)
    with pytest.raises(InvalidParameter):
        restricted_bound_crossover(2, which="spectral")


def test_bounds_report_symmetric():
    d = bounds_report(2, "symmetric")
    assert abs(d["ks_eps"] - kesten_stigum_eps_c(2)) < 1e-12
    assert abs(d["ks_eps"] - 0.146447) < 1e-5
    # all three criteria cross at the same flip probability
    assert abs(d["mp_crossover_eps"] - d["ks_eps"]) < 1e-9
    assert abs(d["geometric_crossover_eps"] - d["ks_eps"]) < 1e-9
    assert "kelly" not in d and "bw_lower_w" not in d


def test_bounds_report_hardcore_small_k():
    d = bounds_report(2, "hardcore")
    assert abs(d["kelly"] - 4.0) < 1e-12
    assert abs(d["activity_lower_bound"] - (math.e - 1.0)) < 1e-15
    assert d["stronger_lower_bound"] == "kelly"
    assert abs(d["mp_crossover_lambda"] - 4.0) < 1e-6
    assert abs(d["geometric_crossover_lambda"] - 4.0) < 1e-6
    assert "bw_lower_w" not in d  # comparison curve needs k >= 3
    assert "ks_eps" not in d


def test_bounds_report_hardcore_large_k():
    """At k = 10 the uniqueness threshold drops below the constant bound."""
    d = bounds_report(10, "hardcore")
    assert d["kelly"] < d["activity_lower_bound"]
    assert d["stronger_lower_bound"] == "activity_constant"
    assert abs(d["bw_lower_w"] - 0.146855264774609) < 1e-12
    assert d["bw_lower_lambda"] > d["bw_lower_w"]


def test_bounds_report_validation():
    with pytest.raises(InvalidParameter):
        bounds_report(1, "hardcore")
    with pytest.raises(InvalidParameter):
        bounds_report(2, "poisson")
