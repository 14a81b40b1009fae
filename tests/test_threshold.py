"""Reconstruction decisions, threshold bisection, and bound reports."""

import math

import numpy as np
import pytest

import treecast.threshold as threshold_mod
from treecast import (
    BadBracket,
    ChannelFamily,
    Decision,
    InvalidParameter,
    bisect_threshold,
    bounds_report,
    decide_reconstruction,
    fitted_rate,
    kelly_threshold,
    kesten_stigum_eps_c,
    restricted_bound_crossover,
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
        assert abs(fitted_rate(curve, 12) - r) < 1e-9


def test_fitted_rate_collapsed_curve():
    assert fitted_rate([0.5, 0.1, 0.0, 0.0], 4) == 0.0
    with pytest.raises(InvalidParameter):
        fitted_rate([0.5], 1)


# ---------------------------------------------------------------- decisions

def test_decide_subcritical_symmetric():
    fam = ChannelFamily(kind="symmetric", k=2)
    d = decide_reconstruction(fam, 0.3, depth=8)
    assert d.verdict == "decaying" and d.decaying is True
    assert d.engine == "exact" and d.seed is None
    assert len(d.curve) == 8


def test_decide_supercritical_symmetric():
    fam = ChannelFamily(kind="symmetric", k=2)
    d = decide_reconstruction(fam, 0.05, depth=8)
    assert d.verdict == "non-decaying" and d.decaying is False
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
    assert d.verdict == "inconclusive" and d.decaying is None


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
    fam = ChannelFamily(kind="symmetric", k=2)
    with pytest.raises(BadBracket):
        bisect_threshold(fam, depth=6, bracket=(0.3, 0.3))


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


# ------------------------------------------------------------ bound reports

def test_crossover_reproduces_uniqueness_threshold():
    """Both restricted bounds cross 1/k exactly at the uniqueness activity."""
    for k in (2, 3, 4):
        target = kelly_threshold(k)
        for which in ("geometric", "mossel_peres"):
            got = restricted_bound_crossover(k, which)
            assert abs(got - target) < 1e-6 * max(1.0, target), (k, which)
    with pytest.raises(InvalidParameter):
        restricted_bound_crossover(1)
    with pytest.raises(InvalidParameter):
        restricted_bound_crossover(2, which="spectral")


def test_bounds_report_symmetric():
    rep = bounds_report(2, "symmetric")
    d = rep.as_dict()
    assert abs(d["ks_eps"] - kesten_stigum_eps_c(2)) < 1e-12
    assert abs(d["ks_eps"] - 0.146447) < 1e-5
    # all three criteria cross at the same flip probability
    assert abs(d["mp_crossover_eps"] - d["ks_eps"]) < 1e-9
    assert abs(d["geometric_crossover_eps"] - d["ks_eps"]) < 1e-9
    assert "kelly" not in d and "bw_lower_w" not in d


def test_bounds_report_hardcore_small_k():
    rep = bounds_report(2, "hardcore")
    d = rep.as_dict()
    assert abs(d["kelly"] - 4.0) < 1e-12
    assert abs(d["activity_lower_bound"] - (math.e - 1.0)) < 1e-15
    assert d["stronger_lower_bound"] == "kelly"
    assert abs(d["mp_crossover_lambda"] - 4.0) < 1e-6
    assert abs(d["geometric_crossover_lambda"] - 4.0) < 1e-6
    assert "bw_lower_w" not in d  # comparison curve needs k >= 3
    assert "ks_eps" not in d


def test_bounds_report_hardcore_large_k():
    """At k = 10 the uniqueness threshold drops below the constant bound."""
    rep = bounds_report(10, "hardcore")
    d = rep.as_dict()
    assert d["kelly"] < d["activity_lower_bound"]
    assert d["stronger_lower_bound"] == "activity_constant"
    assert abs(d["bw_lower_w"] - 0.146855264774609) < 1e-12
    assert d["bw_lower_lambda"] > d["bw_lower_w"]


def test_bounds_report_validation():
    with pytest.raises(InvalidParameter):
        bounds_report(1, "hardcore")
    with pytest.raises(InvalidParameter):
        bounds_report(2, "poisson")
