"""The package's own scalar numerics, checked against scipy and mpmath.

treecast computes with numpy and the standard library only.  Its root
finder, log-sum-exp, logistic maps and binomial weights are checked here
against the library forms they reproduce (scipy) and against high-precision
truth (mpmath); each reference test skips when its reference is missing.
"""

import math

import numpy as np
import pytest

import treecast.channels as channels_mod
import treecast.threshold as threshold_mod
from treecast import (BadBracket, InvalidParameter, ResourceLimit, bounds_report,
                      llr_from_posterior, posterior_from_llr, symmetric_channel,
                      w_of_lambda)
from treecast.channels import _brentq
from treecast.evolution import _binomial_pmf
from treecast.sampling import _project_unit_mean


def ulps(got, want):
    """|got - want| in units of the spacing at ``want`` (elementwise)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf where both are inf
        dist = np.abs(got - want) / np.spacing(np.abs(want))
    return np.where(got == want, 0.0, dist)


# ------------------------------------------------------------- root finder

def test_brentq_matches_reference_at_every_call_site(monkeypatch):
    """Same root, bit for bit, on every solve of w_of_lambda and the bounds."""
    optimize = pytest.importorskip("scipy.optimize")
    solves = []

    def both(f, a, b, **kw):
        ours = _brentq(f, a, b, **kw)
        solves.append((ours, optimize.brentq(f, a, b, **kw)))
        return ours

    monkeypatch.setattr(channels_mod, "_brentq", both)
    monkeypatch.setattr(threshold_mod, "_brentq", both)
    rng = np.random.default_rng(11)
    lams = np.concatenate([np.logspace(-300, 300, 61), rng.uniform(0.0, 100.0, 20)])
    for lam in lams:
        for k in (1, 2, 3, 5, 10, 40, 1000):
            w_of_lambda(float(lam), k)
    n_lambda = len(solves)
    for k in range(2, 61):
        bounds_report(k, "symmetric")
        bounds_report(k, "hardcore")
    assert n_lambda == len(lams) * 7
    assert len(solves) == n_lambda + 4 * 59  # two crossovers per family
    assert all(ours == ref for ours, ref in solves)


def test_brentq_typed_errors():
    with pytest.raises(BadBracket):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(InvalidParameter):
        # the first bisection lands on 0.5, where f has no value
        _brentq(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0)
    with pytest.raises(ResourceLimit):
        # a sign jump: bisection needs ~1000 halvings of this bracket
        _brentq(lambda x: math.copysign(1.0, x - 1.0 / 3.0), -1e300, 1e300)


def test_brentq_endpoint_root_and_tolerance():
    assert _brentq(lambda x: x - 2.0, 2.0, 5.0) == 2.0
    assert _brentq(lambda x: x - 5.0, 2.0, 5.0) == 5.0
    root = _brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0, xtol=1e-15)
    assert abs(root - 2.0 ** (1.0 / 3.0)) <= 1e-15 + 4 * np.finfo(float).eps * root


# ---------------------------------------------------------------- logsumexp

def test_unit_mean_shift_matches_reference_logsumexp():
    """The shift is scipy's logsumexp to the bit, ties at the maximum included."""
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(12)
    for i in range(1000):
        n = int(rng.integers(1, 1500))
        s = rng.normal(0.0, rng.uniform(0.1, 40.0), n)
        if i % 3 == 0:
            s = np.round(s)  # many exact ties, the maximum among them
        if i % 5 == 0:
            s[rng.integers(0, n, 3)] = s.min()  # tied maxima of -s
        if i % 7 == 0:
            s[rng.integers(0, n)] = math.inf  # left alone, counted in len(s)
        finite = np.isfinite(s)
        want = s + (special.logsumexp(-s[finite]) - math.log(len(s)))
        assert np.array_equal(_project_unit_mean(s), want), i


# ---------------------------------------------------------- logistic maps

def test_logistic_maps_within_two_ulps_of_reference():
    special = pytest.importorskip("scipy.special")
    c = symmetric_channel(0.25)  # ln(pi0/pi1) = 0: the maps are expit and logit
    assert c.log_prior_ratio == 0.0
    rng = np.random.default_rng(13)
    x = np.concatenate([rng.normal(0.0, 5.0, 2000), rng.uniform(-800.0, 800.0, 2000),
                        [-math.inf, -745.0, -1e-300, 0.0, 1e-300, 37.0, math.inf]])
    assert ulps(posterior_from_llr(x, c), special.expit(x)).max() <= 2.0
    a = np.concatenate([rng.uniform(0.0, 1.0, 4000), rng.uniform(0.29, 0.66, 2000),
                        [0.0, 5e-324, 0.3, 0.5, 0.65, 1.0 - 1e-16, 1.0]])
    assert ulps(llr_from_posterior(a, c), special.logit(a)).max() <= 2.0


# ---------------------------------------------------------- binomial weights

BINOMIAL_PROBS = (0.0, 1e-300, 1e-9, 0.001, 0.2, 0.5, 0.8, 1.0 / (1.0 + 1e-3),
                  0.999, 1.0 - 1e-9, 1.0)


@pytest.mark.parametrize("k", list(range(1, 41)) + [200, 1000])
def test_binomial_weights_within_half_ulp_of_truth(k):
    mpmath = pytest.importorskip("mpmath")
    stats = pytest.importorskip("scipy.stats")
    n = np.arange(k + 1)
    for p in BINOMIAL_PROBS:
        got = _binomial_pmf(k, p)
        with mpmath.workdps(60):
            mp_p = mpmath.mpf(p)  # the float p, exactly
            truth = [mpmath.binomial(k, j) * mp_p ** j * (1 - mp_p) ** (k - j)
                     for j in range(k + 1)]
            err = [abs(mpmath.mpf(float(g)) - t) / mpmath.mpf(float(np.spacing(g)))
                   for g, t in zip(got, truth)]
        assert max(err) <= 0.5, (k, p)
        ref = stats.binom.pmf(n, k, p)
        assert np.array_equal(got > 0, ref > 0), (k, p)
