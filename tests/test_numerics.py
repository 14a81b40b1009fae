"""The package's own scalar numerics, checked against high-precision truth.

treecast computes with numpy and the standard library only.  Its root
finder is checked for the bracket it ends on and, against mpmath, for an
accuracy no worse than scipy's Brent solver at the tolerances the package
once passed it; log-sum-exp, the logistic maps and the binomial weights are
checked against the scipy forms they reproduce and against mpmath.  Each
reference test skips when its reference is missing.
"""

import math

import numpy as np
import pytest

import treecast.channels as channels_mod
import treecast.threshold as threshold_mod
from treecast import (BadBracket, InvalidParameter, bounds_report,
                      posterior_from_llr,
                      restricted_bound_crossover, symmetric_channel, w_of_lambda)
from treecast.channels import _bisect_root
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

LAMBDAS = np.concatenate([np.logspace(-300, 300, 61),
                          np.random.default_rng(11).uniform(0.0, 100.0, 20)])
LAMBDA_KS = (1, 2, 3, 5, 10, 40, 1000)
BOUND_KS = range(2, 61)


def solve_lambdas():
    return [w_of_lambda(float(lam), k) for lam in LAMBDAS for k in LAMBDA_KS]


def solve_hardcore_crossovers():
    return [restricted_bound_crossover(k, which) for k in BOUND_KS
            for which in ("geometric", "mossel_peres")]


def solve_symmetric_crossovers():
    reports = [bounds_report(k, "symmetric") for k in BOUND_KS]
    return [r[key] for r in reports for key in ("mp_crossover_eps", "geometric_crossover_eps")]


def use_root_finder(monkeypatch, finder):
    monkeypatch.setattr(channels_mod, "_bisect_root", finder)
    monkeypatch.setattr(threshold_mod, "_bisect_root", finder)


def test_every_call_site_solve_ends_on_an_adjacent_float_sign_change(monkeypatch):
    """Each solve returns an exact zero, or the endpoint with the smaller
    |f| of a bracket of two adjacent floats across which f changes sign."""
    solves = []

    def recording(f, lo, hi):
        root = _bisect_root(f, lo, hi)
        solves.append((f, lo, hi, root))
        return root

    use_root_finder(monkeypatch, recording)
    solve_lambdas()
    solve_hardcore_crossovers()
    solve_symmetric_crossovers()
    # w_of_lambda solves twice: in ln w, then in w
    assert len(solves) == 2 * len(LAMBDAS) * len(LAMBDA_KS) + 4 * len(BOUND_KS)
    for f, lo, hi, root in solves:
        assert lo <= root <= hi
        froot = f(root)
        if froot == 0:
            continue
        ends = [n for n in (math.nextafter(root, lo), math.nextafter(root, hi))
                if lo <= n <= hi and (f(n) == 0 or (f(n) < 0) != (froot < 0))]
        assert ends, (lo, hi, root)
        assert any(abs(froot) <= abs(f(n)) for n in ends), (lo, hi, root)


# (site, solves, tolerances the site passed to Brent's method, truth)
CALL_SITES = (
    ("w_of_lambda", solve_lambdas, (1e-15, 8.9e-16), None),
    ("hardcore crossover", solve_hardcore_crossovers, (1e-15, 8.9e-16),
     lambda mp: [mp.mpf(k) ** k / mp.mpf(k - 1) ** (k + 1)
                 for k in BOUND_KS for _ in range(2)]),
    ("symmetric crossover", solve_symmetric_crossovers,
     (1e-15, 4 * np.finfo(float).eps),
     lambda mp: [(1 - 1 / mp.sqrt(k)) / 2 for k in BOUND_KS for _ in range(2)]),
)


def lambda_truths(mp, ws):
    """The w > 0 with w*(1+w)**k = lam at each grid point, solved in ln w
    from the float answers ``ws``."""
    grid = [(float(lam), k) for lam in LAMBDAS for k in LAMBDA_KS]
    return [mp.exp(mp.findroot(lambda t: t + k * mp.log1p(mp.exp(t)) - mp.log(lam),
                               mp.mpf(math.log(w))))
            for (lam, k), w in zip(grid, ws)]


@pytest.mark.parametrize("site, solve, tolerances, truth", CALL_SITES,
                         ids=[site[0] for site in CALL_SITES])
def test_root_finder_no_less_accurate_than_brent(monkeypatch, site, solve,
                                                 tolerances, truth):
    """Against 50-digit truth, the call site's max and mean errors are no
    larger than with scipy's brentq at the tolerances the site used to pass."""
    mpmath = pytest.importorskip("mpmath")
    optimize = pytest.importorskip("scipy.optimize")
    xtol, rtol = tolerances
    ours = solve()
    use_root_finder(monkeypatch, lambda f, lo, hi: optimize.brentq(
        f, lo, hi, xtol=xtol, rtol=rtol))
    brent = solve()
    with mpmath.workdps(50):
        truths = lambda_truths(mpmath, ours) if truth is None else truth(mpmath)
        ours_err, brent_err = (
            [float(abs(mpmath.mpf(got) - want) / float(np.spacing(float(want))))
             for got, want in zip(values, truths)] for values in (ours, brent))
    for stat in (np.max, np.mean):
        assert stat(ours_err) <= stat(brent_err), (site, stat(ours_err), stat(brent_err))


def test_w_of_lambda_ends_on_an_adjacent_float_sign_change_in_w():
    """w*(1+w)**k - lam, to 60 digits, is 0 at the returned w or changes
    sign between it and the adjacent float on the root's side, and is the
    smaller of the two in magnitude at the returned w."""
    mpmath = pytest.importorskip("mpmath")
    grid = [(float(lam), k) for lam in LAMBDAS for k in LAMBDA_KS]
    grid += [(5e-324, 3), (1.7e308, 1), (1.7e308, 1000), (1e300, 10 ** 6)]
    with mpmath.workdps(60):
        for lam, k in grid:
            w = w_of_lambda(lam, k)

            def excess(x):
                x = mpmath.mpf(x)
                return x * (1 + x) ** k - mpmath.mpf(lam)

            fw = excess(w)
            if fw == 0:
                continue
            n = math.nextafter(w, 0.0 if fw > 0 else math.inf)
            fn = excess(n)
            assert fn == 0 or (fn > 0) != (fw > 0), (lam, k, w)
            assert abs(fw) <= abs(fn), (lam, k, w)


def test_bisect_root_typed_errors():
    with pytest.raises(BadBracket):
        _bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(InvalidParameter):
        # the first bisection lands on 0.5, where f has no value
        _bisect_root(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0)


def test_bisect_root_sign_jump_over_a_huge_bracket():
    """A jump at 1/3 is located to adjacent floats, |f| ties going to lo."""
    root = _bisect_root(lambda x: math.copysign(1.0, x - 1.0 / 3.0), -1e300, 1e300)
    assert root == math.nextafter(1.0 / 3.0, 0.0)


def test_bisect_root_midpoints_stay_finite():
    seen = []

    def f(x):
        seen.append(x)
        return x - 1.0

    assert _bisect_root(f, -1e308, 1e308) == 1.0
    assert all(-1e308 <= x <= 1e308 for x in seen)


def test_bisect_root_endpoint_root_and_accuracy():
    assert _bisect_root(lambda x: x - 2.0, 2.0, 5.0) == 2.0
    assert _bisect_root(lambda x: x - 5.0, 2.0, 5.0) == 5.0
    root = _bisect_root(lambda x: x ** 3 - 2.0, 0.0, 2.0)
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
    c = symmetric_channel(0.25)  # ln(pi0/pi1) = 0: the map is expit
    assert c.log_prior_ratio == 0.0
    rng = np.random.default_rng(13)
    x = np.concatenate([rng.normal(0.0, 5.0, 2000), rng.uniform(-800.0, 800.0, 2000),
                        [-math.inf, -745.0, -1e-300, 0.0, 1e-300, 37.0, math.inf]])
    assert ulps(posterior_from_llr(x, c), special.expit(x)).max() <= 2.0


# ---------------------------------------------------------- binomial weights

BINOMIAL_PROBS = (0.0, 1e-300, 1e-9, 0.001, 0.2, 0.5, 0.8, 1.0 / (1.0 + 1e-3),
                  0.999, 1.0 - 1e-9, 1.0)


@pytest.mark.parametrize("k", list(range(1, 41)) + [200, 1000])
def test_binomial_weights_within_half_ulp_of_truth(k):
    mpmath = pytest.importorskip("mpmath")
    stats = pytest.importorskip("scipy.stats")
    n = np.arange(k + 1)
    for p in BINOMIAL_PROBS:
        got = _binomial_pmf(k, p, 1.0 - p)
        with mpmath.workdps(60):
            # the float p and its float complement, exactly
            mp_p, mp_q = mpmath.mpf(p), mpmath.mpf(1.0 - p)
            truth = [mpmath.binomial(k, j) * mp_p ** j * mp_q ** (k - j)
                     for j in range(k + 1)]
            err = [abs(mpmath.mpf(float(g)) - t) / mpmath.mpf(float(np.spacing(g)))
                   for g, t in zip(got, truth)]
        assert max(err) <= 0.5, (k, p)
        ref = stats.binom.pmf(n, k, p)
        assert np.array_equal(got > 0, ref > 0), (k, p)
