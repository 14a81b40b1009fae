"""Channel construction, derived coefficients, and closed-form bounds."""

import decimal
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treecast import (
    BinaryChannel,
    ChannelFamily,
    ConditionalPair,
    Coupling,
    DegenerateChannel,
    InvalidParameter,
    Population,
    UndefinedLimit,
    base_pair,
    bisect_threshold,
    bp_root_posterior,
    brightwell_winkler_lower_w,
    decide_reconstruction,
    gap_kernel,
    gap_kernel_peak,
    geometric_mean_bound_lhs,
    gibbs_conditional_sweep,
    grid_merge,
    hardcore_channel,
    hardcore_contraction,
    kelly_threshold,
    kesten_stigum_eps_c,
    lambda_of_w,
    llr_step,
    make_channel,
    mossel_peres_lhs,
    population_from_pair,
    sample_broadcast_batch,
    symmetric_channel,
    trajectory,
    verify_sandwich,
    w_of_lambda,
)
from treecast.atoms import run_count

from _oracles import grid_kernel_sup, random_channel


# ---------------------------------------------------------------- validation

def test_rejects_bad_rows():
    """Entries outside [0,1] or rows not summing to 1 are errors."""
    with pytest.raises(InvalidParameter):
        BinaryChannel(0.5, 0.5, 0.5, 0.6)
    with pytest.raises(InvalidParameter):
        BinaryChannel(-0.1, 1.1, 0.5, 0.5)
    with pytest.raises(InvalidParameter):
        make_channel(1.2, 0.3)
    with pytest.raises(InvalidParameter):
        make_channel(0.3, math.nan)


def test_rejects_frozen_stationary_law():
    """p01 = p10 = 0 leaves the root law undefined."""
    with pytest.raises(DegenerateChannel):
        make_channel(1.0, 0.0)


def test_make_channel_completes_rows():
    c = make_channel(0.7, 0.2)
    assert (c.p00, c.p10) == (0.7, 0.2)
    assert abs(c.p01 - 0.3) < 1e-15 and abs(c.p11 - 0.8) < 1e-15


def test_stationary_law_is_invariant():
    """pi solves pi @ P = pi for random channels."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        c = make_channel(*random_channel(rng))
        assert abs(c.pi0 * c.p00 + c.pi1 * c.p10 - c.pi0) < 1e-12
        assert abs(c.pi0 * c.p01 + c.pi1 * c.p11 - c.pi1) < 1e-12
        assert abs(c.pi0 + c.pi1 - 1.0) < 1e-15


def test_coefficient_sign_identity():
    """c0 - c1 = -(p11 - p01)/(p00*p10): the kernel slope never flips sign."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        c = make_channel(*random_channel(rng, 0.05, 0.95))
        lhs = c.c0 - c.c1
        rhs = -(c.p11 - c.p01) / (c.p00 * c.p10)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_infinite_coefficients():
    c = make_channel(0.0, 0.4)
    assert c.c0 == math.inf
    c = make_channel(0.4, 0.0)
    assert c.c1 == math.inf


# ------------------------------------------------------- activity conversion

def test_activity_examples():
    assert abs(w_of_lambda(2.0, 1) - 1.0) < 1e-12
    assert abs(w_of_lambda(4.0, 2) - 1.0) < 1e-12


def test_activity_roundtrip():
    """w -> lambda -> w is the identity across weights and branching numbers."""
    rng = np.random.default_rng(1)
    for _ in range(100):
        w = float(rng.uniform(1e-6, 10.0))
        k = int(rng.integers(1, 7))
        assert abs(w_of_lambda(lambda_of_w(w, k), k) - w) < 1e-10 * max(1.0, w)


def test_activity_rejects_nonpositive():
    with pytest.raises(InvalidParameter):
        lambda_of_w(0.0, 2)
    with pytest.raises(InvalidParameter):
        w_of_lambda(-1.0, 2)
    for k in (0, -3, 2.5):
        with pytest.raises(InvalidParameter):
            lambda_of_w(1.0, k)


def test_channel_entries_are_stored_as_floats():
    c = BinaryChannel(True, False, 0.5, np.float32(0.5))
    assert c == BinaryChannel(1.0, 0.0, 0.5, 0.5)
    assert all(type(v) is float for v in (c.p00, c.p01, c.p10, c.p11))


def test_hardcore_channel_shape():
    """The hard-core matrix and its stationary law have closed forms."""
    rng = np.random.default_rng(2)
    for _ in range(50):
        w = float(rng.uniform(0.05, 20.0))
        k = int(rng.integers(1, 6))
        c = hardcore_channel(w)
        assert abs(c.p00 - 1.0 / (1.0 + w)) < 1e-15
        assert abs(c.p01 - w / (1.0 + w)) < 1e-15
        assert c.p10 == 1.0 and c.p11 == 0.0
        assert abs(c.pi0 - (1.0 + w) / (1.0 + 2.0 * w)) < 1e-12
        lam = lambda_of_w(w, k)
        assert abs(lam - w * (1.0 + w) ** k) < 1e-9 * max(1.0, lam)


def test_hardcore_rejects_bad_weight():
    for w in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidParameter, match="w must be positive and finite"):
            hardcore_channel(w)


# each argument with the float it stands for, or a pattern its refusal matches
REAL_ARGUMENTS = [
    (1, 1.0), (3, 3.0), (np.int64(1), 1.0), (np.int64(3), 3.0),
    (np.float32(0.2), float(np.float32(0.2))), (np.float32(3.5), 3.5),
    (math.nan, "nan"), (10 ** 400, "beyond the float64 range"),
    (10 ** 5000, "beyond the float64 range"), (-10 ** 5000, "beyond the float64 range"),
    ("0.2", "must be a real number"), (None, "must be a real number"),
]


def _outcome(fn, args):
    try:
        return fn(*args)
    except InvalidParameter as exc:
        return f"InvalidParameter: {exc}"


@pytest.mark.parametrize("fn, args, position", [
    (make_channel, [0.3, 0.2], 0), (make_channel, [0.3, 0.2], 1),
    (symmetric_channel, [0.2], 0), (hardcore_channel, [0.2], 0),
    (lambda_of_w, [0.2, 2], 0), (w_of_lambda, [0.2, 2], 0),
    (hardcore_contraction, [0.2, 2], 0),
    (ChannelFamily("symmetric", 2).channel, [0.2], 0),
    (ChannelFamily("hardcore", 2).channel, [0.2], 0),
    (BinaryChannel, [1.0, 0.0, 0.5, 0.5], 0)],
    ids=["make_channel_p00", "make_channel_p10", "symmetric_channel",
         "hardcore_channel", "lambda_of_w", "w_of_lambda", "hardcore_contraction",
         "family_symmetric", "family_hardcore", "binary_channel"])
def test_int_beyond_float_range_is_invalid(fn, args, position):
    """One real-number check: an argument standing for a float gives the
    float's result, or the same refusal; NaN, an int beyond the float64
    range and a non-number are refused as InvalidParameter, never a NaN
    result or a bare TypeError, ValueError or OverflowError."""
    for value, expected in REAL_ARGUMENTS:
        call = list(args)
        call[position] = value
        got = _outcome(fn, call)
        if isinstance(expected, float):
            call[position] = expected
            assert got == _outcome(fn, call), value
        else:
            assert isinstance(got, str) and re.search(expected, got), (value, got)


# one count check and one weight-vector check: every depth, size and k
# argument below is refused unless it is an integer, and every weight or
# sample vector is refused when it holds NaN (or, for samples, is empty,
# and for a merge, is not a 1-d array as long as its values or holds a
# negative or infinite weight)
BAD_COUNTS = (1.5, 2.0, 2.5, math.nan, -10 ** 5000)
NAN_VECTORS = ([math.nan, 1.0], [0.5, math.nan], [math.nan, math.nan])
_C = symmetric_channel(0.2)
# a genuine LLR pair: values = ln(w0/w1) with w1 = [0.75, 0.25]
_PAIR = dict(depth=1, values=[-math.log(3.0), math.log(3.0)], w0=[0.25, 0.75])
_EDGE_INPUTS = {
    "pair_depth": (BAD_COUNTS, lambda v: ConditionalPair(**{**_PAIR, "depth": v})),
    "pair_w0": (NAN_VECTORS, lambda w: ConditionalPair(**{**_PAIR, "w0": w})),
    # the -inf mass: NaN, outside [0, 1], or positive with no -inf atom to hold it
    "pair_q": ((math.nan, -0.5, math.inf, 0.5), lambda q: ConditionalPair(**_PAIR, q=q)),
    # two crossing pairs from ln 3 to -ln 3 beside the diagonal [0.25, 0.25]
    "coupling_weight": (NAN_VECTORS, lambda w: Coupling(
        ConditionalPair(**_PAIR), np.array([1, 1]), np.array([0, 0]), w)),
    "sandwich_probs": (NAN_VECTORS, lambda w: verify_sandwich(
        w, [True, False], [0, 1], [True, False], 0.0, 1.0)),
    "sandwich_tol": ((math.nan, -1.0, math.inf), lambda t: verify_sandwich(
        [0.5, 0.5], [True, False], [0, 1], [True, False], 0.0, 1.0, tol=t)),
    "population_samples": ((*NAN_VECTORS, []), lambda s: Population(1, s, None)),
    # a weight too many was dropped, one too few an IndexError, 2-d a ValueError
    "merge_weights": (([0.5, 0.3, 0.2], [0.5], [[0.5, 0.5]], 0.5),
                      lambda w: grid_merge(np.array([1.0, 2.0]), w, 1e-12)),
    # an infinite, a negative and a NaN weight, each once silently merged,
    # and finite weights whose total overflows
    "merge_weight_entries": (([math.inf, 1.0, 1.0], [-0.5, 1.0, -1.0], [math.nan, 1.0, 1.0],
                              [1e308, 1e308, 1.0]),
                             lambda w: grid_merge(np.array([1.0, 1.0 + 1e-13, 3.0]),
                                                  np.array(w), 1e-12)),
    "merge_values": (([[1.0, 2.0]], [[1.0], [2.0]], 1.0),
                     lambda v: grid_merge(v, np.array([0.5, 0.5]), 1e-12)),
    "run_count_values": (([[1.0, 2.0], [3.0, 4.0]], 1.0), lambda v: run_count(v, 1e-12)),
    "population_depth": (BAD_COUNTS, lambda v: Population(v, [0.0], None)),
    "trajectory_depth": (BAD_COUNTS, lambda v: trajectory(base_pair(_C, 2), lambda p: p, v)),
    "gibbs_sweep_depth": (BAD_COUNTS, lambda v: gibbs_conditional_sweep(
        1.0, 2, v, center_root=True)),
    "decide_depth": (BAD_COUNTS, lambda v: decide_reconstruction(
        ChannelFamily("symmetric", 2), 0.2, v)),
    "broadcast_depth": (BAD_COUNTS, lambda v: sample_broadcast_batch(_C, 2, v, 3)),
    "broadcast_count": (BAD_COUNTS, lambda v: sample_broadcast_batch(_C, 2, 2, v)),
    "population_size": (BAD_COUNTS, lambda v: population_from_pair(base_pair(_C, 2), v, 0)),
    "bp_depth": (BAD_COUNTS, lambda v: bp_root_posterior(
        np.zeros(4, dtype=np.int8), _C, 2, depth=v)),
    "bp_no_leaves": ((np.zeros(0, np.int8), np.zeros((3, 0), np.int8)),
                     lambda leaves: bp_root_posterior(leaves, _C, 2)),
    "k": (BAD_COUNTS, kesten_stigum_eps_c),
    # a scalar that stands for a float: beyond the float64 range, NaN or not a number
    "channel_entry": ((10 ** 400, math.nan, "1"), lambda v: BinaryChannel(v, 0, 0, 1)),
    "bisect_bracket": (((1, 10 ** 400), (1,), (1, "x")), lambda b: bisect_threshold(
        ChannelFamily("hardcore", 2), bracket=b)),
    "bisect_tol": ((10 ** 400, "x"), lambda t: bisect_threshold(
        ChannelFamily("hardcore", 2), tol=t)),
    "sandwich_bounds": (("x", 10 ** 400, math.nan), lambda p1: verify_sandwich(
        [0.5, 0.5], [True, False], [0, 1], [True, False], 0.2, p1)),
}


@pytest.mark.parametrize("bad, call", _EDGE_INPUTS.values(), ids=_EDGE_INPUTS.keys())
def test_counts_and_weight_vectors_are_checked(bad, call):
    """A fractional, float or NaN depth or size, an int too long to print,
    a NaN weight or sample, no samples and no leaves raise
    InvalidParameter: never a bare TypeError or ValueError, and never a
    silent result."""
    for value in bad:
        with pytest.raises(InvalidParameter):
            call(value)


# ------------------------------------------------------------- bound values

def test_column_bound_examples():
    assert abs(mossel_peres_lhs(symmetric_channel(0.25)) - 0.25) < 1e-12
    assert mossel_peres_lhs(make_channel(0.6, 0.6)) == 0.0
    c = hardcore_channel(1.0)
    assert abs(mossel_peres_lhs(c) - 0.5) < 1e-12


def test_column_bound_degenerate_column():
    with pytest.raises(DegenerateChannel):
        mossel_peres_lhs(make_channel(0.0, 0.0))


def test_geometric_bound_examples():
    c = make_channel(0.7, 1.0)  # p11 = 0
    assert abs(geometric_mean_bound_lhs(c) - c.p01 * c.p10) < 1e-12
    assert geometric_mean_bound_lhs(make_channel(0.6, 0.6)) == 0.0


def test_geometric_below_column_bound():
    """The geometric statistic never exceeds the column statistic."""
    rng = np.random.default_rng(3)
    for _ in range(2000):
        c = make_channel(*random_channel(rng))
        try:
            mp = mossel_peres_lhs(c)
        except DegenerateChannel:
            continue
        assert geometric_mean_bound_lhs(c) <= mp + 1e-12


def test_bound_equality_classes():
    """Symmetric, hard-core, and equal-row channels achieve equality."""
    rng = np.random.default_rng(4)
    for _ in range(100):
        eps = float(rng.uniform(0.01, 0.5))
        c = symmetric_channel(eps)
        assert abs(geometric_mean_bound_lhs(c) - mossel_peres_lhs(c)) < 1e-12
        w = float(rng.uniform(0.05, 10.0))
        c = hardcore_channel(w)
        assert abs(geometric_mean_bound_lhs(c) - mossel_peres_lhs(c)) < 1e-12
        assert abs(mossel_peres_lhs(c) - w / (1.0 + w)) < 1e-12
        p = float(rng.uniform(0.05, 0.95))
        c = make_channel(p, p)
        assert geometric_mean_bound_lhs(c) == mossel_peres_lhs(c) == 0.0


def test_second_eigenvalue_critical_point():
    """The critical flip probability sits exactly on the unit statistic."""
    assert abs(kesten_stigum_eps_c(4) - 0.25) < 1e-15
    for k in range(1, 21):
        eps = kesten_stigum_eps_c(k)
        assert abs(k * (1.0 - 2.0 * eps) ** 2 - 1.0) < 1e-12
    for k in (0, -3, 2.5):
        with pytest.raises(InvalidParameter):
            kesten_stigum_eps_c(k)


def test_uniqueness_threshold_values():
    """k**k/(k-1)**(k+1) against exact integer ratios."""
    assert kelly_threshold(2) == pytest.approx(4.0, abs=1e-12)
    assert kelly_threshold(3) == pytest.approx(27.0 / 16.0, abs=1e-12)
    assert kelly_threshold(10) == pytest.approx(10**10 / 9**11, rel=1e-12)
    with pytest.raises(InvalidParameter):
        kelly_threshold(1)


def test_comparison_curve_values():
    """(ln k - ln ln k)/k at k = 3 and 10, and monotone decay."""
    assert abs(brightwell_winkler_lower_w(3) - 0.3348548203504702) < 1e-12
    assert abs(brightwell_winkler_lower_w(10) - 0.146855264774609) < 1e-12
    vals = [brightwell_winkler_lower_w(k) for k in range(3, 1001)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(InvalidParameter):
        brightwell_winkler_lower_w(2)


# ------------------------------------------------------------ kernel values

def test_llr_step_matches_direct_form():
    """g(x) = ln((p00*e^x + p01)/(p10*e^x + p11)) - ln(p00/p10)."""
    rng = np.random.default_rng(5)
    x = np.linspace(-25.0, 25.0, 1001)
    for _ in range(25):
        c = make_channel(*random_channel(rng, 0.05, 0.95))
        direct = (np.log(c.p00 * np.exp(x) + c.p01)
                  - np.log(c.p10 * np.exp(x) + c.p11)
                  - math.log(c.p00 / c.p10))
        assert np.max(np.abs(llr_step(c, x) - direct)) < 1e-10


def test_llr_step_extended_values():
    c = symmetric_channel(0.2)
    assert llr_step(c, math.inf) == 0.0
    assert abs(llr_step(c, -math.inf) - math.log(c.c0 / c.c1)) < 1e-12
    hc = hardcore_channel(1.0)
    assert llr_step(hc, math.inf) == 0.0
    with pytest.raises(UndefinedLimit):
        llr_step(hc, -math.inf)
    with pytest.raises(InvalidParameter):
        llr_step(make_channel(0.0, 0.4), 1.0)
    with pytest.raises(InvalidParameter):
        llr_step(make_channel(0.4, 0.0), 1.0)


@pytest.mark.parametrize("x", [-40.0, -700.0, -750.0])
def test_llr_step_p01_zero_far_left(x):
    """With p01 = 0, g(x) = x - ln(e^x + c1) is finite at finite x and
    about x - ln(c1) far left, where the quotient form rounds to -inf."""
    c = make_channel(1.0, 0.5)
    with decimal.localcontext(decimal.Context(prec=50)):
        want = float(decimal.Decimal(x) - (decimal.Decimal(x).exp()
                                           + decimal.Decimal(c.c1)).ln())
    assert abs(llr_step(c, x) - want) <= 2 * math.ulp(want)


@pytest.mark.parametrize("x", [709.0, 750.0, 800.0, 1000.0, 1400.0])
def test_llr_step_p01_zero_huge_c1_far_right(x):
    """With p01 = 0 and c1 = 1e300, g(x) = -ln(1 + c1*e^-x) is tiny but
    not 0 where e^-x leaves the normal range.  There u = c1*e^-x is formed
    as (c1*h)*h with h = e^(-x/2), which stays normal, so u is good to a
    few roundings; where e^-x is normal the product form is kept, bit for
    bit."""
    mpmath = pytest.importorskip("mpmath")
    c = make_channel(1.0, 1e-300)
    got = llr_step(c, x)
    with mpmath.workdps(50):
        want = -mpmath.log1p(mpmath.mpf(c.c1) * mpmath.exp(-mpmath.mpf(x)))
        assert got < 0.0
        assert abs(got - want) <= 1e-15 * abs(want), (got, want)
    assert llr_step(c, np.array([x]))[0] == got
    assert llr_step(c, 700.0) == -math.log1p(c.c1 * math.exp(-700.0))


@pytest.mark.parametrize("entries", [(1 - 2e-12, 0.9), (0.999, 0.001), (0.9, 0.05),
                                     (0.6, 0.3)])
def test_llr_step_relative_accuracy(entries):
    """g to a few ulps on x in [-45, 45], also where it nears ln(c0/c1),
    against 50-digit mpmath on the channel's own c0 and c1."""
    mpmath = pytest.importorskip("mpmath")
    c = make_channel(*entries)
    x = np.linspace(-45.0, 45.0, 2001)
    got = llr_step(c, x)
    with mpmath.workdps(50):
        c0, c1 = mpmath.mpf(c.c0), mpmath.mpf(c.c1)
        worst = max(float(abs((g - mpmath.log((e + c0) / (e + c1)))
                              / mpmath.log((e + c0) / (e + c1))))
                    for g, e in zip(got, (mpmath.exp(mpmath.mpf(xi)) for xi in x)))
    assert worst <= 1e-15, worst


@st.composite
def extreme_channels(draw):
    """Channels with p00, p10 > 0 whose entries reach down to 1e-300; a
    row may be certain of a 0 child (p01 = 0 or p11 = 0)."""
    small = st.one_of(st.just(0.0), st.floats(1e-300, 0.5),
                      st.floats(-300.0, -0.302).map(lambda e: 10.0 ** e))

    def row():
        t = draw(small)
        # the small entry on either side; a row's first entry stays positive
        return (t, 1.0 - t) if t > 0 and draw(st.booleans()) else (1.0 - t, t)

    return BinaryChannel(*row(), *row())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(extreme_channels(), st.lists(st.floats(allow_nan=False), min_size=1, max_size=30))
def test_llr_step_extreme_channels(c, xs):
    """g is never NaN, lies between 0 and ln(c0/c1), and is monotone in x;
    where float64 cannot hold it, the step refuses with DegenerateChannel."""
    x = np.sort(np.array(xs))
    if c.c1 == 0.0 and np.isneginf(x[0]):
        with pytest.raises(UndefinedLimit):
            llr_step(c, x)
        return
    try:
        g = llr_step(c, x)
    except DegenerateChannel:
        return
    assert not np.isnan(g).any()
    # ln(c0/c1) from the logs: c0/c1 itself can overflow
    log_c0 = math.log(c.c0) if c.c0 > 0 else -math.inf
    log_c1 = math.log(c.c1) if c.c1 > 0 else -math.inf
    bound = 0.0 if c.c0 == c.c1 else log_c0 - log_c1
    slack = 1e-12 * max(1.0, abs(bound)) if math.isfinite(bound) else 0.0
    assert np.all(g >= min(0.0, bound) - slack)
    assert np.all(g <= max(0.0, bound) + slack)
    if c.c0 > c.c1:
        assert np.all(g[1:] <= g[:-1])
    else:
        assert np.all(g[1:] >= g[:-1])


def test_llr_step_vectorized():
    c = symmetric_channel(0.3)
    out = llr_step(c, np.array([0.0, 1.0, math.inf]))
    assert out.shape == (3,)
    assert isinstance(llr_step(c, 0.0), float)


def test_gap_kernel_hardcore_values():
    """f(0) and f(-k*ln(1+w)) have closed forms in the hard-core family."""
    rng = np.random.default_rng(6)
    for _ in range(50):
        w = float(rng.uniform(0.05, 10.0))
        k = int(rng.integers(1, 6))
        c = hardcore_channel(w)
        f0 = -w * math.log1p(w) / (1.0 + w)
        assert abs(gap_kernel(c, 0.0) - f0) < 1e-12 * max(1.0, abs(f0))
        fb = -(w / (1.0 + w)) * math.log1p(lambda_of_w(w, k))
        x = -k * math.log1p(w)
        assert abs(gap_kernel(c, x) - fb) < 1e-10 * max(1.0, abs(fb))


def test_gap_kernel_rows_equal_is_zero():
    """Equal rows kill the kernel everywhere, including the -inf limit."""
    c = make_channel(0.7, 0.7)
    x = np.array([-math.inf, -3.0, 0.0, 2.0, math.inf])
    assert np.all(gap_kernel(c, x) == 0.0)
    assert gap_kernel(c, -math.inf) == 0.0


def test_gap_kernel_strictly_increasing():
    """f is strictly increasing whenever the rows differ."""
    rng = np.random.default_rng(9)
    x = np.linspace(-30.0, 30.0, 2001)
    for _ in range(20):
        c = make_channel(*random_channel(rng, 0.05, 0.95))
        if abs(c.p11 - c.p01) < 1e-3:
            continue
        f = gap_kernel(c, x)
        assert np.all(np.diff(f) > 0.0)


def test_gap_kernel_hardcore_concavity():
    """Second differences of the hard-core kernel are never positive."""
    x = np.linspace(-10.0, 5.0, 1001)
    for w in (0.5, 1.0, 2.0):
        c = hardcore_channel(w)
        assert np.max(np.diff(gap_kernel(c, x), 2)) <= 1e-9


def test_kernel_peak_symmetric():
    argmax, value = gap_kernel_peak(symmetric_channel(0.3))
    assert abs(argmax) < 1e-12
    assert abs(value - 0.16) < 1e-12


def test_kernel_peak_rows_equal():
    argmax, value = gap_kernel_peak(make_channel(0.7, 0.7))
    assert value == 0.0
    assert abs(argmax - math.log(0.3 / 0.7)) < 1e-12


def test_kernel_peak_matches_grid():
    """Closed-form supremum agrees with a dense finite-difference grid."""
    rng = np.random.default_rng(10)
    for _ in range(20):
        c = make_channel(*random_channel(rng, 0.05, 0.95))
        argmax, value = gap_kernel_peak(c)
        grid = grid_kernel_sup(c, argmax - 10.0, argmax + 10.0, 100_001)
        assert grid <= value + 1e-9
        assert abs(grid - value) < 1e-6
        assert abs(value - geometric_mean_bound_lhs(c)) < 1e-15


def test_kernel_peak_rejects_zero_entry():
    c = hardcore_channel(1.0)
    with pytest.raises(InvalidParameter):
        gap_kernel_peak(c)


def test_hardcore_contraction_values():
    """Closed form at (1, 1) and subunit contraction at activity e-1."""
    assert abs(hardcore_contraction(1.0, 1) - 0.29248125036057815) < 1e-12
    assert abs(hardcore_contraction(1.0, 1) - 0.29248) < 1e-5
    for k in range(1, 7):
        w = w_of_lambda(math.e - 1.0, k)
        assert hardcore_contraction(w, k) < 1.0
    for k in (0, -3, 2.5):
        with pytest.raises(InvalidParameter):
            hardcore_contraction(1.0, k)


def test_hardcore_contraction_below_log_activity():
    """The coefficient is strictly below ln(1 + lambda)."""
    rng = np.random.default_rng(11)
    for _ in range(1000):
        w = float(rng.uniform(1e-3, 50.0))
        k = int(rng.integers(1, 8))
        assert hardcore_contraction(w, k) < math.log1p(lambda_of_w(w, k))
