"""Forward tree sampling, exact root posterior, population dynamics."""

import copy
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from treecast import (
    DegenerateChannel,
    InvalidParameter,
    Population,
    ResourceLimit,
    base_pair,
    bp_root_posterior,
    deep_policy,
    diagnostics,
    estimate_diagnostics,
    evolve,
    evolve_to_depth,
    hardcore_channel,
    make_channel,
    population_evolve_anchored,
    population_from_pair,
    posterior_from_llr,
    sample_broadcast_batch,
    symmetric_channel,
    trajectory,
    w_of_lambda,
)

from treecast.channels import llr_step
from treecast.sampling import (NODE_CAP, _SAMPLE_FLOOR, _project_unit_mean,
                               _systematic_draw, _tilt_weights, population_tv)

from _oracles import (brute_root_posterior, every_child_anchored_step,
                      plain_population_from_pair, population_evolve)


# ----------------------------------------------------------------- sampler

def test_deterministic_channels():
    """The identity channel is rejected (no stationary law); the flip
    channel is its valid deterministic counterpart and alternates levels."""
    from treecast import DegenerateChannel
    with pytest.raises(DegenerateChannel):
        symmetric_channel(0.0)
    for root in (0, 1):
        levels = sample_broadcast_batch(symmetric_channel(1.0), 2, 4, 1,
                                        root_value=root, seed=5)
        assert len(levels) == 5
        for depth, lv in enumerate(levels):
            assert lv.shape == (1, 2 ** depth)
            assert np.all(lv == (depth + root) % 2)


def test_hardcore_occupied_root_forces_empty_children():
    c = hardcore_channel(2.0)
    levels = sample_broadcast_batch(c, 2, 3, 200, root_value=1, seed=6)
    assert np.all(levels[1] == 0)


def test_level_one_frequency_matches_channel():
    """Level-1 ones follow Binomial(k*n, p01) within 3 sigma."""
    c = symmetric_channel(0.2)
    n = 100_000
    levels = sample_broadcast_batch(c, 2, 1, n, root_value=0, seed=7)
    ones = int(levels[1].sum())
    mean = 2 * n * c.p01
    sigma = math.sqrt(2 * n * c.p01 * (1 - c.p01))
    assert abs(ones - mean) < 3 * sigma


def test_sampler_levels_shapes():
    levels = sample_broadcast_batch(symmetric_channel(0.3), 3, 2, 10, seed=8)
    assert [lv.shape for lv in levels] == [(10, 1), (10, 3), (10, 9)]


def test_sampler_deterministic():
    a = sample_broadcast_batch(symmetric_channel(0.3), 2, 4, 50, seed=9)
    b = sample_broadcast_batch(symmetric_channel(0.3), 2, 4, 50, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = sample_broadcast_batch(symmetric_channel(0.3), 2, 4, 50, seed=10)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_sampler_stationary_root():
    """Unpinned roots are drawn from the stationary law."""
    c = hardcore_channel(1.0)
    levels = sample_broadcast_batch(c, 2, 0, 100_000, seed=11)
    frac1 = float(levels[0].mean())
    sigma = math.sqrt(c.pi1 * c.pi0 / 100_000)
    assert abs(frac1 - c.pi1) < 4 * sigma


def test_sampler_node_cap():
    """The cap bounds the batch, not one sample (depth 12 has only 8191
    nodes per sample), and refuses before any array is built, at once even
    where the node count has more digits than an int may print."""
    for depth, n in ((25, 10), (12, 100_000), (20_000, 1), (10**6, 1)):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit):
                sample_broadcast_batch(symmetric_channel(0.3), 2, depth, n, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, (depth, n)
        assert time.perf_counter() - start < 1.0, (depth, n)


def test_sampler_node_cap_refuses_counts_too_long_to_print():
    """A sample count or depth of over 4,300 digits is refused with the
    typed error, not the integer-to-string ValueError."""
    for depth, n in ((2, 10**5000), (10**5000, 2)):
        with pytest.raises(ResourceLimit, match="a huge int"):
            sample_broadcast_batch(symmetric_channel(0.2), 2, depth, n)


def test_sampler_requires_children_and_samples():
    c = symmetric_channel(0.3)
    for k, n in ((0, 10), (2, 0), (2, -5)):
        with pytest.raises(InvalidParameter):
            sample_broadcast_batch(c, k, 3, n, seed=0)


# ----------------------------------------------------------- root posterior

def test_posterior_uninformative_channel():
    leaves = np.array([0, 1, 1, 0])
    assert abs(bp_root_posterior(leaves, symmetric_channel(0.5), 2) - 0.5) < 1e-15


def test_posterior_matches_bayes_all_patterns():
    """All 16 leaf patterns of the depth-2 binary tree, to 1e-12."""
    c = symmetric_channel(0.2)
    for key in range(16):
        leaves = np.array([(key >> j) & 1 for j in range(4)])
        got = bp_root_posterior(leaves, c, 2)
        want = brute_root_posterior(c, 2, 2, leaves)
        assert abs(got - want) < 1e-12, key


def test_posterior_matches_bayes_k3():
    c = hardcore_channel(0.7)
    for key in range(8):
        leaves = np.array([(key >> j) & 1 for j in range(3)])
        got = bp_root_posterior(leaves, c, 3, depth=1)
        want = brute_root_posterior(c, 3, 1, leaves)
        assert abs(got - want) < 1e-12, key


def test_posterior_hardcore_certainty():
    """An occupied child is impossible under an occupied root."""
    c = hardcore_channel(1.0)
    assert bp_root_posterior(np.array([1, 0]), c, 2, depth=1) == 1.0


def test_posterior_batch_and_validation():
    c = symmetric_channel(0.3)
    batch = np.array([[0, 0, 0, 0], [1, 1, 1, 1]])
    out = bp_root_posterior(batch, c, 2)
    assert out.shape == (2,)
    assert out[0] > 0.5 > out[1]
    with pytest.raises(InvalidParameter):
        bp_root_posterior(np.array([0, 1, 0]), c, 2)
    with pytest.raises(InvalidParameter):
        bp_root_posterior(np.array([0, 1]), c, 1)
    for depth in (None, 1):
        with pytest.raises(InvalidParameter):
            bp_root_posterior(np.array([0, 1]), c, 0, depth=depth)


def test_posterior_consistent_with_sampler():
    """Empirical posterior calibration: E[1{root=0} | bin] tracks the posterior."""
    c = symmetric_channel(0.25)
    n = 40_000
    rng_levels = sample_broadcast_batch(c, 2, 3, n, seed=12)
    roots = rng_levels[0][:, 0]
    post = bp_root_posterior(rng_levels[3], c, 2)
    # group by rounded posterior and compare frequency of root=0
    for lo in (0.0, 0.25, 0.5, 0.75):
        sel = (post >= lo) & (post < lo + 0.25)
        if sel.sum() < 500:
            continue
        freq = float((roots[sel] == 0).mean())
        pm = float(post[sel].mean())
        se = math.sqrt(pm * (1 - pm) / sel.sum()) + 1e-3
        assert abs(freq - pm) < 5 * se


# ----------------------------------------------------- systematic draws

@st.composite
def systematic_inputs(draw):
    """Weights (zeros likely, a lone nonzero weight and n = 1 included),
    a draw size m >= 0 and the one uniform u0 in [0, 1)."""
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        w = np.zeros(n)
        w[draw(st.integers(0, n - 1))] = draw(st.floats(1e-300, 1e300))
    else:
        w = np.array(draw(st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=n, max_size=n)))
    u0 = draw(st.one_of(st.just(0.0), st.just(math.nextafter(1.0, 0.0)),
                        st.floats(0.0, 1.0, exclude_max=True)))
    return w, draw(st.integers(0, 300)), u0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(systematic_inputs())
@example((np.array([2.5]), 7, 0.0))
@example((np.array([1.0, 1.0, 1.0]), 3, math.nextafter(1.0, 0.0)))
@example((np.array([0.0, 0.0, 1.0, 0.0]), 50, 0.5))
def test_systematic_draw_counts_stay_within_one_of_their_share(case):
    """The draw is m sorted indices, a zero weight is never drawn, and each
    index is drawn within 1 of m times its probability (up to the rounding
    of the cumulative weights), for every u0 including the ends of [0, 1)."""
    w, m, u0 = case
    assume(w.sum() > 0)
    idx = _systematic_draw(w, m, u0)
    assert idx.shape == (m,) and idx.dtype == np.intp
    assert np.all(np.diff(idx) >= 0)
    counts = np.bincount(idx, minlength=len(w))
    assert counts.shape == w.shape and counts.sum() == m
    assert np.all(counts[w == 0] == 0)
    assert np.all(np.abs(counts - m * (w / w.sum())) < 1 + 1e-9)


def test_systematic_draw_rejects_bad_weights():
    for w in ([0.5, np.nan, 0.5], [0.5, -0.1, 0.6], [0.0, 0.0], [1.0, np.inf]):
        with pytest.raises(InvalidParameter):
            _systematic_draw(np.array(w), 10, 0.5)


# ------------------------------------------------------------- populations

def test_population_from_pair_sizes():
    pop = population_from_pair(base_pair(symmetric_channel(0.2), 2), 5000, seed=13)
    assert pop.size == 5000 and pop.depth == 1


def test_population_from_pair_skips_zero_weight_atoms():
    """A p01 = 0 base pair has a -inf atom that root value 0 never
    reaches: no sample lands on it.  The hard-core +inf atom has root-0
    weight, so samples do land there."""
    pair = base_pair(make_channel(1.0, 0.3), 2)
    assert pair.values[0] == -math.inf and pair.w0[0] == 0.0
    pop = population_from_pair(pair, 5000, seed=13)
    assert np.all(np.isfinite(pop.samples0))
    pop = population_from_pair(base_pair(hardcore_channel(1.0), 2), 5000, seed=13)
    assert np.any(np.isposinf(pop.samples0))


def test_population_refuses_a_neg_inf_sample():
    with pytest.raises(InvalidParameter):
        Population(1, [0.0, -math.inf], np.random.Generator(np.random.Philox(0)))


def test_population_refuses_a_sample_below_log_tiny():
    """A finite sample below ln(tiny) is refused as ConditionalPair refuses
    an atom there, and so is one down to the floor of the diagnostics.  At
    -800, exp(-L) overflows, and estimate_diagnostics would return an
    se_mean_gap of NaN."""
    for low in (-800.0, math.nextafter(math.log(np.finfo(np.float64).tiny), -math.inf),
                math.nextafter(_SAMPLE_FLOOR, -math.inf)):
        with pytest.raises(DegenerateChannel):
            Population(1, np.r_[np.full(999, 1.0), low], None)
    Population(1, np.r_[np.full(999, 1.0), _SAMPLE_FLOOR], None)


def test_population_refuses_a_sample_whose_diagnostics_overflow():
    """Samples the diagnostics overflowed on ("overflow encountered in
    square" inside np.std, or in the gap term's multiply at -704) are
    refused at construction; at the floor every diagnostic is finite, and
    the floor holds for up to NODE_CAP samples but not one unit lower."""
    for low in (-349.5, -350.0, -700.0, -704.0):
        with pytest.raises(DegenerateChannel):
            Population(1, np.r_[np.full(999, 1.0), low], None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_diagnostics(Population(1, np.r_[np.full(999, 1.0), _SAMPLE_FLOOR], None),
                                   symmetric_channel(0.2))
    assert all(math.isfinite(v) for v in est.values())
    with np.errstate(over="ignore"):
        for x, finite in ((-_SAMPLE_FLOOR, True), (1.0 - _SAMPLE_FLOOR, False)):
            gap = np.float64(x) * np.expm1(np.float64(x))
            assert np.isfinite(np.float64(NODE_CAP) * gap * gap) == finite


def test_population_uninformative_stays_at_zero():
    c = symmetric_channel(0.5)
    pop = population_from_pair(base_pair(c, 2), 2000, seed=14)
    for _ in range(3):
        pop = population_evolve_anchored(pop, c, 2)
    assert np.all(pop.samples0 == 0.0)


def test_population_requires_minimum_size():
    c = symmetric_channel(0.2)
    pop = population_from_pair(base_pair(c, 2), 100, seed=15)
    with pytest.raises(InvalidParameter):
        population_evolve_anchored(pop, c, 2)


def test_population_deterministic():
    c = symmetric_channel(0.2)
    a = population_from_pair(base_pair(c, 2), 2000, seed=16)
    b = population_from_pair(base_pair(c, 2), 2000, seed=16)
    a = population_evolve_anchored(a, c, 2)
    b = population_evolve_anchored(b, c, 2)
    assert np.array_equal(a.samples0, b.samples0)


def test_population_mean_matches_exact_depth3():
    """Population means land within 4 SE of the exact depth-3 laws.

    The population is the two-array reference in ``_oracles``, stepped by
    its own plain step: this pins that oracle against the exact law, and
    covers neither ``population_from_pair`` nor the anchored step."""
    c = symmetric_channel(0.2)
    n = 100_000
    pop = plain_population_from_pair(base_pair(c, 2), n, seed=17)
    for _ in range(2):
        pop = population_evolve(pop, c, 2)
    exact = evolve_to_depth(c, 2, 3)
    for samples, w in ((pop.samples0, exact.w0), (pop.samples1, exact.w1)):
        se = float(np.std(samples)) / math.sqrt(n)
        assert abs(float(np.mean(samples)) - float(exact.values @ w)) < 4 * se


def test_estimates_match_exact_small_depths():
    """tv, mean_gap, var_A read from the root-0 samples alone lie within
    4 SE of exact values for depths 2..6."""
    from treecast import exact_policy
    c = symmetric_channel(0.25)
    n = 100_000
    pairs = trajectory(base_pair(c, 2), lambda p: evolve(p, c, 2, exact_policy()), 6)
    refs = [diagnostics(p, c) for p in pairs]
    pop = plain_population_from_pair(base_pair(c, 2), n, seed=18)
    for depth in range(2, 7):
        pop = population_evolve(pop, c, 2)
        est = estimate_diagnostics(Population(depth, pop.samples0, pop.rng), c)
        exact = refs[depth - 1]
        for key in ("tv", "mean_gap", "var_A"):
            se = est["se_" + key] + 1e-12
            assert abs(est[key] - exact[key]) < 4 * se, (depth, key)
        assert 0.0 <= est["var_A"] <= c.pi0 * c.pi1 + 1e-12
        assert est["mean_gap"] > -4 * est["se_mean_gap"]


def test_estimates_match_exact_law_on_asymmetric_channels():
    """At depth 1 the samples are i.i.d. draws of the exact root-0 law, so
    every estimate lies within 4 SE; pi0 != 1/2 here, so the root-1
    weight ``r`` in the var_A term matters."""
    for c, k in ((make_channel(0.7, 0.2), 2), (make_channel(0.9, 0.4), 3)):
        pair = base_pair(c, k)
        exact = diagnostics(pair, c)
        est = estimate_diagnostics(population_from_pair(pair, 100_000, seed=25), c)
        for key in ("tv", "mean_gap", "var_A"):
            assert abs(est[key] - exact[key]) < 4 * est["se_" + key], (c, key)


def test_estimates_match_exact_law_when_p00_is_zero():
    """p00 = 0: a root-0 node's children are all 1, so the depth-1 root-0
    law is one atom and the estimates are exact.  The root-1 law has a
    -inf atom (any 0 child), which the estimates must read from the
    missing weight 1 - mean(exp(-L)): mean_gap is +inf, inf_mass1 is that
    atom, and var_A counts it with posterior 0."""
    for c, k in ((make_channel(0.0, 0.5), 2), (make_channel(0.0, 0.5), 3),
                 (symmetric_channel(1.0), 2)):
        pair = base_pair(c, k)
        exact = diagnostics(pair, c)
        est = estimate_diagnostics(population_from_pair(pair, 1000, seed=25), c)
        assert est["mean_gap"] == exact["mean_gap"] == math.inf, c
        assert est["inf_mass1"] == pytest.approx(
            float(pair.w1[np.isneginf(pair.values)].sum()), abs=1e-12), c
        assert est["inf_mass1"] > 0, c
        for key in ("tv", "var_A"):
            assert est[key] == pytest.approx(exact[key], abs=1e-12), (c, key)


def test_estimates_uninformative_exact_zero():
    c = symmetric_channel(0.5)
    pop = population_from_pair(base_pair(c, 2), 5000, seed=19)
    pop = population_evolve_anchored(pop, c, 2)
    est = estimate_diagnostics(pop, c)
    assert est["tv"] == 0.0 and est["mean_gap"] == 0.0 and est["var_A"] == 0.0


def test_population_ks_against_exact_law():
    """KS distance in posterior coordinates beats the 99% quantile.

    Like the test above, this checks the ``_oracles`` reference
    population, not the library's one-array population."""
    c = symmetric_channel(0.2)
    n = 100_000
    pop = plain_population_from_pair(base_pair(c, 2), n, seed=20)
    for _ in range(3):
        pop = population_evolve(pop, c, 2)
    exact = evolve_to_depth(c, 2, 4)
    for samples, values, weights in ((pop.samples0, exact.values, exact.w0),
                                     (pop.samples1, exact.values, exact.w1)):
        a_atoms = posterior_from_llr(values, c)
        cdf = np.cumsum(weights)
        a_samp = np.sort(posterior_from_llr(samples, c))
        # evaluate between atoms, where the exact CDF is flat
        mids = (a_atoms[:-1] + a_atoms[1:]) / 2.0
        emp = np.searchsorted(a_samp, mids, side="right") / n
        ks = float(np.max(np.abs(emp - cdf[:-1])))
        assert ks < 1.628 / math.sqrt(n)


def test_anchored_population_p01_zero_matches_lattice():
    """p01 = 0: the root-0 law is one atom, so the population is exact, and
    the root-1 mass at -inf is the share 1 - mean(exp(-L)) that the
    weighted samples do not carry."""
    for c, k in ((make_channel(1.0, 0.3), 2), (make_channel(1.0, 0.05), 3),
                 (make_channel(1.0, 0.6), 2)):
        n = 20_000
        pops = trajectory(population_from_pair(base_pair(c, k), n, seed=22),
                          lambda p: population_evolve_anchored(p, c, k), 8)
        pairs = trajectory(base_pair(c, k), lambda p: evolve(p, c, k, deep_policy()), 8)
        for pop, pair in zip(pops, pairs):
            est = estimate_diagnostics(pop, c)
            assert abs(est["tv"] - diagnostics(pair, c)["tv"]) <= 1e-9, (c, pop.depth)
            # the lattice's -inf atom
            assert abs(est["inf_mass1"] - pair.w1[0]) <= 1e-9, (c, pop.depth)


def test_anchored_population_refuses_without_finite_sample():
    """Every depth-1 sample at +inf leaves no sample of the root-1 law;
    the step refuses even at p01 = 0, where it would draw no tilted index."""
    c = hardcore_channel(w_of_lambda(1e6, 3))
    pop = population_from_pair(base_pair(c, 3), 1000, seed=23)
    assert np.all(np.isposinf(pop.samples0))
    assert estimate_diagnostics(pop, c)["tilt_ess"] == 0.0
    with pytest.raises(ResourceLimit):
        population_evolve_anchored(pop, c, 3)
    pop = Population(1, np.full(1000, math.inf), np.random.Generator(np.random.Philox(23)))
    with pytest.raises(ResourceLimit):
        population_evolve_anchored(pop, make_channel(1.0, 0.3), 2)


@pytest.mark.parametrize("c,k", [(symmetric_channel(0.2), 2), (make_channel(0.7, 0.2), 3),
                                 (make_channel(1.0, 0.3), 2)])
def test_anchored_step_draws_each_child_once(c, k):
    """Rebuilt by hand from a copy of the generator, bit for bit: one
    uniform u per child, then u0; a child is a 1-child iff u < p01, a
    0-child takes index floor((u - p01) * N/p00), and the m 1-children, in
    the order of their uniforms, take the sorted systematic draw whose
    count at i is ceil(m*F[i] - u0) - ceil(m*F[i-1] - u0), each ceiling
    taken in exact rational arithmetic.  At p01 = 0 (the last case) m = 0."""
    n = 3000
    pop = population_evolve_anchored(population_from_pair(base_pair(c, k), n, seed=26), c, k)
    rng = copy.deepcopy(pop.rng)
    got = population_evolve_anchored(pop, c, k)

    s = pop.samples0
    u = rng.random((k, n))
    u0 = rng.random()
    ones = u < c.p01
    idx = np.minimum(np.floor((u - c.p01) * (n / c.p00)), n - 1).astype(np.intp)
    m = int(np.count_nonzero(ones))
    f = _tilt_weights(s).cumsum()
    f /= f[-1]
    cum = [math.ceil(Fraction(float(m * x)) - Fraction(u0)) for x in f]
    counts = np.diff(cum, prepend=0)
    rank = np.argsort(np.argsort(u[ones]))
    idx[ones] = np.repeat(np.arange(n), counts)[rank]
    want = k * math.log(c.p00 / c.p10) + llr_step(c, s[idx]).sum(axis=0)
    if c.p01 > 0:
        want = _project_unit_mean(want)
    else:
        assert m == 0
    assert np.array_equal(got.samples0, want)
    assert got.rng.random() == rng.random()


@pytest.mark.parametrize("c,k", [(symmetric_channel(0.2), 2), (make_channel(0.7, 0.2), 3)])
def test_anchored_step_agrees_in_law_with_every_child_form(c, k):
    """One step of the library and one of the ``_oracles`` form that draws
    a tilted and a uniform index for every child, from the same parent
    population on fixed streams: the two-sample KS distance is below its
    99.9% quantile.  The parent is at depth 6, where nearly every sample
    value is distinct, so the unit-mean shift of each step moves no atom."""
    n = 100_000
    pop = population_from_pair(base_pair(c, k), n, seed=27)
    for _ in range(5):
        pop = population_evolve_anchored(pop, c, k)

    def step(form, seed):
        fresh = Population(pop.depth, pop.samples0,
                           np.random.Generator(np.random.Philox(seed)))
        return np.sort(form(fresh, c, k).samples0)

    a = step(population_evolve_anchored, 28)
    b = step(every_child_anchored_step, 29)
    grid = np.concatenate((a, b))
    ks = float(np.max(np.abs(np.searchsorted(a, grid, side="right")
                             - np.searchsorted(b, grid, side="right")))) / n
    assert ks < 1.949 * math.sqrt(2.0 / n)


def test_tilt_ess_spans_equal_samples_to_a_few():
    """The tilt ESS is N when every sample is equal (eps = 0.5, all at 0).
    Near eps = 0.02, the low end of the symmetric bracket, a few samples
    carry nearly all the exp(-L) weight: at N = 2000 the ESS stays below
    2.5% of N at every depth to 12, against most of N at eps = 0.3."""
    n = 2000
    c = symmetric_channel(0.5)
    pop = population_evolve_anchored(population_from_pair(base_pair(c, 2), n, seed=14), c, 2)
    assert estimate_diagnostics(pop, c)["tilt_ess"] == n

    def ess_curve(eps):
        c = symmetric_channel(eps)
        pops = trajectory(population_from_pair(base_pair(c, 2), n, seed=3),
                          lambda p: population_evolve_anchored(p, c, 2), 12)
        return [estimate_diagnostics(p, c)["tilt_ess"] for p in pops]

    assert max(ess_curve(0.02)) < 0.025 * n
    assert min(ess_curve(0.3)[3:]) > 0.9 * n


def test_population_tv_is_the_diagnostics_tv():
    c = symmetric_channel(0.15)
    pop = population_from_pair(base_pair(c, 2), 5000, seed=24)
    for _ in range(3):
        pop = population_evolve_anchored(pop, c, 2)
        assert population_tv(pop) == estimate_diagnostics(pop, c)["tv"]


def test_one_law_reads_the_same_in_both_engines():
    """The depth-1, k = 1 pair of symmetric eps = 0.25 (atoms -+ln 3 with
    w0 = 1/4, 3/4) and a population holding those values in those
    proportions give the same tv, mean_gap and var_A."""
    c = symmetric_channel(0.25)
    pair = base_pair(c, 1)
    assert np.allclose(pair.values, [-math.log(3.0), math.log(3.0)], rtol=0, atol=1e-15)
    assert np.allclose(pair.w0, [0.25, 0.75], rtol=0, atol=1e-15)
    pop = Population(1, np.repeat(pair.values, [250, 750]), None)
    exact, sampled = diagnostics(pair, c), estimate_diagnostics(pop, c)
    assert exact["tv"] == population_tv(pop)
    for name in ("tv", "mean_gap", "var_A"):
        assert abs(exact[name] - sampled[name]) <= 1e-15, name


def test_anchored_population_unit_mean_weights():
    """The anchored scheme keeps the empirical E[exp(-L)] pinned at 1."""
    c = symmetric_channel(0.22)
    pop = population_from_pair(base_pair(c, 2), 50_000, seed=21)
    for _ in range(5):
        pop = population_evolve_anchored(pop, c, 2)
        finite = np.isfinite(pop.samples0)
        est = float(np.mean(np.exp(-pop.samples0[finite])))
        assert abs(est - 1.0) < 1e-10
