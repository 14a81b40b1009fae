"""Forward tree sampling, exact root posterior, population dynamics."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from treecast import (
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

from treecast.sampling import _weighted_draw, population_tv

from _oracles import brute_root_posterior, plain_population_from_pair, population_evolve


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


# ------------------------------------------------------- weighted draws

@st.composite
def draw_inputs(draw):
    """Weights (zeros likely, a lone nonzero weight and n = 1 included),
    a draw shape ``(m,)`` or ``(m, k)`` and a generator seed."""
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        w = np.zeros(n)
        w[draw(st.integers(0, n - 1))] = draw(st.floats(1e-300, 1e300))
    else:
        w = np.array(draw(st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=n, max_size=n)))
    m = draw(st.integers(1, 300))
    shape = draw(st.sampled_from([(m,), (m, draw(st.integers(1, 4)))]))
    return w, shape, draw(st.integers(0, 2 ** 32))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(draw_inputs())
@example((np.array([2.5]), (7,), 0))
@example((np.array([0.0, 0.0, 1.0, 0.0]), (50, 3), 1))
def test_weighted_draw_equals_rng_choice(case):
    """The sorted-key draw returns ``rng.choice``'s indices and leaves the
    generator where ``rng.choice`` leaves it."""
    w, shape, seed = case
    assume(w.sum() > 0)
    p = w / w.sum()
    ref = np.random.Generator(np.random.Philox(seed))
    ours = np.random.Generator(np.random.Philox(seed))
    expected = ref.choice(len(p), size=shape, p=p)
    got = _weighted_draw(ours, p, shape)
    assert got.shape == expected.shape and np.array_equal(got, expected)
    assert ours.random() == ref.random()


def test_weighted_draw_rejects_bad_weights():
    rng = np.random.Generator(np.random.Philox(0))
    for w in ([0.5, np.nan, 0.5], [0.5, -0.1, 0.6], [0.0, 0.0], [1.0, np.inf]):
        with pytest.raises(InvalidParameter):
            _weighted_draw(rng, np.array(w), (10,))


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
    """Every depth-1 sample at +inf leaves no sample of the root-1 law."""
    c = hardcore_channel(w_of_lambda(1e6, 3))
    pop = population_from_pair(base_pair(c, 3), 1000, seed=23)
    assert np.all(np.isposinf(pop.samples0))
    with pytest.raises(ResourceLimit):
        population_evolve_anchored(pop, c, 3)


def test_population_tv_is_the_diagnostics_tv():
    c = symmetric_channel(0.15)
    pop = population_from_pair(base_pair(c, 2), 5000, seed=24)
    for _ in range(3):
        pop = population_evolve_anchored(pop, c, 2)
        assert population_tv(pop) == estimate_diagnostics(pop, c)["tv"]


def test_anchored_population_unit_mean_weights():
    """The anchored scheme keeps the empirical E[exp(-L)] pinned at 1."""
    c = symmetric_channel(0.22)
    pop = population_from_pair(base_pair(c, 2), 50_000, seed=21)
    for _ in range(5):
        pop = population_evolve_anchored(pop, c, 2)
        finite = np.isfinite(pop.samples0)
        est = float(np.mean(np.exp(-pop.samples0[finite])))
        assert abs(est - 1.0) < 1e-10
