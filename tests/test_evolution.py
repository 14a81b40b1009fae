"""Density evolution of the conditional root-LLR laws."""

import itertools
import math
import warnings

import numpy as np
import pytest

from treecast import evolution
from treecast import (
    AtomExplosion,
    ConditionalPair,
    InvalidParameter,
    base_pair,
    deep_policy,
    diagnostics,
    evolve,
    evolve_to_depth,
    exact_policy,
    gap_identity_residual,
    hardcore_channel,
    make_channel,
    mean_gap,
    population_evolve_anchored,
    population_from_pair,
    symmetric_channel,
    trajectory,
    w_of_lambda,
)

from _oracles import brute_pair_laws, brute_root_posterior, compare_laws, random_channel


def assert_matches_oracle(pair, c, k, depth, vtol=1e-10, wtol=1e-10):
    ov, ow0, ow1 = brute_pair_laws(c, k, depth)
    keep = (pair.w0 > 0) | (pair.w1 > 0)
    dv, dw0 = compare_laws(pair.values[keep], pair.w0[keep], ov, ow0)
    _, dw1 = compare_laws(pair.values[keep], pair.w1[keep], ov, ow1)
    assert dv < vtol, f"value mismatch {dv} at k={k} d={depth}"
    assert dw0 < wtol and dw1 < wtol, f"weight mismatch {dw0}/{dw1} at k={k} d={depth}"


# ---------------------------------------------------------------- base case

def test_base_pair_symmetric_single_child():
    """k=1 base case is the two-point log-odds experiment."""
    eps = 0.2
    pair = base_pair(symmetric_channel(eps), 1)
    ratio = math.log((1.0 - eps) / eps)
    assert pair.depth == 1
    assert np.allclose(pair.values, [-ratio, ratio], atol=1e-12)
    assert np.allclose(pair.w0, [eps, 1.0 - eps], atol=1e-15)
    assert np.allclose(pair.w1, [1.0 - eps, eps], atol=1e-15)


def test_base_pair_hardcore_single_child():
    """Occupied root forces an empty child: the root-1 law is a point mass."""
    c, _ = hardcore_channel(1.0, 1)
    pair = base_pair(c, 1)
    support1 = pair.values[pair.w1 > 0]
    assert len(support1) == 1
    assert abs(support1[0] - math.log(0.5)) < 1e-12
    assert pair.values[-1] == math.inf
    assert abs(pair.w0[pair.values == math.inf][0] - 0.5) < 1e-15


def test_base_pair_opposite_infinities_warn_nothing():
    """p00 = p11 = 0: the mixed child counts, which would add -inf to +inf,
    have zero weight and are never formed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = base_pair(make_channel(0.0, 1.0), 2)
    assert list(pair.values) == [-math.inf, math.inf]
    assert list(pair.w0) == [0.0, 1.0] and list(pair.w1) == [1.0, 0.0]


def test_base_pair_uninformative_channel():
    """eps = 1/2 gives a point mass at 0 under both root values."""
    pair = base_pair(symmetric_channel(0.5), 3)
    assert len(pair) == 1
    assert pair.values[0] == 0.0
    assert pair.w0[0] == 1.0 and pair.w1[0] == 1.0


def test_base_pair_matches_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(20):
        c = make_channel(*random_channel(rng, 0.05, 0.95))
        for k in (1, 2, 3):
            assert_matches_oracle(base_pair(c, k), c, k, 1)


# ----------------------------------------------------------- one-step rules

def test_evolve_rows_equal_fixed_point():
    """Equal rows carry no information at any depth."""
    c = make_channel(0.7, 0.7)
    pair = evolve_to_depth(c, 2, 4)
    assert len(pair) == 1
    assert pair.values[0] == 0.0
    assert pair.w0[0] == 1.0 and pair.w1[0] == 1.0


def test_evolve_uninformative_fixed_point():
    pair = evolve_to_depth(symmetric_channel(0.5), 2, 5)
    assert len(pair) == 1 and pair.values[0] == 0.0


def test_evolve_depth_two_matches_enumeration():
    c = symmetric_channel(0.2)
    pair = evolve(base_pair(c, 2), c, 2)
    assert pair.depth == 2
    assert_matches_oracle(pair, c, 2, 2)


def test_evolution_matches_enumeration_grid():
    """Exact evolution equals full enumeration for k <= 2, depth <= 3."""
    rng = np.random.default_rng(22)
    channels = [symmetric_channel(0.2), make_channel(0.85, 0.35),
                hardcore_channel(1.0, 2)[0]]
    channels += [make_channel(*random_channel(rng, 0.05, 0.95)) for _ in range(5)]
    for c in channels:
        for k in (1, 2):
            pair = base_pair(c, k)
            for depth in (2, 3):
                pair = evolve(pair, c, k, exact_policy())
                assert_matches_oracle(pair, c, k, depth)


def test_evolution_matches_enumeration_k3():
    c = make_channel(0.75, 0.3)
    pair = evolve_to_depth(c, 3, 2, exact_policy())
    assert_matches_oracle(pair, c, 3, 2)


def test_posterior_matches_bayes_enumeration():
    """Posterior of the depth-2 law agrees with brute-force Bayes."""
    c = symmetric_channel(0.2)
    pair = evolve_to_depth(c, 2, 2, exact_policy())
    from treecast import posterior_from_llr
    post = posterior_from_llr(pair.values, c)
    # every enumerated leaf pattern's posterior must appear in the law
    for key in range(16):
        leaves = [(key >> j) & 1 for j in range(4)]
        target = brute_root_posterior(c, 2, 2, leaves)
        assert np.min(np.abs(post - target)) < 1e-10


# ------------------------------------------------------------- invariants

def test_weight_conservation_and_dominance():
    """Both weight vectors stay normalized and one-sided through depth."""
    rng = np.random.default_rng(23)
    for _ in range(10):
        c = make_channel(*random_channel(rng, 0.1, 0.9))
        pair = base_pair(c, 2)
        for _ in range(4):
            pair = evolve(pair, c, 2, exact_policy())
            assert abs(pair.w0.sum() - 1.0) < 1e-10
            assert abs(pair.w1.sum() - 1.0) < 1e-10
            assert pair.dominance_violation() < 1e-10


def test_martingale_mean_through_depth():
    """E[posterior] = pi0 at every depth under the stationary mixture."""
    for c in (symmetric_channel(0.3), make_channel(0.8, 0.3),
              hardcore_channel(0.8, 2)[0]):
        pair = base_pair(c, 2)
        for _ in range(4):
            pair = evolve(pair, c, 2, exact_policy())
            assert pair.posterior_mean_residual(c) < 1e-10


def test_tv_nonincreasing_subcritical():
    """Total variation decays monotonically below the threshold."""
    c = symmetric_channel(0.3)  # k*(1-2*eps)**2 = 0.32 < 1
    pairs = trajectory(base_pair(c, 2), lambda p: evolve(p, c, 2, deep_policy()), 12)
    tvs = [diagnostics(p, c)["tv"] for p in pairs]
    assert len(tvs) == 12
    assert all(b <= a + 1e-12 for a, b in zip(tvs, tvs[1:]))
    assert tvs[-1] < tvs[0]


def test_mean_gap_contracts_when_kernel_slope_small():
    """k * sup f' <= 1 forces a non-increasing mean gap."""
    from treecast import gap_kernel_peak
    exact_cases = [(symmetric_channel(0.33), 2, 5), (symmetric_channel(0.26), 1, 10),
                   (make_channel(0.62, 0.42), 2, 5)]
    for c, k, depth in exact_cases:
        assert k * gap_kernel_peak(c)[1] <= 1.0
        pairs = trajectory(base_pair(c, k), lambda p: evolve(p, c, k, exact_policy()), depth)
        gaps = [mean_gap(p) for p in pairs]
        assert all(b <= a + 1e-10 for a, b in zip(gaps, gaps[1:]))
    # deeper horizon under the binned policy: same shape, merge-level slack
    c = symmetric_channel(0.33)
    pairs = trajectory(base_pair(c, 2), lambda p: evolve(p, c, 2, deep_policy()), 10)
    gaps = [mean_gap(p) for p in pairs]
    assert all(b <= a + 1e-6 for a, b in zip(gaps, gaps[1:]))


def test_mean_gap_special_values():
    assert mean_gap(evolve_to_depth(symmetric_channel(0.5), 2, 3)) == 0.0
    assert mean_gap(evolve_to_depth(make_channel(0.6, 0.6), 2, 2)) == 0.0
    c, _ = hardcore_channel(w_of_lambda(1.0, 2), 2)
    assert mean_gap(base_pair(c, 2)) == math.inf


def test_depth_recursion_identity():
    """Materialized mean gap equals k times the expected kernel value."""
    rng = np.random.default_rng(24)
    for _ in range(20):
        c = make_channel(*random_channel(rng, 0.1, 0.9))
        for k in (1, 2):
            prev = base_pair(c, k)
            for _ in range(2):
                nxt = evolve(prev, c, k, exact_policy())
                assert gap_identity_residual(nxt, prev, c, k) < 1e-9
                prev = nxt


def test_identity_degenerate_cases():
    c = symmetric_channel(0.5)
    prev = base_pair(c, 2)
    nxt = evolve(prev, c, 2)
    assert gap_identity_residual(nxt, prev, c, 2) == 0.0
    c = make_channel(0.7, 0.7)
    prev = base_pair(c, 2)
    nxt = evolve(prev, c, 2)
    assert gap_identity_residual(nxt, prev, c, 2) == 0.0
    with pytest.raises(InvalidParameter):
        gap_identity_residual(prev, nxt, c, 2)


def test_diagnostics_uninformative_all_zero():
    c = symmetric_channel(0.5)
    d = diagnostics(evolve_to_depth(c, 2, 4), c)
    assert d["tv"] == 0.0 and d["mean_gap"] == 0.0 and d["var_A"] == 0.0


def test_diagnostics_positive_when_informative():
    c = symmetric_channel(0.2)
    d = diagnostics(evolve_to_depth(c, 2, 3), c)
    assert 0.0 < d["tv"] <= 1.0
    assert d["mean_gap"] > 0.0
    assert 0.0 < d["var_A"] <= c.pi0 * c.pi1 + 1e-15


# ----------------------------------------------------------- resource caps

def test_atom_cap_raises(monkeypatch):
    monkeypatch.setattr(evolution, "ATOM_CAP", 10)
    c = make_channel(0.81, 0.27)
    with pytest.raises(AtomExplosion) as info:
        evolve_to_depth(c, 2, 4, exact_policy())
    assert info.value.count > evolution.ATOM_CAP


def test_pair_budget_raises_before_allocation(monkeypatch):
    monkeypatch.setattr(evolution, "PAIR_BUDGET", 50)
    monkeypatch.setattr(evolution, "ATOM_CAP", 1 << 40)
    c = make_channel(0.81, 0.27)
    with pytest.raises(AtomExplosion) as info:
        evolve_to_depth(c, 2, 4, exact_policy())
    assert info.value.count > 50


# ------------------------------------------------------------ lattice step

def lattice_identity_residual(pair):
    """Largest |w1 - w0*exp(-v)| over the finite atoms."""
    finite = np.isfinite(pair.values)
    v = pair.values[finite]
    return float(np.max(np.abs(pair.w1[finite] - pair.w0[finite] * np.exp(-v))))


def test_lattice_tv_bounds_exact_tv_from_above():
    """The lattice law is an upper law wherever the exact engine computes."""
    channels = [symmetric_channel(0.1), symmetric_channel(0.25),
                make_channel(0.81, 0.27), make_channel(0.6, 0.15),
                hardcore_channel(w_of_lambda(1.0, 2), 2)[0],
                hardcore_channel(w_of_lambda(30.0, 2), 2)[0]]
    checked = 0
    for c in channels:
        for k in (1, 2, 3):
            exact = upper = base_pair(c, k)
            for _ in range(2, 6):
                upper = evolve(upper, c, k, deep_policy())
                try:
                    exact = evolve(exact, c, k, exact_policy())
                except AtomExplosion:
                    break
                tv_exact = diagnostics(exact, c)["tv"]
                tv_upper = diagnostics(upper, c)["tv"]
                assert tv_upper >= tv_exact - 1e-12, (c, k, exact.depth)
                # the excess is a lattice-width effect, not a different law
                assert tv_upper - tv_exact < 10 * evolution.LATTICE_WIDTH
                checked += 1
    assert checked >= 40


def test_lattice_identity_and_posterior_mean_through_depth_12():
    for c, k in [(symmetric_channel(0.15), 2), (symmetric_channel(0.2), 5),
                 (make_channel(0.81, 0.27), 3),
                 (hardcore_channel(w_of_lambda(78.0, 2), 2)[0], 2)]:
        pairs = trajectory(base_pair(c, k), lambda p: evolve(p, c, k, deep_policy()), 12)
        for pair in itertools.islice(pairs, 1, None):
            assert lattice_identity_residual(pair) <= 1e-15, (c, k, pair.depth)
            assert pair.posterior_mean_residual(c) <= 1e-12, (c, k, pair.depth)
            steps = pair.values / evolution.LATTICE_WIDTH
            assert np.max(np.abs(steps - np.round(steps))) < 1e-9, "off the 0-anchored lattice"
        assert pair.depth == 12


def test_lattice_keeps_minus_inf_atom_without_warnings():
    """p01 = 0: a 1 anywhere below rules out root 0, mass 1 - (1 - q)**k."""
    c = make_channel(1.0, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = evolve(base_pair(c, 2), c, 2, exact_policy())
        pairs = list(trajectory(base_pair(c, 2),
                                lambda p: evolve(p, c, 2, deep_policy()), 6))
        diag = [diagnostics(p, c) for p in pairs]
    for prev, pair in itertools.pairwise(pairs):
        assert pair.values[0] == -math.inf and pair.w0[0] == 0.0
        assert np.all(np.isfinite(pair.values[1:]))
        q = c.p11 * prev.w1[0]  # root-1 mass of a child at -inf
        assert abs(pair.w1[0] - (1.0 - (1.0 - q) ** 2)) < 1e-15
        assert lattice_identity_residual(pair) <= 1e-15
        assert pair.posterior_mean_residual(c) <= 1e-12
    assert abs(pairs[1].w1[0] - exact.w1[0]) < 1e-15
    # pi1 = 0: every atom the mixture reaches has posterior 1
    assert all(0.0 <= d["var_A"] <= 1e-15 and d["mean_gap"] == math.inf for d in diag)


def test_lattice_fold_refused_above_pair_budget(monkeypatch):
    monkeypatch.setattr(evolution, "PAIR_BUDGET", 1000)
    c = symmetric_channel(0.2)
    pair = evolve(base_pair(c, 2), c, 2, exact_policy())
    with pytest.raises(AtomExplosion) as info:
        evolve(pair, c, 2, deep_policy())
    assert info.value.count > 1000


def test_lattice_pair_budget_checked_once_before_the_first_fold(monkeypatch):
    """Fold j forms (j*(L-1) + 1)*L pairs, so the last fold decides; a
    refused step refuses before any fold runs."""
    c, k = symmetric_channel(0.2), 3
    pair = evolve(base_pair(c, k), c, k, exact_policy())
    monkeypatch.setattr(evolution, "PAIR_BUDGET", 0)
    with pytest.raises(AtomExplosion) as info:
        evolve(pair, c, k, deep_policy())
    last_fold = info.value.count
    real, folds = np.convolve, []

    def counting(a, v):
        folds.append(len(a) * len(v))
        return real(a, v)

    monkeypatch.setattr(evolution.np, "convolve", counting)
    monkeypatch.setattr(evolution, "PAIR_BUDGET", last_fold - 1)
    with pytest.raises(AtomExplosion) as info:
        evolve(pair, c, k, deep_policy())
    assert info.value.count == last_fold and folds == []
    monkeypatch.setattr(evolution, "PAIR_BUDGET", last_fold)
    evolve(pair, c, k, deep_policy())
    assert len(folds) == k - 1 and folds[-1] == last_fold


def test_trajectory_yields_one_state_per_depth():
    c = symmetric_channel(0.2)
    pairs = list(trajectory(base_pair(c, 2), lambda p: evolve(p, c, 2), 4))
    assert [p.depth for p in pairs] == [1, 2, 3, 4]
    last = evolve_to_depth(c, 2, 4)
    assert np.array_equal(pairs[-1].values, last.values)
    assert np.array_equal(pairs[-1].w0, last.w0)
    pop = population_from_pair(base_pair(c, 2), 1000, seed=3)
    pops = list(trajectory(pop, lambda p: population_evolve_anchored(p, c, 2), 3))
    assert [p.depth for p in pops] == [1, 2, 3]
    assert pops[0] is pop


def test_trajectory_steps_lazily():
    c = symmetric_channel(0.2)
    calls = []

    def step(p):
        calls.append(p.depth)
        return evolve(p, c, 2)

    states = trajectory(base_pair(c, 2), step, 3)
    assert calls == []
    next(states)
    assert calls == []
    assert [p.depth for p in states] == [2, 3]
    assert calls == [1, 2]


def test_trajectory_rejects_depth_below_one():
    pair = base_pair(symmetric_channel(0.2), 2)
    for depth in (0, -1):
        with pytest.raises(InvalidParameter):
            trajectory(pair, lambda p: p, depth)


def test_depth_validation():
    with pytest.raises(InvalidParameter):
        evolve_to_depth(symmetric_channel(0.2), 2, 0)
    with pytest.raises(InvalidParameter):
        base_pair(symmetric_channel(0.2), 0)
