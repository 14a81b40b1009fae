"""Density evolution of the conditional root-LLR laws."""

import inspect
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
    grid_merge,
    hardcore_channel,
    llr_step,
    make_channel,
    mean_gap,
    population_evolve_anchored,
    population_from_pair,
    symmetric_channel,
    trajectory,
    w_of_lambda,
)

from _oracles import (brute_pair_laws, brute_root_posterior, compare_laws,
                      full_product_convolve, full_product_evolve, random_channel)


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
    c = hardcore_channel(1.0)
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


def test_base_pair_rows_keep_their_small_entry():
    """Each binomial row takes its failure probability from the channel,
    so a row whose 1 - p rounds to 0 keeps its small entry, and the
    derived root-1 law stays a law."""
    # p01 rounds to 1 and p00 = 2.2e-103: the all-empty count keeps its
    # root-0 weight p00**2, so its root-1 weight 1 can be derived
    c = hardcore_channel(w_of_lambda(1e308, 2))
    pair = base_pair(c, 2)
    assert pair.w0[0] == pytest.approx(c.p00 ** 2, rel=1e-13)
    assert diagnostics(pair, c)["tv"] == 1.0
    # p11 rounds to 1 and the row sums to 1 + 1e-17: the -inf mass stays <= 1
    assert base_pair(symmetric_channel(1e-17), 25).q == 1.0
    # both small entries count: 50-digit mpmath on the normalized rows
    # gives TV 1.99999997900e-9, where 1 - p alone gave 1.99999994294e-9
    c = make_channel(1e-9, 1e-17)
    assert abs(diagnostics(base_pair(c, 2), c)["tv"] - 1.99999997900e-9) < 1e-16


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
                hardcore_channel(1.0)]
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
    """Both weight vectors stay normalized and one-sided through depth.

    With ``w1 = w0 * exp(-value)`` derived, the ordering holds by
    construction; the derived weights are pinned against carried ones in
    the self-fold tests below and against enumeration in criterion 05.
    """
    rng = np.random.default_rng(23)
    for _ in range(10):
        c = make_channel(*random_channel(rng, 0.1, 0.9))
        pair = base_pair(c, 2)
        for _ in range(4):
            pair = evolve(pair, c, 2, exact_policy())
            assert abs(pair.w0.sum() - 1.0) < 1e-10
            assert abs(pair.w1.sum() - 1.0) < 1e-10
            pos, neg = pair.values > 0, pair.values < 0
            assert np.all(pair.w1[pos] <= pair.w0[pos])
            assert np.all(pair.w1[neg] >= pair.w0[neg])


def test_martingale_mean_through_depth():
    """E[posterior] = pi0 at every depth under the stationary mixture."""
    for c in (symmetric_channel(0.3), make_channel(0.8, 0.3),
              hardcore_channel(0.8)):
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
    c = hardcore_channel(w_of_lambda(1.0, 2))
    assert mean_gap(base_pair(c, 2)) == math.inf


def test_statistics_never_nan_at_edge_atoms():
    """A zero-weight +inf atom changes nothing, and a +inf atom that the
    stationary mixture never reaches (pi0 = 0) gives var_A 0, not NaN."""
    c = symmetric_channel(0.25)
    v, w0 = [-math.log(3.0), math.log(3.0)], [0.25, 0.75]
    plain = diagnostics(ConditionalPair(1, v, w0), c)
    padded = ConditionalPair(1, [*v, math.inf], [*w0, 0.0])
    assert diagnostics(padded, c) == plain and mean_gap(padded) == plain["mean_gap"]
    c = make_channel(0.5, 0.0)  # p10 = 0: pi0 = 0, and a 0-child is certain root 0
    pair = base_pair(c, 2)
    assert c.pi0 == 0.0 and pair.values[-1] == math.inf
    assert diagnostics(pair, c) == {"tv": 0.75, "mean_gap": math.inf, "var_A": 0.0}
    assert pair.posterior_mean_residual(c) == 0.0


def _normalized_rows_tv(mpmath, c, k, depth):
    """TV of the depth-``depth`` laws, in mpmath, for the channel whose
    rows are ``c``'s divided by their sums (the law ``base_pair`` forms):
    through the k children at depth 1, or the k = 1 chain's two-step
    matrix at depth 2."""
    rows = [[mpmath.mpf(a) / (mpmath.mpf(a) + mpmath.mpf(b)),
             mpmath.mpf(b) / (mpmath.mpf(a) + mpmath.mpf(b))]
            for a, b in ((c.p00, c.p01), (c.p10, c.p11))]
    if depth == 2:
        assert k == 1
        m = mpmath.matrix(rows) ** 2
        return abs(m[0, 0] - m[1, 0])
    assert depth == 1
    return sum(abs(mpmath.binomial(k, n) * (rows[0][1] ** n * rows[0][0] ** (k - n)
                                            - rows[1][1] ** n * rows[1][0] ** (k - n)))
               for n in range(k + 1)) / 2


@pytest.mark.parametrize("p00, p10, k, depth", [(1e-9, 1e-300, 1, 2), (1e-9, 1e-17, 2, 1)])
def test_tiny_tv_keeps_its_digits(p00, p10, k, depth):
    """The TV is the root-0 surplus, so a TV far below the weights' own
    rounding keeps its relative accuracy (difference of the two weight
    vectors lost half of the first and 9e-9 relative of the second)."""
    mpmath = pytest.importorskip("mpmath")
    c = make_channel(p00, p10)
    tv = diagnostics(evolve_to_depth(c, k, depth, deep_policy()), c)["tv"]
    with mpmath.workdps(60):
        want = _normalized_rows_tv(mpmath, c, k, depth)
        assert abs(tv - want) <= 1e-15 * want, (tv, want)
    if depth == 2:
        assert abs(tv - 1.0e-18) <= 1e-15 * 1.0e-18


def test_deep_lattice_tv_is_the_positive_surplus_and_gap_never_negative():
    """At eps = 0.3, k = 2 the lattice TV at depth 100 is the 50-digit
    surplus sum(w0 * (1 - exp(-v)), v > 0) of the same atoms within 1e-12
    relative, and the mean gap is >= 0 at every depth of the curve."""
    mpmath = pytest.importorskip("mpmath")
    c = symmetric_channel(0.3)
    pairs = list(trajectory(base_pair(c, 2), lambda p: evolve(p, c, 2, deep_policy()), 100))
    assert all(mean_gap(p) >= 0.0 for p in pairs)
    pair = pairs[-1]
    tv = diagnostics(pair, c)["tv"]
    pos = pair.values > 0
    with mpmath.workdps(50):
        want = mpmath.fsum(mpmath.mpf(w) * -mpmath.expm1(-mpmath.mpf(v))
                           for v, w in zip(pair.values[pos], pair.w0[pos]))
        assert tv > 0 and abs(tv - want) <= 1e-12 * want, (tv, want)


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

def test_pair_budget_raises_before_allocation(monkeypatch):
    monkeypatch.setattr(evolution, "PAIR_BUDGET", 50)
    c = make_channel(0.81, 0.27)
    with pytest.raises(AtomExplosion) as info:
        evolve_to_depth(c, 2, 4, exact_policy())
    assert info.value.count > 50


def test_self_fold_budget_counts_unordered_pairs(monkeypatch):
    """At k=2 the one fold forms the m(m+1)/2 unordered pairs, no more."""
    c = make_channel(0.81, 0.27)
    pair = evolve_to_depth(c, 2, 4, exact_policy())
    m = len(grid_merge(llr_step(c, pair.values), pair.w0, tol=evolution.MERGE_TOL)[0])
    formed = m * (m + 1) // 2
    assert formed < m * m
    monkeypatch.setattr(evolution, "PAIR_BUDGET", formed)
    evolve(pair, c, 2, exact_policy())
    monkeypatch.setattr(evolution, "PAIR_BUDGET", formed - 1)
    with pytest.raises(AtomExplosion) as info:
        evolve(pair, c, 2, exact_policy())
    assert info.value.count == formed


def test_later_fold_refused_before_the_first_fold_merges(monkeypatch):
    """At k=3 the second fold's pair count comes from the first fold's sums
    alone: the refusal reports the count that merging them gives, and the
    child law's merge is the only one before it."""
    c = make_channel(0.81, 0.27)
    pair = evolve_to_depth(c, 3, 2, exact_policy())
    h = llr_step(c, pair.values) + math.log(c.p00 / c.p10)
    y = grid_merge(h, np.ones_like(h), tol=evolution.MERGE_TOL)[0]
    m = len(y)
    sums = (y[:, None] + y[None, :])[np.triu_indices(m)]
    needed = len(grid_merge(sums, np.ones_like(sums), tol=evolution.MERGE_TOL)[0]) * m
    assert needed - 1 >= m * (m + 1) // 2
    real, calls = evolution.grid_merge, []

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(evolution, "grid_merge", counting)
    monkeypatch.setattr(evolution, "PAIR_BUDGET", needed - 1)
    with pytest.raises(AtomExplosion) as info:
        evolve(pair, c, 3, exact_policy())
    assert info.value.count == needed and calls == [len(h)]
    monkeypatch.setattr(evolution, "PAIR_BUDGET", needed)
    evolve(pair, c, 3, exact_policy())


def test_exact_laws_hold_no_rounding_duplicates():
    """Sums equal up to rounding merge into one atom wherever they fall.

    Three children of a 4-atom law sum to at most C(6,3) = 20 values; two
    atoms 4.4e-16 apart once made 21.  Over criterion 04's computed cells no
    two finite atoms of one law lie closer than the merge tolerance.
    """
    c = make_channel(0.8871395956635356, 0.23677557282527317)
    assert len(base_pair(c, 3)) == 4
    assert len(evolve(base_pair(c, 3), c, 3, exact_policy())) <= 20
    rng = np.random.default_rng(40)
    for _ in range(100):
        c = make_channel(*random_channel(rng, 0.05, 0.95))
        for k in (1, 2, 3):
            pair = base_pair(c, k)
            for _depth in range(2 if k == 3 else 3):
                pair = evolve(pair, c, k, exact_policy())
                finite = pair.values[np.isfinite(pair.values)]
                assert np.all(np.diff(finite) >= evolution.MERGE_TOL)


# ---------------------------------------------- one child contribution

def test_step_functions_take_the_child_contribution():
    """Both steps and the reference fold sum ``h = g + ln(p00/p10)``."""
    for step in (exact_policy(), deep_policy(), full_product_convolve):
        assert list(inspect.signature(step).parameters) == ["h", "m0", "m1", "k"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exact_step_merges_once_per_child(k, monkeypatch):
    """The first merge is on the contributions and each fold merges its
    sums once, so the k-th merge is already on the returned law."""
    c = make_channel(0.7, 0.4)
    pair = base_pair(c, k)
    real, calls = evolution.grid_merge, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(evolution, "grid_merge", counting)
    evolve(pair, c, k, exact_policy())
    assert len(calls) == k


# ---------------------------------------------------- self-fold reference

def assert_derived_w1_pinned(pair, values, w0, w1):
    """The pair's derived ``w1`` against a carried one on the same atoms:
    relative 1e-12 where it is above 1e-12, and the TV within 1e-13."""
    assert len(pair) == len(values)
    big = w1 > 1e-12
    rel = np.abs(pair.w1[big] - w1[big]) / w1[big]
    assert rel.max(initial=0.0) <= 1e-12, rel.max()
    tv = 0.5 * float(np.abs(w0 - w1).sum())
    assert abs(0.5 * float(np.abs(pair.w0 - pair.w1).sum()) - tv) <= 1e-13


def test_self_fold_agrees_with_full_product_on_random_channels():
    """Summing each unordered pair once, and deriving the root-1 weights
    rather than folding them, moves the law by rounding only.

    The reference carries both weight vectors through its own chain, from
    the enumerated depth-1 laws.  Each chain runs through depth 4; a cell
    the exact step refuses (most k=3, depth-4 cells) ends its chain, since
    the reference would have to form the same refused fold.
    """
    rng = np.random.default_rng(91)
    checked = {}
    for _ in range(20):
        c = make_channel(*random_channel(rng, 0.05, 0.95))
        for k in (2, 3):
            exact = base_pair(c, k)
            full = brute_pair_laws(c, k, 1)
            for depth in (2, 3, 4):
                try:
                    exact = evolve(exact, c, k, exact_policy())
                except AtomExplosion:
                    break
                full = full_product_evolve(full, c, k)
                assert len(exact) == len(full[0]), (c, k, depth)
                dv, dw0 = compare_laws(exact.values, exact.w0, full[0], full[1])
                assert max(dv, dw0) <= 1e-13, (c, k, depth, dv, dw0)
                assert_derived_w1_pinned(exact, *full)
                checked[(k, depth)] = checked.get((k, depth), 0) + 1
    assert all(checked.get((k, d), 0) == 20 for k, d in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)))


@pytest.mark.parametrize("c, k, depth", [
    (make_channel(0.6, 0.3), 2, 5),
    (make_channel(0.9, 0.05), 3, 3),
    (hardcore_channel(w_of_lambda(1.0, 2)), 2, 6),
], ids=["asym-k2-d5", "near-deterministic-k3-d3", "hardcore-k2-d6"])
def test_self_fold_bitwise_equal_to_full_product(c, k, depth):
    """At every step, the full-product fold of the same child contributions
    gives the same root-0 weights bit for bit, and root-1 weights that the
    derived ones match.  The support is the same bit for bit where every
    run of sums holds one value, as at k=2 (a + b is b + a); a run of sums
    that differ by rounding (k=3) is valued by w0 here and by w0 + w1 in
    the reference, so there it moves within the run."""
    steps = []

    def recording(h, m0, m1, k):
        out = exact_policy()(h, m0, m1, k)
        steps.append(((h, m0, m1), (out[0], out[1].copy())))
        return out

    pair = base_pair(c, k)
    for _ in range(depth - 1):
        pair = evolve(pair, c, k, recording)
        (h, m0, m1), (got_values, got_w0) = steps[-1]
        values, w0, w1 = full_product_convolve(h, m0, m1, k)
        assert np.array_equal(got_w0, w0)
        if k == 2:
            assert np.array_equal(got_values, values)
        assert np.max(np.abs(got_values - values)) < evolution.MERGE_TOL
        # the step's weights, scaled to total 1 by evolve, against the fold's
        assert_derived_w1_pinned(pair, values, w0 / w0.sum(), w1 / w1.sum())


@pytest.mark.parametrize("entries", [(1 - 1e-9, 0.5), (1 - 2e-12, 0.9), (0.9, 0.05)])
def test_derived_root_one_law_matches_enumeration(entries):
    """TV of the exact k=2, depth-3 law against enumeration of the leaves:
    the derived w1 is as good as the one-child update it rests on."""
    c = make_channel(*entries)
    _, w0, w1 = brute_pair_laws(c, 2, 3)
    brute = 0.5 * float(np.abs(w0 - w1).sum())
    got = diagnostics(evolve_to_depth(c, 2, 3, exact_policy()), c)["tv"]
    assert abs(got - brute) <= 1e-15, (got, brute)


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
                hardcore_channel(w_of_lambda(1.0, 2)),
                hardcore_channel(w_of_lambda(30.0, 2))]
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
                 (hardcore_channel(w_of_lambda(78.0, 2)), 2)]:
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
