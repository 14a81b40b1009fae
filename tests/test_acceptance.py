"""End-to-end acceptance suite: one reported pass/fail line per criterion.

Each test prints ``[criterion NN] PASS/FAIL - detail`` on the live
terminal (bypassing capture) before asserting, so a full run always shows
the complete scoreboard.
"""

import math
import time

import numpy as np

from treecast.channels import (make_channel, symmetric_channel,
                               hardcore_channel, w_of_lambda,
                               kelly_threshold, gap_kernel_peak,
                               mossel_peres_lhs, geometric_mean_bound_lhs)
from treecast.evolution import (PAIR_BUDGET, base_pair, evolve, exact_policy,
                                deep_policy, diagnostics, gap_identity_residual)
from treecast.conditioning import build_coupling, verify_sandwich
from treecast.sampling import bp_root_posterior
from treecast.hardcore import gibbs_conditional_sweep, brw_independence_check
from treecast.threshold import (ChannelFamily, bisect_threshold,
                                restricted_bound_crossover)
from treecast.errors import AtomExplosion, DegenerateChannel
from treecast.cli import main as cli_main

from _oracles import (brute_pair_laws, brute_root_posterior, compare_laws,
                      grid_kernel_sup, random_channel, random_sandwich_case)

KS_EPS = {2: 0.1464466, 3: 0.2113249}


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_symmetric_threshold_recovery(capsys):
    details = []
    ok = True
    for k, target in sorted(KS_EPS.items()):
        t0 = time.monotonic()
        est = bisect_threshold(ChannelFamily(kind="symmetric", k=k), depth=40,
                               engine="population", tol=0.005, seed=1,
                               pop_size=100_000)
        dt = time.monotonic() - t0
        err = abs(est.estimate - target)
        ok = ok and err <= 0.01 and dt <= 300.0
        details.append(f"k={k}: err {err:.4f} in {dt:.0f}s")
    report(capsys, 1, ok, "; ".join(details))


def test_criterion_02_bound_identity_sweep(capsys):
    rng = np.random.default_rng(20)
    t0 = time.monotonic()
    worst_order = 0.0
    for _ in range(10_000):
        try:
            c = make_channel(*random_channel(rng, 0.0, 1.0))
        except DegenerateChannel:
            continue
        worst_order = max(worst_order,
                          geometric_mean_bound_lhs(c) - mossel_peres_lhs(c))
    worst_eq = 0.0
    for _ in range(100):
        cases = [symmetric_channel(rng.uniform(0.01, 0.99)),
                 hardcore_channel(rng.uniform(0.1, 5.0)),
                 make_channel(*([rng.uniform(0.05, 0.95)] * 2))]
        for c in cases:
            worst_eq = max(worst_eq,
                           abs(geometric_mean_bound_lhs(c) - mossel_peres_lhs(c)))
    dt = time.monotonic() - t0
    ok = worst_order <= 1e-12 and worst_eq <= 1e-12 and dt <= 5.0
    report(capsys, 2, ok,
           f"ordering slack {worst_order:.2e}, equality residual {worst_eq:.2e}, {dt:.2f}s")


def test_criterion_03_sup_fprime_closed_form(capsys):
    rng = np.random.default_rng(30)
    worst_grid = 0.0
    worst_closed = 0.0
    for _ in range(1000):
        c = make_channel(*random_channel(rng, 0.02, 0.98))
        _, value = gap_kernel_peak(c)
        worst_grid = max(worst_grid,
                         abs(value - grid_kernel_sup(c, -25.0, 25.0, 100_000)))
        worst_closed = max(worst_closed,
                           abs(value - geometric_mean_bound_lhs(c)))
    ok = worst_grid <= 1e-6 and worst_closed <= 1e-12
    report(capsys, 3, ok,
           f"grid gap {worst_grid:.2e}, closed-form gap {worst_closed:.2e}")


def test_criterion_04_finite_depth_identity(capsys):
    # Every cell at k <= 2 and every k=3 cell through depth 3 (at most 4,200
    # atom pairs) must be computed.  At k=3, depth 4 a depth-3 support of m
    # atoms gives a law of up to C(m+2,3) atoms (~6.1e8 for m=1540), and the
    # engine may refuse it with AtomExplosion as `evolve` documents.  A
    # refusal counts only if its pair count exceeds the budget and does not
    # exceed C(m+1,2)*m, the collision-free pair count of the last fold.
    rng = np.random.default_rng(40)
    budget = PAIR_BUDGET
    worst = 0.0
    computed = {}
    refused = {}  # (k, depth) -> [(count, size of the input support)]
    for _ in range(100):
        c = make_channel(*random_channel(rng, 0.05, 0.95))
        for k in (1, 2, 3):
            pair = base_pair(c, k)
            for depth in (2, 3, 4):
                try:
                    nxt = evolve(pair, c, k, exact_policy())
                except AtomExplosion as exc:
                    refused.setdefault((k, depth), []).append(
                        (exc.count, len(pair.values)))
                    break
                computed[(k, depth)] = computed.get((k, depth), 0) + 1
                worst = max(worst, gap_identity_residual(nxt, pair, c, k))
                pair = nxt
    required = [(k, d) for k in (1, 2, 3) for d in (2, 3, 4) if (k, d) != (3, 4)]
    deep = refused.get((3, 4), [])
    out_of_range = sum(not budget < n <= math.comb(m + 1, 2) * m
                       for n, m in deep)
    ok = (worst <= 1e-9 and out_of_range == 0
          and all(computed.get(cell, 0) == 100 for cell in required))
    detail = f"worst residual {worst:.2e}; computed " + ", ".join(
        f"k={k}: " + "/".join(str(computed.get((k, d), 0)) for d in (2, 3, 4))
        for k in (1, 2, 3)) + " (depths 2/3/4 of 100)"
    for (k, d), hits in sorted(refused.items()):
        counts = [n for n, _ in hits]
        detail += (f"; k={k} depth={d}: {len(hits)} refused, pair counts "
                   f"{min(counts):.3g}..{max(counts):.3g} (budget {budget})")
    if deep:
        atoms = max(math.comb(m + 2, 3) for _, m in deep)
        detail += (f"; the refused k=3 depth=4 laws would hold up to "
                   f"{atoms:.3g} atoms, {24 * atoms / 1e9:.1f} GB in float64; "
                   f"{out_of_range} counts outside (budget, C(m+1,2)*m]")
    report(capsys, 4, ok, detail)


def test_criterion_05_oracle_equivalence(capsys):
    rng = np.random.default_rng(50)
    randoms = [make_channel(*random_channel(rng, 0.1, 0.9)) for _ in range(3)]
    worst_v = 0.0
    worst_w = 0.0
    for k, max_depth in ((2, 3), (3, 2)):
        channels = [symmetric_channel(0.2), make_channel(0.7, 0.4),
                    hardcore_channel(1.0)] + randoms
        for c in channels:
            pair = base_pair(c, k)
            for depth in range(1, max_depth + 1):
                if depth > 1:
                    pair = evolve(pair, c, k, exact_policy())
                ov, ow0, ow1 = brute_pair_laws(c, k, depth)
                keep = (pair.w0 > 0) | (pair.w1 > 0)
                dv, dw0 = compare_laws(pair.values[keep], pair.w0[keep], ov, ow0)
                _, dw1 = compare_laws(pair.values[keep], pair.w1[keep], ov, ow1)
                worst_v = max(worst_v, dv)
                worst_w = max(worst_w, dw0, dw1)
    worst_bp = 0.0
    for c in (symmetric_channel(0.2), make_channel(0.7, 0.4),
              hardcore_channel(1.0)):
        for bits in range(16):
            leaves = [(bits >> j) & 1 for j in range(4)]
            got = bp_root_posterior(leaves, c, 2, depth=2)
            want = brute_root_posterior(c, 2, 2, leaves)
            worst_bp = max(worst_bp, abs(got - want))
    ok = worst_v <= 1e-10 and worst_w <= 1e-10 and worst_bp <= 1e-12
    report(capsys, 5, ok,
           f"law value/weight gaps {worst_v:.2e}/{worst_w:.2e}, "
           f"posterior gap {worst_bp:.2e}")


def test_criterion_06_coupling_suite(capsys):
    worst_marginal = 0.0
    crossing_ok = True
    n_couplings = 0
    for k in (1, 2):
        channels = ([symmetric_channel(eps) for eps in (0.1, 0.2, 0.3, 0.4)]
                    + [hardcore_channel(w) for w in (0.5, 1.0, 2.0)])
        for c in channels:
            pair = base_pair(c, k)
            for depth in range(1, 7):
                if depth > 1:
                    pair = evolve(pair, c, k, exact_policy())
                coupling = build_coupling(pair, c)
                r0, r1 = coupling.marginal_residuals(pair)
                worst_marginal = max(worst_marginal, r0, r1)
                live = coupling.weight > 0
                y0, y1 = coupling.y0[live], coupling.y1[live]
                crossing_ok = crossing_ok and bool(np.all((y1 <= 0.0) & (y0 >= 0.0)))
                n_couplings += 1
    ok = worst_marginal <= 1e-12 and crossing_ok
    report(capsys, 6, ok,
           f"{n_couplings} couplings, worst marginal {worst_marginal:.2e}, "
           f"crossing {'ok' if crossing_ok else 'violated'}")


def test_criterion_07_sandwich_randomized(capsys):
    rng = np.random.default_rng(70)
    checked = 0
    failures = 0
    while checked < 10_000:
        case = random_sandwich_case(rng, max_outcomes=32)
        if case is None:
            continue
        probs, b, labels, d, p0, p1 = case
        verdict = verify_sandwich(probs, b, labels, d, p0, p1, tol=1e-12)
        if not verdict.passed:
            failures += 1
        checked += 1
    ok = failures == 0
    report(capsys, 7, ok, f"{checked} spaces, {failures} violations beyond 1e-12")


def test_criterion_08_gibbs_and_independence(capsys):
    worst = 0.0
    for w in (0.5, 1.0, 2.0):
        worst = max(worst,
                    gibbs_conditional_sweep(w, 2, 3, center_root=False),
                    gibbs_conditional_sweep(w, 2, 3, center_root=True))
    c = hardcore_channel(1.0)
    samples = 100_000
    violations = brw_independence_check(c, 2, 3, samples, seed=80)
    ok = worst <= 1e-12 and violations == 0
    report(capsys, 8, ok,
           f"conditional residual {worst:.2e}, "
           f"{violations} adjacent-occupied pairs in {samples} broadcasts")


def test_criterion_09_hardcore_lower_bound_consistency(capsys):
    lam = math.e - 1.0
    details = []
    ok = True
    for k in (2, 3, 4, 5):
        c = hardcore_channel(w_of_lambda(lam, k))
        pair = base_pair(c, k)
        tvs = [diagnostics(pair, c)["tv"]]
        for _ in range(11):
            pair = evolve(pair, c, k, deep_policy())
            tvs.append(diagnostics(pair, c)["tv"])
        window = np.array(tvs[3:12])
        positive = bool(np.all(window > 0))
        rate = (float(np.exp(np.polyfit(np.arange(4, 13),
                                        np.log(window), 1)[0]))
                if positive else math.inf)
        est = bisect_threshold(ChannelFamily(kind="hardcore", k=k))
        above = est.estimate > lam - 0.05
        ok = ok and positive and rate < 1.0 and above
        details.append(f"k={k}: rate {rate:.3f}, lam_hat {est.estimate:.1f}")
    report(capsys, 9, ok, "; ".join(details))


def test_criterion_10_restricted_recovers_kelly(capsys):
    worst = 0.0
    for k in (2, 3, 4):
        worst = max(worst, abs(restricted_bound_crossover(k, which="geometric")
                               - kelly_threshold(k)))
    ok = worst <= 1e-6
    report(capsys, 10, ok, f"worst crossover gap {worst:.2e} over k in {{2,3,4}}")


def test_criterion_11_cli_determinism(capsys, tmp_path, monkeypatch):
    commands = [
        ["bounds", "--hardcore", "--k", "2", "--out", "bounds.json"],
        ["evolve", "--symmetric", "0.2", "--k", "2", "--depth", "5",
         "--out", "evolve.csv"],
        ["evolve", "--symmetric", "0.2", "--k", "2", "--depth", "4",
         "--engine", "population", "--pop-size", "4000", "--seed", "9",
         "--out", "pop.csv"],
        ["couple", "--symmetric", "0.3", "--k", "2", "--depth", "3",
         "--out", "coupling.csv"],
        ["hardcore-check", "--hardcore-w", "1.0", "--k", "2", "--depth", "3",
         "--pop-size", "5000", "--seed", "2", "--out", "hardcore.json"],
        ["threshold", "--symmetric", "--k", "2", "--engine", "exact",
         "--depth", "6", "--tol", "0.05", "--bracket", "0.05", "0.45",
         "--seed", "4", "--out", "threshold.json"],
        ["verify", "--matrix", "0.6", "0.3", "--out", "verify.json"],
    ]
    identical = 0
    ok = True
    for argv in commands:
        blobs = []
        for run_dir in ("run_a", "run_b"):
            monkeypatch.setenv("TREECAST_OUT_DIR", str(tmp_path / run_dir))
            code = cli_main(argv)
            capsys.readouterr()
            ok = ok and code == 0
            blobs.append((tmp_path / run_dir / argv[-1]).read_bytes())
        if blobs[0] == blobs[1] and blobs[0]:
            identical += 1
        else:
            ok = False
    report(capsys, 11, ok,
           f"{identical}/{len(commands)} commands byte-identical on rerun")
