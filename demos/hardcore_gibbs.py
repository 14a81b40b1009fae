"""Hard-core model on trees: sampling, Gibbs conditionals, diagnostics.

The occupied/empty channel with a forbidden occupied-occupied edge turns
root broadcasting into the hard-core (independent-set) model.  This demo
samples broadcasts and verifies no adjacent pair is ever occupied, checks
the single-site conditional law against the activity formula at every
interior node, and prints the reconstruction diagnostics at a moderate
and an extreme activity.

Run
---
    python3 demos/hardcore_gibbs.py [--w W] [--k K]
"""

import argparse

from treecast.channels import hardcore_channel, lambda_of_w, w_of_lambda
from treecast.evolution import (base_pair, evolve, deep_policy, diagnostics,
                                trajectory)
from treecast.hardcore import gibbs_conditional_sweep, brw_independence_check


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--w", type=float, default=1.0,
                        help="occupation weight of the channel")
    parser.add_argument("--k", type=int, default=2)
    args = parser.parse_args()

    c = hardcore_channel(args.w)
    print(f"w={args.w}, k={args.k}: activity lambda = {lambda_of_w(args.w, args.k):.6f}")
    print(f"channel rows: ({c.p00:.4f}, {c.p01:.4f}) / ({c.p10:.4f}, {c.p11:.4f})")
    print(f"stationary occupation probability: {1 - c.pi0:.6f}\n")

    print("--- sampled broadcasts respect the hard constraint ---")
    verdict = brw_independence_check(c, args.k, depth=4, n_samples=50_000,
                                     seed=0)
    print(f"  {verdict.samples} samples, {verdict.violations} adjacent "
          f"occupied pairs\n")

    print("--- single-site Gibbs conditionals ---")
    for center in (False, True):
        res = gibbs_conditional_sweep(args.w, args.k, depth=3, center_root=center)
        kind = "degree-(k+1) root" if center else "rooted"
        print(f"  {kind}: worst conditional residual {res:.3e}")
    print("  every interior conditional equals lambda/(1+lambda) when the")
    print("  neighborhood is empty and 0 otherwise\n")

    print("--- reconstruction diagnostics: moderate vs extreme activity ---")
    for lam in (2.0, 500.0):
        c_hot = hardcore_channel(w_of_lambda(lam, args.k))
        pairs = trajectory(base_pair(c_hot, args.k),
                           lambda p: evolve(p, c_hot, args.k, deep_policy()), 10)
        rows = [diagnostics(pair, c_hot) for pair in pairs]
        print(f"  lambda={lam:g}: tv by depth:")
        print("   ", "  ".join(f"{row['tv']:.4f}" for row in rows))
        ratio = rows[-1]["tv"] / rows[-2]["tv"]
        verdict = ("flattening: root information persists"
                   if ratio > 0.9 else "still contracting at this depth")
        print(f"    tail ratio {ratio:.3f} ({verdict})")
    print("  at shallow truncations the decaying regime extends well above")
    print("  the asymptotic threshold; the bisection module's depth and")
    print("  rate-fit defaults exist precisely to manage that transient.")


if __name__ == "__main__":
    main()
