"""Exact density evolution below and above the reconstruction threshold.

Evolves the pair of conditional root-score laws for a symmetric channel
at two noise levels straddling the closed-form threshold and prints the
three diagnostics per depth: total variation between the laws, the mean
score gap, and the variance of the posterior mixture.  Below threshold
(high noise) every diagnostic decays geometrically; above threshold they
plateau at a positive level.  A brute-force enumeration cross-checks the
shallow depths.

Run
---
    python3 demos/density_evolution.py [--k K] [--depth D]
"""

import argparse

import numpy as np

from treecast.channels import symmetric_channel, kesten_stigum_eps_c
from treecast.evolution import (base_pair, evolve, evolve_to_depth, deep_policy,
                                exact_policy, diagnostics, trajectory)
from treecast.sampling import bp_root_posterior, sample_broadcast_batch


def curve(eps, k, depth):
    c = symmetric_channel(eps)
    pairs = trajectory(base_pair(c, k), lambda p: evolve(p, c, k, deep_policy()), depth)
    return [diagnostics(pair, c) for pair in pairs]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--depth", type=int, default=12)
    args = parser.parse_args()

    eps_c = kesten_stigum_eps_c(args.k)
    print(f"k={args.k}: closed-form threshold eps_c = {eps_c:.6f}\n")

    for label, eps in (("above threshold (low noise)", 0.6 * eps_c),
                       ("below threshold (high noise)", 1.6 * eps_c)):
        rows = curve(eps, args.k, args.depth)
        print(f"--- eps = {eps:.4f}: {label} ---")
        print(f"  {'depth':>5}  {'tv':>12}  {'mean_gap':>12}  {'var_A':>12}")
        for d, row in enumerate(rows, start=1):
            print(f"  {d:5d}  {row['tv']:12.6e}  {row['mean_gap']:12.6e}  "
                  f"{row['var_A']:12.6e}")
        tail = rows[-1]["tv"] / rows[-2]["tv"] if rows[-2]["tv"] > 0 else 0.0
        print(f"  last-step tv ratio: {tail:.4f} "
              f"({'plateau' if tail > 0.9 else 'geometric decay'})\n")

    # shallow-depth cross-check against the leaf-pattern posterior and sampler
    eps = 0.2
    c = symmetric_channel(eps)
    pair = evolve_to_depth(c, args.k, 2, exact_policy())
    n_leaves = args.k ** 2
    patterns = np.array([[(bits >> j) & 1 for j in range(n_leaves)]
                         for bits in range(2 ** n_leaves)])
    post = bp_root_posterior(patterns, c, args.k, depth=2)
    print(f"depth-2 check at eps={eps}: {2 ** n_leaves} leaf patterns, "
          f"posterior range [{post.min():.4f}, {post.max():.4f}], "
          f"{len(pair.values)} support atoms")

    # the sampler agrees with the evolved laws in distribution
    levels = sample_broadcast_batch(c, args.k, 2, 20_000, root_value=0, seed=1)
    ones = float(np.mean(levels[-1].sum(axis=1)) / n_leaves)
    two_step_p00 = c.p00 * c.p00 + c.p01 * c.p10
    print(f"sampled leaf-zero frequency (root=0): {1 - ones:.4f} "
          f"vs exact two-step marginal {two_step_p00:.4f}")


if __name__ == "__main__":
    main()
