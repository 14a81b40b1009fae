"""Monte Carlo population dynamics and threshold bisection.

Runs the sampled-score population recursion for the symmetric family at
a few noise levels, prints the estimated diagnostics with their standard
errors, then bisects the decaying/non-decaying boundary and compares the
estimate against the closed form.  Each statistic is a mean over the
root-0 samples, the root-1 law read through the weight exp(-L).  A
standard error is the spread of the last generation only: in a deep run
the error carried from earlier generations can be larger.  At the
defaults eps = 0.1757 prints tv 0.07714 +- 0.00071, against the lattice
upper law 0.07686; over 30 seeds at eps = 0.15, depth 12, the tv spread
is about twice the median standard error.  Defaults are sized for a
quick run; pass --pop-size 100000 --depth 40 for production-quality
estimates.

Run
---
    python3 demos/population_threshold.py [--k K] [--pop-size N]
        [--depth D] [--seed S]
"""

import argparse

from treecast.channels import symmetric_channel, kesten_stigum_eps_c
from treecast.evolution import base_pair, trajectory
from treecast.sampling import (population_from_pair,
                               population_evolve_anchored, estimate_diagnostics)
from treecast.threshold import ChannelFamily, bisect_threshold


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--pop-size", type=int, default=20_000)
    parser.add_argument("--depth", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    eps_c = kesten_stigum_eps_c(args.k)
    print(f"k={args.k}: closed-form threshold eps_c = {eps_c:.6f}\n")

    for eps in (0.8 * eps_c, 1.2 * eps_c):
        c = symmetric_channel(eps)
        first = population_from_pair(base_pair(c, args.k), args.pop_size,
                                     args.seed)
        for pop in trajectory(first,
                              lambda p: population_evolve_anchored(p, c, args.k),
                              args.depth):
            pass
        est = estimate_diagnostics(pop, c)
        side = "above (reconstructable)" if eps < eps_c else "below (lost)"
        print(f"eps={eps:.4f} [{side}] at depth {args.depth}:")
        print(f"  tv       = {est['tv']:.5f} +- {est['se_tv']:.5f}"
              "  (+- is the last generation's spread only, without the error"
              " carried from earlier generations)")
        print(f"  mean_gap = {est['mean_gap']:.5f} +- {est['se_mean_gap']:.5f}")
        print(f"  var_A    = {est['var_A']:.6f} +- {est['se_var_A']:.6f}\n")

    print("bisecting the boundary with the population engine...")
    est = bisect_threshold(ChannelFamily(kind="symmetric", k=args.k),
                           depth=args.depth, engine="population",
                           tol=0.005, seed=args.seed, pop_size=args.pop_size)
    print(f"  estimate  {est.estimate:.6f}  (closed form {eps_c:.6f}, "
          f"error {abs(est.estimate - eps_c):.6f})")
    print(f"  bracket   {est.bracket_initial} -> "
          f"({est.bracket_final[0]:.6f}, {est.bracket_final[1]:.6f})")
    print(f"  verdicts  {len(est.history)} decision points, "
          f"{est.inconclusive_count} inconclusive")
    print("shallow depth and a small population bias the estimate; the")
    print("production defaults (N=1e5, depth 40) land within ~0.003.")


if __name__ == "__main__":
    main()
