"""Tour of the closed-form reconstruction bounds.

Walks the two built-in channel families and prints, for a range of
branching numbers, every closed-form quantity the library knows: the
product-form contraction bound, its arithmetic-mean relaxation, the
second-moment threshold for symmetric channels, and the two lower-bound
constants for the hard-core family together with which one wins.

Run
---
    python3 demos/channel_bounds.py [--k-max K]
"""

import argparse

from treecast.channels import (symmetric_channel, hardcore_channel, make_channel,
                               gap_kernel_peak, mossel_peres_lhs, geometric_mean_bound_lhs)
from treecast.threshold import bounds_report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k-max", type=int, default=10,
                        help="largest branching number to tabulate")
    args = parser.parse_args()

    print("=== symmetric family ===")
    print("the noise level where k * (1 - 2*eps)^2 crosses 1, per k:")
    for k in range(2, args.k_max + 1):
        report = bounds_report(k, "symmetric")
        print(f"  k={k:2d}  eps_c={report['ks_eps']:.6f}  "
              f"contraction-bound crossover={report['geometric_crossover_eps']:.6f}")
    print("the contraction bound crosses 1/k at eps_c itself: the product")
    print("form is tight for symmetric channels.\n")

    print("=== hard-core family ===")
    print("two lower bounds on the reconstruction activity, per k:")
    header = f"  {'k':>2}  {'kelly':>12}  {'activity const':>14}  stronger"
    print(header)
    for k in range(2, args.k_max + 1):
        report = bounds_report(k, "hardcore")
        print(f"  {k:2d}  {report['kelly']:12.6f}  {report['activity_lower_bound']:14.6f}"
              f"  {report['stronger_lower_bound']}")
    print("kelly decays like 1/k and already loses to the uniform activity")
    print("constant at k=3.")
    report = bounds_report(2, "hardcore")
    print(f"restricting the contraction bound to the hard-core family and")
    print(f"solving for the crossover activity recovers kelly: "
          f"{report['geometric_crossover_lambda']:.6f} vs {report['kelly']:.6f} at k=2\n")

    report = bounds_report(3, "hardcore")
    print(f"k=3 also carries the uniqueness-style lower bound "
          f"w >= {report['bw_lower_w']:.6f} (activity {report['bw_lower_lambda']:.6f})")

    print("\n=== kernel peak equals the product bound ===")
    c = make_channel(0.7, 0.4)
    x_star, peak = gap_kernel_peak(c)
    print(f"channel rows (0.7, 0.3) / (0.4, 0.6):")
    print(f"  sup of the update-kernel slope  = {peak:.12f} at x={x_star:+.4f}")
    print(f"  product closed form             = {geometric_mean_bound_lhs(c):.12f}")
    print(f"  arithmetic-mean relaxation      = {mossel_peres_lhs(c):.12f}")
    for name, ch in (("symmetric eps=0.2", symmetric_channel(0.2)),
                     ("hard-core w=1", hardcore_channel(1.0))):
        diff = abs(geometric_mean_bound_lhs(ch) - mossel_peres_lhs(ch))
        print(f"  equality case {name}: |product - mean| = {diff:.1e}")


if __name__ == "__main__":
    main()
