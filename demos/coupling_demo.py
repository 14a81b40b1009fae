"""Diagonal-plus-crossing coupling of the two conditional score laws.

Builds, at several depths, the coupling that keeps the two root-score
laws equal wherever their weights overlap and pairs the leftover mass so
that every crossing pair straddles zero.  Prints the diagonal mass,
the crossing mass, and the coupling's mean difference, which matches the
laws' mean gap identically; the crossing structure is what turns the
one-step contraction of the update kernel into a depth-recursion bound.

Run
---
    python3 demos/coupling_demo.py [--eps E] [--k K] [--depth D]
"""

import argparse

import numpy as np

from treecast.channels import symmetric_channel
from treecast.conditioning import build_coupling
from treecast.evolution import base_pair, evolve, deep_policy, mean_gap, trajectory


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eps", type=float, default=0.2)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--depth", type=int, default=6)
    args = parser.parse_args()

    c = symmetric_channel(args.eps)
    print(f"symmetric channel eps={args.eps}, k={args.k}\n")
    print(f"  {'depth':>5}  {'atoms':>7}  {'diag mass':>10}  {'crossing':>10}  "
          f"{'E[y0-y1]':>12}  {'mean gap':>12}")
    pairs = trajectory(base_pair(c, args.k),
                       lambda p: evolve(p, c, args.k, deep_policy()), args.depth)
    for pair in pairs:
        coupling = build_coupling(pair, c)
        diag_mass = float(coupling.diagonal.sum())
        cross_mass = float(coupling.weight.sum())
        print(f"  {pair.depth:5d}  {len(pair.values):7d}  {diag_mass:10.6f}  "
              f"{cross_mass:10.6f}  {coupling.mean_difference():12.6e}  "
              f"{mean_gap(pair):12.6e}")

    print("\nevery crossing pair satisfies y1 <= 0 <= y0:")
    y0, y1 = coupling.y0, coupling.y1
    for a, b, w in zip(y0[:5], y1[:5], coupling.weight[:5]):
        print(f"  y0={a:+.4f}  y1={b:+.4f}  weight={w:.3e}")
    if len(y0) > 5:
        print(f"  ... {len(y0) - 5} more crossing pairs")
    ok = bool(np.all((y1 <= 0) & (y0 >= 0)))
    print(f"  crossing invariant holds: {ok}")
    print("the crossing mass equals the total variation between the laws,")
    print("so the table's second and third columns sum to 1 exactly.")


if __name__ == "__main__":
    main()
