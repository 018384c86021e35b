#!/usr/bin/env python3
"""Exact moments of the lattice random walk.

A walker steps +1 with probability p, -1 with probability q, and rests with
probability d.  Per-step displacement has mean p - q and variance
p + q - (p - q)^2; over j independent steps both scale linearly.  This
script evaluates the occupation probabilities exactly and checks the moment
identities with zero tolerance, something floating point cannot do.
"""

import argparse
import sys
from fractions import Fraction

from latrec import RandomWalkParams, random_walk_distribution
from latrec.exactnum import parse_rational


def moments(dist):
    mean = sum(p[0] * v for p, v in dist.values.items())
    second = sum(p[0] * p[0] * v for p, v in dist.values.items())
    return mean, second - mean * mean


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=parse_rational, default=Fraction(1, 2))
    parser.add_argument("--d", type=parse_rational, default=Fraction(0))
    parser.add_argument("--q", type=parse_rational, default=Fraction(1, 2))
    parser.add_argument("--steps", type=int, default=12)
    args = parser.parse_args()

    params = RandomWalkParams(args.p, args.d, args.q)
    step_mean = params.p - params.q
    step_var = params.p + params.q - step_mean ** 2
    print(f"p={params.p} d={params.d} q={params.q}  "
          f"per-step mean {step_mean}, per-step variance {step_var}")
    print(f"{'j':>3} {'mass':>5} {'mean':>10} {'variance':>12}")
    for j in range(args.steps + 1):
        dist = random_walk_distribution(params, j)
        mean, var = moments(dist)
        print(f"{j:>3} {str(dist.total()):>5} {str(mean):>10} {str(var):>12}")
        for name, got, want in (("mass", dist.total(), 1), ("mean", mean, j * step_mean),
                                ("variance", var, j * step_var)):
            if got != want:
                print(f"j={j}: {name} is {got}, the identity gives {want}")
                return 1
    print("all moment identities hold exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
