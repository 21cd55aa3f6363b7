"""Convergence of the numeric geodesic length to the closed-form distance.

The geodesic between two SPD matrices is sampled with midpoint quadrature
and central-difference velocities; its length should reproduce the family
distance.  The table reports the relative error as the step count grows.

Usage: python scripts/geodesic_length_convergence.py [--n 3] [--alpha 0.5] [--seed 0]
"""

import argparse

import numpy as np

from alphaproc import (
    GeodesicCurve,
    alpha_procrustes,
    geodesic_length_numeric,
)
from alphaproc.validation import rand_spd


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    a, b = rand_spd(rng, args.n), rand_spd(rng, args.n)
    curve = GeodesicCurve(a, b, args.alpha)
    closed = alpha_procrustes(a, b, args.alpha).value
    print(f"closed-form distance: {closed:.12f}\n")
    print(f"{'steps':>8}  {'numeric length':>18}  {'rel error':>12}")
    for steps in (100, 200, 500, 1000, 2000):
        numeric = geodesic_length_numeric(curve, steps)
        print(f"{steps:>8}  {numeric:>18.12f}  {abs(numeric - closed) / closed:>12.3e}")


if __name__ == "__main__":
    main()
