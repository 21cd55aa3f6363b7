"""Convergence of the numeric geodesic length to the closed-form distance.

The speed of the geodesic between two SPD matrices is integrated at eight
Gauss-Legendre nodes, each velocity a five-point central difference with
step h = 1/(2 steps); its length should reproduce the family distance.  The
table reports the relative error as steps doubles: it falls ~16x a row, the
O(h^4) of the stencil, until roundoff amplified by 1/h takes over (near
steps 1600 at the default alpha -0.5) and the error creeps back up.  At
alpha 1/2 the points are quadratic in t, so the stencil is exact and only
roundoff shows.

Usage: python scripts/geodesic_length_convergence.py [--n 3] [--alpha -0.5] [--seed 0]
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
    parser.add_argument("--alpha", type=float, default=-0.5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    a, b = rand_spd(rng, args.n), rand_spd(rng, args.n)
    curve = GeodesicCurve(a, b, args.alpha)
    closed = alpha_procrustes(a, b, args.alpha).value
    print(f"closed-form distance: {closed:.12f}\n")
    print(f"{'steps':>8}  {'numeric length':>18}  {'rel error':>12}")
    for steps in 100 * 2 ** np.arange(10):
        numeric = geodesic_length_numeric(curve, steps)
        print(f"{steps:>8}  {numeric:>18.12f}  {abs(numeric - closed) / closed:>12.3e}")


if __name__ == "__main__":
    main()
