"""Sweep the distance family in alpha on a random SPD pair.

Shows how the family interpolates its special cases: the log-Euclidean
distance as alpha -> 0, twice the Bures-Wasserstein distance at alpha = 1/2,
and the power Euclidean upper bound everywhere (tight only when the pair
commutes).

Usage: python scripts/alpha_family_sweep.py [--n 4] [--seed 0]
"""

import argparse

import numpy as np

from alphaproc import (
    alpha_procrustes,
    bures_wasserstein,
    log_euclidean,
    power_euclidean,
)
from alphaproc.validation import rand_spd


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    a, b = rand_spd(rng, args.n), rand_spd(rng, args.n)

    print(f"n = {args.n}, seed = {args.seed}")
    print(f"log-Euclidean reference: {log_euclidean(a, b).value:.10f}")
    print(f"2 x Bures-Wasserstein:   {2 * bures_wasserstein(a, b).value:.10f}\n")
    print(f"{'alpha':>10}  {'family':>14}  {'power-Euclid':>14}  {'gap':>10}")
    for alpha in (-2.0, -1.0, -0.5, 1e-3, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
        d_pro = alpha_procrustes(a, b, alpha).value
        d_pow = power_euclidean(a, b, alpha).value
        print(f"{alpha:>10.4g}  {d_pro:>14.10f}  {d_pow:>14.10f}  {d_pow - d_pro:>10.3e}")
    d_limit = alpha_procrustes(a, b, 0.0).value
    print(f"{'log-limit':>10}  {d_limit:>14.10f}")


if __name__ == "__main__":
    main()
