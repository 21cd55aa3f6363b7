"""Cross-check the Gram-matrix distance formulas against explicit features.

For a degree-2 polynomial kernel on R^2 the feature space is 6-dimensional,
so every operator distance can be computed both ways: from the centered
Gram blocks (the route the library takes for every kernel without a small
finite feature map) and from the means and covariances of the explicit
features, built here from the library's private feature map.  The library
itself takes the feature factors on these inputs (2D <= m), so most rows call
the Gram route directly; the unregularized alpha = 1 row calls
``rkhs_alpha_distance``, whose cross term comes from the R factors of the
centered features with no eigensolve.  Agreement is at machine precision.

Usage: python scripts/rkhs_feature_check.py [--m 15] [--seed 0]
"""

import argparse
import math

import numpy as np

from alphaproc import (
    Dataset,
    GaussianMeasure,
    KernelSpec,
    SpdMatrix,
    alpha_procrustes,
    alpha_procrustes_regularized,
    gaussian_alpha_distance,
    rkhs_alpha_distance,
    wasserstein_gaussian,
)
from alphaproc.rkhs import _covariance_distance, _features, _gram_blocks


def feature_moments(x, kernel):
    """Mean and covariance of the explicit features of x."""
    features = _features(x.points, kernel)
    mean = features.mean(axis=0)
    centered = features - mean
    with np.errstate(over="ignore", invalid="ignore"):
        return mean, SpdMatrix.from_array(centered.T @ centered / x.m)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--m", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    x = Dataset.from_array(rng.standard_normal((args.m, 2)))
    y = Dataset.from_array(rng.standard_normal((args.m, 2)) * 1.3 + 0.4)
    kernel = KernelSpec.polynomial(2, 1.0)

    mx, cx = feature_moments(x, kernel)
    my, cy = feature_moments(y, kernel)
    gx = GaussianMeasure.from_arrays(mx, cx)
    gy = GaussianMeasure.from_arrays(my, cy)
    mdd, cg = _gram_blocks(x, y, kernel)

    def gram_gaussian(alpha):
        return math.sqrt(mdd + 0.25 * _covariance_distance(cg, alpha, 0.0) ** 2)

    print(f"feature dimension: {cx.n}\n")
    print(f"{'quantity':<32} {'library':>16} {'via features':>16} {'rel diff':>10}")

    rows = [
        (
            "regularized (a=0.75, g=0.1)",
            _covariance_distance(cg, 0.75, 0.1),
            alpha_procrustes_regularized(cx, cy, 0.1, 0.75).value,
        ),
        (
            "unregularized (a=1, R factors)",
            rkhs_alpha_distance(x, y, kernel, 1.0),
            alpha_procrustes(cx, cy, 1.0).value,
        ),
        (
            "Wasserstein",
            gram_gaussian(0.5),
            wasserstein_gaussian(gx, gy),
        ),
        (
            "Gaussian family (a=0.75)",
            gram_gaussian(0.75),
            gaussian_alpha_distance(gx, gy, 0.75),
        ),
    ]
    for label, via_gram, via_feat in rows:
        rel = abs(via_gram - via_feat) / max(via_feat, 1e-300)
        print(f"{label:<32} {via_gram:>16.12f} {via_feat:>16.12f} {rel:>10.2e}")


if __name__ == "__main__":
    main()
