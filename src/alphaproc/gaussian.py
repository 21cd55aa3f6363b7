"""Parametrized distances between Gaussian measures on Euclidean space.

Every member combines a mean metric with the matrix family on covariances:

    D^2 = d_mean(m1, m2)^2 + d_cov(C1, C2)^2 / 4

where d_cov is the Alpha Procrustes distance (optionally ridge-regularized).
At alpha = 1/2 with the Euclidean mean metric this is the L2-Wasserstein
distance between the Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import DimensionError, DomainError
from .linalg import SpdMatrix, _finite, _real_array
from .metrics import _check_gamma, _family


@dataclass(frozen=True, eq=False)
class GaussianMeasure:
    """Mean vector plus PSD covariance."""

    mean: np.ndarray
    covariance: SpdMatrix

    @classmethod
    def from_arrays(cls, mean, covariance) -> "GaussianMeasure":
        m = np.atleast_1d(_real_array(mean, "mean"))
        if m.ndim != 1:
            raise DimensionError(f"expected a 1-D mean vector, got shape {m.shape}")
        _finite("mean", m)
        cov = covariance if isinstance(covariance, SpdMatrix) else SpdMatrix.from_array(covariance)
        if m.shape[0] != cov.n:
            raise DimensionError(
                f"mean has length {m.shape[0]} but covariance is {cov.n}x{cov.n}"
            )
        m.setflags(write=False)
        return cls(m, cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True, eq=False)
class MeanMetricSpec:
    """Choice of metric on the mean vectors.

    Euclidean by default; ``weights`` selects a diagonally weighted
    Euclidean metric.
    """

    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.weights is not None:
            w = _real_array(self.weights, "mean-metric weights").ravel()
            if not np.all((w > 0) & np.isfinite(w)):
                raise DomainError("mean-metric weights must be strictly positive and finite")
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)

    def distance(self, m1: np.ndarray, m2: np.ndarray) -> float:
        with np.errstate(over="ignore"):
            diff = m1 - m2
            if self.weights is not None:
                if self.weights.shape[0] != diff.shape[0]:
                    raise DimensionError("weight vector length does not match means")
                diff = np.sqrt(self.weights) * diff
        return math.hypot(*diff)


EUCLIDEAN_MEAN = MeanMetricSpec()


def _combine(d_mean: float, d_cov: float) -> tuple[float, float, float]:
    """(d_mean, d_cov, sqrt(d_mean^2 + d_cov^2 / 4)), the last checked finite."""
    total = math.hypot(d_mean, d_cov / 2.0)
    _finite("Gaussian distance", total)
    return d_mean, d_cov, total


def _gaussian_terms(
    g1: GaussianMeasure, g2: GaussianMeasure, alpha, gamma: Optional[float],
    mean_metric: MeanMetricSpec,
) -> tuple[float, float, float]:
    """(d_mean, d_cov, distance); gamma None leaves the covariances unridged, 0 raises."""
    if g1.dim != g2.dim:
        raise DimensionError(f"Gaussian dimensions differ: {g1.dim} vs {g2.dim}")
    d_mean = mean_metric.distance(g1.mean, g2.mean)
    return _combine(d_mean, _family(g1.covariance, g2.covariance, alpha, gamma).value)


def gaussian_alpha_distance(
    g1: GaussianMeasure,
    g2: GaussianMeasure,
    alpha,
    mean_metric: MeanMetricSpec = EUCLIDEAN_MEAN,
) -> float:
    """Family distance between Gaussians: sqrt(d_mean^2 + d_cov^2 / 4).

    The covariance part is the Alpha Procrustes distance, so strictly
    positive covariances are required for alpha <= 0 (including the
    log-limit); PSD is fine for alpha > 0.
    """
    return _gaussian_terms(g1, g2, alpha, None, mean_metric)[2]


def wasserstein_gaussian(g1: GaussianMeasure, g2: GaussianMeasure) -> float:
    """L2-Wasserstein distance sqrt(|m1 - m2|^2 + d_BW(C1, C2)^2).

    The family at alpha = 1/2 with the Euclidean mean metric, where d_cov is
    exactly 2 d_BW.
    """
    return gaussian_alpha_distance(g1, g2, 0.5)


def gaussian_alpha_distance_regularized(
    g1: GaussianMeasure,
    g2: GaussianMeasure,
    alpha,
    gamma: float,
    mean_metric: MeanMetricSpec = EUCLIDEAN_MEAN,
) -> float:
    """Family distance with ridge-regularized covariances C + gamma*I.

    Admissible for every alpha on PSD covariances since the ridge makes
    them strictly positive.
    """
    _check_gamma(gamma)  # _gaussian_terms reads None as no ridge
    return _gaussian_terms(g1, g2, alpha, gamma, mean_metric)[2]
