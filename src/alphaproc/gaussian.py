"""Parametrized distances between Gaussian measures on Euclidean space.

Every member combines a mean metric with the matrix family on covariances:

    D^2 = d_mean(m1, m2)^2 + d_cov(C1, C2)^2 / 4

where d_cov is the Alpha Procrustes distance between the ridged covariances
C + gamma*I.  gamma = 0, the default, is the unregularized member; any
other gamma must be positive and finite.
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
from .metrics import _family, _optional_gamma


def _vector(arr, what: str) -> np.ndarray:
    """A read-only 1-D float copy of ``arr``, so later edits by the caller do not reach it."""
    v = np.atleast_1d(_real_array(arr, what))
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D {what} vector, got shape {v.shape}")
    v = v.copy()
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class GaussianMeasure:
    """Mean vector plus PSD covariance."""

    mean: np.ndarray
    covariance: SpdMatrix

    @classmethod
    def from_arrays(cls, mean, covariance) -> "GaussianMeasure":
        m = _vector(mean, "mean")
        _finite("mean", m)
        cov = covariance if isinstance(covariance, SpdMatrix) else SpdMatrix.from_array(covariance)
        if m.shape[0] != cov.n:
            raise DimensionError(
                f"mean has length {m.shape[0]} but covariance is {cov.n}x{cov.n}"
            )
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
            w = _vector(self.weights, "mean-metric weights")
            if not np.all((w > 0) & np.isfinite(w)):
                raise DomainError("mean-metric weights must be strictly positive and finite")
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
    g1: GaussianMeasure, g2: GaussianMeasure, alpha, gamma: float,
    mean_metric: MeanMetricSpec,
) -> tuple[float, float, float]:
    """(d_mean, d_cov, distance); gamma is 0.0 (no ridge) or a checked ridge."""
    if g1.dim != g2.dim:
        raise DimensionError(f"Gaussian dimensions differ: {g1.dim} vs {g2.dim}")
    d_mean = mean_metric.distance(g1.mean, g2.mean)
    return _combine(d_mean, _family(g1.covariance, g2.covariance, alpha, gamma).value)


def gaussian_alpha_distance(
    g1: GaussianMeasure,
    g2: GaussianMeasure,
    alpha,
    mean_metric: MeanMetricSpec = EUCLIDEAN_MEAN,
    gamma: float = 0.0,
) -> float:
    """Family distance between Gaussians: sqrt(d_mean^2 + d_cov^2 / 4).

    The covariance part is the Alpha Procrustes distance between C1 + gamma*I
    and C2 + gamma*I.  gamma = 0 leaves the covariances unridged, so strictly
    positive covariances are required for alpha <= 0 (including the
    log-limit); PSD is fine for alpha > 0.  gamma > 0 admits every alpha on
    PSD covariances.  Any other gamma raises DomainError.
    """
    return _gaussian_terms(g1, g2, alpha, _optional_gamma(gamma), mean_metric)[2]


def wasserstein_gaussian(g1: GaussianMeasure, g2: GaussianMeasure) -> float:
    """L2-Wasserstein distance sqrt(|m1 - m2|^2 + d_BW(C1, C2)^2).

    The family at alpha = 1/2 with the Euclidean mean metric, where d_cov is
    exactly 2 d_BW.
    """
    return gaussian_alpha_distance(g1, g2, 0.5)
