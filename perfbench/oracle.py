"""Reference values for the benchmark, in plain numpy.

Nothing here imports alphaproc.  The matrix family is evaluated from the
min-over-U definition

    d_alpha(A, B) = min over orthogonal U of |A^a - B^a U|_F / |a|,

with U* the orthogonal polar factor of B^a A^a taken from one SVD, so the
residual is formed directly and no trace formula (with its cancellation)
is involved.  The alpha -> 0 limit is |log A - log B|_F, and the ridge
variant adds gamma * I to both arguments first.

RKHS quantities use the joint-Gram feature representation: with K the
Gram matrix of the pooled sample Z = [X; Y] and W = K^(1/2), column i of W
is an isometric image of the feature vector of z_i, so C_X = W_X J W_X' / m
and the mean embedding is W_X 1 / m.  The ridge adds exactly zero on the
orthogonal complement of the pooled span, so the matrix family on these
(m + n)-dimensional matrices gives the operator distances.
"""

from __future__ import annotations

import math

import numpy as np

LOG_LIMIT = "log-limit"


def _eigh_psd(mats: np.ndarray):
    w, v = np.linalg.eigh((mats + np.swapaxes(mats, -1, -2)) / 2.0)
    return np.maximum(w, 0.0), v


def _spectral(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    return (v * values[..., None, :]) @ np.swapaxes(v, -1, -2)


def powers(mats: np.ndarray, p: float) -> np.ndarray:
    """A^p for a stack of PSD matrices (kernel directions stay zero for p > 0)."""
    w, v = _eigh_psd(mats)
    return _spectral(v, w**p)


def logs(mats: np.ndarray) -> np.ndarray:
    """Principal logarithm of a stack of strictly positive matrices."""
    w, v = _eigh_psd(mats)
    return _spectral(v, np.log(w))


def procrustes_residual(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """min over orthogonal U of |pa - pb U|_F for stacks of matrices.

    U* = P Q' from the SVD P S Q' of pb' pa maximizes tr(pa' pb U).
    """
    p, _, qt = np.linalg.svd(np.swapaxes(pb, -1, -2) @ pa)
    residual = pa - pb @ (p @ qt)
    return np.sqrt(np.sum(residual**2, axis=(-2, -1)))


def family_from_parts(ea, eb, alpha) -> np.ndarray:
    """Family distance between stacks given as (A, B) arrays, alpha or LOG_LIMIT."""
    if alpha == LOG_LIMIT or alpha == 0.0:
        diff = logs(ea) - logs(eb)
        return np.sqrt(np.sum(diff**2, axis=(-2, -1)))
    return procrustes_residual(powers(ea, alpha), powers(eb, alpha)) / abs(alpha)


def family(a: np.ndarray, b: np.ndarray, alpha, gamma: float = 0.0) -> float:
    """d_alpha(A + gamma I, B + gamma I) for one pair of matrices."""
    eye = np.eye(a.shape[0])
    return float(family_from_parts(a + gamma * eye, b + gamma * eye, alpha))


def pairwise(mats: np.ndarray, alpha, gamma: float = 0.0) -> np.ndarray:
    """Symmetric (k, k) matrix of family distances over a (k, n, n) stack."""
    k, n, _ = mats.shape
    shifted = mats + gamma * np.eye(n)
    i, j = np.triu_indices(k, 1)
    out = np.zeros((k, k))
    out[i, j] = out[j, i] = family_from_parts(shifted[i], shifted[j], alpha)
    return out


def bures_wasserstein(a: np.ndarray, b: np.ndarray) -> float:
    """Bures-Wasserstein distance: min over U of |A^(1/2) - B^(1/2) U|_F."""
    return float(procrustes_residual(powers(a, 0.5), powers(b, 0.5)))


def gaussian(mean_a, cov_a, mean_b, cov_b, alpha, gamma: float = 0.0) -> float:
    """sqrt(|m1 - m2|^2 + d_alpha(C1, C2)^2 / 4)."""
    d_mean = float(np.linalg.norm(np.asarray(mean_a) - np.asarray(mean_b)))
    d_cov = family(cov_a, cov_b, alpha, gamma)
    return math.sqrt(d_mean**2 + 0.25 * d_cov**2)


def geodesic_point(a: np.ndarray, b: np.ndarray, alpha: float, t: float) -> np.ndarray:
    """Closed-form geodesic point

        [(1-t)^2 A^2a + t^2 B^2a + t(1-t)((A^2a B^2a)^1/2 + (B^2a A^2a)^1/2)]^(1/2a),

    with (A^2a B^2a)^1/2 = A^a (A^a B^2a A^a)^1/2 A^-a.
    """
    a_pow = powers(a, alpha)
    a2, b2 = powers(a, 2.0 * alpha), powers(b, 2.0 * alpha)
    s = a_pow @ powers(a_pow @ b2 @ a_pow, 0.5) @ powers(a, -alpha)
    bracket = (1.0 - t) ** 2 * a2 + t**2 * b2 + t * (1.0 - t) * (s + s.T)
    return powers(bracket, 1.0 / (2.0 * alpha))


def kernel_matrix(kind: str, x: np.ndarray, y: np.ndarray, **params) -> np.ndarray:
    """Pointwise kernel: 'rbf' exp(-|x-y|^2 / (2 sigma^2)) or 'poly' (x'y + c)^d."""
    if kind == "rbf":
        sq = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=-1)
        return np.exp(-sq / (2.0 * params["sigma"] ** 2))
    if kind == "poly":
        return (x @ y.T + params["c"]) ** params["d"]
    raise ValueError(f"unknown kernel {kind!r}")


def rkhs_features(x: np.ndarray, y: np.ndarray, kind: str, **params):
    """Mean embeddings and covariance matrices of X and Y in the pooled span.

    Returns (mean_x, cov_x, mean_y, cov_y), each in the coordinates given by
    the columns of W = K^(1/2) for the pooled Gram matrix K.
    """
    z = np.vstack([x, y])
    gram = kernel_matrix(kind, z, z, **params)
    w = powers(gram, 0.5)
    m = x.shape[0]
    out = []
    for block in (w[:, :m], w[:, m:]):
        mean = block.mean(axis=1)
        centered = block - mean[:, None]
        out += [mean, centered @ centered.T / block.shape[1]]
    return tuple(out)


def rkhs_gaussian(x, y, kind: str, alpha, gamma: float = 0.0, **params) -> float:
    """sqrt(|mu_X - mu_Y|^2 + d_alpha(C_X + gI, C_Y + gI)^2 / 4) in the RKHS."""
    mx, cx, my, cy = rkhs_features(x, y, kind, **params)
    return gaussian(mx, cx, my, cy, alpha, gamma)


def rkhs_wasserstein(x, y, kind: str, **params) -> float:
    """sqrt(|mu_X - mu_Y|^2 + BW(C_X, C_Y)^2) in the RKHS."""
    mx, cx, my, cy = rkhs_features(x, y, kind, **params)
    d_mean = float(np.linalg.norm(mx - my))
    return math.sqrt(d_mean**2 + bures_wasserstein(cx, cy) ** 2)


def relative_error(value: float, expected: float) -> float:
    return abs(value - expected) / max(abs(expected), 1e-300)
