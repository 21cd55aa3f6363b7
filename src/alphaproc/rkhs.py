"""Kernel machinery and Gram-matrix formulas for covariance-operator distances.

For datasets X (m points) and Y (n points) mapped into the RKHS of a kernel
K, the empirical covariance operators are C_X = (1/m) F(X) J_m F(X)* with
J_m the centering matrix.  Every distance between them reduces to finite
matrices built from Gram matrices.

The regularized family (alpha != 0) eigendecomposes the pooled Gram matrix
of both datasets once.  Its range is the span of all features, r
dimensions, where C_X = b b' with b the centered coordinates of X's
features over sqrt(m); the ridge adds exactly zero on the orthogonal
complement.  The distance is then ``alpha_procrustes_regularized`` on
the two covariances, each an ``SpdMatrix`` decomposed on the smaller of
b b' (r x r) and b' b (m x m), so sample counts may differ.  The
log-limit and the unregularized family work on the centered Gram blocks

    aa = (1/m) J_m K[X] J_m,   bb = (1/n) J_n K[Y] J_n,
    ab = (1/sqrt(mn)) J_m K[X, Y] J_n,

because nonzero eigenvalues transfer between an operator product and its
Gram-side counterpart.  The Wasserstein distance is their alpha = 1/2
member, tr aa + tr bb - 2 |ab|_*, with no eigensolve.  Only symmetric
eigensolves and singular values are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .exceptions import (
    DimensionError,
    DomainError,
    NonFiniteError,
    UnsupportedKernelError,
)
from .linalg import (
    SpdMatrix,
    SymMatrix,
    as_alpha,
    nuclear_norm,
    psd_tolerance,
    sym_eigendecompose,
)
from .metrics import _check_gamma, _sqrt_clamped, alpha_procrustes_regularized

FEATURE_DIM_LIMIT = 10_000


@dataclass(frozen=True)
class KernelSpec:
    """Positive definite kernel: linear, polynomial, or Gaussian RBF.

    The RBF convention is K(x, y) = exp(-|x - y|^2 / (2 sigma^2)).
    """

    kind: str
    degree: int = 1
    offset: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "poly", "rbf"):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "poly":
            if self.degree < 1 or int(self.degree) != self.degree:
                raise DomainError("polynomial degree must be an integer >= 1")
            if self.offset < 0:
                raise DomainError("polynomial offset must be >= 0")
        if self.kind == "rbf" and self.sigma <= 0:
            raise DomainError("RBF bandwidth must be > 0")

    @classmethod
    def linear(cls) -> "KernelSpec":
        return cls("linear")

    @classmethod
    def polynomial(cls, degree: int, offset: float = 0.0) -> "KernelSpec":
        return cls("poly", degree=degree, offset=offset)

    @classmethod
    def gaussian_rbf(cls, sigma: float) -> "KernelSpec":
        return cls("rbf", sigma=sigma)

    @classmethod
    def parse(cls, text: str) -> "KernelSpec":
        """Parse 'linear', 'poly:d=2,c=1' or 'rbf:sigma=0.5'."""
        text = text.strip()
        if text == "linear":
            return cls.linear()
        head, sep, tail = text.partition(":")
        params = {}
        if sep:
            for item in tail.split(","):
                if not item:
                    continue
                key, eq, value = item.partition("=")
                if not eq:
                    raise DomainError(f"malformed kernel parameter {item!r}")
                params[key.strip()] = value.strip()
        try:
            if head == "poly":
                return cls.polynomial(
                    degree=int(params.get("d", 2)), offset=float(params.get("c", 0.0))
                )
            if head == "rbf":
                return cls.gaussian_rbf(sigma=float(params.get("sigma", 1.0)))
        except ValueError as exc:
            raise DomainError(f"malformed kernel spec {text!r}: {exc}") from exc
        raise DomainError(f"unknown kernel spec {text!r}")

    def gram(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Pointwise kernel matrix K[i, j] = K(x_i, y_j)."""
        if self.kind == "linear":
            return x @ y.T
        if self.kind == "poly":
            return (x @ y.T + self.offset) ** self.degree
        sq = (
            np.sum(x**2, axis=1)[:, None]
            + np.sum(y**2, axis=1)[None, :]
            - 2.0 * (x @ y.T)
        )
        return np.exp(-np.maximum(sq, 0.0) / (2.0 * self.sigma**2))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sample matrix, one row per observation; at least two samples."""

    points: np.ndarray

    @classmethod
    def from_array(cls, arr) -> "Dataset":
        a = np.atleast_2d(np.asarray(arr, dtype=float))
        if a.ndim != 2:
            raise DimensionError(f"expected a 2-D sample matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("dataset contains NaN or infinite entries")
        if a.shape[0] < 2:
            raise DimensionError("dataset needs at least two samples")
        a = a.copy()
        a.setflags(write=False)
        return cls(a)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class GramBundle:
    """Raw Gram matrices K[X], K[Y], K[X, Y]."""

    kxx: np.ndarray
    kyy: np.ndarray
    kxy: np.ndarray

    @property
    def m(self) -> int:
        return self.kxx.shape[0]

    @property
    def n(self) -> int:
        return self.kyy.shape[0]


@dataclass(frozen=True, eq=False)
class CenteredGram:
    """Doubly centered, sample-scaled Gram blocks aa, bb, ab."""

    aa: np.ndarray
    bb: np.ndarray
    ab: np.ndarray


def centering(m: int) -> np.ndarray:
    """J_m = I - (1/m) 1 1^T."""
    return np.eye(m) - np.full((m, m), 1.0 / m)


def gram_bundle(x: Dataset, y: Dataset, kernel: KernelSpec) -> GramBundle:
    """Evaluate the three Gram matrices; the diagonal blocks are symmetrized."""
    if x.dim != y.dim:
        raise DimensionError(f"sample dimensions differ: {x.dim} vs {y.dim}")
    kxx = kernel.gram(x.points, x.points)
    kyy = kernel.gram(y.points, y.points)
    kxy = kernel.gram(x.points, y.points)
    return GramBundle((kxx + kxx.T) / 2.0, (kyy + kyy.T) / 2.0, kxy)


def _double_center(k: np.ndarray) -> np.ndarray:
    """J_m K J_n: subtract the row means, the column means, add the grand mean."""
    col = k.mean(axis=0, keepdims=True)
    row = k.mean(axis=1, keepdims=True)
    return k - row - col + col.mean()


def centered_gram(gb: GramBundle) -> CenteredGram:
    aa = _double_center(gb.kxx) / gb.m
    bb = _double_center(gb.kyy) / gb.n
    ab = _double_center(gb.kxy) / math.sqrt(gb.m * gb.n)
    return CenteredGram((aa + aa.T) / 2.0, (bb + bb.T) / 2.0, ab)


def mean_discrepancy_squared(gb: GramBundle) -> float:
    """Squared RKHS distance between the empirical mean embeddings.

    (1/m^2) 1'K[X]1 + (1/n^2) 1'K[Y]1 - (2/mn) 1'K[X,Y]1, clamped at zero.
    """
    value = (
        float(np.sum(gb.kxx)) / gb.m**2
        + float(np.sum(gb.kyy)) / gb.n**2
        - 2.0 * float(np.sum(gb.kxy)) / (gb.m * gb.n)
    )
    return max(value, 0.0)


def rkhs_alpha_distance(
    x: Dataset, y: Dataset, kernel: KernelSpec, alpha: float, gamma: float
) -> float:
    """Family distance between regularized covariance operators C_X + g*I, C_Y + g*I.

    The matrix family's closed form on the span of the features of both
    datasets, where C_X and C_Y are finite matrices; the ridge contributes
    exactly zero on the orthogonal complement.  Sample counts may differ.
    |alpha| below the switch tolerance routes to the analytic log-limit
    (the Log-Hilbert-Schmidt distance of the regularized operators).
    """
    return _regularized_distance(gram_bundle(x, y, kernel), alpha, gamma)


def _regularized_distance(gb: GramBundle, alpha, gamma: float) -> float:
    """Regularized family distance from the Gram matrices.

    The pooled Gram G = [[K[X], K[X,Y]], [K[Y,X], K[Y]]] = V diag(w) V'
    gives R = diag(sqrt(w)) V' over the eigenvalues above the PSD
    tolerance: the coordinates of all features in an orthonormal basis of
    their span, r of them.  There C_X = b b' with b the centered columns of
    X's coordinates over sqrt(m), and the value is the matrix family's on
    C_X + gI and C_Y + gI, each held as the spectrum of its factor.
    """
    _check_gamma(gamma)
    al = as_alpha(alpha)
    if al.is_log_limit:
        return _log_limit_distance(centered_gram(gb), gamma)
    pooled = np.block([[gb.kxx, gb.kxy], [gb.kxy.T, gb.kyy]])
    eig = sym_eigendecompose(SymMatrix.from_array(pooled))
    keep = eig.values > psd_tolerance(eig.max)
    if not np.any(keep):
        return 0.0  # every feature vanishes, so C_X = C_Y = 0
    coords = np.sqrt(eig.values[keep])[:, None] * eig.vectors[:, keep].T
    cx, cy = (
        SpdMatrix._from_factor((c - c.mean(axis=1, keepdims=True)) / math.sqrt(c.shape[1]))
        for c in (coords[:, : gb.m], coords[:, gb.m :])
    )
    return alpha_procrustes_regularized(cx, cy, gamma, al).value


def _log_limit_distance(cg: CenteredGram, gamma: float) -> float:
    """Log-limit distance |log(C_X + gI) - log(C_Y + gI)| via Gram matrices.

    The squared norms are sums of log(1 + l/g)^2 over the centered Gram
    spectra, and the cross term tr[log(I + C_X/g) log(I + C_Y/g)] transfers
    to tr[f(aa) ab f(bb) ab'] with f(l) = log(1 + l/g)/l on the nonzero
    spectrum.
    """
    ea = sym_eigendecompose(SymMatrix.from_array(cg.aa))
    eb = sym_eigendecompose(SymMatrix.from_array(cg.bb))
    norm_a = float(np.sum(np.log1p(np.maximum(ea.values, 0.0) / gamma) ** 2))
    norm_b = float(np.sum(np.log1p(np.maximum(eb.values, 0.0) / gamma) ** 2))
    fa = ea.apply_on_range(lambda w: np.log1p(w / gamma) / w)
    fb = eb.apply_on_range(lambda w: np.log1p(w / gamma) / w)
    cross = float(np.trace(fa @ cg.ab @ fb @ cg.ab.T))
    return _sqrt_clamped(norm_a + norm_b - 2.0 * cross, norm_a + norm_b)


def rkhs_alpha_distance_unregularized(
    x: Dataset, y: Dataset, kernel: KernelSpec, alpha: float
) -> float:
    """Family distance between the covariance operators themselves, alpha >= 1/2.

    (1/a) tr[aa^2a + bb^2a - 2 (ba aa^(2a-1) ab bb^(2a-1))^(1/2)]^(1/2) with
    spectral powers restricted to the range, so aa^0 is the range projection
    (needed at alpha = 1/2).  Sample counts may differ.
    """
    return _unregularized_distance(gram_bundle(x, y, kernel), alpha)


def _unregularized_distance(gb: GramBundle, alpha: float) -> float:
    if alpha < 0.5:
        raise DomainError(f"unregularized formula needs alpha >= 1/2, got {alpha}")
    cg = centered_gram(gb)
    if alpha == 0.5:
        # aa^0 and bb^0 are the range projections, and they leave ab unchanged
        # (its columns lie in range(aa), its rows in range(bb)): no eigensolve.
        term_a, term_b, cross = float(np.trace(cg.aa)), float(np.trace(cg.bb)), cg.ab
    else:
        ea = sym_eigendecompose(SymMatrix.from_array(cg.aa))
        eb = sym_eigendecompose(SymMatrix.from_array(cg.bb))
        two_alpha = 2.0 * alpha
        term_a = float(np.sum(np.maximum(ea.values, 0.0) ** two_alpha))
        term_b = float(np.sum(np.maximum(eb.values, 0.0) ** two_alpha))
        half_a = ea.apply_on_range(lambda w: w ** (alpha - 0.5))
        half_b = eb.apply_on_range(lambda w: w ** (alpha - 0.5))
        cross = half_a @ cg.ab @ half_b
    # The cross matrix ba aa^(2a-1) ab bb^(2a-1) shares its spectrum with
    # T'T for T = aa^(a-1/2) ab bb^(a-1/2), so its square-root trace is the
    # nuclear norm of T; singular values keep the rank-deficient spectrum
    # exact where a general eigensolve would scatter the zero eigenvalues.
    term_cross = 2.0 * nuclear_norm(cross)
    arg = term_a + term_b - term_cross
    return _sqrt_clamped(arg, abs(term_a) + abs(term_b)) / alpha


def rkhs_gaussian_distance(
    x: Dataset, y: Dataset, kernel: KernelSpec, alpha, gamma: float = 0.0
) -> float:
    """Family distance between the Gaussians N(mean_X, C_X) and N(mean_Y, C_Y) in the RKHS.

    sqrt(mean discrepancy squared + d_cov^2 / 4).  gamma > 0 selects the
    regularized covariance distance at every alpha (gamma < 0 raises
    DomainError).  gamma = 0 selects the unregularized pure-Gram formula,
    which needs alpha >= 1/2; below 1/2 and at the log-limit it raises
    DomainError.  Sample counts may differ.
    """
    return _rkhs_gaussian_terms(x, y, kernel, alpha, gamma)[2]


def _rkhs_gaussian_terms(
    x: Dataset, y: Dataset, kernel: KernelSpec, alpha, gamma: float
) -> tuple[float, float, float]:
    """(mean embedding distance, d_cov, distance) from one set of Gram matrices."""
    al = as_alpha(alpha)
    gb = gram_bundle(x, y, kernel)
    mdd = mean_discrepancy_squared(gb)
    if gamma != 0.0:
        d_cov = _regularized_distance(gb, al, gamma)
    elif not al.is_log_limit and al.value >= 0.5:
        d_cov = _unregularized_distance(gb, al.value)
    else:
        raise DomainError("alpha below 1/2 (or log-limit) needs a positive gamma")
    return math.sqrt(mdd), d_cov, math.sqrt(mdd + 0.25 * d_cov**2)


def rkhs_wasserstein(x: Dataset, y: Dataset, kernel: KernelSpec) -> float:
    """L2-Wasserstein distance between the empirical RKHS Gaussians.

    The alpha = 1/2 member of the family, so sample counts may differ:

        d^2 = mean discrepancy squared
            + (1/m) tr(J K[X] J) + (1/n) tr(J K[Y] J)
            - (2/sqrt(mn)) tr[(J_n K[Y,X] J_m K[X,Y] J_n)^(1/2)].
    """
    return rkhs_gaussian_distance(x, y, kernel, 0.5)


def _polynomial_features(points: np.ndarray, degree: int, offset: float) -> np.ndarray:
    """Explicit multinomial feature map of (x'y + c)^d.

    Slot 0 carries sqrt(c); each multi-index (k0, ..., kp) with sum d maps to
    sqrt(d!/(k0! ... kp!)) * c^(k0/2) * prod x_i^(k_i).
    """
    m, p = points.shape
    slots = p + 1 if offset > 0 else p
    columns = []
    for combo in combinations_with_replacement(range(slots), degree):
        counts = np.bincount(combo, minlength=slots)
        coeff = math.factorial(degree)
        for c in counts:
            coeff //= math.factorial(int(c))
        if offset > 0:
            k0, ks = counts[0], counts[1:]
            weight = math.sqrt(coeff * offset**k0)
        else:
            ks = counts
            weight = math.sqrt(coeff)
        feature = np.full(m, weight)
        for i, k in enumerate(ks):
            if k:
                feature = feature * points[:, i] ** int(k)
        columns.append(feature)
        if len(columns) > FEATURE_DIM_LIMIT:
            raise UnsupportedKernelError(
                f"feature dimension exceeds {FEATURE_DIM_LIMIT}"
            )
    return np.column_stack(columns)


def explicit_feature_covariance(
    x: Dataset, kernel: KernelSpec
) -> tuple[np.ndarray, SpdMatrix]:
    """Empirical mean and covariance in the explicit finite feature space.

    Test oracle for the Gram formulas: only linear and polynomial kernels
    have a finite feature map.
    """
    if kernel.kind == "linear":
        features = x.points
    elif kernel.kind == "poly":
        features = _polynomial_features(x.points, kernel.degree, kernel.offset)
    else:
        raise UnsupportedKernelError("Gaussian RBF has no finite feature map")
    mean = features.mean(axis=0)
    centered = features - mean
    cov = centered.T @ centered / x.m
    return mean, SpdMatrix.from_array(cov)
