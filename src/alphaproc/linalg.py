"""Spectral matrix functions on symmetric / SPD matrices.

Every matrix function (log, exp, fractional power, square root) and every
Frechet-derivative map in this package goes through one full symmetric
eigendecomposition.  A single code path keeps log/exp/power/sqrt exactly
consistent with each other, which the identity tests rely on.  This module
also makes every LAPACK call of the package (eigensolves and singular
values), each behind one guard that turns a failure into a typed error.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    ConvergenceFailureError,
    DimensionError,
    DomainError,
    NonFiniteError,
    NotPsdError,
    SingularBaseError,
)

# Eigenvalues in (-psd_tol, psd_tol) are treated as zero; psd_tol scales with
# the spectral radius so Gram matrices with tiny negative eigenvalues pass.
PSD_TOL_FACTOR = 1e-12

# Below this relative eigenvalue gap, Daleckii-Krein quotients switch to the
# derivative to avoid catastrophic cancellation.
DIVIDED_DIFF_TOL = 1e-8

# Eigenvalues below rank_tol = RANK_TOL_FACTOR * lambda_max count as kernel
# directions for spectral functions restricted to the range.
RANK_TOL_FACTOR = 1e-10

# |alpha| below this routes every family formula to its analytic alpha -> 0
# limit; the 1/alpha^2 prefactor amplifies roundoff quadratically.
ALPHA_SWITCH_TOL = 1e-7


def psd_tolerance(lam_max: float) -> float:
    """Zero-threshold for eigenvalues of a matrix with largest eigenvalue lam_max."""
    return PSD_TOL_FACTOR * max(1.0, lam_max)


@contextmanager
def _lapack_guard(what: str, mat: np.ndarray):
    """The one guard around every LAPACK call: finite input, typed failure."""
    if not np.all(np.isfinite(mat)):
        raise NonFiniteError(f"{what}: matrix contains NaN or infinite entries")
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"{what} failed: {exc}") from exc


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric matrix; symmetrized exactly on construction."""

    mat: np.ndarray

    @classmethod
    def from_array(cls, arr) -> "SymMatrix":
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("matrix contains NaN or infinite entries")
        return cls(_freeze((a + a.T) / 2.0))

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.mat))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray

    def apply(self, fn) -> np.ndarray:
        """Matrix function V diag(fn(values)) V^T as a plain array."""
        return (self.vectors * fn(self.values)) @ self.vectors.T

    def apply_on_range(self, fn) -> np.ndarray:
        """V diag(g) V^T with g = fn on the range and 0 on the kernel.

        Eigenvalues are clamped at 0; those at or below RANK_TOL_FACTOR *
        lambda_max are kernel directions, so fn only sees positive values.
        """
        lam = np.maximum(self.values, 0.0)
        g = np.zeros_like(lam)
        if lam[-1] > 0.0:
            nz = lam > RANK_TOL_FACTOR * lam[-1]
            g[nz] = fn(lam[nz])
        return (self.vectors * g) @ self.vectors.T

    @property
    def min(self) -> float:
        return float(self.values[0])

    @property
    def max(self) -> float:
        return float(self.values[-1])


def sym_eigendecompose(s: SymMatrix) -> EigenDecomposition:
    """Full symmetric eigendecomposition of ``s``."""
    with _lapack_guard("eigendecomposition", s.mat):
        w, v = np.linalg.eigh(s.mat)
    return EigenDecomposition(_freeze(w), _freeze(v))


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive (semi-)definite matrix with cached spectrum.

    Construction in PSD mode clamps eigenvalues in (-psd_tol, psd_tol) to
    zero and rejects anything below -psd_tol; strict mode requires every
    eigenvalue above psd_tol.
    """

    base: SymMatrix
    min_eig: float
    eig: EigenDecomposition = field(repr=False)

    @classmethod
    def from_array(cls, arr, strict: bool = False) -> "SpdMatrix":
        return cls.from_sym(SymMatrix.from_array(arr), strict=strict)

    @classmethod
    def from_sym(cls, s: SymMatrix, strict: bool = False) -> "SpdMatrix":
        eig = sym_eigendecompose(s)
        tol = psd_tolerance(eig.max)
        if strict:
            if eig.min <= tol:
                raise SingularBaseError(
                    f"matrix is not strictly positive definite "
                    f"(min eigenvalue {eig.min:.3e}, tolerance {tol:.3e})"
                )
            return cls(s, eig.min, eig)
        if eig.min < -tol:
            raise NotPsdError(
                f"matrix has eigenvalue {eig.min:.3e} below -{tol:.3e}"
            )
        values = np.where(np.abs(eig.values) < tol, 0.0, eig.values)
        values = np.maximum(values, 0.0)
        eig = EigenDecomposition(_freeze(values), eig.vectors)
        return cls(s, eig.min, eig)

    @classmethod
    def _from_eig(cls, values: np.ndarray, vectors: np.ndarray) -> "SpdMatrix":
        """Build from a known nonnegative spectrum without re-validation."""
        order = np.argsort(values)
        values = np.asarray(values, dtype=float)[order]
        vectors = np.asarray(vectors, dtype=float)[:, order]
        mat = (vectors * values) @ vectors.T
        base = SymMatrix(_freeze((mat + mat.T) / 2.0))
        eig = EigenDecomposition(_freeze(values), _freeze(vectors))
        return cls(base, float(values[0]), eig)

    @property
    def mat(self) -> np.ndarray:
        return self.base.mat

    @property
    def n(self) -> int:
        return self.base.n

    def is_strict(self) -> bool:
        return self.min_eig > psd_tolerance(self.eig.max)

    def require_strict(self, what: str) -> None:
        if not self.is_strict():
            raise SingularBaseError(
                f"{what} requires a strictly positive definite matrix "
                f"(min eigenvalue {self.min_eig:.3e})"
            )

    def trace(self) -> float:
        return float(np.sum(self.eig.values))

    def trace_power(self, p: float) -> float:
        """tr(A^p) from the cached spectrum."""
        if p < 0:
            self.require_strict(f"power {p}")
        return float(np.sum(self.eig.values**p))

    def add_ridge(self, gamma: float) -> "SpdMatrix":
        """A + gamma*I, sharing the eigenbasis."""
        return SpdMatrix._from_eig(self.eig.values + gamma, self.eig.vectors)


@dataclass(frozen=True)
class AlphaParam:
    """Family parameter alpha with an explicit limit mode at alpha = 0."""

    value: float
    mode: str = field(init=False)

    def __post_init__(self):
        mode = "log-limit" if abs(self.value) < ALPHA_SWITCH_TOL else "general"
        object.__setattr__(self, "mode", mode)

    @property
    def is_log_limit(self) -> bool:
        return self.mode == "log-limit"

    @classmethod
    def log_limit(cls) -> "AlphaParam":
        return cls(0.0)

    @classmethod
    def parse(cls, text: str) -> "AlphaParam":
        if text.strip().lower() in ("log-limit", "log_limit", "loglimit"):
            return cls.log_limit()
        return cls(float(text))

    def label(self):
        """JSON-friendly representation: the float or the string 'log-limit'."""
        return "log-limit" if self.is_log_limit else self.value


def as_alpha(alpha) -> AlphaParam:
    """Coerce a float or AlphaParam to AlphaParam."""
    if isinstance(alpha, AlphaParam):
        return alpha
    return AlphaParam(float(alpha))


def spd_power(a: SpdMatrix, p: float) -> SpdMatrix:
    """Fractional matrix power A^p through the spectrum.

    PSD input is fine for p > 0 (zero eigenvalues map to zero); p < 0
    requires a strictly positive matrix.
    """
    if p < 0:
        a.require_strict(f"power {p}")
    return SpdMatrix._from_eig(a.eig.values**p, a.eig.vectors)


def spd_log(a: SpdMatrix) -> SymMatrix:
    """Principal matrix logarithm of a strictly SPD matrix."""
    a.require_strict("matrix logarithm")
    return SymMatrix.from_array(a.eig.apply(np.log))


def sym_exp(s: SymMatrix) -> SpdMatrix:
    """Matrix exponential of a symmetric matrix; always strictly SPD."""
    eig = sym_eigendecompose(s)
    return SpdMatrix._from_eig(np.exp(eig.values), eig.vectors)


def psd_sqrt(a: SpdMatrix) -> SpdMatrix:
    """Principal square root of a PSD matrix."""
    return SpdMatrix._from_eig(np.sqrt(np.maximum(a.eig.values, 0.0)), a.eig.vectors)


def trace_sqrt_triple(a: SpdMatrix, b: SpdMatrix, alpha: float) -> float:
    """tr[(A^a B^{2a} A^a)^{1/2}], the cross term of the distance family.

    Equals the sum of square roots of the eigenvalues of A^{2a} B^{2a}.
    """
    if alpha < 0:
        a.require_strict("negative power")
        b.require_strict("negative power")
    a_pow = spd_power(a, alpha).mat
    b_pow = spd_power(b, 2.0 * alpha).mat
    m = a_pow @ b_pow @ a_pow
    sym = (m + m.T) / 2.0
    with _lapack_guard("cross-term eigensolve", sym):
        w = np.linalg.eigvalsh(sym)
    return float(np.sum(np.sqrt(np.maximum(w, 0.0))))


def nuclear_norm(mat: np.ndarray) -> float:
    """tr[(M' M)^(1/2)] as the sum of singular values: no clamp at rank deficiency."""
    with _lapack_guard("singular values", mat):
        return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


_LOEWNER_FUNCTIONS = {
    "exp": (np.exp, np.exp),
    "log": (np.log, lambda x: 1.0 / x),
}


def loewner_apply(
    p0_eig: EigenDecomposition, f: str, s: SymMatrix, p: float | None = None
) -> SymMatrix:
    """Frechet derivative Df(P0)[S] in the eigenbasis of P0.

    First divided differences (f(l_i) - f(l_j)) / (l_i - l_j), replaced by
    f'(l_i) whenever |l_i - l_j| < DIVIDED_DIFF_TOL * max(1, |l_i|).

    Parameters
    ----------
    p0_eig : EigenDecomposition
        Spectrum of the base point P0.
    f : str
        One of "exp", "log", "power".
    s : SymMatrix
        Direction of differentiation.
    p : float, optional
        Exponent, required when f == "power".
    """
    lam = p0_eig.values
    if f == "power":
        if p is None:
            raise DomainError("power function needs an exponent")
        fn = lambda x: x**p  # noqa: E731
        fprime = lambda x: p * x ** (p - 1.0)  # noqa: E731
    elif f in _LOEWNER_FUNCTIONS:
        fn, fprime = _LOEWNER_FUNCTIONS[f]
        if f == "log" and lam[0] <= psd_tolerance(float(lam[-1])):
            raise DomainError(
                f"log derivative undefined: eigenvalue {lam[0]:.3e} at or below zero"
            )
    else:
        raise DomainError(f"unknown scalar function {f!r}")

    diff = lam[:, None] - lam[None, :]
    vals = fn(lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        quot = (vals[:, None] - vals[None, :]) / diff
    near = np.abs(diff) < DIVIDED_DIFF_TOL * np.maximum(1.0, np.abs(lam))[:, None]
    coeff = np.where(near, fprime(lam)[:, None], quot)

    v = p0_eig.vectors
    s_tilde = v.T @ s.mat @ v
    return SymMatrix.from_array(v @ (coeff * s_tilde) @ v.T)


def h_alpha(e: SpdMatrix, alpha: float) -> SymMatrix:
    """Spectral function ((1 + l)^alpha - 1) / l on the range of a PSD matrix.

    Kernel directions map to zero, so E @ h_alpha(E) reproduces
    (I + E)^alpha - I on the range of E.
    """
    # expm1/log1p avoid cancellation for eigenvalues near zero
    g = e.eig.apply_on_range(lambda lam: np.expm1(alpha * np.log1p(lam)) / lam)
    return SymMatrix.from_array(g)


def psd_spectral_power(mat: np.ndarray, p: float) -> np.ndarray:
    """E^p on the range of a PSD array: kernel eigenvalues stay zero.

    With p = 0 this is the orthogonal projection onto range(E), the
    convention needed by the limit formulas of the distance family.
    """
    eig = sym_eigendecompose(SymMatrix.from_array(mat))
    return eig.apply_on_range(lambda w: w**p)
