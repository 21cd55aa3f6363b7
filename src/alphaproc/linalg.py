"""Spectral matrix functions on symmetric / SPD matrices.

Every matrix function (log, exp, fractional power, square root) and every
Frechet-derivative map in this package goes through one full symmetric
eigendecomposition.  A single code path keeps log/exp/power/sqrt exactly
consistent with each other, which the identity tests rely on.  This module
also makes every eigensolve and singular value decomposition of the
package's operands, behind the one guard that turns a failure into a typed error:
the SVDs are ``nuclear_norm`` (the unregularized RKHS cross term) and
``_polar_factor`` (the geodesic's Procrustes factor).  ``rkhs`` puts its QR
factorizations behind the same guard.  The Cholesky factorization
``_cholesky`` (of the shifted centered RKHS Gram blocks) is the one LAPACK
failure that picks a route instead of raising: it returns None, and its
caller takes an eigensolve instead.  ``_finite`` is the one rule that
turns a NaN or an infinity into NonFiniteError; code that may overflow
runs under ``np.errstate``, so no numpy warning comes first.  Past the
reject check of ``SpdMatrix.from_array``, only the zero rule ``_clamp_zero``
and the strictness rule ``_strict`` compare a spectrum with psd_tolerance.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (
    ConvergenceFailureError,
    DimensionError,
    DomainError,
    NonFiniteError,
    NotPsdError,
    SingularBaseError,
)

# Eigenvalues below psd_tol are treated as zero; psd_tol is relative to the
# spectral radius, so tiny negative Gram eigenvalues pass at any scale.
PSD_TOL_FACTOR = 1e-12

# |alpha| below this routes every family formula to its analytic alpha -> 0
# limit; the 1/alpha^2 prefactor amplifies roundoff quadratically.
ALPHA_SWITCH_TOL = 1e-7


def psd_tolerance(lam_max: float | np.ndarray) -> float | np.ndarray:
    """Zero-threshold for eigenvalues of a matrix with largest eigenvalue lam_max.

    Elementwise when lam_max holds the spectral radii of a stack.
    """
    return PSD_TOL_FACTOR * np.maximum(np.abs(lam_max), 1e-300)


def _clamp_zero(w: np.ndarray, top: float | None = None) -> np.ndarray:
    """The zero-eigenvalue rule: entries of ``w`` below psd_tolerance(top) become 0.

    ``top`` defaults to ``w[-1]``, the largest of an ascending spectrum.
    Every positive power keeps the zeros at 0, so it is restricted to the range.
    """
    return np.where(w < psd_tolerance(w[-1] if top is None else top), 0.0, w)


def _strict(w: np.ndarray) -> np.ndarray:
    """The strictness rule per spectrum (last axis): all above psd_tolerance of the largest."""
    return w.min(axis=-1) > psd_tolerance(w.max(axis=-1))


def _finite(what: str, *values) -> None:
    """NonFiniteError naming the stage ``what`` on a NaN or an infinity in any of ``values``."""
    for v in values:
        if not (math.isfinite(v) if isinstance(v, float) else np.isfinite(v).all()):
            raise NonFiniteError(
                f"{what}: NaN or infinite values (a non-finite input, or a value that overflows)"
            )


def _finite_real(value) -> bool:
    """math.isfinite, False for what it cannot read as one real number (str, None, complex)."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


@contextmanager
def _lapack_guard(what: str, mat: np.ndarray):
    """The one guard around every LAPACK call: finite input, typed failure."""
    _finite(what, mat)
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"{what} failed: {exc}") from exc


def _check_type(op, cls: type, build: str) -> None:
    """DomainError unless ``op`` is a ``cls``, naming the type given and ``build``, which makes one.

    No coercion: an array is refused like any other type.
    """
    if not isinstance(op, cls):
        raise DomainError(
            f"expected {cls.__name__}, got {type(op).__name__}: build one with {build}"
        )


def _check_dims(*typed) -> None:
    """The one operand check: in each (operand, type) pair the operand is of its type
    (SymMatrix, SpdMatrix or EigenDecomposition), and all operands are of one order."""
    for op, cls in typed:
        _check_type(op, cls, _BUILDERS[cls])
    orders = [op.n for op, _ in typed]
    if len(set(orders)) > 1:
        raise DimensionError("matrix dimensions differ: " + " vs ".join(map(str, orders)))


def _real_array(arr, what: str) -> np.ndarray:
    """``arr`` as a float array; DomainError naming ``what`` on complex or non-numeric entries.

    numpy would keep the real part of a complex array with only a warning.
    """
    try:
        a = np.asarray(arr)
        if not np.iscomplexobj(a):
            return a.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must hold real numbers: {exc}") from exc
    raise DomainError(f"{what} must hold real numbers, got complex entries")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric matrix; symmetrized exactly on construction."""

    mat: np.ndarray

    @classmethod
    def from_array(cls, arr) -> "SymMatrix":
        a = _real_array(arr, "matrix")
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise DimensionError(f"expected a non-empty square matrix, got shape {a.shape}")
        _finite("matrix", a)
        return cls(_freeze(a / 2.0 + a.T / 2.0))

    @property
    def n(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def min(self) -> float:
        return float(self.values[0])

    @property
    def max(self) -> float:
        return float(self.values[-1])


def sym_eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a symmetric array or stack.

    ``mats`` is (n, n) or (k, n, n); the stack is decomposed in one call.
    """
    with _lapack_guard("eigendecomposition", mats):
        return np.linalg.eigh(mats)


def sym_eigendecompose(s: SymMatrix) -> EigenDecomposition:
    """Full symmetric eigendecomposition of ``s``."""
    _check_dims((s, SymMatrix))
    w, v = sym_eigh(s.mat)
    return EigenDecomposition(_freeze(w), _freeze(v))


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Symmetric positive (semi-)definite matrix, held as its spectrum.

    The spectrum sits on a square orthonormal basis ``eig.vectors``; every
    constructor ends in ``_from_eig``.  Eigenvalues below psd_tol are clamped
    to zero (``_clamp_zero``); ``from_array`` first rejects anything below
    -psd_tol.  A formula that needs every eigenvalue above psd_tol calls
    ``require_strict``.  ``mat`` is the dense form of the held spectrum,
    formed on first read, so it and ``eig`` always describe one matrix.
    """

    eig: EigenDecomposition

    @classmethod
    def from_array(cls, arr) -> "SpdMatrix":
        w, v = sym_eigh(SymMatrix.from_array(arr).mat)
        tol = psd_tolerance(w[-1])
        if w[0] < -tol:
            raise NotPsdError(f"matrix has eigenvalue {w[0]:.3e} below -{tol:.3e}")
        return cls._from_eig(_clamp_zero(w), v)

    @classmethod
    def _from_eig(cls, values: np.ndarray, vectors: np.ndarray) -> "SpdMatrix":
        """Build from a known nonnegative spectrum on a square orthonormal basis.

        An ascending spectrum keeps its eigenvector array: ridges and
        positive powers share the basis instead of copying it.
        """
        values, vectors = np.asarray(values, dtype=float), np.asarray(vectors, dtype=float)
        if vectors.shape != (values.shape[0],) * 2:
            raise DimensionError(f"{values.shape[0]} eigenvalues on a basis {vectors.shape}")
        if np.any(values[1:] < values[:-1]):
            order = np.argsort(values)
            values, vectors = values[order], vectors[:, order]
        return cls(EigenDecomposition(_freeze(values), _freeze(vectors)))

    @cached_property
    def mat(self) -> np.ndarray:
        # one layout, column-major, whatever layout the eigenvectors arrive
        # in: BLAS rounds the product by operand layout, so this keeps the
        # bits of the dense form independent of how the basis was built
        v = np.asfortranarray(self.eig.vectors)
        mat = _dense(v, self.eig.values)
        return _freeze(mat / 2.0 + mat.T / 2.0)

    @property
    def n(self) -> int:
        return self.eig.n

    def require_strict(self, what: str) -> None:
        _require_strict(self.eig.values, what)

    def add_ridge(self, gamma: float) -> "SpdMatrix":
        """A + gamma*I, sharing the eigenbasis."""
        return SpdMatrix._from_eig(self.eig.values + gamma, self.eig.vectors)


_BUILDERS = {
    SymMatrix: "SymMatrix.from_array",
    SpdMatrix: "SpdMatrix.from_array",
    EigenDecomposition: "sym_eigendecompose",
}


def _require_strict(w: np.ndarray, what: str) -> None:
    """SingularBaseError naming ``what`` unless the one spectrum ``w`` is ``_strict``."""
    if not _strict(w):
        raise SingularBaseError(
            f"{what} requires a strictly positive definite matrix "
            f"(min eigenvalue {w.min():.3e}, max eigenvalue {w.max():.3e})"
        )


def _dense(v: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V' of one spectrum, or of a stack: (k, n, n) bases with (k, n) values."""
    return (v * values[..., None, :]) @ np.swapaxes(v, -1, -2)


@dataclass(frozen=True)
class AlphaParam:
    """Family parameter alpha; |alpha| < ALPHA_SWITCH_TOL is the log-limit."""

    value: float

    def __post_init__(self):
        if not _finite_real(self.value):
            raise DomainError(f"alpha must be finite and real, got {self.value!r}")

    @property
    def is_log_limit(self) -> bool:
        return abs(self.value) < ALPHA_SWITCH_TOL

    @classmethod
    def log_limit(cls) -> "AlphaParam":
        return cls(0.0)

    @classmethod
    def parse(cls, text: str) -> "AlphaParam":
        try:
            if text.strip().lower() in ("log-limit", "log_limit", "loglimit"):
                return cls.log_limit()
            return cls(float(text))
        except (AttributeError, ValueError) as exc:
            raise DomainError(f"alpha must be a number or 'log-limit', got {text!r}") from exc

    def label(self):
        """JSON-friendly representation: the float or the string 'log-limit'."""
        return "log-limit" if self.is_log_limit else self.value


def as_alpha(alpha) -> AlphaParam:
    """Coerce a float, or anything float() reads, to AlphaParam; other input raises DomainError."""
    if isinstance(alpha, AlphaParam):
        return alpha
    try:
        alpha = float(alpha)
    except (TypeError, ValueError, OverflowError):
        pass  # AlphaParam rejects it by name
    return AlphaParam(alpha)


def spd_power(a: SpdMatrix, p: float) -> SpdMatrix:
    """Fractional matrix power A^p through the spectrum.

    PSD input is fine for p > 0 (zero eigenvalues map to zero); p < 0
    requires a strictly positive matrix.  p must be one finite real number
    (else DomainError).  An overflow raises NonFiniteError.
    """
    _check_dims((a, SpdMatrix))
    if not _finite_real(p):
        raise DomainError(f"power exponent must be finite and real, got {p!r}")
    if p < 0:
        a.require_strict(f"power {p}")
    with np.errstate(over="ignore"):
        w = a.eig.values**p
    # w is ascending and nonnegative: w**p can only overflow, first at its largest
    _finite(f"power {p}", w[0] if p < 0 else w[-1])
    return SpdMatrix._from_eig(w, a.eig.vectors)


def spd_log(a: SpdMatrix) -> SymMatrix:
    """Principal matrix logarithm of a strictly SPD matrix."""
    _check_dims((a, SpdMatrix))
    a.require_strict("matrix logarithm")
    return SymMatrix.from_array(_dense(a.eig.vectors, np.log(a.eig.values)))


def trace_sqrt(m: np.ndarray) -> float:
    """tr[M^(1/2)] for M symmetric PSD up to roundoff.

    The sum of square roots of the eigenvalues of sym(M), with roundoff
    negatives clamped at zero: the cross term of every dense trace form.
    """
    sym = m / 2.0 + m.T / 2.0
    with _lapack_guard("cross-term eigensolve", sym):
        w = np.linalg.eigvalsh(sym)
    return float(np.sum(np.sqrt(np.maximum(w, 0.0))))


def nuclear_norm(mat: np.ndarray) -> float:
    """tr[(M' M)^(1/2)] as the sum of singular values: no clamp at rank deficiency."""
    with _lapack_guard("singular values", mat):
        return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def _cholesky(what: str, mat: np.ndarray) -> np.ndarray | None:
    """Lower factor G of mat = G G', or None where mat is not numerically positive definite.

    Non-finite input raises NonFiniteError naming ``what``, as the guard does.
    """
    _finite(what, mat)
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _polar_factor(mat: np.ndarray) -> np.ndarray:
    """Orthogonal polar factor U = P Q' of M = P S Q', the U that maximizes tr(U' M)."""
    with _lapack_guard("polar factor", mat):
        p, _, qt = np.linalg.svd(mat)
    return p @ qt


def _expm1_quotient(x):
    """(e^x - 1) / x, the divided difference of exp over [0, x], and its limit 1 at x = 0.

    The one divided-difference rule of the package (McCurdy, Ng and Parlett
    1984; Higham 2008): expm1 subtracts no nearby values, so the quotient is
    accurate at any gap, and only an exact tie takes the derivative.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(x == 0.0, 1.0, np.expm1(x) / x)


def loewner_apply(p0_eig: EigenDecomposition, f: str, s: SymMatrix) -> SymMatrix:
    """Frechet derivative Df(P0)[S] in the eigenbasis of P0.

    First divided differences (f(l_i) - f(l_j)) / (l_i - l_j), which are
    f'(l_i) where l_i = l_j, formed without subtracting values of f.  With
    lo <= hi the pair and q = _expm1_quotient, "exp" takes e^hi q(lo - hi),
    and "log" takes 1 / (lo q(L)) at L = log1p((hi - lo) / lo) = log(hi / lo),
    so the log derivative is homogeneous in P0 to roundoff.

    Parameters
    ----------
    p0_eig : EigenDecomposition
        Spectrum of the base point P0; "log" requires it strictly positive
        (``_require_strict``, so SingularBaseError otherwise).
    f : str
        One of "exp", "log".
    s : SymMatrix
        Direction of differentiation, of the order of P0 (else DimensionError).
    """
    if f not in ("exp", "log"):
        raise DomainError(f"unknown scalar function {f!r}")
    _check_dims((p0_eig, EigenDecomposition), (s, SymMatrix))
    lam = p0_eig.values
    lo, hi = np.minimum.outer(lam, lam), np.maximum.outer(lam, lam)
    with np.errstate(all="ignore"):
        if f == "log":
            _require_strict(lam, "log derivative")
            coeff = 1.0 / (lo * _expm1_quotient(np.log1p((hi - lo) / lo)))
        else:
            coeff = np.exp(hi) * _expm1_quotient(lo - hi)
        v = p0_eig.vectors
        s_tilde = v.T @ s.mat @ v
        return SymMatrix.from_array(v @ (coeff * s_tilde) @ v.T)
