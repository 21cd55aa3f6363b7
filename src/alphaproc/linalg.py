"""Spectral matrix functions on symmetric / SPD matrices.

Every matrix function (log, exp, fractional power, square root) and every
Frechet-derivative map in this package goes through one full symmetric
eigendecomposition.  A single code path keeps log/exp/power/sqrt exactly
consistent with each other, which the identity tests rely on.  This module
also makes every LAPACK call of the package (eigensolves and singular
values), each behind one guard that turns a failure into a typed error.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
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

# Eigenvalues in (-psd_tol, psd_tol) are treated as zero; psd_tol is relative
# to the spectral radius, so tiny negative Gram eigenvalues pass at any scale.
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


def psd_tolerance(lam_max: float | np.ndarray) -> float | np.ndarray:
    """Zero-threshold for eigenvalues of a matrix with largest eigenvalue lam_max.

    Elementwise when lam_max holds the spectral radii of a stack.
    """
    return PSD_TOL_FACTOR * np.maximum(np.abs(lam_max), 1e-300)


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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray

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


def sym_eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a symmetric array or stack.

    ``mats`` is (n, n) or (k, n, n); the stack is decomposed in one call.
    """
    with _lapack_guard("eigendecomposition", mats):
        return np.linalg.eigh(mats)


def sym_eigendecompose(s: SymMatrix) -> EigenDecomposition:
    """Full symmetric eigendecomposition of ``s``."""
    w, v = sym_eigh(s.mat)
    return EigenDecomposition(_freeze(w), _freeze(v))


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Symmetric positive (semi-)definite operator, held as its spectrum.

    The spectrum sits on an n x k orthonormal basis ``eig.vectors``.  When
    k < n, as for an operator built from a factor by ``_from_factor``, the
    n - k directions outside that basis hold one eigenvalue, ``floor``; it
    is 0.0 on a complete basis.  ``n``, ``min_eig``, ``require_strict``,
    ``trace_power``, ``add_ridge``, ``spd_power``, ``spd_log`` and ``mat``
    account for those directions; code that reads ``eig`` directly needs a
    complete basis.  Construction from an array clamps eigenvalues in
    (-psd_tol, psd_tol) to zero and rejects anything below -psd_tol; a
    formula that needs every eigenvalue above psd_tol calls
    ``require_strict``.  ``mat`` is the symmetrized input when there was
    one, else formed from the spectrum on first read.
    """

    eig: EigenDecomposition
    floor: float = 0.0
    _input: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_array(cls, arr) -> "SpdMatrix":
        s = SymMatrix.from_array(arr)
        eig = sym_eigendecompose(s)
        tol = psd_tolerance(eig.max)
        if eig.min < -tol:
            raise NotPsdError(
                f"matrix has eigenvalue {eig.min:.3e} below -{tol:.3e}"
            )
        values = np.where(np.abs(eig.values) < tol, 0.0, eig.values)
        values = np.maximum(values, 0.0)
        return cls(EigenDecomposition(_freeze(values), eig.vectors), _input=s.mat)

    @classmethod
    def _from_eig(
        cls, values: np.ndarray, vectors: np.ndarray, floor: float = 0.0
    ) -> "SpdMatrix":
        """Build from a known nonnegative spectrum without re-validation.

        An ascending spectrum keeps its eigenvector array: ridges and
        positive powers share the basis instead of copying it.
        """
        values = np.asarray(values, dtype=float)
        if np.any(values[1:] < values[:-1]):
            order = np.argsort(values)
            values, vectors = values[order], np.asarray(vectors, dtype=float)[:, order]
        return cls(EigenDecomposition(_freeze(values), _freeze(vectors)), floor)

    @classmethod
    def _from_factor(cls, b: np.ndarray) -> "SpdMatrix":
        """b b' for a factor b (n x k), decomposed on the smaller of b b' and b' b.

        On the sample side (n > k), b' b = U diag(s) U', and the columns of
        b U diag(s)^(-1/2) over the nonzero s are an orthonormal basis of the
        range of b b' with eigenvalues s; the directions outside it hold 0.
        """
        n, k = b.shape
        on_samples = n > k
        s, u = sym_eigh(b.T @ b if on_samples else b @ b.T)
        s = np.where(s < psd_tolerance(s[-1]), 0.0, s)
        if on_samples:
            nz = s > 0.0
            s, u = s[nz], (b @ u[:, nz]) / np.sqrt(s[nz])
        return cls._from_eig(s, u)

    @cached_property
    def mat(self) -> np.ndarray:
        if self._input is not None:
            return self._input
        # one layout, column-major, whatever layout the eigenvectors arrive
        # in: BLAS rounds the product by operand layout, so this keeps the
        # bits of the dense form independent of how the basis was built
        v = np.asfortranarray(self.eig.vectors)
        mat = _dense(v, self.eig.values, self.floor)
        return _freeze((mat + mat.T) / 2.0)

    @property
    def n(self) -> int:
        return self.eig.vectors.shape[0]

    @property
    def _rest(self) -> int:
        """Number of directions outside the basis, each holding ``floor``."""
        return self.n - self.eig.values.shape[0]

    def _bounds(self) -> tuple[float, float]:
        """Smallest and largest eigenvalue, ``floor`` included."""
        w = np.append(self.eig.values, self.floor) if self._rest else self.eig.values
        return float(w.min()), float(w.max())

    @property
    def min_eig(self) -> float:
        return self._bounds()[0]

    def require_strict(self, what: str) -> None:
        lo, hi = self._bounds()
        if not lo > psd_tolerance(hi):
            raise SingularBaseError(
                f"{what} requires a strictly positive definite matrix "
                f"(min eigenvalue {lo:.3e})"
            )

    def trace_power(self, p: float) -> float:
        """tr(A^p) from the spectrum."""
        if p < 0:
            self.require_strict(f"power {p}")
        total = float(np.sum(self.eig.values**p))
        if self._rest:
            total += self._rest * self.floor**p
        return total

    def _map(self, fn) -> "SpdMatrix":
        """fn applied to every eigenvalue, those outside the basis included."""
        floor = fn(self.floor) if self._rest else 0.0
        return SpdMatrix._from_eig(fn(self.eig.values), self.eig.vectors, floor)

    def add_ridge(self, gamma: float) -> "SpdMatrix":
        """A + gamma*I, sharing the eigenbasis."""
        return self._map(lambda w: w + gamma)


def _dense(v: np.ndarray, values: np.ndarray, floor: float) -> np.ndarray:
    """V diag(values) V' plus ``floor`` on the directions outside V's columns."""
    mat = (v * (values - floor)) @ v.T
    if v.shape[1] < v.shape[0]:
        mat[np.diag_indices_from(mat)] += floor
    return mat


@dataclass(frozen=True)
class AlphaParam:
    """Family parameter alpha; |alpha| < ALPHA_SWITCH_TOL is the log-limit."""

    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise DomainError(f"alpha must be finite, got {self.value}")

    @property
    def is_log_limit(self) -> bool:
        return abs(self.value) < ALPHA_SWITCH_TOL

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
    return a._map(lambda w: w**p)


def spd_log(a: SpdMatrix) -> SymMatrix:
    """Principal matrix logarithm of a strictly SPD matrix."""
    a.require_strict("matrix logarithm")
    floor = math.log(a.floor) if a._rest else 0.0
    return SymMatrix.from_array(_dense(a.eig.vectors, np.log(a.eig.values), floor))


def sym_exp(s: SymMatrix) -> SpdMatrix:
    """Matrix exponential of a symmetric matrix; always strictly SPD."""
    eig = sym_eigendecompose(s)
    return SpdMatrix._from_eig(np.exp(eig.values), eig.vectors)


def trace_sqrt_triple(a: SpdMatrix, b: SpdMatrix, alpha: float) -> float:
    """tr[(A^a B^{2a} A^a)^{1/2}], the cross term of the distance family.

    The sum of square roots of the eigenvalues of sym(A^a B^{2a} A^a), with
    roundoff negatives clamped at zero.
    """
    p = spd_power(a, alpha).mat
    m = p @ spd_power(b, 2.0 * alpha).mat @ p
    sym = (m + m.T) / 2.0
    with _lapack_guard("cross-term eigensolve", sym):
        w = np.linalg.eigvalsh(sym)
    return float(np.sum(np.sqrt(np.maximum(w, 0.0))))


def nuclear_norm(mat: np.ndarray) -> float:
    """tr[(M' M)^(1/2)] as the sum of singular values: no clamp at rank deficiency."""
    with _lapack_guard("singular values", mat):
        return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def _log_divided_difference(li, lj):
    """(log l_i - log l_j) / (l_i - l_j) without subtracting logarithms; nan at l_i = l_j."""
    d = np.abs(li - lj)
    return np.log1p(d / np.minimum(li, lj)) / d


_LOEWNER_FUNCTIONS = {
    "exp": (lambda li, lj: (np.exp(li) - np.exp(lj)) / (li - lj), np.exp),
    "log": (_log_divided_difference, lambda x: 1.0 / x),
}


def loewner_apply(p0_eig: EigenDecomposition, f: str, s: SymMatrix) -> SymMatrix:
    """Frechet derivative Df(P0)[S] in the eigenbasis of P0.

    First divided differences (f(l_i) - f(l_j)) / (l_i - l_j), replaced by
    f'(l_i) whenever |l_i - l_j| < DIVIDED_DIFF_TOL * scale_i.  For "log"
    the scale is l_i, so the switch is homogeneous like the logarithm's
    derivative; "exp" acts on logarithms, whose differences are absolute,
    and uses max(1, |l_i|).

    Parameters
    ----------
    p0_eig : EigenDecomposition
        Spectrum of the base point P0.
    f : str
        One of "exp", "log".
    s : SymMatrix
        Direction of differentiation.
    """
    if f not in _LOEWNER_FUNCTIONS:
        raise DomainError(f"unknown scalar function {f!r}")
    divided, fprime = _LOEWNER_FUNCTIONS[f]
    lam = p0_eig.values
    if f == "log":
        if lam[0] <= psd_tolerance(float(lam[-1])):
            raise DomainError(
                f"log derivative undefined: eigenvalue {lam[0]:.3e} at or below zero"
            )
        scale = lam
    else:
        scale = np.maximum(1.0, np.abs(lam))

    with np.errstate(divide="ignore", invalid="ignore"):
        quot = divided(lam[:, None], lam[None, :])
    near = np.abs(lam[:, None] - lam[None, :]) < DIVIDED_DIFF_TOL * scale[:, None]
    coeff = np.where(near, fprime(lam)[:, None], quot)

    v = p0_eig.vectors
    s_tilde = v.T @ s.mat @ v
    return SymMatrix.from_array(v @ (coeff * s_tilde) @ v.T)
