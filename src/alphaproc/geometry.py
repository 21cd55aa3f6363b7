"""Riemannian structure behind the distance family.

The metric tensor at P0 is defined through a generalized Lyapunov equation:
H is the unique symmetric solution of

    Dexp(log P0) o Dlog(P0^2a) (H P0^2a + P0^2a H) = Y,

and <Y, Z>_P0 = 4 tr(H_Y P0^2a H_Z).  In the eigenbasis of P0 the composite
operator diagonalizes, so the solve is a single elementwise division.  The
connecting geodesic is g(t) = (X X')^(1/2a), X = (1-t) A^a + t B^a U, with U
the polar factor of B^a A^a that minimizes |A^a - B^a U|_F (the Procrustes
form of the Bures-Wasserstein geodesic in Bhatia, Jain and Lim 2019).  It is
defined on [0, 1] only: U makes the cross term U' B^a A^a of X'X PSD, so
X'X >= (1-t)^2 A^2a there, and outside [0, 1] it is subtracted.  Its
length reproduces the closed-form distance; geodesic_length_numeric
validates that numerically with an independent finite-difference speed.
A geodesic has constant speed, so an 8-node Gauss-Legendre rule adds no
error of its own; the speed at each node comes from a five-point,
fourth-order central difference (Fornberg 1988), so the length is off by
O(h^4) in the difference step h until roundoff takes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from numbers import Real

import numpy as np

from .exceptions import DomainError, NonSpdIntermediateError
from .linalg import AlphaParam, SpdMatrix, SymMatrix, as_alpha, spd_power
from .linalg import _check_dims, _check_type, _dense, _expm1_quotient, _finite
from .linalg import _polar_factor, _require_strict, _strict, sym_eigh


@cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of numpy's 8-point Gauss-Legendre rule mapped to [0, 1],
    built at the first length: leggauss runs an eigensolve, numpy.polynomial a slow import."""
    x, w = np.polynomial.legendre.leggauss(8)
    return (x + 1.0) / 2.0, w / 2.0


# Fourth-order central first difference: f'(t) ~ sum_i c_i f(t + o_i h) / h.
STENCIL_OFFSETS = np.arange(-2.0, 3.0)
STENCIL = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


def _lyapunov_factor(lam: np.ndarray, al: AlphaParam) -> np.ndarray:
    """Eigenbasis divisor f(l_i, l_j) of the composite Lyapunov operator.

    f = 2a (l_i - l_j)(l_i^2a + l_j^2a) / (l_i^2a - l_j^2a) off-diagonal,
    with its limit 2 l_i on exact ties.  With lo <= hi the pair, r = (hi - lo)
    / lo, L = log1p(r), p = 2a and q = _expm1_quotient, that is
    f = lo (2 q(L) / q(p L) + p r): no eigenvalue is raised to a power, so f
    does not overflow or underflow where l^2a would, and it is homogeneous
    in P0 like the metric.  At alpha = 1/2 this collapses to l_i + l_j (the
    Lyapunov equation), and the log-limit (p = 0) gives its limit
    2 (l_i - l_j) / (log l_i - log l_j), for which H = Dlog(P0)[Y] / 2 (the
    Log-Euclidean metric).
    """
    lo, hi = np.minimum.outer(lam, lam), np.maximum.outer(lam, lam)
    r = (hi - lo) / lo
    gap = np.log1p(r)
    p = 0.0 if al.is_log_limit else 2.0 * al.value
    return lo * (2.0 * _expm1_quotient(gap) / _expm1_quotient(p * gap) + p * r)


def _eigenbasis_solve(vecs, s, f) -> np.ndarray:
    """Lyapunov solve in the eigenbasis: (V^T S V) / f."""
    return (vecs.T @ s @ vecs) / f


def solve_general_lyapunov(p0: SpdMatrix, y: SymMatrix, alpha) -> SymMatrix:
    """Unique symmetric H with Dexp(log P0) o Dlog(P0^2a)(H P0^2a + P0^2a H) = Y.

    |alpha| < 1e-7 gives the limit H = Dlog(P0)[Y] / 2, as metric_inner's log-limit does.
    """
    al = as_alpha(alpha)
    _check_dims((p0, SpdMatrix), (y, SymMatrix))
    p0.require_strict("generalized Lyapunov solve")
    v = p0.eig.vectors
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h_tilde = _eigenbasis_solve(v, y.mat, _lyapunov_factor(p0.eig.values, al))
        return SymMatrix.from_array(v @ h_tilde @ v.T)


def _eigenbasis_inner(lam, vecs, y, z, al: AlphaParam) -> float:
    """4 tr(H_Y P^2a H_Z) at the base point P = V diag(lam) V^T.

    In the eigenbasis of P, H_Y is _eigenbasis_solve(V, Y, f), so the trace
    is 4 sum_ij Ht_ij Hz_ji lam_j^2a: neither H nor P^2a is rebuilt.  The
    log-limit takes P^0 = I.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = _lyapunov_factor(lam, al)
        hy = _eigenbasis_solve(vecs, y, f)
        hz = hy if z is y else _eigenbasis_solve(vecs, z, f)
        p2a = lam ** (0.0 if al.is_log_limit else 2.0 * al.value)
        inner = 4.0 * np.einsum("ij,ji,j->", hy, hz, p2a)
    _finite("metric inner product", inner)
    return float(inner)


def metric_inner(p0: SpdMatrix, y: SymMatrix, z: SymMatrix, alpha) -> float:
    """Riemannian inner product <Y, Z>_P0 = 4 tr(H_Y P0^2a H_Z).

    Every mode solves for H_Y and H_Z in the eigenbasis of P0 and takes the
    trace there (one eigenbasis evaluation, shared with the geodesic
    quadrature).  The log-limit mode is alpha = 0 of the same solve,
    <Dlog(P0) Y, Dlog(P0) Z>_F, the Log-Euclidean metric.
    """
    al = as_alpha(alpha)
    _check_dims((p0, SpdMatrix), (y, SymMatrix), (z, SymMatrix))
    p0.require_strict("metric inner product")
    return _eigenbasis_inner(p0.eig.values, p0.eig.vectors, y.mat, y.mat if z is y else z.mat, al)


@dataclass(frozen=True)
class GeodesicCurve:
    """Closed-form geodesic between two strictly SPD endpoints; alpha is held as an AlphaParam."""

    a: SpdMatrix
    b: SpdMatrix
    alpha: AlphaParam

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_alpha(self.alpha))
        if self.alpha.is_log_limit:
            raise DomainError("geodesic needs alpha != 0 (no log-limit form)")
        _check_dims((self.a, SpdMatrix), (self.b, SpdMatrix))
        self.a.require_strict("geodesic endpoint")
        self.b.require_strict("geodesic endpoint")

    @cached_property
    def _closed_form(self):
        """The ends A^a and B^a U of X(t) = (1-t) A^a + t B^a U, built once.

        U = P Q' from the one SVD B^a A^a = P S0 Q' minimizes |A^a - B^a U|_F.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            a_pow = spd_power(self.a, self.alpha.value).mat
            b_pow = spd_power(self.b, self.alpha.value).mat
            return a_pow, b_pow @ _polar_factor(b_pow @ a_pow)

    def _spectra(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of g(t) for a 1-D array of k values of t, each in [0, 1].

        One stacked eigensolve of the brackets X X', which are PSD on [0, 1]
        by construction (eigh reads one triangle, so X X' need not be bitwise
        symmetric); returns their eigenvalues raised to 1/2a (k, n,
        descending when alpha < 0) and eigenvectors (k, n, n).
        """
        outside = ~((ts >= 0.0) & (ts <= 1.0))
        if outside.any():
            raise DomainError(f"t must lie in [0, 1], got {float(ts[np.argmax(outside)])}")
        p, q = self._closed_form
        t = ts[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):
            x = (1.0 - t) * p + t * q
            w, v = sym_eigh(x @ np.swapaxes(x, -1, -2))
        strict = _strict(w)
        if not strict.all():
            i = int(np.argmin(strict))
            raise NonSpdIntermediateError(
                f"geodesic bracket at t={float(ts[i])} is not strictly positive definite "
                f"(min eigenvalue {w[i, 0]:.3e}, max eigenvalue {w[i, -1]:.3e})"
            )
        return w ** (1.0 / (2.0 * self.alpha.value)), v

    def at(self, t: float) -> SpdMatrix:
        """Point g(t) on the geodesic, t one real number in [0, 1]; g(0) = A and g(1) = B."""
        if not isinstance(t, Real):
            raise DomainError(f"t must be one real number, got {t!r}")
        lam, vecs = self._spectra(np.array([t], dtype=float))
        return SpdMatrix._from_eig(lam[0], vecs[0])


def geodesic_length_numeric(curve: GeodesicCurve, steps: int = 1000) -> float:
    """Length of the geodesic by Gauss-Legendre quadrature of the metric speed.

    At each of the 8 nodes t_k of _gauss_rule one stacked eigensolve takes
    the five points t_k + h (-2, -1, 0, 1, 2), h = 1/(2 steps), and the
    velocity is their fourth-order central difference (an independent
    differentiation path, deliberately not the analytic derivative).  The
    speed is the metric of metric_inner in the centre point's eigenbasis.
    So 40 points are decomposed whatever ``steps``; a larger ``steps`` only
    shrinks the difference error, O(h^4), down to the roundoff it
    amplifies, O(eps / h).  The outer nodes sit 0.0199 from the ends, so
    steps >= 100 keeps the stencil's reach of 1/steps inside [0, 1].
    """
    _check_type(curve, GeodesicCurve, "GeodesicCurve(a, b, alpha)")
    if not isinstance(steps, (int, np.integer)) or steps < 100:
        raise DomainError(f"steps must be an integer of at least 100, got {steps!r}")
    h = 0.5 / steps
    nodes, weights = _gauss_rule()
    speeds = []
    for t in nodes:
        lam, vecs = curve._spectra(t + h * STENCIL_OFFSETS)
        velocity = np.tensordot(STENCIL, _dense(vecs, lam), axes=1) / h
        _require_strict(lam[2], "metric inner product")
        speeds.append(_eigenbasis_inner(lam[2], vecs[2], velocity, velocity, curve.alpha))
    return float(weights @ np.sqrt(np.maximum(speeds, 0.0)))


def geodesic_endpoints_residual(curve: GeodesicCurve) -> float:
    """Max relative reconstruction error of the endpoints, for diagnostics."""
    ra = np.linalg.norm(curve.at(0.0).mat - curve.a.mat)
    rb = np.linalg.norm(curve.at(1.0).mat - curve.b.mat)
    return float(
        max(
            ra / max(np.linalg.norm(curve.a.mat), 1e-300),
            rb / max(np.linalg.norm(curve.b.mat), 1e-300),
        )
    )
