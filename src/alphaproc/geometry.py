"""Riemannian structure behind the distance family.

The metric tensor at P0 is defined through a generalized Lyapunov equation:
H is the unique symmetric solution of

    Dexp(log P0) o Dlog(P0^2a) (H P0^2a + P0^2a H) = Y,

and <Y, Z>_P0 = 4 tr(H_Y P0^2a H_Z).  In the eigenbasis of P0 the composite
operator diagonalizes, so the solve is a single elementwise division.  The
connecting geodesic has the closed form

    g(t) = [(1-t)^2 A^2a + t^2 B^2a + t(1-t)((A^2a B^2a)^1/2 + (B^2a A^2a)^1/2)]^(1/2a)

whose length reproduces the closed-form distance; geodesic_length_numeric
validates that numerically with an independent finite-difference speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import DomainError, NonSpdIntermediateError
from .linalg import (
    ALPHA_SWITCH_TOL,
    DIVIDED_DIFF_TOL,
    SpdMatrix,
    SymMatrix,
    as_alpha,
    loewner_apply,
    psd_sqrt,
    psd_tolerance,
    spd_power,
    sym_eigendecompose,
)


@dataclass(frozen=True)
class TangentVector:
    """Symmetric direction attached to a strictly SPD base point."""

    base_point: SpdMatrix
    direction: SymMatrix

    def __post_init__(self):
        self.base_point.require_strict("tangent base point")
        if self.base_point.n != self.direction.n:
            raise DomainError("base point and direction dimensions differ")


def _lyapunov_factor(lam: np.ndarray, alpha: float) -> np.ndarray:
    """Eigenbasis divisor f(l_i, l_j) of the composite Lyapunov operator.

    f = 2a (l_i - l_j)(l_i^2a + l_j^2a) / (l_i^2a - l_j^2a) off-diagonal,
    with the removable-singularity limit f = 2 l_i on near-degenerate pairs.
    At alpha = 1/2 this collapses to l_i + l_j (the Lyapunov equation), and
    as alpha -> 0 to 2 (l_i - l_j) / (log l_i - log l_j).
    """
    li = lam[:, None]
    lj = lam[None, :]
    pi = li ** (2.0 * alpha)
    pj = lj ** (2.0 * alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = 2.0 * alpha * (li - lj) * (pi + pj) / (pi - pj)
    near = np.abs(li - lj) < DIVIDED_DIFF_TOL * np.maximum(1.0, li)
    return np.where(near, 2.0 * li, f)


def solve_general_lyapunov(p0: SpdMatrix, y: SymMatrix, alpha: float) -> SymMatrix:
    """Unique symmetric H with Dexp(log P0) o Dlog(P0^2a)(H P0^2a + P0^2a H) = Y."""
    if alpha == 0.0:
        raise DomainError("alpha must be nonzero; use the log-limit metric instead")
    p0.require_strict("generalized Lyapunov solve")
    if p0.n != y.n:
        raise DomainError("dimensions of P0 and Y differ")
    v = p0.eig.vectors
    y_tilde = v.T @ y.mat @ v
    h_tilde = y_tilde / _lyapunov_factor(p0.eig.values, alpha)
    return SymMatrix.from_array(v @ h_tilde @ v.T)


def metric_inner(p0: SpdMatrix, y: SymMatrix, z: SymMatrix, alpha) -> float:
    """Riemannian inner product <Y, Z>_P0 = 4 tr(H_Y P0^2a H_Z).

    The log-limit mode evaluates <Dlog(P0) Y, Dlog(P0) Z>_F, the
    Log-Euclidean metric.
    """
    al = as_alpha(alpha)
    p0.require_strict("metric inner product")
    if al.is_log_limit:
        ly = loewner_apply(p0.eig, "log", y)
        lz = ly if z is y else loewner_apply(p0.eig, "log", z)
        return float(np.trace(ly.mat @ lz.mat))
    hy = solve_general_lyapunov(p0, y, al.value)
    hz = hy if z is y else solve_general_lyapunov(p0, z, al.value)
    p2a = spd_power(p0, 2.0 * al.value).mat
    return 4.0 * float(np.trace(hy.mat @ p2a @ hz.mat))


@dataclass(frozen=True)
class GeodesicCurve:
    """Closed-form geodesic between two strictly SPD endpoints."""

    a: SpdMatrix
    b: SpdMatrix
    alpha: float

    def __post_init__(self):
        if abs(self.alpha) < ALPHA_SWITCH_TOL:
            raise DomainError("geodesic needs alpha != 0 (no log-limit form)")
        self.a.require_strict("geodesic endpoint")
        self.b.require_strict("geodesic endpoint")
        if self.a.n != self.b.n:
            raise DomainError("endpoint dimensions differ")

    @cached_property
    def _closed_form(self):
        """A^2a, B^2a and the symmetrized non-symmetric square root, built once."""
        a2 = spd_power(self.a, 2.0 * self.alpha).mat
        b2 = spd_power(self.b, 2.0 * self.alpha).mat
        a_pow = spd_power(self.a, self.alpha).mat
        a_inv = spd_power(self.a, -self.alpha).mat
        # (A^2a B^2a)^(1/2) = A^a (A^a B^2a A^a)^(1/2) A^-a; its transpose is
        # (B^2a A^2a)^(1/2), so the geodesic bracket needs s + s.T
        inner = SpdMatrix.from_array(a_pow @ b2 @ a_pow)
        s = a_pow @ psd_sqrt(inner).mat @ a_inv
        return a2, b2, s + s.T

    def _point(self, t: float) -> SpdMatrix:
        """g(t) for any real t: the bracket raised to 1/2a, no range check."""
        a2, b2, cross = self._closed_form
        bracket = (1.0 - t) ** 2 * a2 + t**2 * b2 + t * (1.0 - t) * cross
        eig = sym_eigendecompose(SymMatrix.from_array(bracket))
        if eig.min <= psd_tolerance(eig.max):
            raise NonSpdIntermediateError(
                f"geodesic bracket lost positivity at t={t} (min eig {eig.min:.3e})"
            )
        return SpdMatrix._from_eig(eig.values ** (1.0 / (2.0 * self.alpha)), eig.vectors)

    def at(self, t: float) -> SpdMatrix:
        """Point g(t) on the geodesic, t in [0, 1]; g(0) = A and g(1) = B."""
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"t must lie in [0, 1], got {t}")
        return self._point(t)


def geodesic_eval(curve: GeodesicCurve, t: float) -> SpdMatrix:
    """Point g(t) on the geodesic, t in [0, 1]; g(0) = A and g(1) = B."""
    return curve.at(t)


def geodesic_length_numeric(curve: GeodesicCurve, steps: int = 1000) -> float:
    """Length of the geodesic by midpoint quadrature of the metric speed.

    The velocity is a central difference with h equal to the step size (an
    independent differentiation path, deliberately not the analytic
    derivative), and the speed is measured with metric_inner at the curve
    point.  The grid t_j = (j - 1/2) h, j = 0..steps+1, is walked with three
    points alive, each evaluated once.  Converges to the closed-form
    distance as steps grows.
    """
    if steps < 100:
        raise DomainError("steps must be at least 100")
    dt = 1.0 / steps
    bwd, mid = curve._point(-0.5 * dt), curve._point(0.5 * dt)
    total = 0.0
    for j in range(2, steps + 2):
        fwd = curve._point((j - 0.5) * dt)
        velocity = SymMatrix.from_array((fwd.mat - bwd.mat) / (2.0 * dt))
        speed_sq = metric_inner(mid, velocity, velocity, curve.alpha)
        total += math.sqrt(max(speed_sq, 0.0)) * dt
        bwd, mid = mid, fwd
    return total


def geodesic_endpoints_residual(curve: GeodesicCurve) -> float:
    """Max relative reconstruction error of the endpoints, for diagnostics."""
    ra = np.linalg.norm(geodesic_eval(curve, 0.0).mat - curve.a.mat)
    rb = np.linalg.norm(geodesic_eval(curve, 1.0).mat - curve.b.mat)
    return float(
        max(
            ra / max(np.linalg.norm(curve.a.mat), 1e-300),
            rb / max(np.linalg.norm(curve.b.mat), 1e-300),
        )
    )
