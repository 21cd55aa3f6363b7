"""The Alpha Procrustes distance family on SPD/PSD matrices.

One parameter alpha interpolates the classical geometries: alpha = 1/2 gives
twice the Bures-Wasserstein distance, the alpha -> 0 limit is the
Log-Euclidean distance, and on commuting pairs the family coincides with the
power Euclidean distance.  A ridge gamma*I extends every formula to the
regularized setting used for covariance operators.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionError,
    DomainError,
    NumericalInconsistencyError,
)
from .linalg import (
    ALPHA_SWITCH_TOL,
    AlphaParam,
    SpdMatrix,
    as_alpha,
    spd_log,
    spd_power,
    trace_sqrt_triple,
)

# The trace argument of the square root may dip below zero by roundoff; clamp
# when |negative| < NEG_TRACE_RTOL * (tr A^2a + tr B^2a), else raise.
NEG_TRACE_RTOL = 1e-9

# Commutator norm below COMMUTE_RTOL * |A|_F * |B|_F flags the commuting
# diagnostic; the value is recorded, never branched on.
COMMUTE_RTOL = 1e-12


@dataclass(frozen=True)
class DistanceResult:
    """A computed distance plus the configuration that produced it.

    ``formula_path`` is diagnostic only ("general", "log-limit" or
    "commuting"); the same authoritative formula is used either way.
    """

    value: float
    alpha: AlphaParam
    gamma: float = 0.0
    formula_path: str = "general"

    def __float__(self) -> float:
        return self.value


def _check_dims(a: SpdMatrix, b: SpdMatrix) -> None:
    if a.n != b.n:
        raise DimensionError(f"matrix dimensions differ: {a.n} vs {b.n}")


def _commutes(a: SpdMatrix, b: SpdMatrix) -> bool:
    scale = np.linalg.norm(a.mat) * np.linalg.norm(b.mat)
    comm = a.mat @ b.mat - b.mat @ a.mat
    return bool(np.linalg.norm(comm) <= COMMUTE_RTOL * max(scale, 1e-300))


def _sqrt_clamped(trace_arg: float, scale: float) -> float:
    if trace_arg < 0.0:
        if -trace_arg >= NEG_TRACE_RTOL * max(scale, 1.0e-300):
            raise NumericalInconsistencyError(
                f"trace argument {trace_arg:.6e} is negative beyond the "
                f"roundoff clamp ({NEG_TRACE_RTOL:.0e} * {scale:.6e})"
            )
        trace_arg = 0.0
    return math.sqrt(trace_arg)


def _log_distance(a: SpdMatrix, b: SpdMatrix) -> float:
    """|log A - log B|_F for strictly SPD A, B."""
    return float(np.linalg.norm(spd_log(a).mat - spd_log(b).mat))


def _general_family_value(a: SpdMatrix, b: SpdMatrix, alpha: float) -> float:
    """(1/|a|) sqrt(tr[A^2a + B^2a - 2 (A^a B^2a A^a)^(1/2)])."""
    ta = a.trace_power(2.0 * alpha)
    tb = b.trace_power(2.0 * alpha)
    cross = trace_sqrt_triple(a, b, alpha)
    return _sqrt_clamped(ta + tb - 2.0 * cross, ta + tb) / abs(alpha)


def alpha_procrustes(a: SpdMatrix, b: SpdMatrix, alpha) -> DistanceResult:
    """Alpha Procrustes distance between PSD matrices.

    General mode evaluates the closed form
    ``(1/|a|) * sqrt(tr[A^2a + B^2a - 2 (A^a B^2a A^a)^(1/2)])``; log-limit
    mode evaluates ``|log A - log B|_F``.  Strictly positive input is
    required for alpha <= 0 (including the log-limit).

    Parameters
    ----------
    a, b : SpdMatrix
        Endpoints; PSD is fine for alpha > 0.
    alpha : float or AlphaParam
        Family parameter; |alpha| < 1e-7 routes to the log-limit.
    """
    _check_dims(a, b)
    al = as_alpha(alpha)
    if al.is_log_limit:
        a.require_strict("log-limit distance")
        b.require_strict("log-limit distance")
        value = _log_distance(a, b)
        return DistanceResult(value, al, 0.0, "log-limit")
    if al.value < 0:
        a.require_strict("negative alpha")
        b.require_strict("negative alpha")
    value = _general_family_value(a, b, al.value)
    path = "commuting" if _commutes(a, b) else "general"
    return DistanceResult(value, al, 0.0, path)


def bures_wasserstein(a: SpdMatrix, b: SpdMatrix) -> DistanceResult:
    """Bures-Wasserstein distance sqrt(tr[A + B - 2 (A^(1/2) B A^(1/2))^(1/2)]).

    Equals half the family distance at alpha = 1/2.
    """
    _check_dims(a, b)
    ta, tb = a.trace(), b.trace()
    cross = trace_sqrt_triple(a, b, 0.5)
    value = _sqrt_clamped(ta + tb - 2.0 * cross, ta + tb)
    path = "commuting" if _commutes(a, b) else "general"
    return DistanceResult(value, AlphaParam(0.5), 0.0, path)


def log_euclidean(a: SpdMatrix, b: SpdMatrix) -> DistanceResult:
    """Log-Euclidean distance |log A - log B|_F on strictly SPD matrices."""
    _check_dims(a, b)
    a.require_strict("log-Euclidean distance")
    b.require_strict("log-Euclidean distance")
    value = _log_distance(a, b)
    return DistanceResult(value, AlphaParam.log_limit(), 0.0, "log-limit")


def power_euclidean(a: SpdMatrix, b: SpdMatrix, alpha: float) -> DistanceResult:
    """Power Euclidean distance |A^a - B^a|_F / |a|.

    Upper bound of the family distance, with equality exactly on commuting
    pairs.  |alpha| below the switch tolerance routes to the log-Euclidean
    limit, matching the family convention.
    """
    _check_dims(a, b)
    if alpha == 0.0:
        raise DomainError("power Euclidean distance needs alpha != 0")
    if abs(alpha) < ALPHA_SWITCH_TOL:
        value = log_euclidean(a, b).value
        return DistanceResult(value, AlphaParam(alpha), 0.0, "log-limit")
    if alpha < 0:
        a.require_strict("negative alpha")
        b.require_strict("negative alpha")
    diff = spd_power(a, alpha).mat - spd_power(b, alpha).mat
    value = float(np.linalg.norm(diff)) / abs(alpha)
    path = "commuting" if _commutes(a, b) else "general"
    return DistanceResult(value, AlphaParam(alpha), 0.0, path)


def alpha_procrustes_regularized(
    a: SpdMatrix, b: SpdMatrix, gamma: float, alpha
) -> DistanceResult:
    """Family distance between the ridge-shifted matrices A + gamma*I, B + gamma*I.

    The finite-dimensional form of the distance between regularized
    operators; gamma > 0 makes both arguments strictly positive, so every
    alpha (including the log-limit) is admissible for PSD input.
    """
    _check_dims(a, b)
    if gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    al = as_alpha(alpha)
    ar = a.add_ridge(gamma)
    br = b.add_ridge(gamma)
    if al.is_log_limit:
        value = _log_distance(ar, br)
        return DistanceResult(value, al, gamma, "log-limit")
    value = _general_family_value(ar, br, al.value)
    path = "commuting" if _commutes(ar, br) else "general"
    return DistanceResult(value, al, gamma, path)


def _rotation(theta: float, reflect: bool) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    u = np.array([[c, -s], [s, c]])
    if reflect:
        u = u @ np.diag([1.0, -1.0])
    return u


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(fn, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Minimize a unimodal scalar function on [lo, hi] to width tol."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
    return min(f1, f2)


def procrustes_bruteforce_2x2(
    a: SpdMatrix, b: SpdMatrix, alpha: float, grid_size: int = 720
) -> float:
    """Direct minimization of |A^a - B^a U|_F / |a| over the full group O(2).

    Verification oracle for the closed form: both connected components of
    O(2) (rotations, and rotations composed with diag(1, -1)) are scanned on
    a uniform theta grid, then the best bracket is refined by golden-section
    search to 1e-10 in theta.
    """
    if a.n != 2 or b.n != 2:
        raise DimensionError("brute-force oracle is 2x2 only")
    if grid_size < 360:
        raise DomainError("grid_size must be at least 360")
    if alpha == 0.0:
        raise DomainError("alpha must be nonzero")
    if alpha < 0:
        a.require_strict("negative alpha")
        b.require_strict("negative alpha")
    a_pow = spd_power(a, alpha).mat
    b_pow = spd_power(b, alpha).mat

    best = math.inf
    thetas = np.linspace(0.0, 2.0 * math.pi, grid_size, endpoint=False)
    step = 2.0 * math.pi / grid_size
    for reflect in (False, True):
        cost = lambda t: float(  # noqa: E731
            np.linalg.norm(a_pow - b_pow @ _rotation(t, reflect))
        )
        values = [cost(t) for t in thetas]
        k = int(np.argmin(values))
        refined = _golden_section(cost, thetas[k] - step, thetas[k] + step)
        best = min(best, refined)
    return best / abs(alpha)


def _thread_cap() -> int:
    env = os.environ.get("ALPHA_PROC_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)


def pairwise_distances(mats: list[SpdMatrix], alpha, metric=alpha_procrustes) -> np.ndarray:
    """Symmetric matrix of pairwise distances, parallelized over pairs.

    The worker count is capped by the ALPHA_PROC_THREADS environment
    variable.  No ordering is guaranteed on progress; the result is
    deterministic.
    """
    k = len(mats)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    out = np.zeros((k, k))

    def compute(pair):
        i, j = pair
        return i, j, metric(mats[i], mats[j], alpha).value

    with ThreadPoolExecutor(max_workers=_thread_cap()) as pool:
        for i, j, value in pool.map(compute, pairs):
            out[i, j] = out[j, i] = value
    return out
