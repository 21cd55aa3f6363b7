"""The Alpha Procrustes distance family on SPD/PSD matrices.

One parameter alpha interpolates the classical geometries: alpha = 1/2 gives
twice the Bures-Wasserstein distance, the alpha -> 0 limit is the
Log-Euclidean distance, and on commuting pairs the family coincides with the
power Euclidean distance.  A ridge gamma*I extends every formula to the
regularized setting used for covariance operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .exceptions import DimensionError, DomainError, NumericalInconsistencyError
from .linalg import AlphaParam, SpdMatrix, as_alpha, spd_log, spd_power, trace_sqrt
from .linalg import _check_dims, _check_type, _finite, _finite_real

# The trace argument of the square root may dip below zero by roundoff; clamp
# when |negative| < NEG_TRACE_RTOL * (|tr A^2a| + |tr B^2a|), else raise.
NEG_TRACE_RTOL = 1e-9

# Commutator norm below COMMUTE_RTOL * |A|_F * |B|_F flags the commuting
# diagnostic; the value is recorded, never branched on.
COMMUTE_RTOL = 1e-12


@dataclass(frozen=True)
class DistanceResult:
    """A computed distance plus the configuration that produced it.

    ``formula_path`` is diagnostic only ("general", "log-limit" or
    "commuting"); the same authoritative formula is used either way.  It is
    worked out on first read from the endpoints the distance was evaluated
    on, so computing a distance never pays for it.
    """

    value: float
    alpha: AlphaParam
    gamma: float = 0.0
    _endpoints: tuple = field(default=(), repr=False, compare=False)

    def __float__(self) -> float:
        return self.value

    @cached_property
    def formula_path(self) -> str:
        if self.alpha.is_log_limit:
            return "log-limit"
        if self._endpoints and _commutes(*self._endpoints):
            return "commuting"
        return "general"


def _commutes(a: SpdMatrix, b: SpdMatrix) -> bool:
    scale = np.linalg.norm(a.mat) * np.linalg.norm(b.mat)
    comm = a.mat @ b.mat - b.mat @ a.mat
    return bool(np.linalg.norm(comm) <= COMMUTE_RTOL * max(scale, 1e-300))


def _trace_form(ta: float, tb: float, cross: float, alpha: float) -> float:
    """(1/|a|) sqrt(ta + tb - 2 cross): every trace-form value, matrix or Gram side.

    The log-limit passes alpha = 1; a negative argument is clamped per NEG_TRACE_RTOL.
    The argument is finite only if all three terms are, so one check covers them.
    """
    arg = ta + tb - 2.0 * cross
    _finite("trace form", arg)
    if arg < 0.0:
        scale = abs(ta) + abs(tb)
        if -arg >= NEG_TRACE_RTOL * max(scale, 1.0e-300):
            raise NumericalInconsistencyError(
                f"trace argument {arg:.6e} is negative beyond the "
                f"roundoff clamp ({NEG_TRACE_RTOL:.0e} * {scale:.6e})"
            )
        arg = 0.0
    return math.sqrt(arg) / abs(alpha)


def _optional_gamma(gamma) -> float:
    """The one reader of a caller's ridge: any real zero is 0.0, the unridged family.

    Anything else must be positive and finite (None, 0j and arrays raise DomainError).
    alpha_procrustes_regularized, whose ridge must be positive, refuses the 0.0.
    """
    if not (_finite_real(gamma) and gamma >= 0.0):
        raise DomainError(f"gamma must be positive and finite, got {gamma!r}")
    return gamma if gamma else 0.0


@np.errstate(over="ignore", invalid="ignore")  # as a decorator it costs half a with block
def _family(a: SpdMatrix, b: SpdMatrix, alpha, gamma: float = 0.0) -> DistanceResult:
    """The one evaluator of the family: each of its special cases calls it.

    gamma 0.0 evaluates A and B; otherwise gamma is a ridge its caller
    checked positive, and A + gamma*I and B + gamma*I are evaluated.
    """
    _check_dims((a, SpdMatrix), (b, SpdMatrix))
    al = as_alpha(alpha)
    if gamma:
        a, b = a.add_ridge(gamma), b.add_ridge(gamma)
    if al.is_log_limit:
        value = float(np.linalg.norm(spd_log(a).mat - spd_log(b).mat))
    else:
        p = al.value
        pa, pb = spd_power(a, p).mat, spd_power(b, 2.0 * p).mat
        ta, tb = (float(np.sum(x.eig.values ** (2.0 * p))) for x in (a, b))
        value = _trace_form(ta, tb, trace_sqrt(pa @ pb @ pa), p)
    return DistanceResult(value, al, gamma, (a, b))


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
    return _family(a, b, alpha)


def bures_wasserstein(a: SpdMatrix, b: SpdMatrix) -> DistanceResult:
    """Bures-Wasserstein distance sqrt(tr[A + B - 2 (A^(1/2) B A^(1/2))^(1/2)]).

    Half the family distance at alpha = 1/2, evaluated as such; the halving
    is exact, as is the doubling inside the family's 1/|alpha|.
    """
    result = _family(a, b, 0.5)
    return replace(result, value=result.value / 2.0)


def log_euclidean(a: SpdMatrix, b: SpdMatrix) -> DistanceResult:
    """Log-Euclidean distance |log A - log B|_F on strictly SPD matrices.

    The family's alpha -> 0 limit.
    """
    return _family(a, b, AlphaParam.log_limit())


def power_euclidean(a: SpdMatrix, b: SpdMatrix, alpha) -> DistanceResult:
    """Power Euclidean distance |A^a - B^a|_F / |a|.

    Upper bound of the family distance, with equality exactly on commuting
    pairs.  |alpha| < 1e-7, exact 0 and ``AlphaParam.log_limit()`` (the
    CLI's ``--alpha log-limit``) included, routes to its alpha -> 0 limit,
    the log-Euclidean distance.
    An overflowing power or distance raises NonFiniteError; the norm is taken rescaled.
    """
    _check_dims((a, SpdMatrix), (b, SpdMatrix))
    al = as_alpha(alpha)
    if al.is_log_limit:
        return replace(log_euclidean(a, b), alpha=al)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = spd_power(a, al.value).mat - spd_power(b, al.value).mat
        # scaled by the exact power of two of its largest entry: the squares
        # cannot overflow, and where they would not, the norm is bitwise equal
        _, e = np.frexp(np.max(np.abs(diff)))
        value = float(np.ldexp(np.linalg.norm(np.ldexp(diff, -e)), e)) / abs(al.value)
    _finite(f"power Euclidean distance at alpha {al.value}", value)
    return DistanceResult(value, al, 0.0, (a, b))


def alpha_procrustes_regularized(
    a: SpdMatrix, b: SpdMatrix, gamma: float, alpha
) -> DistanceResult:
    """Family distance between the ridge-shifted matrices A + gamma*I, B + gamma*I.

    The finite-dimensional form of the distance between regularized
    operators; gamma > 0 makes both arguments strictly positive, so every
    alpha (including the log-limit) is admissible for PSD input.  Any other
    gamma, 0 included, raises DomainError.
    """
    if not _optional_gamma(gamma):
        raise DomainError(f"gamma must be positive and finite, got {gamma!r}")
    return _family(a, b, alpha, gamma)


BRUTEFORCE_GRID = 720
BRUTEFORCE_TOL = 1e-10


def procrustes_bruteforce_2x2(a: SpdMatrix, b: SpdMatrix, alpha) -> float:
    """Direct minimization of |A^a - B^a U|_F / |a| over the full group O(2).

    Verification oracle for the closed form.  On each connected component of
    O(2), U = [[c, -f s], [s, f c]] with f = +1 or -1, the cost is scored on
    BRUTEFORCE_GRID steps of theta spanning 2 pi, then again across the two
    steps around the best angle (not wrapped into [0, 2 pi]), until that
    bracket is narrower than BRUTEFORCE_TOL.  It has no log-limit form:
    |alpha| < 1e-7 raises DomainError.
    """
    for x in (a, b):
        _check_type(x, SpdMatrix, "SpdMatrix.from_array")
    if a.n != 2 or b.n != 2:
        raise DimensionError("brute-force oracle is 2x2 only")
    al = as_alpha(alpha)
    if al.is_log_limit:
        raise DomainError(f"brute-force oracle has no log-limit form, got alpha {al.value}")
    a_pow, b_pow = (spd_power(x, al.value).mat for x in (a, b))
    best = math.inf
    for f in (1.0, -1.0):
        center, half = math.pi, math.pi
        while 2.0 * half > BRUTEFORCE_TOL:
            t = np.linspace(center - half, center + half, BRUTEFORCE_GRID, endpoint=False)
            c, s = np.cos(t), np.sin(t)
            u = np.array([[c, -f * s], [s, f * c]]).transpose(2, 0, 1)
            cost = np.linalg.norm(a_pow - b_pow @ u, axis=(1, 2))
            k = int(np.argmin(cost))
            center, half = t[k], t[1] - t[0]
        best = min(best, float(cost[k]))
    return best / abs(al.value)


def pairwise_distances(mats: list[SpdMatrix], alpha, metric=alpha_procrustes) -> np.ndarray:
    """Symmetric matrix of pairwise distances, one metric call per pair i < j."""
    k = len(mats)
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            out[i, j] = out[j, i] = metric(mats[i], mats[j], alpha).value
    return out
