"""Randomized property suites behind the `validate` CLI command.

Each suite draws inputs from a seeded generator and checks one family of
guarantees: metric axioms, the comparison inequality against the power
Euclidean distance, the small-alpha limits, the generalized Lyapunov solve,
and the geodesic length.  Failures carry a printable witness so a reported
seed reproduces them exactly.  The random-input generators are public so
the test suite draws its inputs from the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussian import GaussianMeasure, gaussian_alpha_distance
from .geometry import (
    GeodesicCurve,
    geodesic_endpoints_residual,
    geodesic_length_numeric,
    solve_general_lyapunov,
)
from .linalg import (
    AlphaParam,
    SpdMatrix,
    SymMatrix,
    loewner_apply,
    spd_log,
    spd_power,
    sym_eigendecompose,
)
from .metrics import (
    alpha_procrustes,
    alpha_procrustes_regularized,
    bures_wasserstein,
    log_euclidean,
    power_euclidean,
)

METRIC_ALPHAS = (
    AlphaParam(-1.0),
    AlphaParam.log_limit(),
    AlphaParam(0.5),
    AlphaParam(1.0),
    AlphaParam(2.0),
)


@dataclass
class Tolerances:
    """Gates for the randomized suites; loosened or broken only by tests.

    identity_tol sits above the sqrt(eps) cancellation floor of the trace
    formula evaluated at identical arguments; the zero-implies-equal
    direction is enforced through separation_min on distinct pairs.
    """

    triangle_slack: float = -1e-9
    symmetry_rel: float = 1e-9
    identity_tol: float = 1e-5
    separation_min: float = 1e-6
    alt_upper: float = 1e-10
    alt_noncommuting_gap: float = 1e-6
    alt_commuting: float = 1e-10
    bw_half_rel: float = 1e-10
    limit_final_rel: float = 1e-3
    lyapunov_rel: float = 1e-9
    lyapunov_half_rel: float = 1e-10
    geodesic_endpoint_rel: float = 1e-9
    geodesic_length_rel: float = 1e-2


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)


def rand_spd(rng: np.random.Generator, n: int, lo: float = 0.3, hi: float = 3.0) -> SpdMatrix:
    """Random SPD matrix Q diag(w) Q' with w uniform on [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = rng.uniform(lo, hi, n)
    return SpdMatrix.from_array((q * w) @ q.T)


def rand_sym(rng: np.random.Generator, n: int) -> SymMatrix:
    """Random symmetric matrix with standard normal entries before symmetrizing."""
    m = rng.standard_normal((n, n))
    return SymMatrix.from_array((m + m.T) / 2.0)


def commuting_pair(rng: np.random.Generator, n: int) -> tuple[SpdMatrix, SpdMatrix]:
    """Two random SPD matrices sharing one eigenbasis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w1 = rng.uniform(0.3, 3.0, n)
    w2 = rng.uniform(0.3, 3.0, n)
    return (
        SpdMatrix.from_array((q * w1) @ q.T),
        SpdMatrix.from_array((q * w2) @ q.T),
    )


def noncommuting_pair(
    rng: np.random.Generator, n: int, floor: float = 0.05
) -> tuple[SpdMatrix, SpdMatrix]:
    """Pair bounded away from the commuting locus, where the strict
    comparison gap degenerates."""
    while True:
        a, b = rand_spd(rng, n), rand_spd(rng, n)
        comm = np.linalg.norm(a.mat @ b.mat - b.mat @ a.mat)
        if comm >= floor * np.linalg.norm(a.mat) * np.linalg.norm(b.mat):
            return a, b


def _witness(seed: int, trial: int, what: str, detail: str) -> str:
    return f"seed={seed} trial={trial} {what}: {detail}"


def metric_axioms_suite(seed: int, trials: int, tol: Tolerances) -> SuiteResult:
    """Symmetry, identity of indiscernibles, and the triangle inequality for
    matrices, Gaussians, and regularized operators across the alpha set."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("metric-axioms")
    gamma = 0.1
    for trial in range(trials):
        n = int(rng.integers(2, 6))
        mats = [rand_spd(rng, n) for _ in range(3)]
        means = [rng.standard_normal(n) for _ in range(3)]
        alpha = METRIC_ALPHAS[trial % len(METRIC_ALPHAS)]

        families = {
            "matrix": lambda i, j: alpha_procrustes(mats[i], mats[j], alpha).value,
            "gaussian": lambda i, j: gaussian_alpha_distance(
                GaussianMeasure.from_arrays(means[i], mats[i]),
                GaussianMeasure.from_arrays(means[j], mats[j]),
                alpha,
            ),
            "regularized": lambda i, j: alpha_procrustes_regularized(
                mats[i], mats[j], gamma, alpha
            ).value,
        }
        for family, dist in families.items():
            d01, d10 = dist(0, 1), dist(1, 0)
            d12, d02 = dist(1, 2), dist(0, 2)
            result.checks += 4
            scale = max(d01, d10, 1e-300)
            if abs(d01 - d10) > tol.symmetry_rel * scale:
                result.fail(
                    _witness(seed, trial, f"{family} symmetry", f"{d01} vs {d10}")
                )
            if dist(0, 0) > tol.identity_tol:
                result.fail(
                    _witness(seed, trial, f"{family} identity", f"d(A,A)={dist(0, 0)}")
                )
            if d01 <= tol.separation_min:
                result.fail(
                    _witness(
                        seed, trial, f"{family} separation",
                        f"d={d01} for distinct inputs",
                    )
                )
            slack = d01 + d12 - d02
            if slack < tol.triangle_slack:
                result.fail(
                    _witness(
                        seed,
                        trial,
                        f"{family} triangle (alpha={alpha.label()})",
                        f"slack={slack:.3e} A={np.array2string(mats[0].mat, precision=4)}",
                    )
                )
    return result


def alt_inequality_suite(seed: int, trials: int, tol: Tolerances) -> SuiteResult:
    """Family distance never exceeds the power Euclidean distance; the gap is
    strictly positive off the commuting locus and vanishes on it."""
    rng = np.random.default_rng(seed + 1)
    result = SuiteResult("alt-inequality")
    alphas = (-1.0, 0.5, 0.7, 2.0)
    for trial in range(trials):
        n = int(rng.integers(2, 6))
        alpha = alphas[trial % len(alphas)]
        a, b = noncommuting_pair(rng, n)
        d_pro = alpha_procrustes(a, b, alpha).value
        d_pow = power_euclidean(a, b, alpha).value
        result.checks += 2
        if d_pro > d_pow + tol.alt_upper:
            result.fail(
                _witness(seed, trial, f"upper bound (alpha={alpha})", f"{d_pro} > {d_pow}")
            )
        if d_pow - d_pro <= tol.alt_noncommuting_gap:
            result.fail(
                _witness(
                    seed,
                    trial,
                    f"non-commuting gap (alpha={alpha})",
                    f"gap={d_pow - d_pro:.3e} A={np.array2string(a.mat, precision=4)}",
                )
            )
        ca, cb = commuting_pair(rng, n)
        d_pro_c = alpha_procrustes(ca, cb, alpha).value
        d_pow_c = power_euclidean(ca, cb, alpha).value
        result.checks += 1
        if abs(d_pro_c - d_pow_c) > tol.alt_commuting * max(1.0, d_pow_c):
            result.fail(
                _witness(
                    seed, trial, f"commuting equality (alpha={alpha})",
                    f"|{d_pro_c} - {d_pow_c}|",
                )
            )
    return result


def limit_checks_suite(seed: int, trials: int, tol: Tolerances) -> SuiteResult:
    """Small-alpha convergence to the log-Euclidean distance and the exact
    factor-of-two link to the Bures-Wasserstein distance at alpha = 1/2."""
    rng = np.random.default_rng(seed + 2)
    result = SuiteResult("limit-checks")
    for trial in range(trials):
        n = int(rng.integers(2, 6))
        a, b = rand_spd(rng, n), rand_spd(rng, n)
        d_log = log_euclidean(a, b).value
        gaps = [
            abs(alpha_procrustes(a, b, al).value - d_log)
            for al in (1e-2, 1e-3, 1e-4)
        ]
        result.checks += 2
        if not (gaps[0] > gaps[1] > gaps[2]):
            result.fail(_witness(seed, trial, "gap monotonicity", f"gaps={gaps}"))
        if gaps[-1] >= tol.limit_final_rel * d_log:
            result.fail(
                _witness(seed, trial, "final gap", f"{gaps[-1]} vs {d_log}")
            )
        d_half = alpha_procrustes(a, b, 0.5).value
        d_bw = bures_wasserstein(a, b).value
        result.checks += 1
        if abs(d_half - 2.0 * d_bw) > tol.bw_half_rel * max(d_half, 1e-300):
            result.fail(
                _witness(seed, trial, "alpha=1/2 coincidence", f"{d_half} vs 2*{d_bw}")
            )
    return result


def lyapunov_suite(seed: int, trials: int, tol: Tolerances) -> SuiteResult:
    """Forward-map residual of the generalized Lyapunov solve, plus the plain
    Lyapunov identity at alpha = 1/2."""
    rng = np.random.default_rng(seed + 3)
    result = SuiteResult("lyapunov-residual")
    for trial in range(trials):
        n = int(rng.integers(2, 6))
        p0 = rand_spd(rng, n)
        y = rand_sym(rng, n)
        alpha = float(rng.uniform(-2.0, 2.0))
        if abs(alpha) < 0.05:
            alpha = 0.25
        h = solve_general_lyapunov(p0, y, alpha)
        p2a = spd_power(p0, 2.0 * alpha)
        w = SymMatrix.from_array(h.mat @ p2a.mat + p2a.mat @ h.mat)
        inner = loewner_apply(p2a.eig, "log", w)
        forward = loewner_apply(sym_eigendecompose(spd_log(p0)), "exp", inner)
        residual = np.linalg.norm(forward.mat - y.mat) / np.linalg.norm(y.mat)
        result.checks += 1
        if residual > tol.lyapunov_rel:
            result.fail(
                _witness(
                    seed, trial, f"forward residual (alpha={alpha:.3f})",
                    f"{residual:.3e} P0={np.array2string(p0.mat, precision=4)}",
                )
            )
        h_half = solve_general_lyapunov(p0, y, 0.5)
        res_half = np.linalg.norm(
            h_half.mat @ p0.mat + p0.mat @ h_half.mat - y.mat
        ) / np.linalg.norm(y.mat)
        result.checks += 1
        if res_half > tol.lyapunov_half_rel:
            result.fail(_witness(seed, trial, "alpha=1/2 Lyapunov", f"{res_half:.3e}"))
    return result


def geodesic_suite(
    seed: int, trials: int, tol: Tolerances, steps: int = 600
) -> SuiteResult:
    """Endpoint reconstruction and numeric-length agreement for the geodesic.

    The trial count is capped: each length integral costs `steps`
    evaluations, and a handful of curves already exercises the construction.
    """
    rng = np.random.default_rng(seed + 4)
    result = SuiteResult("geodesic-length")
    alphas = (0.25, 0.5, 1.0)
    for trial in range(min(trials, 9)):
        n = int(rng.integers(2, 6))
        alpha = alphas[trial % len(alphas)]
        curve = GeodesicCurve(rand_spd(rng, n), rand_spd(rng, n), alpha)
        result.checks += 2
        res = geodesic_endpoints_residual(curve)
        if res > tol.geodesic_endpoint_rel:
            result.fail(_witness(seed, trial, "endpoint residual", f"{res:.3e}"))
        d_closed = alpha_procrustes(curve.a, curve.b, alpha).value
        d_num = geodesic_length_numeric(curve, steps)
        rel = abs(d_num - d_closed) / d_closed
        if rel > tol.geodesic_length_rel:
            result.fail(
                _witness(
                    seed, trial, f"length mismatch (alpha={alpha})",
                    f"numeric={d_num} closed={d_closed}",
                )
            )
    return result


def run_all_suites(
    seed: int,
    trials: int,
    tol: Tolerances | None = None,
    geodesic_steps: int = 600,
) -> list[SuiteResult]:
    tol = tol or Tolerances()
    return [
        metric_axioms_suite(seed, trials, tol),
        alt_inequality_suite(seed, trials, tol),
        limit_checks_suite(seed, trials, tol),
        lyapunov_suite(seed, trials, tol),
        geodesic_suite(seed, trials, tol, steps=geodesic_steps),
    ]
