"""Randomized property suites behind the `validate` CLI command.

Each suite draws inputs from a seeded generator and checks one family of
guarantees: metric axioms on matrices and regularized operators, the
comparison inequality against the power Euclidean distance, the small-alpha
limit at alpha 1e-3 and 1e-4, the generalized Lyapunov solve, and the
geodesic length.  Each check goes through `SuiteResult.check` as the
condition that must hold, so a NaN fails it; a failure carries a printable
witness so a reported seed reproduces it exactly.  The random-input
generators are public so the test suite draws from them too.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

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
    log_euclidean,
    power_euclidean,
)

METRIC_ALPHAS = (
    AlphaParam(-1.0), AlphaParam.log_limit(), AlphaParam(0.5), AlphaParam(1.0), AlphaParam(2.0)
)

# Gates of the randomized suites.  IDENTITY_TOL sits above the sqrt(eps)
# cancellation level of the trace formula at identical arguments; distinct
# pairs must clear SEPARATION_MIN, which enforces that zero implies equal.
# The two Lyapunov gates sit ~10x above the worst residuals over seeds 0-39
# at 50 trials (4.1e-13 forward, 4.8e-15 at alpha 1/2).
TRIANGLE_SLACK = -1e-9
SYMMETRY_REL = 1e-9
IDENTITY_TOL = 1e-5
SEPARATION_MIN = 1e-6
ALT_UPPER = 1e-10
ALT_NONCOMMUTING_GAP = 1e-6
ALT_COMMUTING = 1e-10
LIMIT_FINAL_REL = 1e-3
LYAPUNOV_REL = 4e-12
LYAPUNOV_HALF_REL = 5e-14
GEODESIC_ENDPOINT_REL = 1e-9
GEODESIC_LENGTH_REL = 1e-11


@dataclass
class SuiteResult:
    name: str
    seed: int
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, trial: int, what: str, detail: Callable[[], str]) -> None:
        """Count one check whose condition ``ok`` must hold (NaN fails); on failure
        record a witness, calling ``detail`` for its text."""
        self.checks += 1
        if not ok:
            self.failures.append(f"seed={self.seed} trial={trial} {what}: {detail()}")


def rand_spd(rng: np.random.Generator, n: int, lo: float = 0.3, hi: float = 3.0) -> SpdMatrix:
    """Random SPD matrix Q diag(w) Q' with w uniform on [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = rng.uniform(lo, hi, n)
    return SpdMatrix.from_array((q * w) @ q.T)


def rand_sym(rng: np.random.Generator, n: int) -> SymMatrix:
    """Random symmetric matrix with standard normal entries before symmetrizing."""
    return SymMatrix.from_array(rng.standard_normal((n, n)))


def commuting_pair(rng: np.random.Generator, n: int) -> tuple[SpdMatrix, SpdMatrix]:
    """Two random SPD matrices sharing one eigenbasis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w1 = rng.uniform(0.3, 3.0, n)
    w2 = rng.uniform(0.3, 3.0, n)
    return SpdMatrix.from_array((q * w1) @ q.T), SpdMatrix.from_array((q * w2) @ q.T)


def noncommuting_pair(rng: np.random.Generator, n: int) -> tuple[SpdMatrix, SpdMatrix]:
    """Pair bounded away from the commuting locus, where the strict
    comparison gap degenerates: |AB - BA|_F >= 0.05 |A|_F |B|_F."""
    while True:
        a, b = rand_spd(rng, n), rand_spd(rng, n)
        comm = np.linalg.norm(a.mat @ b.mat - b.mat @ a.mat)
        if comm >= 0.05 * np.linalg.norm(a.mat) * np.linalg.norm(b.mat):
            return a, b


def _show(m) -> str:
    """Witness text of a matrix."""
    return np.array2string(m.mat, precision=4)


def metric_axioms_suite(seed: int, trials: int) -> SuiteResult:
    """Symmetry, identity of indiscernibles, and the triangle inequality for
    matrices and regularized operators across the alpha set.  Not for Gaussians:
    hypot(d_mean, d_cov / 2) is a metric wherever d_cov is one (Minkowski)."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("metric-axioms", seed)
    gamma = 0.1
    for trial in range(trials):
        n = int(rng.integers(2, 6))
        mats = [rand_spd(rng, n) for _ in range(3)]
        alpha = METRIC_ALPHAS[trial % len(METRIC_ALPHAS)]
        families = {
            "matrix": lambda i, j: alpha_procrustes(mats[i], mats[j], alpha).value,
            "regularized": lambda i, j: alpha_procrustes_regularized(
                mats[i], mats[j], gamma, alpha
            ).value,
        }
        for family, dist in families.items():
            d01, d10 = dist(0, 1), dist(1, 0)
            d12, d02, d00 = dist(1, 2), dist(0, 2), dist(0, 0)
            scale = max(d01, d10, 1e-300)
            result.check(abs(d01 - d10) <= SYMMETRY_REL * scale, trial, f"{family} symmetry",
                         lambda: f"{d01} vs {d10}")
            result.check(d00 <= IDENTITY_TOL, trial, f"{family} identity",
                         lambda: f"d(A,A)={d00}")
            result.check(d01 > SEPARATION_MIN, trial, f"{family} separation",
                         lambda: f"d={d01} for distinct inputs")
            slack = d01 + d12 - d02
            result.check(slack >= TRIANGLE_SLACK, trial,
                         f"{family} triangle (alpha={alpha.label()})",
                         lambda: f"slack={slack:.3e} A={_show(mats[0])}")
    return result


def alt_inequality_suite(seed: int, trials: int) -> SuiteResult:
    """Family distance never exceeds the power Euclidean distance; the gap is
    strictly positive off the commuting locus and vanishes on it."""
    rng = np.random.default_rng(seed + 1)
    result = SuiteResult("alt-inequality", seed)
    alphas = (-1.0, 0.5, 0.7, 2.0)
    for trial in range(trials):
        n = int(rng.integers(2, 6))
        alpha = alphas[trial % len(alphas)]
        a, b = noncommuting_pair(rng, n)
        d_pro = alpha_procrustes(a, b, alpha).value
        d_pow = power_euclidean(a, b, alpha).value
        result.check(d_pro <= d_pow + ALT_UPPER, trial, f"upper bound (alpha={alpha})",
                     lambda: f"{d_pro} > {d_pow}")
        result.check(d_pow - d_pro > ALT_NONCOMMUTING_GAP, trial,
                     f"non-commuting gap (alpha={alpha})",
                     lambda: f"gap={d_pow - d_pro:.3e} A={_show(a)}")
        ca, cb = commuting_pair(rng, n)
        d_pro_c = alpha_procrustes(ca, cb, alpha).value
        d_pow_c = power_euclidean(ca, cb, alpha).value
        result.check(abs(d_pro_c - d_pow_c) <= ALT_COMMUTING * max(1.0, d_pow_c), trial,
                     f"commuting equality (alpha={alpha})", lambda: f"|{d_pro_c} - {d_pow_c}|")
    return result


def limit_checks_suite(seed: int, trials: int) -> SuiteResult:
    """Log-Euclidean gap shrinking from alpha 1e-3 to 1e-4 (from 1e-2 it need not, even in exact
    arithmetic); no alpha = 1/2 check, since ``bures_wasserstein`` is that member halved."""
    rng = np.random.default_rng(seed + 2)
    result = SuiteResult("limit-checks", seed)
    for trial in range(trials):
        n = int(rng.integers(2, 6))
        a, b = rand_spd(rng, n), rand_spd(rng, n)
        d_log = log_euclidean(a, b).value
        gaps = [abs(alpha_procrustes(a, b, al).value - d_log) for al in (1e-3, 1e-4)]
        result.check(gaps[0] > gaps[1], trial, "gap monotonicity",
                     lambda: f"gaps={gaps}")
        result.check(gaps[-1] < LIMIT_FINAL_REL * d_log, trial, "final gap",
                     lambda: f"{gaps[-1]} vs {d_log}")
    return result


def lyapunov_forward_map(p0: SpdMatrix, h: SymMatrix, alpha: float) -> SymMatrix:
    """Dexp(log P0) o Dlog(P0^2a) (H P0^2a + P0^2a H): the map solve_general_lyapunov inverts."""
    p2a = spd_power(p0, 2.0 * alpha)
    w = SymMatrix.from_array(h.mat @ p2a.mat + p2a.mat @ h.mat)
    inner = loewner_apply(p2a.eig, "log", w)
    return loewner_apply(sym_eigendecompose(spd_log(p0)), "exp", inner)


def lyapunov_suite(seed: int, trials: int) -> SuiteResult:
    """Forward-map residual of the generalized Lyapunov solve, plus the plain
    Lyapunov identity at alpha = 1/2."""
    rng = np.random.default_rng(seed + 3)
    result = SuiteResult("lyapunov-residual", seed)
    for trial in range(trials):
        n = int(rng.integers(2, 6))
        p0 = rand_spd(rng, n)
        y = rand_sym(rng, n)
        alpha = float(rng.uniform(-2.0, 2.0))
        if abs(alpha) < 0.05:
            alpha = 0.25
        forward = lyapunov_forward_map(p0, solve_general_lyapunov(p0, y, alpha), alpha)
        residual = np.linalg.norm(forward.mat - y.mat) / np.linalg.norm(y.mat)
        result.check(residual <= LYAPUNOV_REL, trial, f"forward residual (alpha={alpha:.3f})",
                     lambda: f"{residual:.3e} P0={_show(p0)}")
        h_half = solve_general_lyapunov(p0, y, 0.5)
        res_half = np.linalg.norm(h_half.mat @ p0.mat + p0.mat @ h_half.mat - y.mat)
        res_half /= np.linalg.norm(y.mat)
        result.check(res_half <= LYAPUNOV_HALF_REL, trial, "alpha=1/2 Lyapunov",
                     lambda: f"{res_half:.3e}")
    return result


def geodesic_suite(seed: int, trials: int) -> SuiteResult:
    """Endpoint reconstruction and numeric-length agreement for the geodesic.

    The trial count is capped: each length integral costs 40 eigensolves,
    and a handful of curves already exercises the construction.
    """
    rng = np.random.default_rng(seed + 4)
    result = SuiteResult("geodesic-length", seed)
    alphas = (0.25, 0.5, 1.0)
    for trial in range(min(trials, 9)):
        n = int(rng.integers(2, 6))
        alpha = alphas[trial % len(alphas)]
        curve = GeodesicCurve(rand_spd(rng, n), rand_spd(rng, n), alpha)
        res = geodesic_endpoints_residual(curve)
        result.check(res <= GEODESIC_ENDPOINT_REL, trial, "endpoint residual",
                     lambda: f"{res:.3e}")
        d_closed = alpha_procrustes(curve.a, curve.b, alpha).value
        d_num = geodesic_length_numeric(curve)
        result.check(abs(d_num - d_closed) / d_closed <= GEODESIC_LENGTH_REL, trial,
                     f"length mismatch (alpha={alpha})",
                     lambda: f"numeric={d_num} closed={d_closed}")
    return result


def run_all_suites(seed: int, trials: int) -> list[SuiteResult]:
    return [
        metric_axioms_suite(seed, trials),
        alt_inequality_suite(seed, trials),
        limit_checks_suite(seed, trials),
        lyapunov_suite(seed, trials),
        geodesic_suite(seed, trials),
    ]
