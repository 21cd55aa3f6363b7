"""Every gate of the randomized suites can fail, and reports where it did."""

import numpy as np
import pytest
from conftest import mp_family

from alphaproc import validation
from alphaproc.linalg import AlphaParam, SymMatrix
from alphaproc.metrics import DistanceResult

SEED = 7

# gate constant -> (suite that reads it, check its witness names, impossible value)
GATES = {
    "TRIANGLE_SLACK": ("metric-axioms", "triangle", float("inf")),
    "SYMMETRY_REL": ("metric-axioms", "symmetry", -1.0),
    "IDENTITY_TOL": ("metric-axioms", "identity", -1.0),
    "SEPARATION_MIN": ("metric-axioms", "separation", float("inf")),
    "ALT_UPPER": ("alt-inequality", "upper bound", float("-inf")),
    "ALT_NONCOMMUTING_GAP": ("alt-inequality", "non-commuting gap", float("inf")),
    "ALT_COMMUTING": ("alt-inequality", "commuting equality", -1.0),
    "LIMIT_FINAL_REL": ("limit-checks", "final gap", -1.0),
    "LYAPUNOV_REL": ("lyapunov-residual", "forward residual", -1.0),
    "LYAPUNOV_HALF_REL": ("lyapunov-residual", "alpha=1/2 Lyapunov", -1.0),
    "GEODESIC_ENDPOINT_REL": ("geodesic-length", "endpoint residual", -1.0),
    "GEODESIC_LENGTH_REL": ("geodesic-length", "length mismatch", -1.0),
}


def test_every_gate_constant_is_covered():
    names = {name for name in vars(validation) if name.isupper()}
    assert names - {"METRIC_ALPHAS"} == set(GATES)


@pytest.mark.parametrize("gate", sorted(GATES))
def test_impossible_gate_fails_only_its_suite(monkeypatch, gate):
    suite, check, impossible = GATES[gate]
    monkeypatch.setattr(validation, gate, impossible)
    results = {r.name: r for r in validation.run_all_suites(SEED, 3)}
    assert not results[suite].passed
    for message in results[suite].failures:
        assert f"seed={SEED} " in message
        assert check in message
    assert all(r.passed for name, r in results.items() if name != suite)


@pytest.mark.parametrize("trials", [1, 5, 10])
def test_check_counts(trials):
    counts = {r.name: r.checks for r in validation.run_all_suites(SEED, trials)}
    assert counts == {
        "metric-axioms": 8 * trials,
        "alt-inequality": 3 * trials,
        "limit-checks": 2 * trials,
        "lyapunov-residual": 2 * trials,
        "geodesic-length": 2 * min(trials, 9),
    }


def test_limit_gap_shrinks_from_alpha_1e3_not_from_1e2():
    """Seed 12, trial 1 of limit-checks at 50 digits: the gap to the log-Euclidean
    distance grows from alpha 1e-2 to 1e-3 and then shrinks, so only the link
    from 1e-3 to 1e-4 is a property of the family, and the suite checks only it."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12 + 2)
    for _ in range(2):
        n = int(rng.integers(2, 6))
        a, b = validation.rand_spd(rng, n), validation.rand_spd(rng, n)

    def mp_log(m):
        s, u = mp.eigsy(mp.matrix(m.mat))
        return u * mp.diag([mp.log(si) for si in s]) * u.T

    with mp.workdps(50):
        d_log = mp.mnorm(mp_log(a) - mp_log(b), "f")
        gaps = [float(abs(d - d_log)) for d in mp_family(a.mat, b.mat, (1e-2, 1e-3, 1e-4))]
    assert gaps[0] < gaps[1] and gaps[1] > gaps[2]
    assert gaps[1:] == pytest.approx([3.27e-6, 3.61e-7], rel=1e-2)
    assert validation.limit_checks_suite(12, 50).passed


def test_nan_fails_every_suite(monkeypatch):
    """Every gate is the condition that must hold, so a NaN value fails it."""
    nan = float("nan")
    for name in (
        "alpha_procrustes",
        "alpha_procrustes_regularized",
        "power_euclidean",
        "log_euclidean",
    ):
        monkeypatch.setattr(
            validation, name, lambda *args, **kwargs: DistanceResult(nan, AlphaParam(0.5))
        )
    monkeypatch.setattr(validation, "geodesic_length_numeric", lambda *args: nan)
    loewner_apply = validation.loewner_apply

    def nan_exp(p0_eig, f, s):
        return SymMatrix(np.full(s.mat.shape, nan)) if f == "exp" else loewner_apply(p0_eig, f, s)

    monkeypatch.setattr(validation, "loewner_apply", nan_exp)
    for result in validation.run_all_suites(SEED, 3):
        assert not result.passed, result.name
        assert all(message.startswith(f"seed={SEED} trial=") for message in result.failures)
