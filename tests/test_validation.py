"""Every gate of the randomized suites can fail, and reports where it did."""

import numpy as np
import pytest

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
