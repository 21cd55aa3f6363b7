import os
from pathlib import Path

import numpy as np
import pytest

from alphaproc import SpdMatrix
from alphaproc.validation import (  # noqa: F401  (shared with the test modules)
    commuting_pair,
    noncommuting_pair,
    rand_spd,
    rand_sym,
)

ROOT = Path(__file__).resolve().parent.parent

# Environment for child interpreters: they import alphaproc from src/.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def rand_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rand_psd_rank_deficient(rng: np.random.Generator, n: int, rank: int) -> SpdMatrix:
    q = rand_orthogonal(rng, n)
    w = np.zeros(n)
    w[:rank] = rng.uniform(0.3, 3.0, rank)
    return SpdMatrix.from_array((q * w) @ q.T)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Arguments of every np.linalg.eigh call made while the test runs."""
    calls = []
    original = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls
