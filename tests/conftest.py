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


def h_alpha(e: SpdMatrix, alpha: float) -> np.ndarray:
    """((1 + l)^alpha - 1) / l on the range of E and 0 on its kernel."""
    # expm1/log1p avoid cancellation for eigenvalues near zero
    return e.eig.apply_on_range(lambda lam: np.expm1(alpha * np.log1p(lam)) / lam)


@pytest.fixture
def eigh_orders(monkeypatch):
    """Order of every matrix decomposed by np.linalg.eigh while the test runs.

    A (k, n, n) stack records n k times, so len() counts decomposed
    matrices however they were batched.
    """
    orders = []
    original = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shape = np.shape(a)
        orders.extend([shape[-1]] * int(np.prod(shape[:-2], dtype=int)))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return orders
