import os
from pathlib import Path

import numpy as np
import pytest

from alphaproc import Dataset, KernelSpec, SpdMatrix
from alphaproc.rkhs import _features
from alphaproc.validation import (  # noqa: F401  (shared with the test modules)
    commuting_pair,
    lyapunov_forward_map,
    noncommuting_pair,
    rand_spd,
    rand_sym,
)

ROOT = Path(__file__).resolve().parent.parent

# Environment for child interpreters: they import alphaproc from src/ and
# turn a numpy RuntimeWarning into an error, as the in-process tests do.
CHILD_ENV = dict(
    os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error::RuntimeWarning"
)


def rand_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rand_psd_rank_deficient(rng: np.random.Generator, n: int, rank: int) -> SpdMatrix:
    q = rand_orthogonal(rng, n)
    w = np.zeros(n)
    w[:rank] = rng.uniform(0.3, 3.0, rank)
    return SpdMatrix.from_array((q * w) @ q.T)


def procrustes_residual(a: SpdMatrix, b: SpdMatrix) -> float:
    """min_U |A^(1/2) - B^(1/2) U|_F over orthogonal U, the Procrustes form of the
    Bures-Wasserstein distance (Bhatia, Jain and Lim 2019), from numpy alone:
    eigh square roots and the SVD polar factor U = P Q' of B^(1/2) A^(1/2)."""
    def sqrt(m):
        w, v = np.linalg.eigh(m)
        return (v * np.sqrt(np.maximum(w, 0.0))) @ v.T

    ra, rb = sqrt(a.mat), sqrt(b.mat)
    p, _, qt = np.linalg.svd(rb @ ra)
    return float(np.linalg.norm(ra - rb @ p @ qt))


def h_alpha(e: SpdMatrix, alpha: float) -> np.ndarray:
    """((1 + l)^alpha - 1) / l on the range of E and 0 on its clamped kernel."""
    w, v = e.eig.values, e.eig.vectors
    # expm1/log1p avoid cancellation for eigenvalues near zero; the numerator
    # is 0 where w is, so dividing by 1 there keeps the kernel at 0
    h = np.expm1(alpha * np.log1p(w)) / np.where(w > 0.0, w, 1.0)
    return (v * h) @ v.T


def feature_covariance(x: Dataset, kernel: KernelSpec) -> tuple[np.ndarray, SpdMatrix]:
    """Empirical mean and covariance in the explicit feature space of a linear
    or polynomial kernel: the oracle the Gram-matrix formulas are checked against."""
    assert kernel.kind != "rbf", "the RBF kernel has no finite feature map"
    features = _features(x.points, kernel)
    mean = features.mean(axis=0)
    centered = features - mean
    with np.errstate(over="ignore", invalid="ignore"):
        return mean, SpdMatrix.from_array(centered.T @ centered / x.m)


def mp_family(cov_a, cov_b, alphas, gamma=0, dps=50):
    """Family distances between cov_a + gamma I and cov_b + gamma I at ``dps`` digits.

    The high-precision referee: one value per alpha, for arrays or mpmath
    matrices.  Ridged powers come from the eigendecompositions (roundoff
    negatives clamped at 0), the cross term from the eigenvalues of
    A^a B^2a A^a.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):

        def spectrum(c):
            s, u = mp.eigsy(mp.matrix(c))
            return [max(si, 0) + mp.mpf(gamma) for si in s], u

        (sa, ua), (sb, ub) = spectrum(cov_a), spectrum(cov_b)
        out = []
        for alpha in alphas:
            a = mp.mpf(alpha)
            pa = ua * mp.diag([si**a for si in sa]) * ua.T
            cross = pa * ub * mp.diag([si ** (2 * a) for si in sb]) * ub.T * pa
            eigs = mp.eigsy((cross + cross.T) / 2, eigvals_only=True)
            total = mp.fsum(si ** (2 * a) for si in sa + sb)
            total -= 2 * mp.fsum(mp.sqrt(max(e, 0)) for e in eigs)
            out.append(float(mp.sqrt(total) / abs(a)))
    return out


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
