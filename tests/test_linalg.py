import ast
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import h_alpha, rand_psd_rank_deficient, rand_spd, rand_sym
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import alphaproc
from alphaproc import (
    AlphaParam,
    ConvergenceFailureError,
    Dataset,
    DomainError,
    GaussianMeasure,
    KernelSpec,
    MeanMetricSpec,
    NonFiniteError,
    NotPsdError,
    SingularBaseError,
    SpdMatrix,
    SymMatrix,
    EigenDecomposition,
    alpha_procrustes,
    centered_gram,
    gram_bundle,
    loewner_apply,
    spd_log,
    spd_power,
    sym_eigendecompose,
    sym_exp,
    trace_sqrt_triple,
)
from alphaproc.linalg import RANK_TOL_FACTOR, nuclear_norm


@st.composite
def spd_matrices(draw, min_n=2, max_n=5):
    n = draw(st.integers(min_n, max_n))
    base = draw(
        arrays(
            np.float64,
            (n, n),
            elements=st.floats(-2, 2, allow_nan=False, allow_infinity=False),
        )
    )
    return SpdMatrix.from_array(base @ base.T + 0.5 * np.eye(n))


@st.composite
def sym_matrices(draw, min_n=2, max_n=5):
    n = draw(st.integers(min_n, max_n))
    base = draw(
        arrays(
            np.float64,
            (n, n),
            elements=st.floats(-2, 2, allow_nan=False, allow_infinity=False),
        )
    )
    return SymMatrix.from_array((base + base.T) / 2.0)


class TestEigendecompose:
    def test_diagonal(self):
        eig = sym_eigendecompose(SymMatrix.from_array(np.diag([3.0, 1.0])))
        assert np.allclose(eig.values, [1.0, 3.0])
        # eigenvectors are signed permutation columns
        assert np.allclose(np.abs(eig.vectors), [[0, 1], [1, 0]])

    def test_identity(self):
        eig = sym_eigendecompose(SymMatrix.from_array(np.eye(2)))
        assert np.allclose(eig.values, [1.0, 1.0])
        assert np.allclose(eig.vectors @ eig.vectors.T, np.eye(2), atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        s = rand_sym(rng, 5)
        eig = sym_eigendecompose(s)
        recon = (eig.vectors * eig.values) @ eig.vectors.T
        assert np.linalg.norm(recon - s.mat) <= 1e-10 * np.linalg.norm(s.mat)
        assert np.linalg.norm(eig.vectors.T @ eig.vectors - np.eye(5)) <= 1e-12 * 5

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            SymMatrix.from_array([[1.0, np.nan], [np.nan, 1.0]])


class TestSpdConstruction:
    def test_clamps_tiny_negatives(self):
        a = SpdMatrix.from_array(np.diag([1.0, -1e-14]))
        assert a.min_eig == 0.0

    def test_rejects_genuine_negative(self):
        with pytest.raises(NotPsdError):
            SpdMatrix.from_array(np.diag([1.0, -0.5]))

    def test_strict_rejects_singular(self):
        with pytest.raises(SingularBaseError):
            SpdMatrix.from_array(np.diag([1.0, 0.0])).require_strict("test")


def _factors():
    rng = np.random.default_rng(31)
    return {
        "sample-side": rng.standard_normal((12, 5)),
        "covariance-side": rng.standard_normal((5, 12)),
        "rank-deficient": rng.standard_normal((12, 3)) @ rng.standard_normal((3, 7)),
        "all-zero": np.zeros((6, 4)),
    }


class TestFromFactor:
    """b b' held on the smaller side of b agrees with the dense matrix."""

    @pytest.mark.parametrize("name", list(_factors()))
    def test_matches_dense_ridged_matrix(self, name):
        b = _factors()[name]
        n, k = b.shape
        factored = SpdMatrix._from_factor(b)
        assert factored.n == n
        if n > k:  # the sample side keeps at most k basis vectors
            assert factored.eig.vectors.shape[1] <= k
        gamma = 0.1
        ridged = factored.add_ridge(gamma)
        dense = SpdMatrix.from_array(b @ b.T + gamma * np.eye(n))
        scale = np.linalg.norm(dense.mat)
        assert np.linalg.norm(ridged.mat - dense.mat) <= 1e-13 * scale
        assert ridged.min_eig == pytest.approx(dense.min_eig, rel=1e-12)
        for p in (-1.0, -0.5, 0.5, 2.0):
            assert ridged.trace_power(p) == pytest.approx(dense.trace_power(p), rel=1e-12)
            expected = spd_power(dense, p).mat
            got = spd_power(ridged, p).mat
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        expected = spd_log(dense).mat
        assert np.linalg.norm(spd_log(ridged).mat - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("name", list(_factors()))
    def test_strict_at_the_same_ridge(self, name):
        def strict(a):
            try:
                a.require_strict("test")
            except SingularBaseError:
                return False
            return True

        b = _factors()[name]
        lam_max = max(np.linalg.eigvalsh(b @ b.T)[-1], 1.0)
        for gamma in (0.0, 1e-13 * lam_max, 1e-11 * lam_max, 0.1):
            factored = SpdMatrix._from_factor(b).add_ridge(gamma)
            dense = SpdMatrix.from_array(b @ b.T + gamma * np.eye(b.shape[0]))
            assert strict(factored) == strict(dense), gamma


_DIAG = np.diag([1.0, 2.0])
_POINTS = np.arange(6.0).reshape(3, 2)


def _bundle():
    x = Dataset.from_array(_POINTS)
    return gram_bundle(x, x, KernelSpec.linear())


# each builds a new object with the same content on every call
ARRAY_HOLDERS = {
    "SpdMatrix": lambda: SpdMatrix.from_array(_DIAG),
    "SymMatrix": lambda: SymMatrix.from_array(_DIAG),
    "EigenDecomposition": lambda: sym_eigendecompose(SymMatrix.from_array(_DIAG)),
    "GaussianMeasure": lambda: GaussianMeasure.from_arrays([0.0, 1.0], _DIAG),
    "MeanMetricSpec": lambda: MeanMetricSpec(weights=[1.0, 2.0]),
    "Dataset": lambda: Dataset.from_array(_POINTS),
    "GramBundle": _bundle,
    "CenteredGram": lambda: centered_gram(_bundle()),
}


class TestEquality:
    """Objects that hold arrays compare by identity; parameters by value."""

    @pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
    def test_array_holders_compare_by_identity(self, make):
        a, b = make(), make()
        assert a != b
        assert a == a
        assert len({a, b, a}) == 2

    def test_parameters_compare_by_value(self):
        assert AlphaParam(0.5) == AlphaParam(0.5)
        assert KernelSpec.gaussian_rbf(0.5) == KernelSpec.gaussian_rbf(0.5)
        a, b = ARRAY_HOLDERS["SpdMatrix"](), SpdMatrix.from_array(np.eye(2))
        first, second = alpha_procrustes(a, b, 0.5), alpha_procrustes(a, b, 0.5)
        assert first == second
        assert hash(first) == hash(second)


class TestSpdPower:
    def test_identity_any_power(self):
        out = spd_power(SpdMatrix.from_array(np.eye(3)), 0.37)
        assert np.allclose(out.mat, np.eye(3), atol=1e-14)

    def test_diagonal_half(self):
        out = spd_power(SpdMatrix.from_array(np.diag([4.0, 9.0])), 0.5)
        assert np.allclose(out.mat, np.diag([2.0, 3.0]), atol=1e-14)

    def test_square_matches_product(self):
        rng = np.random.default_rng(1)
        a = rand_spd(rng, 4)
        assert np.allclose(spd_power(a, 2.0).mat, a.mat @ a.mat, atol=1e-12)

    def test_negative_power_needs_strict(self):
        a = rand_psd_rank_deficient(np.random.default_rng(2), 3, 2)
        with pytest.raises(SingularBaseError):
            spd_power(a, -1.0)

    @settings(max_examples=60, deadline=None)
    @given(spd_matrices(), st.floats(-2, 2), st.floats(-2, 2))
    def test_power_composition(self, a, p, q):
        lhs = spd_power(spd_power(a, p), q).mat
        rhs = spd_power(a, p * q).mat
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))


class TestLogExp:
    def test_log_identity(self):
        out = spd_log(SpdMatrix.from_array(np.eye(3)))
        assert np.allclose(out.mat, 0.0, atol=1e-14)

    def test_log_diagonal(self):
        out = spd_log(SpdMatrix.from_array(np.diag([math.e, math.e**2])))
        assert np.allclose(out.mat, np.diag([1.0, 2.0]), atol=1e-12)

    def test_exp_zero(self):
        out = sym_exp(SymMatrix.from_array(np.zeros((2, 2))))
        assert np.allclose(out.mat, np.eye(2), atol=1e-14)

    def test_exp_diagonal(self):
        out = sym_exp(SymMatrix.from_array(np.diag([1.0, 2.0])))
        assert np.allclose(out.mat, np.diag([math.e, math.e**2]), atol=1e-12)

    def test_exp_matches_series(self):
        # truncated power series oracle, 20 terms on a small matrix
        rng = np.random.default_rng(3)
        s = SymMatrix.from_array(0.25 * rand_sym(rng, 4).mat)
        expected = np.zeros((4, 4))
        term = np.eye(4)
        for k in range(20):
            expected = expected + term
            term = term @ s.mat / (k + 1)
        assert np.linalg.norm(sym_exp(s).mat - expected) <= 1e-10

    def test_log_rejects_singular(self):
        with pytest.raises(SingularBaseError):
            spd_log(SpdMatrix.from_array(np.diag([1.0, 0.0])))

    @settings(max_examples=60, deadline=None)
    @given(spd_matrices())
    def test_exp_log_roundtrip(self, a):
        back = sym_exp(spd_log(a))
        assert np.linalg.norm(back.mat - a.mat) <= 1e-10 * np.linalg.norm(a.mat)

    @settings(max_examples=60, deadline=None)
    @given(sym_matrices())
    def test_log_exp_roundtrip(self, s):
        back = spd_log(sym_exp(s))
        assert np.linalg.norm(back.mat - s.mat) <= 1e-10 * max(1.0, np.linalg.norm(s.mat))


class TestPsdSqrt:
    def test_diagonal(self):
        out = spd_power(SpdMatrix.from_array(np.diag([4.0, 16.0])), 0.5)
        assert np.allclose(out.mat, np.diag([2.0, 4.0]), atol=1e-14)

    def test_identity(self):
        out = spd_power(SpdMatrix.from_array(np.eye(3)), 0.5)
        assert np.allclose(out.mat, np.eye(3), atol=1e-14)

    def test_rank_deficient_squares_back(self):
        a = rand_psd_rank_deficient(np.random.default_rng(4), 3, 2)
        root = spd_power(a, 0.5)
        assert np.linalg.norm(root.mat @ root.mat - a.mat) <= 1e-9


class TestTraceSqrtTriple:
    def test_identity_pair(self):
        eye = SpdMatrix.from_array(np.eye(2))
        assert trace_sqrt_triple(eye, eye, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_commuting_diagonal(self):
        a = SpdMatrix.from_array(np.diag([1.0, 4.0]))
        b = SpdMatrix.from_array(np.diag([9.0, 16.0]))
        assert trace_sqrt_triple(a, b, 0.5) == pytest.approx(11.0, abs=1e-12)

    def test_matches_product_eigenvalues(self):
        # sum of sqrt eigenvalues of A^2a B^2a, via a general eigensolve
        rng = np.random.default_rng(5)
        for alpha in (0.5, 0.8, -0.6):
            a, b = rand_spd(rng, 4), rand_spd(rng, 4)
            prod = spd_power(a, 2 * alpha).mat @ spd_power(b, 2 * alpha).mat
            w = np.linalg.eigvals(prod)
            expected = np.sum(np.sqrt(np.maximum(w.real, 0.0)))
            assert trace_sqrt_triple(a, b, alpha) == pytest.approx(expected, rel=1e-10)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(6)
        a, b = rand_spd(rng, 5), rand_spd(rng, 5)
        forward = trace_sqrt_triple(a, b, 0.7)
        backward = trace_sqrt_triple(b, a, 0.7)
        assert abs(forward - backward) <= 1e-9 * forward


class TestLoewnerApply:
    def test_log_at_identity_is_identity_map(self):
        rng = np.random.default_rng(7)
        s = rand_sym(rng, 3)
        eig = sym_eigendecompose(SymMatrix.from_array(np.eye(3)))
        out = loewner_apply(eig, "log", s)
        assert np.allclose(out.mat, s.mat, atol=1e-12)

    def test_divided_difference_value(self):
        p0 = SpdMatrix.from_array(np.diag([1.0, math.e]))
        s = SymMatrix.from_array([[0.0, 1.0], [1.0, 0.0]])
        out = loewner_apply(p0.eig, "log", s)
        expected = 1.0 / (math.e - 1.0)  # = 0.581977 to six digits
        assert out.mat[0, 1] == pytest.approx(expected, abs=1e-12)
        assert out.mat[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(8)
        p0 = rand_spd(rng, 4, lo=0.5, hi=2.5)
        s = rand_sym(rng, 4)
        h = 1e-6
        shifted = SpdMatrix.from_array(p0.mat + h * s.mat)
        shifted.require_strict("shifted base point")
        fd = (spd_log(shifted).mat - spd_log(p0).mat) / h
        out = loewner_apply(p0.eig, "log", s)
        assert np.linalg.norm(out.mat - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_exp_log_composition_is_identity(self):
        rng = np.random.default_rng(9)
        p0 = rand_spd(rng, 4)
        s = rand_sym(rng, 4)
        dlog = loewner_apply(p0.eig, "log", s)
        log_eig = sym_eigendecompose(spd_log(p0))
        back = loewner_apply(log_eig, "exp", dlog)
        assert np.linalg.norm(back.mat - s.mat) <= 1e-9 * max(1.0, np.linalg.norm(s.mat))

    def test_log_rejects_singular_spectrum(self):
        a = SpdMatrix.from_array(np.diag([1.0, 0.0]))
        s = SymMatrix.from_array(np.eye(2))
        with pytest.raises(DomainError):
            loewner_apply(a.eig, "log", s)

    def test_unknown_function_rejected(self):
        a = SpdMatrix.from_array(np.eye(2))
        with pytest.raises(DomainError):
            loewner_apply(a.eig, "sinh", SymMatrix.from_array(np.eye(2)))


class TestHAlpha:
    """h_a(l) = ((1 + l)^a - 1) / l through apply_on_range.

    h_a divides by l, so on rank-deficient input only the range rule keeps
    it finite; E h_a(E) = (I + E)^a - I ties that rule to the ridge path.
    """

    def test_identity_input(self):
        out = h_alpha(SpdMatrix.from_array(np.eye(3)), 0.8)
        assert np.allclose(out, (2.0**0.8 - 1.0) * np.eye(3), atol=1e-12)

    def test_rank_deficient(self):
        e = SpdMatrix.from_array(np.diag([3.0, 0.0]))
        out = h_alpha(e, 1.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-14)
        assert np.allclose(e.mat @ out, np.diag([3.0, 0.0]), atol=1e-14)

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 2.0, -0.5])
    def test_product_identity(self, alpha):
        # E h_a(E) = (I + E)^a - I; both sides vanish on the kernel of E
        rng = np.random.default_rng(11)
        e = rand_psd_rank_deficient(rng, 4, 3)
        lhs = e.mat @ h_alpha(e, alpha)
        rhs = spd_power(e.add_ridge(1.0), alpha).mat - np.eye(4)
        assert np.linalg.norm(lhs - rhs) <= 1e-10


class TestAlphaParam:
    def test_mode_switch(self):
        assert not AlphaParam(0.5).is_log_limit
        assert AlphaParam(1e-9).is_log_limit
        assert AlphaParam.log_limit().is_log_limit
        assert not AlphaParam(1e-3).is_log_limit

    def test_parse(self):
        assert AlphaParam.parse("log-limit").is_log_limit
        assert AlphaParam.parse("0.5").value == 0.5

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(DomainError, match="alpha must be finite"):
            AlphaParam(value)
        with pytest.raises(DomainError, match="alpha must be finite"):
            AlphaParam.parse(str(value))


class TestSpectralPower:
    def test_zero_power_is_range_projection(self):
        rng = np.random.default_rng(12)
        e = rand_psd_rank_deficient(rng, 4, 2)
        eig = sym_eigendecompose(SymMatrix.from_array(e.mat))
        proj = eig.apply_on_range(lambda w: w**0.0)
        assert np.linalg.norm(proj @ proj - proj) <= 1e-10
        assert np.linalg.norm(proj @ e.mat - e.mat) <= 1e-10


class TestApplyOnRange:
    def test_kernel_at_or_below_rank_tolerance_maps_to_zero(self):
        q = np.linalg.qr(np.random.default_rng(13).standard_normal((4, 4)))[0]
        cut = RANK_TOL_FACTOR * 4.0
        eig = EigenDecomposition(np.array([0.5 * cut, cut, 2.0 * cut, 4.0]), q)
        seen = []

        def inverse(w):
            seen.append(w.copy())
            return 1.0 / w

        out = eig.apply_on_range(inverse)
        expected = (q * np.array([0.0, 0.0, 1.0 / (2.0 * cut), 0.25])) @ q.T
        assert np.array_equal(seen[0], [2.0 * cut, 4.0])
        assert np.allclose(out, expected, rtol=1e-14, atol=0.0)

    def test_negative_roundoff_is_clamped(self):
        eig = EigenDecomposition(np.array([-1e-13, 1.0, 3.0]), np.eye(3))
        with np.errstate(all="raise"):
            out = eig.apply_on_range(np.log)
        assert np.array_equal(out, np.diag([0.0, 0.0, math.log(3.0)]))

    def test_zero_spectrum_gives_zero_matrix(self):
        eig = EigenDecomposition(np.zeros(3), np.eye(3))
        with np.errstate(all="raise"):
            out = eig.apply_on_range(lambda w: 1.0 / w)
        assert np.array_equal(out, np.zeros((3, 3)))


LAPACK_NAMES = ("eigh", "eigvalsh", "eigvals", "svd")


def _guarded_nodes(tree: ast.AST) -> set[int]:
    """ids of every node inside a ``with _lapack_guard(...)`` block."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.With) and any(
            isinstance(item.context_expr, ast.Call)
            and getattr(item.context_expr.func, "id", None) == "_lapack_guard"
            for item in node.items
        ):
            inside.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    return inside


class TestSingleLapackPath:
    def test_lapack_calls_only_in_linalg_behind_the_guard(self):
        offenders = []
        for path in sorted(Path(alphaproc.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            guarded = _guarded_nodes(tree) if path.name == "linalg.py" else set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                    offenders.append(f"{path.name}:{node.lineno} imports from numpy.linalg")
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in LAPACK_NAMES
                    and ast.unparse(node.value) in ("np.linalg", "numpy.linalg")
                    and id(node) not in guarded
                ):
                    offenders.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
        assert offenders == []

    @pytest.mark.parametrize(
        "name, call",
        [
            ("eigh", lambda: sym_eigendecompose(SymMatrix.from_array(np.eye(3)))),
            ("eigvalsh", lambda: trace_sqrt_triple(
                SpdMatrix.from_array(np.eye(3)), SpdMatrix.from_array(np.eye(3)), 0.5
            )),
            ("svd", lambda: nuclear_norm(np.eye(3))),
        ],
        ids=["eigh", "eigvalsh", "svd"],
    )
    def test_lapack_failure_is_typed(self, monkeypatch, name, call):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic")

        monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(ConvergenceFailureError, match="synthetic"):
            call()
