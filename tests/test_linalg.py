import ast
import math
import re
import warnings
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
    DimensionError,
    DomainError,
    EigenDecomposition,
    GaussianMeasure,
    GeodesicCurve,
    KernelSpec,
    MeanMetricSpec,
    NonFiniteError,
    NonSpdIntermediateError,
    NotPsdError,
    SingularBaseError,
    SpdMatrix,
    SymMatrix,
    alpha_procrustes,
    loewner_apply,
    spd_log,
    spd_power,
    sym_eigendecompose,
)
from alphaproc.linalg import ALPHA_SWITCH_TOL, PSD_TOL_FACTOR, _finite, nuclear_norm, psd_tolerance
from alphaproc.rkhs import _in_eigenbases


def sym_exp(s: SymMatrix) -> SpdMatrix:
    """Matrix exponential of a symmetric matrix, the inverse of spd_log; always strictly SPD."""
    eig = sym_eigendecompose(s)
    with np.errstate(over="ignore"):
        w = np.exp(eig.values)
    _finite("matrix exponential", w)
    return SpdMatrix._from_eig(w, eig.vectors)


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
        assert a.eig.min == 0.0

    def test_negative_eigenvalue_boundary(self):
        # exactly -psd_tolerance is clamped; the next float below it is rejected
        tol = psd_tolerance(1.0)
        assert SpdMatrix.from_array(np.diag([1.0, -tol])).eig.min == 0.0
        with pytest.raises(NotPsdError):
            SpdMatrix.from_array(np.diag([1.0, -math.nextafter(tol, math.inf)]))

    def test_rejects_genuine_negative(self):
        with pytest.raises(NotPsdError):
            SpdMatrix.from_array(np.diag([1.0, -0.5]))

    def test_strict_rejects_singular(self):
        with pytest.raises(SingularBaseError):
            SpdMatrix.from_array(np.diag([1.0, 0.0])).require_strict("test")

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)], ids=["k>n", "k<n"])
    def test_rejects_a_basis_that_is_not_square(self, shape):
        with pytest.raises(DimensionError):
            SpdMatrix._from_eig(np.ones(min(shape)), np.eye(*shape))

    @pytest.mark.parametrize("build", [
        lambda: SymMatrix.from_array(np.zeros((0, 0))),
        lambda: SpdMatrix.from_array(np.zeros((0, 0))),
        lambda: GaussianMeasure.from_arrays([], np.zeros((0, 0))),
    ], ids=["SymMatrix", "SpdMatrix", "GaussianMeasure"])
    def test_rejects_an_empty_matrix(self, build):
        with pytest.raises(DimensionError):
            build()

    @pytest.mark.parametrize("build", [
        SymMatrix.from_array,
        SpdMatrix.from_array,
        Dataset.from_array,
        lambda bad: GaussianMeasure.from_arrays(bad[0], np.eye(2)),
        lambda bad: MeanMetricSpec(weights=bad[0]),
    ], ids=["SymMatrix", "SpdMatrix", "Dataset", "GaussianMeasure", "MeanMetricSpec"])
    @pytest.mark.parametrize("bad", [
        [[2.0, 1j], [-1j, 2.0]],
        np.array([[2.0, 1j], [-1j, 2.0]]),
        [["1", "x"], ["x", "1"]],
    ], ids=["complex-list", "complex-array", "string"])
    def test_rejects_complex_or_non_numeric_entries(self, build, bad):
        # numpy would keep diag(2, 2) of the Hermitian [[2, i], [-i, 2]] (eigenvalues 1, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must hold real numbers"):
                build(bad)


_DIAG = np.diag([1.0, 2.0])
_POINTS = np.arange(6.0).reshape(3, 2)


# each builds a new object with the same content on every call
ARRAY_HOLDERS = {
    "SpdMatrix": lambda: SpdMatrix.from_array(_DIAG),
    "SymMatrix": lambda: SymMatrix.from_array(_DIAG),
    "EigenDecomposition": lambda: sym_eigendecompose(SymMatrix.from_array(_DIAG)),
    "GaussianMeasure": lambda: GaussianMeasure.from_arrays([0.0, 1.0], _DIAG),
    "MeanMetricSpec": lambda: MeanMetricSpec(weights=[1.0, 2.0]),
    "Dataset": lambda: Dataset.from_array(_POINTS),
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

    @pytest.mark.parametrize("p", [2000.0, -2000.0])
    def test_overflow_raises_without_a_numpy_warning(self, p):
        # a RuntimeWarning is an error here, so one ahead of the typed error fails
        with pytest.raises(NonFiniteError, match=f"^power {p}: NaN or infinite"):
            spd_power(SpdMatrix.from_array(np.diag([0.5, 3.0])), p)

    @pytest.mark.parametrize(
        "diag, p",
        # at nan and inf, diag(0.5, 1) keeps its largest eigenvalue finite, [nan, 1] and
        # [0, 1]; at -inf, diag(2, 3) maps to [0, 0]: none of them trips the finite check
        [([0.5, 1.0], "x"), ([0.5, 1.0], None), ([0.5, 1.0], math.nan),
         ([0.5, 1.0], math.inf), ([2.0, 3.0], -math.inf)],
    )
    def test_exponent_that_is_not_one_finite_real_rejected(self, diag, p):
        with pytest.raises(DomainError, match="^power exponent must be finite and real"):
            spd_power(SpdMatrix.from_array(np.diag(diag)), p)

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


class TestExpOverflow:
    """exp(800) is beyond the float range: one typed error (the suite errors on RuntimeWarning)."""

    S = SymMatrix.from_array(np.diag([800.0, 1.0]))

    def test_matrix_exponential(self):
        with pytest.raises(NonFiniteError, match="^matrix exponential: "):
            sym_exp(self.S)

    def test_exp_derivative(self):
        with pytest.raises(NonFiniteError, match="^matrix: "):
            loewner_apply(sym_eigendecompose(self.S), "exp", SymMatrix.from_array(np.eye(2)))


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
        with pytest.raises(SingularBaseError, match="^log derivative requires"):
            loewner_apply(a.eig, "log", s)

    @pytest.mark.parametrize("f", ["exp", "log"])
    def test_direction_of_another_order_is_a_dimension_error(self, f):
        p0 = SpdMatrix.from_array(np.diag([1.0, 2.0]))
        with pytest.raises(DimensionError, match="^matrix dimensions differ: 2 vs 3$"):
            loewner_apply(p0.eig, f, SymMatrix.from_array(np.eye(3)))

    def test_unknown_function_rejected(self):
        a = SpdMatrix.from_array(np.eye(2))
        with pytest.raises(DomainError):
            loewner_apply(a.eig, "sinh", SymMatrix.from_array(np.eye(2)))


class TestHAlpha:
    """h_a(l) = ((1 + l)^a - 1) / l on the range, 0 on the clamped kernel.

    h_a divides by l, so on rank-deficient input only the zero-eigenvalue
    rule keeps it finite; E h_a(E) = (I + E)^a - I ties that rule to the ridge path.
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

    def test_switch_tolerance_itself_is_not_the_log_limit(self):
        assert not AlphaParam(ALPHA_SWITCH_TOL).is_log_limit
        assert not AlphaParam(-ALPHA_SWITCH_TOL).is_log_limit
        assert AlphaParam(ALPHA_SWITCH_TOL / 2.0).is_log_limit

    def test_parse(self):
        assert AlphaParam.parse("log-limit").is_log_limit
        assert AlphaParam.parse("0.5").value == 0.5

    @pytest.mark.parametrize("text", ["abc", "", 0.5, None])
    def test_parse_rejects_what_is_not_alpha_text(self, text):
        # the CLI reads the cause to exit 2 on unreadable text
        with pytest.raises(DomainError, match=re.escape(f"got {text!r}")) as info:
            AlphaParam.parse(text)
        assert isinstance(info.value.__cause__, (ValueError, AttributeError))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(DomainError, match="alpha must be finite"):
            AlphaParam(value)
        with pytest.raises(DomainError, match="alpha must be finite"):
            AlphaParam.parse(str(value))


class TestZeroEigenvalueRule:
    """One cut-off for every spectrum: eigenvalues below psd_tolerance of the
    largest are 0, on PSD input and on spectra from kernels alike, and every
    positive power keeps them at 0."""

    @staticmethod
    def _gram_spectra(mat):
        """``mat`` as aa, then as bb, of blocks (aa, bb, ab) whose other blocks are I:
        the cross block in the eigenbases is then the block's eigenbasis."""
        eye = np.eye(mat.shape[0])
        wa, _, ma = _in_eigenbases((mat, eye, eye))
        _, wb, mb = _in_eigenbases((eye, mat, eye))
        return {"gram aa": SpdMatrix._from_eig(wa, ma.T), "gram bb": SpdMatrix._from_eig(wb, mb)}

    @classmethod
    def _spectra(cls, mat):
        return {"from_array": SpdMatrix.from_array(mat), **cls._gram_spectra(mat)}

    def test_sub_tolerance_eigenvalues_map_to_zero(self):
        q = np.linalg.qr(np.random.default_rng(13).standard_normal((4, 4)))[0]
        cut = PSD_TOL_FACTOR * 4.0
        mat = (q * np.array([0.5 * cut, 2.0 * cut, 0.5, 4.0])) @ q.T
        for name, a in self._spectra(mat).items():
            w = a.eig.values
            assert w[0] == 0.0, name
            assert w[1] == pytest.approx(2.0 * cut, rel=1e-2), name
            with np.errstate(all="raise"):
                half = spd_power(a, 0.5)
            assert half.eig.values[0] == 0.0, name
            assert np.count_nonzero(half.eig.values) == 3, name
            assert np.sum(a.eig.values**2.0) == pytest.approx(16.25, rel=1e-14), name

    def test_negative_roundoff_is_clamped(self):
        for name, a in self._spectra(np.diag([-1e-13, 1.0, 3.0])).items():
            assert np.array_equal(a.eig.values, [0.0, 1.0, 3.0]), name
            with np.errstate(all="raise"):
                out = spd_power(a, 0.5).mat
            assert np.array_equal(out, np.diag([0.0, 1.0, math.sqrt(3.0)])), name

    def test_dense_form_is_the_clamped_spectrum(self):
        # .mat and .eig describe one matrix: the input's roundoff negative is gone from both
        a = SpdMatrix.from_array(np.diag([-1e-13, 1.0, 3.0]))
        want = SpdMatrix._from_eig(a.eig.values, a.eig.vectors).mat
        assert a.mat.tobytes() == want.tobytes()
        assert a.mat[0, 0] == 0.0

    def test_small_positive_power_is_range_projection(self):
        rng = np.random.default_rng(12)
        e = rand_psd_rank_deficient(rng, 4, 2)
        proj = spd_power(e, 1e-12).mat
        assert np.linalg.norm(proj @ proj - proj) <= 1e-10
        assert np.linalg.norm(proj @ e.mat - e.mat) <= 1e-10
        assert np.trace(proj) == pytest.approx(2.0, abs=1e-10)

    def test_kernel_spectra_are_clamped_not_rejected(self):
        mat = np.diag([-0.5, 1.0, 3.0])
        with pytest.raises(NotPsdError):
            SpdMatrix.from_array(mat)
        for name, a in self._gram_spectra(mat).items():
            assert np.array_equal(a.eig.values, [0.0, 1.0, 3.0]), name

    def test_zero_spectrum_gives_zero(self):
        for name, a in self._spectra(np.zeros((3, 3))).items():
            with np.errstate(all="raise"):
                out = spd_power(a, 0.25).mat
                assert np.sum(a.eig.values**1.5) == 0.0, name
            assert np.array_equal(out, np.zeros((3, 3))), name


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
        "name, call, stage",
        [
            ("eigh", lambda: sym_eigendecompose(SymMatrix.from_array(np.eye(3))),
             "eigendecomposition"),
            ("eigvalsh", lambda: alpha_procrustes(
                SpdMatrix.from_array(np.eye(3)), SpdMatrix.from_array(np.eye(3)), 0.5
            ), "cross-term eigensolve"),
            ("svd", lambda: nuclear_norm(np.eye(3)), "singular values"),
            ("svd", lambda: GeodesicCurve(
                SpdMatrix.from_array(np.eye(3)), SpdMatrix.from_array(2.0 * np.eye(3)), 0.5
            ).at(0.5), "polar factor"),
        ],
        ids=["eigh", "eigvalsh", "svd", "svd-geodesic"],
    )
    def test_lapack_failure_is_typed(self, monkeypatch, name, call, stage):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic")

        monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(ConvergenceFailureError, match=f"^{stage} failed: synthetic$"):
            call()


def _sites(tree: ast.AST, match) -> list[str]:
    """Name of the innermost function around each node ``match`` accepts (module level: "")."""
    sites = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if match(node):
            sites.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return sites


def _raise_sites(tree: ast.AST, exc_name: str) -> list[str]:
    """Owners of each ``raise exc_name(...)``."""

    def match(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return ast.unparse(target) == exc_name

    return _sites(tree, match)


def _name_sites(tree: ast.AST, name: str) -> list[str]:
    """Owners of each use of ``name``: a load, an attribute or an import."""

    def match(node):
        return (
            (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and name in (node.name, node.asname))
        )

    return _sites(tree, match)


class TestSingleNonFiniteRule:
    def test_non_finite_error_raised_only_by_the_rule(self):
        sites = []
        for path in sorted(Path(alphaproc.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            sites += [f"{path.name}:{owner}" for owner in _raise_sites(tree, "NonFiniteError")]
        assert sites == ["linalg.py:_finite"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rule_names_the_stage(self, bad):
        from alphaproc.linalg import _finite

        _finite("stage", 1.0, np.ones(3), np.float64(2.0))
        for values in ([bad], (1.0, np.array([1.0, bad]))):
            with pytest.raises(NonFiniteError, match="^stage: NaN or infinite"):
                _finite("stage", *values)


class TestSingleSpectralRule:
    """psd_tolerance is read by two rules only: ``_clamp_zero`` (an eigenvalue
    is zero) and ``_strict`` (a spectrum is strictly positive), besides the
    reject check of ``SpdMatrix.from_array``."""

    def test_psd_tolerance_read_only_by_the_rules(self):
        sites = []
        for path in sorted(Path(alphaproc.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            sites += [f"{path.name}:{owner}" for owner in _name_sites(tree, "psd_tolerance")]
        assert sites == ["linalg.py:_clamp_zero", "linalg.py:_strict", "linalg.py:from_array"]

    def test_message_names_the_extremes_of_the_spectrum(self):
        from alphaproc.linalg import _require_strict

        _require_strict(np.array([1.0, 2.0, 3.0]), "stage")
        message = (
            "^stage requires a strictly positive definite matrix "
            r"\(min eigenvalue 1\.000e-14, max eigenvalue 2\.000e\+00\)$"
        )
        with pytest.raises(SingularBaseError, match=message):
            _require_strict(np.array([1e-14, 1.0, 2.0]), "stage")

    def test_eigenvalue_at_the_tolerance_is_kept_but_not_strict(self):
        from alphaproc.linalg import _clamp_zero, _require_strict, _strict, psd_tolerance

        tol = psd_tolerance(4.0)
        w = np.array([tol, 1.0, 4.0])
        assert np.array_equal(_clamp_zero(w), w)
        assert np.array_equal(_clamp_zero(w[:1], 4.0), [tol])
        assert _clamp_zero(np.nextafter(w[:1], 0.0), 4.0)[0] == 0.0
        assert not _strict(w)
        assert _strict(np.array([np.nextafter(tol, 1.0), 1.0, 4.0]))
        assert np.array_equal(_strict(np.stack([w, w + tol])), [False, True])
        with pytest.raises(SingularBaseError):
            _require_strict(w, "stage")
        message = (
            r"^log derivative requires a strictly positive definite matrix "
            r"\(min eigenvalue 4\.000e-12, max eigenvalue 4\.000e\+00\)$"
        )
        with pytest.raises(SingularBaseError, match=message):
            loewner_apply(EigenDecomposition(w, np.eye(3)), "log", SymMatrix.from_array(np.eye(3)))

    def test_strictness_decided_only_by_the_rule(self):
        # the geodesic guard calls it itself, because its message names t
        def calls_strict(node):
            return isinstance(node, ast.Call) and ast.unparse(node.func) == "_strict"

        sites = []
        for path in sorted(Path(alphaproc.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            sites += [f"{path.name}:{owner}" for owner in _sites(tree, calls_strict)]
        assert sites == ["geometry.py:_spectra", "linalg.py:_require_strict"]

    def test_geodesic_guard_reports_the_largest_eigenvalue(self):
        # alpha = 2 and cond(A) = 1e4: the bracket at t = 0 is A^4, whose
        # smallest eigenvalue is 1e-16 of its largest, a conditioning limit
        a = SpdMatrix.from_array(np.diag([1e-4, 1.0]))
        curve = GeodesicCurve(a, SpdMatrix.from_array(np.diag([2.0, 3.0])), 2.0)
        message = (
            r"^geodesic bracket at t=0\.0 is not strictly positive definite "
            r"\(min eigenvalue 1\.000e-16, max eigenvalue 1\.000e\+00\)$"
        )
        with pytest.raises(NonSpdIntermediateError, match=message):
            curve.at(0.0)
