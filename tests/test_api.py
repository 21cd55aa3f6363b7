import ast
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import CHILD_ENV, ROOT

import alphaproc
from alphaproc import (
    Dataset,
    DomainError,
    GaussianMeasure,
    GeodesicCurve,
    KernelSpec,
    SpdMatrix,
    SymMatrix,
    alpha_procrustes,
    alpha_procrustes_regularized,
    bures_wasserstein,
    gaussian_alpha_distance,
    geodesic_length_numeric,
    loewner_apply,
    log_euclidean,
    metric_inner,
    pairwise_distances,
    power_euclidean,
    procrustes_bruteforce_2x2,
    rkhs_alpha_distance,
    rkhs_gaussian_distance,
    rkhs_wasserstein,
    solve_general_lyapunov,
    spd_log,
    spd_power,
    sym_eigendecompose,
)

# The public names, pinned so that adding or removing one is a deliberate change.
PUBLIC = {
    "ALPHA_SWITCH_TOL",
    "AlphaParam",
    "AlphaProcError",
    "ConvergenceFailureError",
    "Dataset",
    "DimensionError",
    "DistanceResult",
    "DomainError",
    "EUCLIDEAN_MEAN",
    "EigenDecomposition",
    "GaussianMeasure",
    "GeodesicCurve",
    "KernelSpec",
    "MeanMetricSpec",
    "NonFiniteError",
    "NonSpdIntermediateError",
    "NotPsdError",
    "NumericalInconsistencyError",
    "SingularBaseError",
    "SpdMatrix",
    "SymMatrix",
    "alpha_procrustes",
    "alpha_procrustes_regularized",
    "as_alpha",
    "bures_wasserstein",
    "gaussian_alpha_distance",
    "geodesic_length_numeric",
    "loewner_apply",
    "log_euclidean",
    "metric_inner",
    "pairwise_distances",
    "power_euclidean",
    "procrustes_bruteforce_2x2",
    "rkhs_alpha_distance",
    "rkhs_gaussian_distance",
    "rkhs_wasserstein",
    "solve_general_lyapunov",
    "spd_log",
    "spd_power",
    "sym_eigendecompose",
    "wasserstein_gaussian",
}


def test_public_names_are_pinned_and_resolve():
    assert set(alphaproc.__all__) == PUBLIC
    assert len(alphaproc.__all__) == len(PUBLIC)
    for name in alphaproc.__all__:
        assert getattr(alphaproc, name) is not None


def _unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads; ``__all__`` counts."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    read.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_unused_import_is_found():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert _unused_imports(source) == ["field (line 1)"]


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "alphaproc").glob("*.py")), ids=lambda p: p.name
)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_import_makes_no_lapack_call():
    # the child refuses every numpy eigensolve, SVD and factorization, then imports the CLI
    # and through it the whole package: module-level constants must not decompose anything
    code = (
        "import numpy as np\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('LAPACK call at import')\n"
        "for name in ('eigh', 'eigvalsh', 'eig', 'eigvals', 'svd', 'qr', 'cholesky'):\n"
        "    setattr(np.linalg, name, refuse)\n"
        "import alphaproc.cli\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=CHILD_ENV, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


_ARR = np.eye(2)
_SPD = SpdMatrix.from_array(_ARR)
_SYM = SymMatrix.from_array(_ARR)
_GAUSS = GaussianMeasure.from_arrays(np.zeros(2), _ARR)
_DATA = Dataset.from_array(np.arange(6.0).reshape(3, 2) ** 2)
_RBF = KernelSpec.gaussian_rbf(1.0)

# (call, expected type, given type, constructor the message names)
_WRONG_OPERANDS = {
    "alpha_procrustes": (lambda: alpha_procrustes(_ARR, _SPD, 0.5), "SpdMatrix", "ndarray",
                         "SpdMatrix.from_array"),
    "alpha_procrustes-sym": (lambda: alpha_procrustes(_SPD, _SYM, 0.5), "SpdMatrix",
                             "SymMatrix", "SpdMatrix.from_array"),
    "alpha_procrustes_regularized": (
        lambda: alpha_procrustes_regularized(_SPD, _ARR, 0.1, 0.5), "SpdMatrix", "ndarray",
        "SpdMatrix.from_array"),
    "bures_wasserstein": (lambda: bures_wasserstein(_ARR, _ARR), "SpdMatrix", "ndarray",
                          "SpdMatrix.from_array"),
    "log_euclidean": (lambda: log_euclidean(_SPD, _ARR), "SpdMatrix", "ndarray",
                      "SpdMatrix.from_array"),
    "power_euclidean": (lambda: power_euclidean(_ARR, _SPD, 0.5), "SpdMatrix", "ndarray",
                        "SpdMatrix.from_array"),
    "pairwise_distances": (lambda: pairwise_distances([_ARR, _ARR], 0.5), "SpdMatrix",
                           "ndarray", "SpdMatrix.from_array"),
    "loewner_apply-base": (lambda: loewner_apply(_ARR, "log", _SYM), "EigenDecomposition",
                           "ndarray", "sym_eigendecompose"),
    "loewner_apply-direction": (lambda: loewner_apply(_SPD.eig, "exp", _ARR), "SymMatrix",
                                "ndarray", "SymMatrix.from_array"),
    "metric_inner": (lambda: metric_inner(_SPD, _ARR, _SYM, 0.5), "SymMatrix", "ndarray",
                     "SymMatrix.from_array"),
    "metric_inner-base": (lambda: metric_inner(_ARR, _SYM, _SYM, 0.5), "SpdMatrix",
                          "ndarray", "SpdMatrix.from_array"),
    "solve_general_lyapunov": (lambda: solve_general_lyapunov(_SPD, _ARR, 0.5), "SymMatrix",
                               "ndarray", "SymMatrix.from_array"),
    "GeodesicCurve": (lambda: GeodesicCurve(_ARR, _SPD, 0.5), "SpdMatrix", "ndarray",
                      "SpdMatrix.from_array"),
    "spd_log": (lambda: spd_log(_ARR), "SpdMatrix", "ndarray", "SpdMatrix.from_array"),
    "spd_log-sym": (lambda: spd_log(_SYM), "SpdMatrix", "SymMatrix", "SpdMatrix.from_array"),
    "spd_power": (lambda: spd_power(_ARR, 2.0), "SpdMatrix", "ndarray",
                  "SpdMatrix.from_array"),
    "sym_eigendecompose": (lambda: sym_eigendecompose(_ARR), "SymMatrix", "ndarray",
                           "SymMatrix.from_array"),
    "geodesic_length_numeric": (lambda: geodesic_length_numeric(_ARR, 100), "GeodesicCurve",
                                "ndarray", "GeodesicCurve(a, b, alpha)"),
    "gaussian_alpha_distance": (lambda: gaussian_alpha_distance(_ARR, _GAUSS, 0.5),
                                "GaussianMeasure", "ndarray", "GaussianMeasure.from_arrays"),
    "gaussian_alpha_distance-mean-metric": (
        lambda: gaussian_alpha_distance(_GAUSS, _GAUSS, 0.5, mean_metric="x"), "MeanMetricSpec",
        "str", "MeanMetricSpec(weights)"),
    "procrustes_bruteforce_2x2": (lambda: procrustes_bruteforce_2x2(_ARR, _SPD, 0.5),
                                  "SpdMatrix", "ndarray", "SpdMatrix.from_array"),
    "procrustes_bruteforce_2x2-second": (lambda: procrustes_bruteforce_2x2(_SPD, _ARR, 0.5),
                                         "SpdMatrix", "ndarray", "SpdMatrix.from_array"),
    "rkhs_alpha_distance": (lambda: rkhs_alpha_distance(_DATA, _DATA.points, _RBF, 0.5),
                            "Dataset", "ndarray", "Dataset.from_array"),
    "rkhs_gaussian_distance": (
        lambda: rkhs_gaussian_distance(_DATA.points, _DATA, _RBF, 0.5, 0.1), "Dataset",
        "ndarray", "Dataset.from_array"),
    "rkhs_wasserstein": (lambda: rkhs_wasserstein(_DATA, _DATA, "rbf:sigma=1"), "KernelSpec",
                         "str", "KernelSpec.parse"),
}


@pytest.mark.parametrize("case", sorted(_WRONG_OPERANDS))
def test_operand_of_the_wrong_type_raises_domain_error(case):
    # no coercion: an array is refused with the type that was meant and how to build one
    call, expected, given, build = _WRONG_OPERANDS[case]
    message = f"expected {expected}, got {given}: build one with {build}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
