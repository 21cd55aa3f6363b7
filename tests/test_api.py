import ast

import pytest
from conftest import ROOT

import alphaproc

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
