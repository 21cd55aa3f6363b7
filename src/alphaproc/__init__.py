"""Alpha Procrustes distances on SPD matrices, Gaussian measures, and RKHS
covariance operators, with the associated Riemannian metric and geodesics."""

from .exceptions import (
    AlphaProcError,
    ConvergenceFailureError,
    DimensionError,
    DomainError,
    NonFiniteError,
    NonSpdIntermediateError,
    NotPsdError,
    NumericalInconsistencyError,
    SingularBaseError,
)
from .gaussian import (
    EUCLIDEAN_MEAN,
    GaussianMeasure,
    MeanMetricSpec,
    gaussian_alpha_distance,
    wasserstein_gaussian,
)
from .geometry import (
    GeodesicCurve,
    geodesic_length_numeric,
    metric_inner,
    solve_general_lyapunov,
)
from .linalg import (
    ALPHA_SWITCH_TOL,
    AlphaParam,
    EigenDecomposition,
    SpdMatrix,
    SymMatrix,
    as_alpha,
    loewner_apply,
    spd_log,
    spd_power,
    sym_eigendecompose,
)
from .metrics import (
    DistanceResult,
    alpha_procrustes,
    alpha_procrustes_regularized,
    bures_wasserstein,
    log_euclidean,
    pairwise_distances,
    power_euclidean,
    procrustes_bruteforce_2x2,
)
from .rkhs import (
    Dataset,
    KernelSpec,
    rkhs_alpha_distance,
    rkhs_gaussian_distance,
    rkhs_wasserstein,
)

__version__ = "0.1.0"

__all__ = [
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
]
