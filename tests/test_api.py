import alphaproc

# The public names, pinned so that adding or removing one is a deliberate change.
PUBLIC = {
    "ALPHA_SWITCH_TOL",
    "AlphaParam",
    "AlphaProcError",
    "ComplexSpectrumError",
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
    "gaussian_alpha_distance_regularized",
    "geodesic_length_numeric",
    "loewner_apply",
    "log_euclidean",
    "metric_inner",
    "pairwise_distances",
    "power_euclidean",
    "procrustes_bruteforce_2x2",
    "rkhs_alpha_distance",
    "rkhs_alpha_distance_unregularized",
    "rkhs_gaussian_distance",
    "rkhs_wasserstein",
    "solve_general_lyapunov",
    "spd_log",
    "spd_power",
    "sym_eigendecompose",
    "sym_exp",
    "wasserstein_gaussian",
}


def test_public_names_are_pinned_and_resolve():
    assert set(alphaproc.__all__) == PUBLIC
    assert len(alphaproc.__all__) == len(PUBLIC)
    for name in alphaproc.__all__:
        assert getattr(alphaproc, name) is not None
