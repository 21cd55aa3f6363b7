"""Every public function that takes an alpha resolves it the same way.

A float and the equal ``AlphaParam`` give bitwise-equal results, a
non-finite alpha is a ``DomainError``, and an alpha inside the log-limit
band (|alpha| < 1e-7, exact 0 included) either takes the function's
documented log-limit route or raises ``DomainError``.  A scalar parameter
(alpha, gamma, a kernel's) that is not one real number is a ``DomainError``
naming it.  Every gamma is read by one rule: a real zero is the unregularized
family, anything else must be positive and finite.
"""

import math

import numpy as np
import pytest
from conftest import rand_spd, rand_sym

from alphaproc import (
    AlphaParam,
    Dataset,
    DomainError,
    GaussianMeasure,
    GeodesicCurve,
    KernelSpec,
    alpha_procrustes,
    alpha_procrustes_regularized,
    gaussian_alpha_distance,
    log_euclidean,
    metric_inner,
    power_euclidean,
    procrustes_bruteforce_2x2,
    rkhs_alpha_distance,
    rkhs_gaussian_distance,
    solve_general_lyapunov,
)

_rng = np.random.default_rng(31)
A, B = rand_spd(_rng, 2), rand_spd(_rng, 2)
Y, Z = rand_sym(_rng, 2), rand_sym(_rng, 2)
G1 = GaussianMeasure.from_arrays(_rng.standard_normal(2), A)
G2 = GaussianMeasure.from_arrays(_rng.standard_normal(2), B)
X_DATA = Dataset.from_array(_rng.standard_normal((6, 2)))
Y_DATA = Dataset.from_array(_rng.standard_normal((5, 2)) + 0.3)
RBF = KernelSpec.gaussian_rbf(0.8)

LOG_LIMIT_BAND = 5e-8

# name -> (call on an alpha, its value in the log-limit band, or None where
# the band raises DomainError)
CASES = {
    "alpha_procrustes": (
        lambda al: alpha_procrustes(A, B, al).value,
        lambda: alpha_procrustes(A, B, AlphaParam.log_limit()).value,
    ),
    "alpha_procrustes_regularized": (
        lambda al: alpha_procrustes_regularized(A, B, 0.1, al).value,
        lambda: alpha_procrustes_regularized(A, B, 0.1, AlphaParam.log_limit()).value,
    ),
    "power_euclidean": (
        lambda al: power_euclidean(A, B, al).value,
        lambda: log_euclidean(A, B).value,
    ),
    "procrustes_bruteforce_2x2": (lambda al: procrustes_bruteforce_2x2(A, B, al), None),
    "metric_inner": (
        lambda al: metric_inner(A, Y, Z, al),
        lambda: metric_inner(A, Y, Z, AlphaParam.log_limit()),
    ),
    "solve_general_lyapunov": (
        lambda al: solve_general_lyapunov(A, Y, al).mat,
        lambda: solve_general_lyapunov(A, Y, AlphaParam.log_limit()).mat,
    ),
    "GeodesicCurve.at": (lambda al: GeodesicCurve(A, B, al).at(0.3).mat, None),
    "gaussian_alpha_distance": (
        lambda al: gaussian_alpha_distance(G1, G2, al),
        lambda: gaussian_alpha_distance(G1, G2, AlphaParam.log_limit()),
    ),
    "gaussian_alpha_distance gamma=0.1": (
        lambda al: gaussian_alpha_distance(G1, G2, al, gamma=0.1),
        lambda: gaussian_alpha_distance(G1, G2, AlphaParam.log_limit(), gamma=0.1),
    ),
    "rkhs_alpha_distance": (
        lambda al: rkhs_alpha_distance(X_DATA, Y_DATA, RBF, al, 0.1),
        lambda: rkhs_alpha_distance(X_DATA, Y_DATA, RBF, AlphaParam.log_limit(), 0.1),
    ),
    "rkhs_alpha_distance gamma=0": (
        lambda al: rkhs_alpha_distance(X_DATA, Y_DATA, RBF, al),
        None,
    ),
    "rkhs_gaussian_distance": (
        lambda al: rkhs_gaussian_distance(X_DATA, Y_DATA, RBF, al, 0.1),
        lambda: rkhs_gaussian_distance(X_DATA, Y_DATA, RBF, AlphaParam.log_limit(), 0.1),
    ),
}


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("alpha", [0.75, 2.0])
def test_alpha_param_and_float_agree_bitwise(name, alpha):
    call = CASES[name][0]
    assert _bits(call(AlphaParam(alpha))) == _bits(call(alpha))


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_alpha_is_a_domain_error(name, alpha):
    with pytest.raises(DomainError, match="alpha must be finite"):
        CASES[name][0](alpha)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("sign", [1.0, -1.0, 0.0])
def test_log_limit_band_takes_the_log_limit_route_or_raises(name, sign):
    call, log_limit = CASES[name]
    if log_limit is None:
        with pytest.raises(DomainError):
            call(sign * LOG_LIMIT_BAND)
    else:
        value = call(sign * LOG_LIMIT_BAND)
        assert np.all(np.isfinite(value))
        assert _bits(value) == _bits(log_limit())


@pytest.mark.parametrize("name", sorted(CASES))
def test_alpha_that_float_reads_keeps_working(name):
    call = CASES[name][0]
    assert _bits(call("0.75")) == _bits(call(0.75))


# name -> call on a gamma; every public function that takes one
GAMMA_SITES = {
    "alpha_procrustes_regularized": lambda g: alpha_procrustes_regularized(A, B, g, 0.75).value,
    "gaussian_alpha_distance": lambda g: gaussian_alpha_distance(G1, G2, 0.75, gamma=g),
    "rkhs_alpha_distance": lambda g: rkhs_alpha_distance(X_DATA, Y_DATA, RBF, 0.75, g),
    "rkhs_gaussian_distance": lambda g: rkhs_gaussian_distance(X_DATA, Y_DATA, RBF, 0.75, g),
}
# the sites whose real zero is the unregularized family
ZERO_IS_UNRIDGED = sorted(set(GAMMA_SITES) - {"alpha_procrustes_regularized"})


@pytest.mark.parametrize("name", sorted(GAMMA_SITES))
def test_gamma_none_is_a_domain_error_not_the_unregularized_distance(name):
    # the private evaluators read None as no ridge; a public function must not
    with pytest.raises(DomainError, match="gamma must be positive"):
        GAMMA_SITES[name](None)


# site -> (the parameter its error names, call on a value)
PARAMETER_SITES = {
    **{name: ("alpha", call) for name, (call, _) in CASES.items()},
    "AlphaParam": ("alpha", AlphaParam),
    **{f"{name} gamma": ("gamma", call) for name, call in GAMMA_SITES.items()},
    "KernelSpec degree": ("degree", lambda v: KernelSpec("poly", degree=v)),
    "KernelSpec offset": ("offset", lambda v: KernelSpec("poly", offset=v)),
    "KernelSpec sigma": ("sigma", lambda v: KernelSpec("rbf", sigma=v)),
}


@pytest.mark.parametrize("site", sorted(PARAMETER_SITES))
@pytest.mark.parametrize(
    "value", ["x", None, 1j, np.array([0.5, 1.0])], ids=["str", "None", "complex", "array"]
)
def test_parameter_that_is_not_one_real_number_is_a_domain_error(site, value):
    name, call = PARAMETER_SITES[site]
    with pytest.raises(DomainError, match=f"{name} must be"):
        call(value)


@pytest.mark.parametrize("name", ZERO_IS_UNRIDGED)
def test_complex_zero_gamma_is_a_domain_error(name):
    # only a real zero selects the unregularized family
    call = GAMMA_SITES[name]
    assert math.isfinite(call(0.0))
    with pytest.raises(DomainError, match="gamma must be"):
        call(0j)


@pytest.mark.parametrize("name", ZERO_IS_UNRIDGED)
@pytest.mark.parametrize("gamma", [-0.1, math.nan, math.inf])
def test_gamma_off_zero_must_be_positive_and_finite(name, gamma):
    with pytest.raises(DomainError, match="gamma must be positive and finite"):
        GAMMA_SITES[name](gamma)


@pytest.mark.parametrize("site", ["AlphaParam", "alpha_procrustes_regularized gamma",
                                  "gaussian_alpha_distance gamma", "rkhs_alpha_distance gamma",
                                  "rkhs_gaussian_distance gamma", "KernelSpec sigma"])
def test_numeric_text_is_a_domain_error_where_no_float_is_taken(site):
    name, call = PARAMETER_SITES[site]
    with pytest.raises(DomainError, match=f"{name} must be"):
        call("0.5")
