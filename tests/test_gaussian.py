import math

import numpy as np
import pytest
from conftest import rand_psd_rank_deficient, rand_spd

from alphaproc import (
    EUCLIDEAN_MEAN,
    AlphaParam,
    DimensionError,
    DomainError,
    GaussianMeasure,
    MeanMetricSpec,
    NonFiniteError,
    SingularBaseError,
    alpha_procrustes,
    alpha_procrustes_regularized,
    bures_wasserstein,
    gaussian_alpha_distance,
    validation,
    wasserstein_gaussian,
)
from alphaproc.gaussian import _gaussian_terms


def rand_gaussian(rng, n, rank=None):
    cov = rand_spd(rng, n) if rank is None else rand_psd_rank_deficient(rng, n, rank)
    return GaussianMeasure.from_arrays(rng.standard_normal(n), cov)


def validate_draws():
    """Gaussian triples by `validate`'s metric-axioms recipe, 50 trials at each seed 0-9."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for trial in range(50):
            n = int(rng.integers(2, 6))
            covs = [validation.rand_spd(rng, n) for _ in range(3)]
            means = [rng.standard_normal(n) for _ in range(3)]
            alpha = validation.METRIC_ALPHAS[trial % len(validation.METRIC_ALPHAS)]
            yield alpha, [GaussianMeasure.from_arrays(m, c) for m, c in zip(means, covs)]


_G2 = GaussianMeasure.from_arrays(np.zeros(2), np.eye(2))
_G3 = GaussianMeasure.from_arrays(np.zeros(3), np.eye(3))


class TestConstruction:
    @pytest.mark.parametrize("call", [
        lambda: GaussianMeasure.from_arrays([1.0, 2.0, 3.0], np.eye(2)),
        lambda: gaussian_alpha_distance(_G2, _G3, 0.5),
        lambda: gaussian_alpha_distance(_G2, _G2, 0.5, MeanMetricSpec(weights=[1.0, 2.0, 3.0])),
    ], ids=["mean-and-covariance", "two-gaussians", "mean-weights"])
    def test_dimension_mismatch(self, call):
        with pytest.raises(DimensionError):
            call()

    def test_two_dimensional_mean_rejected(self):
        # not flattened into a 4-vector that happens to match the covariance
        with pytest.raises(DimensionError):
            GaussianMeasure.from_arrays(np.ones((2, 2)), np.eye(4))

    def test_weights_must_be_positive(self):
        with pytest.raises(DomainError):
            MeanMetricSpec(weights=[1.0, -1.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_weights_must_be_finite(self, value):
        with pytest.raises(DomainError, match="finite"):
            MeanMetricSpec(weights=[value, 1.0])

    def test_two_dimensional_weights_rejected(self):
        with pytest.raises(DimensionError):
            MeanMetricSpec(weights=np.ones((1, 2)))

    def test_mean_is_a_copy(self):
        m = np.array([1.0, 0.0])
        g = GaussianMeasure.from_arrays(m, np.eye(2))
        m[0] = 3.0  # the caller's array stays writable
        assert g.mean.tolist() == [1.0, 0.0]
        assert not g.mean.flags.writeable

    @pytest.mark.parametrize("edit", [-1.0, 100.0], ids=["negative", "large"])
    def test_weights_are_a_copy(self, edit):
        w = np.array([4.0, 1.0])
        mm = MeanMetricSpec(weights=w)
        g1 = GaussianMeasure.from_arrays([1.0, 0.0], np.eye(2))
        w[0] = edit
        assert gaussian_alpha_distance(g1, _G2, 0.5, mm) == pytest.approx(2.0, rel=1e-15)
        assert not mm.weights.flags.writeable


class TestAlphaDistance:
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0, 2.0])
    def test_identical_gaussians(self, alpha):
        g = rand_gaussian(np.random.default_rng(0), 3)
        assert gaussian_alpha_distance(g, g, alpha) == pytest.approx(0.0, abs=1e-6)

    def test_half_alpha_recovers_wasserstein(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g1, g2 = rand_gaussian(rng, 3), rand_gaussian(rng, 3)
            d_family = gaussian_alpha_distance(g1, g2, 0.5)
            d_w = wasserstein_gaussian(g1, g2)
            assert d_family == d_w

    def test_mean_only_difference(self):
        cov = np.eye(2)
        g1 = GaussianMeasure.from_arrays([1.0, 0.0], cov)
        g2 = GaussianMeasure.from_arrays([0.0, 0.0], cov)
        for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0):
            assert gaussian_alpha_distance(g1, g2, alpha) == pytest.approx(
                1.0, abs=1e-7
            )

    def test_zero_mean_reduces_to_matrix_family(self):
        rng = np.random.default_rng(2)
        c1, c2 = rand_spd(rng, 4), rand_spd(rng, 4)
        g1 = GaussianMeasure.from_arrays(np.zeros(4), c1)
        g2 = GaussianMeasure.from_arrays(np.zeros(4), c2)
        for alpha in (-1.0, 0.0, 0.7, 2.0):
            # hypot(0, d / 2) is exactly d / 2
            expected = alpha_procrustes(c1, c2, alpha).value / 2.0
            assert gaussian_alpha_distance(g1, g2, alpha) == expected

    def test_mean_separability(self):
        # moving only the means changes the distance exactly as
        # sqrt(d_mean^2 + const) predicts
        rng = np.random.default_rng(3)
        cov1, cov2 = rand_spd(rng, 3), rand_spd(rng, 3)
        base = gaussian_alpha_distance(
            GaussianMeasure.from_arrays(np.zeros(3), cov1),
            GaussianMeasure.from_arrays(np.zeros(3), cov2),
            0.8,
        )
        for _ in range(5):
            m1, m2 = rng.standard_normal(3), rng.standard_normal(3)
            moved = gaussian_alpha_distance(
                GaussianMeasure.from_arrays(m1, cov1),
                GaussianMeasure.from_arrays(m2, cov2),
                0.8,
            )
            predicted = math.sqrt(np.sum((m1 - m2) ** 2) + base**2)
            assert moved == pytest.approx(predicted, abs=1e-12)

    def test_degenerate_covariance_needs_positive_alpha(self):
        rng = np.random.default_rng(4)
        g1 = rand_gaussian(rng, 3, rank=2)
        g2 = rand_gaussian(rng, 3)
        assert gaussian_alpha_distance(g1, g2, 0.5) > 0
        with pytest.raises(SingularBaseError):
            gaussian_alpha_distance(g1, g2, -1.0)

    def test_weighted_mean_metric(self):
        g1 = GaussianMeasure.from_arrays([1.0, 0.0], np.eye(2))
        g2 = GaussianMeasure.from_arrays([0.0, 0.0], np.eye(2))
        mm = MeanMetricSpec(weights=[4.0, 1.0])
        assert gaussian_alpha_distance(g1, g2, 1.0, mm) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("weights", [None, [4.0, 1.0, 9.0]], ids=["unweighted", "weighted"])
    def test_mean_term_beyond_the_square_range(self, weights):
        # 1e160 squared overflows; the hypot combination never squares it
        g1 = GaussianMeasure.from_arrays([1e160, 0.0, 0.0], np.eye(3))
        g2 = GaussianMeasure.from_arrays([0.0, 0.0, 0.0], 2.0 * np.eye(3))
        mm = MeanMetricSpec(weights=weights)
        expected = 1e160 * (1.0 if weights is None else 2.0)
        assert mm.distance(g1.mean, g2.mean) == pytest.approx(expected, rel=1e-15)
        assert gaussian_alpha_distance(g1, g2, 0.5, mm) == pytest.approx(expected, rel=1e-15)

    def test_distance_beyond_the_float_range_is_a_typed_error(self):
        g1 = GaussianMeasure.from_arrays([1.5e308, 0.0], np.eye(2))
        g2 = GaussianMeasure.from_arrays([-1.5e308, 0.0], np.eye(2))
        with pytest.raises(NonFiniteError, match="^Gaussian distance: "):
            gaussian_alpha_distance(g1, g2, 0.5)


class TestWassersteinGaussian:
    def test_identical(self):
        g = rand_gaussian(np.random.default_rng(5), 3)
        assert wasserstein_gaussian(g, g) == pytest.approx(0.0, abs=1e-7)

    def test_commuting_covariances(self):
        g1 = GaussianMeasure.from_arrays([0.0, 0.0], np.diag([1.0, 4.0]))
        g2 = GaussianMeasure.from_arrays([0.0, 0.0], np.diag([9.0, 16.0]))
        assert wasserstein_gaussian(g1, g2) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-12
        )

    def test_compositional_oracle(self):
        rng = np.random.default_rng(6)
        g1, g2 = rand_gaussian(rng, 4), rand_gaussian(rng, 4)
        expected = math.sqrt(
            float(np.sum((g1.mean - g2.mean) ** 2))
            + bures_wasserstein(g1.covariance, g2.covariance).value ** 2
        )
        assert wasserstein_gaussian(g1, g2) == pytest.approx(expected, abs=1e-12)


class TestRegularized:
    def test_identical(self):
        g = rand_gaussian(np.random.default_rng(7), 3)
        assert gaussian_alpha_distance(g, g, 0.5, gamma=0.1) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_gamma_to_zero_recovers_wasserstein(self):
        rng = np.random.default_rng(8)
        g1 = rand_gaussian(rng, 3, rank=2)
        g2 = rand_gaussian(rng, 3, rank=2)
        d_w = wasserstein_gaussian(g1, g2)
        d_reg = gaussian_alpha_distance(g1, g2, 0.5, gamma=1e-7)
        assert abs(d_reg - d_w) <= 1e-3 * d_w

    def test_log_limit_separate_path(self):
        rng = np.random.default_rng(9)
        g1, g2 = rand_gaussian(rng, 3, rank=2), rand_gaussian(rng, 3, rank=2)
        gamma = 0.2
        d = gaussian_alpha_distance(g1, g2, AlphaParam.log_limit(), gamma=gamma)
        d_cov = alpha_procrustes_regularized(
            g1.covariance, g2.covariance, gamma, AlphaParam.log_limit()
        ).value
        expected = math.sqrt(
            float(np.sum((g1.mean - g2.mean) ** 2)) + 0.25 * d_cov**2
        )
        assert d == pytest.approx(expected, abs=1e-12)


class TestMetricAxioms:
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0, 2.0])
    def test_triangle_inequality(self, alpha):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            g = [rand_gaussian(rng, n) for _ in range(3)]
            d01 = gaussian_alpha_distance(g[0], g[1], alpha)
            d12 = gaussian_alpha_distance(g[1], g[2], alpha)
            d02 = gaussian_alpha_distance(g[0], g[2], alpha)
            assert d01 + d12 - d02 >= -1e-9

    def test_covariance_term_is_the_matrix_family(self):
        # so the matrix axioms `validate` checks carry over to the Gaussians (Minkowski)
        for alpha, g in validate_draws():
            for i, j in ((0, 1), (1, 0), (1, 2), (0, 2)):
                d_cov = _gaussian_terms(g[i], g[j], alpha, 0.0, EUCLIDEAN_MEAN)[1]
                assert d_cov == alpha_procrustes(g[i].covariance, g[j].covariance, alpha).value

    def test_symmetry_and_separation(self):
        for alpha, g in validate_draws():
            d01 = gaussian_alpha_distance(g[0], g[1], alpha)
            d10 = gaussian_alpha_distance(g[1], g[0], alpha)
            assert abs(d01 - d10) <= validation.SYMMETRY_REL * max(d01, d10)
            assert d01 > validation.SEPARATION_MIN
