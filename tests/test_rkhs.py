import numpy as np
import pytest
from conftest import h_alpha

from alphaproc import (
    AlphaParam,
    Dataset,
    DimensionError,
    DomainError,
    GaussianMeasure,
    GramBundle,
    KernelSpec,
    SingularBaseError,
    UnsupportedKernelError,
    alpha_procrustes,
    alpha_procrustes_regularized,
    bures_wasserstein,
    centered_gram,
    centering,
    explicit_feature_covariance,
    gaussian_alpha_distance,
    gaussian_alpha_distance_regularized,
    gram_bundle,
    mean_discrepancy_squared,
    rkhs_alpha_distance,
    rkhs_alpha_distance_unregularized,
    rkhs_gaussian_distance,
    rkhs_wasserstein,
    spd_power,
    wasserstein_gaussian,
)
from alphaproc.linalg import SpdMatrix

POLY = KernelSpec.polynomial(2, 1.0)
LINEAR = KernelSpec.linear()
RBF = KernelSpec.gaussian_rbf(0.8)


def datasets(seed=0, m=15, n=15, dim=2, shift=0.4):
    rng = np.random.default_rng(seed)
    x = Dataset.from_array(rng.standard_normal((m, dim)))
    y = Dataset.from_array(rng.standard_normal((n, dim)) * 1.3 + shift)
    return x, y


def mp_regularized_rbf(x, y, sigma, alphas, gamma, dps=40):
    """Regularized RBF family distances at ``dps`` digits, one per alpha.

    The pooled Gram G = V diag(w) V' gives the feature coordinates
    diag(sqrt(w)) V' (every eigenvalue kept); C_X and C_Y are the sample
    covariances of those coordinates, their ridged powers come from their
    eigendecompositions, and the cross term from the eigenvalues of
    A^a B^2a A^a.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        rows = [[mp.mpf(float(v)) for v in row] for row in np.vstack([x, y])]
        size, m = len(rows), len(x)
        scale = 2 * mp.mpf(sigma) ** 2
        gram = mp.matrix(size, size)
        for i in range(size):
            for j in range(size):
                sq = mp.fsum((a - b) ** 2 for a, b in zip(rows[i], rows[j]))
                gram[i, j] = mp.exp(-sq / scale)
        w, v = mp.eigsy(gram)
        coords = mp.diag([mp.sqrt(wi) for wi in w]) * v.T

        def covariance(cols):
            b = mp.matrix(size, len(cols))
            for i in range(size):
                mean = mp.fsum(coords[i, c] for c in cols) / len(cols)
                for k, c in enumerate(cols):
                    b[i, k] = (coords[i, c] - mean) / mp.sqrt(len(cols))
            s, u = mp.eigsy(b * b.T)
            return [max(si, 0) + mp.mpf(gamma) for si in s], u

        (sx, ux), (sy, uy) = covariance(range(m)), covariance(range(m, size))
        out = []
        for alpha in alphas:
            a = mp.mpf(alpha)
            pa = ux * mp.diag([si**a for si in sx]) * ux.T
            cross = pa * uy * mp.diag([si ** (2 * a) for si in sy]) * uy.T * pa
            eigs = mp.eigsy((cross + cross.T) / 2, eigvals_only=True)
            total = mp.fsum(si ** (2 * a) for si in sx + sy)
            total -= 2 * mp.fsum(mp.sqrt(max(e, 0)) for e in eigs)
            out.append(float(mp.sqrt(total) / abs(a)))
        return out


def feature_gaussians(x, y, kernel):
    mx, cx = explicit_feature_covariance(x, kernel)
    my, cy = explicit_feature_covariance(y, kernel)
    return GaussianMeasure.from_arrays(mx, cx), GaussianMeasure.from_arrays(my, cy)


class TestKernelSpec:
    def test_parse_roundtrip(self):
        assert KernelSpec.parse("linear").kind == "linear"
        poly = KernelSpec.parse("poly:d=2,c=1")
        assert (poly.degree, poly.offset) == (2, 1.0)
        rbf = KernelSpec.parse("rbf:sigma=0.5")
        assert rbf.sigma == 0.5

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError):
            KernelSpec.parse("cubic")
        with pytest.raises(DomainError):
            KernelSpec.parse("poly:d=zero")

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            KernelSpec.polynomial(0)
        with pytest.raises(DomainError):
            KernelSpec.gaussian_rbf(-1.0)


class TestGramBundle:
    def test_linear_orthonormal_points(self):
        x = Dataset.from_array([[1.0, 0.0], [0.0, 1.0]])
        gb = gram_bundle(x, x, LINEAR)
        assert np.allclose(gb.kxx, np.eye(2), atol=1e-14)

    def test_rbf_unit_diagonal(self):
        x, y = datasets(1)
        gb = gram_bundle(x, y, RBF)
        assert np.allclose(np.diag(gb.kxx), 1.0, atol=1e-14)

    def test_poly_matches_feature_map(self):
        x, y = datasets(2, m=8, n=8)
        gb = gram_bundle(x, y, POLY)
        mx, _ = explicit_feature_covariance(x, POLY)
        fx = _features(x)
        fy = _features(y)
        assert np.allclose(gb.kxx, fx @ fx.T, atol=1e-12)
        assert np.allclose(gb.kxy, fx @ fy.T, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        x = Dataset.from_array(rng.standard_normal((5, 2)))
        y = Dataset.from_array(rng.standard_normal((5, 3)))
        with pytest.raises(DimensionError):
            gram_bundle(x, y, LINEAR)

    def test_dataset_rejects_3d_array(self):
        with pytest.raises(DimensionError):
            Dataset.from_array(np.ones((4, 3, 2)))

    def test_centered_blocks_have_zero_sums(self):
        x, y = datasets(4, m=9, n=7)
        cg = centered_gram(gram_bundle(x, y, RBF))
        assert np.max(np.abs(cg.aa.sum(axis=0))) <= 1e-10
        assert np.max(np.abs(cg.bb.sum(axis=1))) <= 1e-10
        assert np.max(np.abs(cg.ab.sum(axis=0))) <= 1e-10
        assert np.max(np.abs(cg.ab.sum(axis=1))) <= 1e-10

    def test_centered_blocks_match_centering_products(self):
        # reference: J_m K J_n with the dense centering matrices
        x, y = datasets(5, m=13, n=8)
        gb = gram_bundle(x, y, RBF)
        cg = centered_gram(gb)
        jm, jn = centering(gb.m), centering(gb.n)
        for got, k, left, right, scale in (
            (cg.aa, gb.kxx, jm, jm, gb.m),
            (cg.bb, gb.kyy, jn, jn, gb.n),
            (cg.ab, gb.kxy, jm, jn, np.sqrt(gb.m * gb.n)),
        ):
            want = left @ k @ right / scale
            want = want if got is cg.ab else (want + want.T) / 2.0
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _features(ds):
    from alphaproc.rkhs import _polynomial_features

    return _polynomial_features(ds.points, POLY.degree, POLY.offset)


class TestMeanDiscrepancy:
    def test_same_dataset(self):
        x, _ = datasets(5)
        assert mean_discrepancy_squared(gram_bundle(x, x, RBF)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_single_points_linear(self):
        # two one-point clouds: the mean embedding gap is |x - y|^2
        x = np.array([1.0, 2.0])
        y = np.array([-0.5, 1.0])
        gb = GramBundle(
            kxx=np.array([[x @ x]]), kyy=np.array([[y @ y]]), kxy=np.array([[x @ y]])
        )
        assert mean_discrepancy_squared(gb) == pytest.approx(
            float(np.sum((x - y) ** 2)), abs=1e-12
        )

    def test_matches_feature_space_means(self):
        x, y = datasets(6, m=10, n=13)
        gb = gram_bundle(x, y, POLY)
        mx, _ = explicit_feature_covariance(x, POLY)
        my, _ = explicit_feature_covariance(y, POLY)
        assert mean_discrepancy_squared(gb) == pytest.approx(
            float(np.sum((mx - my) ** 2)), rel=1e-10
        )


class TestExplicitFeatures:
    def test_linear_is_sample_moments(self):
        x, _ = datasets(7, m=9, dim=3)
        mean, cov = explicit_feature_covariance(x, LINEAR)
        assert np.allclose(mean, x.points.mean(axis=0))
        centered = x.points - x.points.mean(axis=0)
        assert np.allclose(cov.mat, centered.T @ centered / x.m, atol=1e-12)

    def test_degree_one_no_offset_equals_linear(self):
        x, _ = datasets(8, m=7, dim=3)
        mean_lin, cov_lin = explicit_feature_covariance(x, LINEAR)
        mean_poly, cov_poly = explicit_feature_covariance(
            x, KernelSpec.polynomial(1, 0.0)
        )
        assert np.allclose(mean_lin, mean_poly)
        assert np.allclose(cov_lin.mat, cov_poly.mat, atol=1e-12)

    def test_degree_two_feature_space(self):
        x, _ = datasets(9, m=6)
        features = _features(x)
        assert features.shape == (6, 6)
        gb = gram_bundle(x, x, POLY)
        assert np.allclose(features @ features.T, gb.kxx, atol=1e-12)

    def test_rbf_unsupported(self):
        x, _ = datasets(10)
        with pytest.raises(UnsupportedKernelError):
            explicit_feature_covariance(x, RBF)


class TestRegularizedDistance:
    def test_same_dataset_zero(self):
        x, _ = datasets(11)
        assert rkhs_alpha_distance(x, x, RBF, 0.8, 0.1) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("alpha,gamma", [(0.6, 0.1), (1.0, 0.2), (-0.5, 0.3), (0.3, 0.15)])
    def test_linear_kernel_reduction(self, alpha, gamma):
        rng = np.random.default_rng(12)
        x = Dataset.from_array(rng.standard_normal((12, 5)))
        y = Dataset.from_array(rng.standard_normal((12, 5)) + 0.2)
        _, cx = explicit_feature_covariance(x, LINEAR)
        _, cy = explicit_feature_covariance(y, LINEAR)
        d_gram = rkhs_alpha_distance(x, y, LINEAR, alpha, gamma)
        d_feat = alpha_procrustes_regularized(cx, cy, gamma, alpha).value
        assert abs(d_gram - d_feat) <= 1e-8 * max(1.0, d_feat)

    def test_polynomial_feature_oracle(self):
        x, y = datasets(13)
        _, cx = explicit_feature_covariance(x, POLY)
        _, cy = explicit_feature_covariance(y, POLY)
        for alpha, gamma in ((0.6, 0.1), (1.0, 0.05)):
            d_gram = rkhs_alpha_distance(x, y, POLY, alpha, gamma)
            d_feat = alpha_procrustes_regularized(cx, cy, gamma, alpha).value
            assert abs(d_gram - d_feat) <= 1e-8 * max(1.0, d_feat)

    def test_log_limit_matches_feature_oracle(self):
        x, y = datasets(14)
        _, cx = explicit_feature_covariance(x, POLY)
        _, cy = explicit_feature_covariance(y, POLY)
        gamma = 0.2
        d_gram = rkhs_alpha_distance(x, y, POLY, 0.0, gamma)
        d_feat = alpha_procrustes_regularized(
            cx, cy, gamma, AlphaParam.log_limit()
        ).value
        assert abs(d_gram - d_feat) <= 1e-8 * max(1.0, d_feat)

    @pytest.mark.parametrize("alpha", ["-0.5", "0.25", "0.75", "log-limit"])
    @pytest.mark.parametrize("kernel", [LINEAR, POLY], ids=["linear", "poly"])
    def test_unequal_sample_counts_match_feature_oracle(self, kernel, alpha):
        x, y = datasets(15, m=8, n=9)
        al, gamma = AlphaParam.parse(alpha), 0.1
        gx, gy = feature_gaussians(x, y, kernel)
        d_gram = rkhs_alpha_distance(x, y, kernel, al, gamma)
        d_feat = alpha_procrustes_regularized(gx.covariance, gy.covariance, gamma, al).value
        assert abs(d_gram - d_feat) <= 1e-8 * d_feat
        # gamma > 0 takes the regularized covariance term at every alpha
        d_rkhs = rkhs_gaussian_distance(x, y, kernel, al, gamma)
        d_gauss = gaussian_alpha_distance_regularized(gx, gy, al, gamma)
        assert abs(d_rkhs - d_gauss) <= 1e-8 * d_gauss

    def test_ill_conditioned_negative_alpha_matches_feature_oracle(self):
        # covariance spectra up to ~8e6 against gamma = 1e-3
        x, y = datasets(42, m=10, n=10, dim=3)
        x, y = Dataset.from_array(x.points * 30), Dataset.from_array(y.points * 30)
        _, cx = explicit_feature_covariance(x, POLY)
        _, cy = explicit_feature_covariance(y, POLY)
        d_gram = rkhs_alpha_distance(x, y, POLY, -0.5, 1e-3)
        d_feat = alpha_procrustes_regularized(cx, cy, 1e-3, -0.5).value
        assert abs(d_gram - d_feat) <= 1e-8 * d_feat

    @pytest.mark.parametrize("gamma", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("alpha", [-0.5, 0.25, 0.75, 2.0])
    def test_both_factor_sides_match_feature_oracle(self, eigh_orders, alpha, gamma):
        # the linear features span r = 12 dimensions: X (m = 8 < r) takes its
        # powers from the sample side, Y (n = 30 >= r) from the covariance side
        x, y = datasets(43, m=8, n=30, dim=12)
        _, cx = explicit_feature_covariance(x, LINEAR)
        _, cy = explicit_feature_covariance(y, LINEAR)
        eigh_orders.clear()
        d_gram = rkhs_alpha_distance(x, y, LINEAR, alpha, gamma)
        assert eigh_orders == [38, 8, 12]
        d_feat = alpha_procrustes_regularized(cx, cy, gamma, alpha).value
        assert abs(d_gram - d_feat) <= 1e-10 * d_feat

    def test_rbf_decomposes_the_pooled_gram_and_one_side_per_dataset(self, eigh_orders):
        # the RBF features span r = m + n dimensions; each covariance is
        # decomposed on its sample side, never as an r x r matrix
        x, y = datasets(44, m=9, n=12)
        rkhs_alpha_distance(x, y, RBF, 0.7, 0.1)
        assert eigh_orders == [21, 9, 12]

    def test_negative_alpha_needs_the_ridge_above_tolerance(self):
        # C + gI must be strictly positive on the span of the features, as
        # for the matrix family: g below 1e-12 lambda_max is singular there
        x, y = datasets(45, m=6, n=7, dim=8)
        _, cx = explicit_feature_covariance(x, LINEAR)
        _, cy = explicit_feature_covariance(y, LINEAR)
        gamma = 1e-13 * cy.eig.max
        with pytest.raises(SingularBaseError):
            alpha_procrustes_regularized(cx, cy, gamma, -0.5)
        with pytest.raises(SingularBaseError):
            rkhs_alpha_distance(x, y, LINEAR, -0.5, gamma)
        # full-rank covariances on the span keep their own smallest eigenvalue
        x, y = datasets(46, m=20, n=25, dim=3)
        _, cx = explicit_feature_covariance(x, LINEAR)
        _, cy = explicit_feature_covariance(y, LINEAR)
        gamma = 1e-13 * cy.eig.max
        d_feat = alpha_procrustes_regularized(cx, cy, gamma, -0.5).value
        d_gram = rkhs_alpha_distance(x, y, LINEAR, -0.5, gamma)
        assert abs(d_gram - d_feat) <= 1e-10 * d_feat

    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_rbf_matches_40_digit_reference(self, sigma):
        x, y = datasets(47, m=7, n=6, dim=3)
        alphas = (-0.5, 0.25, 2.0)
        reference = mp_regularized_rbf(x.points, y.points, sigma, alphas, 0.1)
        kernel = KernelSpec.gaussian_rbf(sigma)
        for alpha, ref in zip(alphas, reference):
            d = rkhs_alpha_distance(x, y, kernel, alpha, 0.1)
            assert abs(d - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("kernel", [LINEAR, POLY], ids=["linear", "poly"])
    def test_identical_points_against_varied_dataset(self, kernel):
        # X has zero covariance, so C_X + gI is gI on the whole span
        _, y = datasets(48, m=9, n=11, dim=3)
        x = Dataset.from_array(np.tile([0.5, -1.0, 2.0], (7, 1)))
        gamma = 0.1
        gx, gy = feature_gaussians(x, y, kernel)
        for alpha in (-0.5, 0.25, 1.0):
            d_feat = alpha_procrustes_regularized(gx.covariance, gy.covariance, gamma, alpha).value
            d_xy = rkhs_alpha_distance(x, y, kernel, alpha, gamma)
            d_yx = rkhs_alpha_distance(y, x, kernel, alpha, gamma)
            assert abs(d_xy - d_feat) <= 1e-10 * d_feat
            assert abs(d_yx - d_xy) <= 1e-12 * d_xy

    def test_all_zero_features_give_zero(self):
        z = Dataset.from_array(np.zeros((4, 2)))
        assert rkhs_alpha_distance(z, z, LINEAR, 0.3, 0.1) == 0.0

    def test_permutation_invariance(self):
        x, y = datasets(16)
        rng = np.random.default_rng(17)
        perm = rng.permutation(x.m)
        x_perm = Dataset.from_array(x.points[perm])
        d1 = rkhs_alpha_distance(x, y, RBF, 0.7, 0.1)
        d2 = rkhs_alpha_distance(x_perm, y, RBF, 0.7, 0.1)
        assert abs(d1 - d2) <= 1e-10 * max(1.0, d1)

    def test_permuted_self_has_identical_moments_and_zero_distance(self):
        x, _ = datasets(40)
        rng = np.random.default_rng(41)
        x_perm = Dataset.from_array(x.points[rng.permutation(x.m)])
        assert rkhs_alpha_distance(x, x_perm, RBF, 0.7, 0.1) <= 1e-6
        assert rkhs_wasserstein(x, x_perm, RBF) <= 1e-6


class TestUnregularizedDistance:
    def test_same_dataset_zero(self):
        x, _ = datasets(18)
        assert rkhs_alpha_distance_unregularized(x, x, RBF, 0.75) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_half_alpha_is_twice_bw(self):
        x, y = datasets(19)
        d = rkhs_alpha_distance_unregularized(x, y, LINEAR, 0.5)
        _, cx = explicit_feature_covariance(x, LINEAR)
        _, cy = explicit_feature_covariance(y, LINEAR)
        assert d == pytest.approx(2.0 * bures_wasserstein(cx, cy).value, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    def test_polynomial_feature_oracle(self, alpha):
        x, y = datasets(20)
        _, cx = explicit_feature_covariance(x, POLY)
        _, cy = explicit_feature_covariance(y, POLY)
        d = rkhs_alpha_distance_unregularized(x, y, POLY, alpha)
        d_feat = alpha_procrustes(cx, cy, alpha).value
        assert abs(d - d_feat) <= 1e-8 * max(1.0, d_feat)

    def test_gamma_sweep_convergence(self):
        for kernel, (x, y) in ((POLY, datasets(21)), (RBF, datasets(21, m=12, n=17))):
            d_un = rkhs_alpha_distance_unregularized(x, y, kernel, 0.75)
            d_reg = rkhs_alpha_distance(x, y, kernel, 0.75, 1e-7)
            assert abs(d_reg - d_un) <= 1e-3 * d_un

    def test_unequal_counts_supported(self):
        x, y = datasets(22, m=9, n=12)
        d = rkhs_alpha_distance_unregularized(x, y, POLY, 0.75)
        _, cx = explicit_feature_covariance(x, POLY)
        _, cy = explicit_feature_covariance(y, POLY)
        assert d == pytest.approx(alpha_procrustes(cx, cy, 0.75).value, rel=1e-8)

    def test_small_alpha_rejected(self):
        x, y = datasets(23)
        with pytest.raises(DomainError):
            rkhs_alpha_distance_unregularized(x, y, POLY, 0.4)


class TestGaussianDistance:
    def test_same_dataset_zero(self):
        x, _ = datasets(24)
        assert rkhs_gaussian_distance(x, x, RBF, 0.75) == pytest.approx(0.0, abs=1e-6)

    def test_half_alpha_equals_wasserstein(self):
        x, y = datasets(25)
        gx, gy = feature_gaussians(x, y, POLY)
        assert rkhs_gaussian_distance(x, y, POLY, 0.5) == pytest.approx(
            wasserstein_gaussian(gx, gy), rel=1e-8
        )

    def test_half_alpha_equals_wasserstein_unequal_counts(self):
        x, y = datasets(26, m=10, n=14)
        gx, gy = feature_gaussians(x, y, POLY)
        assert rkhs_gaussian_distance(x, y, POLY, 0.5) == pytest.approx(
            wasserstein_gaussian(gx, gy), rel=1e-8
        )

    @pytest.mark.parametrize(
        "alpha,gamma",
        [(0.5, 0.0), (0.75, 0.0), (0.3, 0.1), (0.0, 0.1), (-0.4, 0.15)],
    )
    def test_linear_kernel_reduction(self, alpha, gamma):
        rng = np.random.default_rng(27)
        x = Dataset.from_array(rng.standard_normal((11, 4)))
        y = Dataset.from_array(rng.standard_normal((11, 4)) + 0.3)
        gx, gy = feature_gaussians(x, y, LINEAR)
        d_rkhs = rkhs_gaussian_distance(x, y, LINEAR, alpha, gamma)
        if gamma > 0:
            d_feat = gaussian_alpha_distance_regularized(gx, gy, alpha, gamma)
        else:
            d_feat = gaussian_alpha_distance(gx, gy, alpha)
        assert abs(d_rkhs - d_feat) <= 1e-8 * max(1.0, d_feat)

    def test_polynomial_feature_oracle(self):
        x, y = datasets(28)
        gx, gy = feature_gaussians(x, y, POLY)
        d_rkhs = rkhs_gaussian_distance(x, y, POLY, 0.75)
        d_feat = gaussian_alpha_distance(gx, gy, 0.75)
        assert abs(d_rkhs - d_feat) <= 1e-8 * max(1.0, d_feat)

    def test_small_alpha_needs_gamma(self):
        x, y = datasets(29)
        with pytest.raises(DomainError):
            rkhs_gaussian_distance(x, y, POLY, 0.3)
        # a negative ridge is rejected at every alpha, not ignored above 1/2
        with pytest.raises(DomainError):
            rkhs_gaussian_distance(x, y, POLY, 0.75, -0.1)

    @pytest.mark.parametrize("alpha,expected", [(0.5, 0), (1.0, 2)])
    def test_half_alpha_needs_no_eigensolve(self, eigh_orders, alpha, expected):
        # at alpha = 1/2 the range projections leave ab unchanged
        x, y = datasets(36, m=9, n=12)
        rkhs_gaussian_distance(x, y, RBF, alpha)
        assert len(eigh_orders) == expected
        if alpha == 0.5:
            rkhs_wasserstein(x, y, RBF)
            assert len(eigh_orders) == 0

    @pytest.mark.parametrize("alpha,gamma", [(0.75, 0.0), (0.3, 0.1), (0.0, 0.1)])
    def test_builds_gram_once(self, monkeypatch, alpha, gamma):
        import alphaproc.rkhs as rkhs_mod

        calls = []

        def counting(*args):
            calls.append(args)
            return gram_bundle(*args)

        monkeypatch.setattr(rkhs_mod, "gram_bundle", counting)
        x, y = datasets(29, m=9, n=11)
        rkhs_gaussian_distance(x, y, RBF, alpha, gamma)
        assert len(calls) == 1


class TestWasserstein:
    def test_same_dataset(self):
        x, _ = datasets(30)
        assert rkhs_wasserstein(x, x, RBF) == pytest.approx(0.0, abs=1e-7)

    def test_linear_kernel_reduction(self):
        x, y = datasets(31, m=12, n=12, dim=4)
        gx, gy = feature_gaussians(x, y, LINEAR)
        assert rkhs_wasserstein(x, y, LINEAR) == pytest.approx(
            wasserstein_gaussian(gx, gy), rel=1e-8
        )

    def test_polynomial_unequal_counts(self):
        x, y = datasets(32, m=10, n=14)
        gx, gy = feature_gaussians(x, y, POLY)
        assert rkhs_wasserstein(x, y, POLY) == pytest.approx(
            wasserstein_gaussian(gx, gy), rel=1e-8
        )

    def test_permutation_invariance(self):
        x, y = datasets(33, m=9, n=11)
        rng = np.random.default_rng(34)
        y_perm = Dataset.from_array(y.points[rng.permutation(y.m)])
        d1 = rkhs_wasserstein(x, y, RBF)
        d2 = rkhs_wasserstein(x, y_perm, RBF)
        assert abs(d1 - d2) <= 1e-10 * max(1.0, d1)

    def test_positive_for_different_moments(self):
        x, y = datasets(35, m=12, n=12, shift=1.0)
        assert rkhs_wasserstein(x, y, POLY) > 0.1


class TestBlockStructure:
    def test_h_identity_on_centered_gram(self):
        x, y = datasets(38)
        cg = centered_gram(gram_bundle(x, y, RBF))
        e = SpdMatrix.from_array(cg.aa)
        for alpha in (0.8, 1.6):
            lhs = e.mat @ h_alpha(e, 2 * alpha)
            rhs = spd_power(e.add_ridge(1.0), 2 * alpha).mat - np.eye(e.n)
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(rhs))


class TestDataset:
    def test_needs_two_samples(self):
        with pytest.raises(DimensionError):
            Dataset.from_array([[1.0, 2.0]])

    def test_rejects_nan(self):
        from alphaproc import NonFiniteError

        with pytest.raises(NonFiniteError):
            Dataset.from_array([[1.0, np.nan], [0.0, 1.0]])
