import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from conftest import feature_covariance, h_alpha, mp_family, rand_orthogonal

from alphaproc import (
    AlphaParam,
    Dataset,
    DimensionError,
    DomainError,
    GaussianMeasure,
    KernelSpec,
    NonFiniteError,
    SingularBaseError,
    alpha_procrustes,
    alpha_procrustes_regularized,
    bures_wasserstein,
    gaussian_alpha_distance,
    rkhs_alpha_distance,
    rkhs_gaussian_distance,
    rkhs_wasserstein,
    spd_power,
    wasserstein_gaussian,
)
from alphaproc.linalg import SpdMatrix, psd_tolerance
from alphaproc.rkhs import _centered_blocks, _covariance_distance, _feature_dim, _feature_factor
from alphaproc.rkhs import _centered_factors, _gram_blocks, _unregularized_distance

POLY = KernelSpec.polynomial(2, 1.0)
LINEAR = KernelSpec.linear()
RBF = KernelSpec.gaussian_rbf(0.8)


def _mixed_gaussian_sample(rng, m, dim=5):
    """Gaussian sample with a random linear map and mean shift."""
    mix = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    return rng.standard_normal((m, dim)) @ (np.eye(dim) + mix) + rng.normal(0.0, 0.3, dim)


def datasets(seed=0, m=15, n=15, dim=2, shift=0.4):
    rng = np.random.default_rng(seed)
    x = Dataset.from_array(rng.standard_normal((m, dim)))
    y = Dataset.from_array(rng.standard_normal((n, dim)) * 1.3 + shift)
    return x, y


def mp_regularized_rbf(x, y, sigma, alphas, gamma, dps=40):
    """Regularized RBF family distances at ``dps`` digits, one per alpha.

    The pooled Gram G = V diag(w) V' gives the feature coordinates
    diag(sqrt(w)) V' (every eigenvalue kept, roundoff negatives clamped
    at 0); C_X and C_Y are the sample covariances of those coordinates.
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
        coords = mp.diag([mp.sqrt(max(wi, 0)) for wi in w]) * v.T

        def covariance(cols):
            b = mp.matrix(size, len(cols))
            for i in range(size):
                mean = mp.fsum(coords[i, c] for c in cols) / len(cols)
                for k, c in enumerate(cols):
                    b[i, k] = (coords[i, c] - mean) / mp.sqrt(len(cols))
            return b * b.T

        return mp_family(covariance(range(m)), covariance(range(m, size)), alphas, gamma, dps)


def mp_unregularized_poly(x, y, degree, offset, alphas, dps=40, gamma=0):
    """Polynomial-kernel family distances at ``dps`` digits, ridged by ``gamma``.

    The covariances are those of the explicit multinomial features of
    (x'y + c)^d: one feature sqrt(d! / prod k_i!) prod z_i^k_i per multiset
    of slots, with z = (sqrt(c), x).  gamma = 0 gives the unregularized
    family.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):

        def covariance(points):
            rows = []
            for point in points:
                z = [mp.sqrt(mp.mpf(offset))] + [mp.mpf(float(v)) for v in point]
                row = []
                for combo in combinations_with_replacement(range(len(z)), degree):
                    coeff = math.factorial(degree)
                    for k in np.bincount(combo):
                        coeff //= math.factorial(int(k))
                    row.append(mp.sqrt(coeff) * mp.fprod(z[i] for i in combo))
                rows.append(row)
            f = mp.matrix(rows)
            f -= mp.ones(len(rows), 1) * (mp.ones(1, len(rows)) * f) / len(rows)
            return f.T * f / len(rows)

        return mp_family(covariance(x), covariance(y), alphas, gamma, dps)


def feature_gaussians(x, y, kernel):
    mx, cx = feature_covariance(x, kernel)
    my, cy = feature_covariance(y, kernel)
    return GaussianMeasure.from_arrays(mx, cx), GaussianMeasure.from_arrays(my, cy)


def gram_route(x, y, kernel, alpha, gamma=0.0):
    """Covariance distance on the centered Gram blocks, whichever blocks the library builds.

    Linear and polynomial inputs with 2D <= min(m, n) take the feature
    factors' blocks in the library; this keeps the Gram route covered on them.
    """
    return _covariance_distance(_gram_blocks(x, y, kernel)[1], alpha, gamma)


def eigenbasis_alpha_one(blocks):
    """The unregularized alpha = 1 on Gram blocks from their eigenbases, with no square factor."""
    import alphaproc.rkhs as rkhs_mod

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rkhs_mod, "_cholesky", lambda what, mat: None)
        return _unregularized_distance(blocks, 1.0)


def both_routes(x, y, kernel, alpha, gamma=0.0):
    """The library's covariance distance (gamma 0.0: unregularized), then the Gram route's."""
    return rkhs_alpha_distance(x, y, kernel, alpha, gamma), gram_route(x, y, kernel, alpha, gamma)


class TestKernelSpec:
    def test_parse_roundtrip(self):
        assert KernelSpec.parse("linear").kind == "linear"
        poly = KernelSpec.parse("poly:d=2,c=1")
        assert (poly.degree, poly.offset) == (2, 1.0)
        rbf = KernelSpec.parse("rbf:sigma=0.5")
        assert rbf.sigma == 0.5
        # an empty item, as after a trailing comma, is skipped
        assert KernelSpec.parse("poly:d=2,") == KernelSpec.polynomial(2)

    def test_parse_defaults(self):
        # the CLI's --kernel poly and --kernel rbf read these
        poly, rbf = KernelSpec.parse("poly"), KernelSpec.parse("rbf")
        assert (poly.kind, poly.degree, poly.offset) == ("poly", 2, 0.0)
        assert (rbf.kind, rbf.sigma) == ("rbf", 1.0)

    @pytest.mark.parametrize("text, message", [
        ("cubic", "unknown kernel spec 'cubic'"),
        ("poly:d=zero", "malformed kernel spec 'poly:d=zero'"),
        ("poly:d2", "malformed kernel parameter 'd2'"),
        ("rbf:sgima=0.5", "'sgima'"),
        ("poly:d=3,sigma=2", "'sigma'"),
        ("rbf:sigma=1,sigma=2", "repeated rbf kernel parameter 'sigma'"),
        ("poly:c=1,d=2, c = 1", "repeated poly kernel parameter 'c'"),
        ("poly:d=2,c=-1", "polynomial offset must be >= 0"),
    ])
    def test_parse_rejects_garbage(self, text, message):
        with pytest.raises(DomainError, match=message):
            KernelSpec.parse(text)

    @pytest.mark.parametrize("make, message", [
        (lambda: KernelSpec.polynomial(0), "polynomial degree"),
        (lambda: KernelSpec.gaussian_rbf(-1.0), "RBF bandwidth must be > 0"),
        (lambda: KernelSpec("foo"), "unknown kernel kind 'foo'"),
    ], ids=["degree", "sigma", "kind"])
    def test_invalid_parameters(self, make, message):
        with pytest.raises(DomainError, match=message):
            make()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda v: KernelSpec.polynomial(v),
            lambda v: KernelSpec.polynomial(2, v),
            lambda v: KernelSpec.gaussian_rbf(v),
        ],
        ids=["degree", "offset", "sigma"],
    )
    def test_non_finite_parameters_rejected(self, make, value):
        with pytest.raises(DomainError, match="must be finite"):
            make(value)

    @pytest.mark.parametrize("sigma", ["1e200", "1e-200"])
    def test_bandwidth_out_of_float_range_rejected(self, sigma):
        # 2 sigma^2 overflows to inf, or underflows to 0, in the Gram's division
        with pytest.raises(DomainError, match="2 sigma\\^2 must be a positive finite float"):
            KernelSpec.parse(f"rbf:sigma={sigma}")

    def test_parse_takes_integral_float_degree(self):
        assert KernelSpec.parse("poly:d=2.0,c=1") == KernelSpec.polynomial(2, 1.0)
        with pytest.raises(DomainError, match="^polynomial degree must be an integer >= 1$"):
            KernelSpec.parse("poly:d=2.5")

    def test_integral_float_degree_is_stored_as_int(self):
        spec = KernelSpec("poly", degree=2.0, offset=1.0)
        assert spec == POLY and repr(spec) == repr(POLY) and type(spec.degree) is int
        rng = np.random.default_rng(7)
        x = Dataset.from_array(rng.standard_normal((9, 2)))
        y = Dataset.from_array(rng.standard_normal((8, 2)))
        assert rkhs_gaussian_distance(x, y, spec, 0.25, 0.1) == rkhs_gaussian_distance(
            x, y, POLY, 0.25, 0.1
        )
        assert feature_covariance(x, spec)[1].n == 6


def reference_gram(kernel, x, y):
    """K[i, j] = K(x_i, y_j), each kernel's formula evaluated out of place."""
    if kernel.kind == "linear":
        return x @ y.T
    if kernel.kind == "poly":
        return (x @ y.T + kernel.offset) ** kernel.degree
    sq = np.sum(x**2, axis=1)[:, None] + np.sum(y**2, axis=1)[None, :] - 2.0 * (x @ y.T)
    return np.exp(-np.maximum(sq, 0.0) / (2.0 * kernel.sigma**2))


def centering(m):
    """J_m = I - (1/m) 1 1^T."""
    return np.eye(m) - np.full((m, m), 1.0 / m)


def reference_blocks(x, y, kernel):
    """Mean discrepancy squared and centered blocks, as out-of-place stages.

    The sums' mean discrepancy, clamped at 0; each raw Gram less its row
    means, then less the column means of that, times one over its scale.
    The diagonal blocks are not symmetrized: their consumers read one
    triangle or the diagonal.
    """
    m, n = x.m, y.m
    pairs = ((x, x), (y, y), (x, y))
    kxx, kyy, kxy = (reference_gram(kernel, a.points, b.points) for a, b in pairs)
    mdd = float(np.sum(kxx)) / m**2 + float(np.sum(kyy)) / n**2 - 2.0 * float(np.sum(kxy)) / (m * n)

    def center(k, scale):
        k = k - k.mean(axis=1, keepdims=True)
        return (k - k.mean(axis=0)) * (1.0 / scale)

    return max(mdd, 0.0), center(kxx, m), center(kyy, n), center(kxy, math.sqrt(m * n))


# 2.5x the worst relative Frobenius error measured against J K J (8.96e-16,
# poly:d=2,c=1 at m = 280), which includes the explicit products' own roundoff
EXPLICIT_CENTERING_RTOL = 2.2e-15


class TestGramBlocks:
    @pytest.mark.parametrize("kernel", [LINEAR, POLY, RBF], ids=["linear", "poly", "rbf"])
    @pytest.mark.parametrize("m,n", [(9, 14), (23, 17), (40, 31)])
    def test_match_the_staged_reference_bitwise(self, kernel, m, n):
        x, y = datasets(47, m=m, n=n, dim=3)
        for a, b in ((x, x), (y, y), (x, y)):
            assert np.array_equal(kernel.gram(a.points, b.points),
                                  reference_gram(kernel, a.points, b.points))
        mdd, blocks = _gram_blocks(x, y, kernel)
        want = reference_blocks(x, y, kernel)
        assert mdd == want[0]
        for got, block in zip(blocks, want[1:]):
            assert np.array_equal(got, block)

    @pytest.mark.parametrize("kernel", [LINEAR, POLY, RBF], ids=["linear", "poly", "rbf"])
    @pytest.mark.parametrize("m,n", [(9, 14), (40, 31), (120, 90), (280, 210)])
    def test_match_the_explicit_centering_matrices(self, kernel, m, n):
        # independent of the staging: J_m K J_n with the centering matrices formed
        x, y = datasets(47, m=m, n=n, dim=3)
        jm, jn = centering(m), centering(n)
        pairs = ((x, x), (y, y), (x, y))
        kxx, kyy, kxy = (reference_gram(kernel, a.points, b.points) for a, b in pairs)
        want = (jm @ kxx @ jm / m, jn @ kyy @ jn / n, jm @ kxy @ jn / math.sqrt(m * n))
        for got, block in zip(_gram_blocks(x, y, kernel)[1], want):
            err = np.linalg.norm(got - block) / np.linalg.norm(block)
            assert err <= EXPLICIT_CENTERING_RTOL

    def test_overflow_is_a_typed_error(self):
        # (x'y + 1)^100000 overflows; the suite turns numpy warnings into
        # errors, so this also checks that no RuntimeWarning escapes
        x, y = datasets(4)
        kernel = KernelSpec.polynomial(100_000, 1.0)
        with pytest.raises(NonFiniteError, match="degree=100000"):
            _centered_blocks(x, y, kernel)
        with pytest.raises(NonFiniteError, match="degree=100000"):
            rkhs_gaussian_distance(x, y, kernel, 0.5, 0.1)

    @pytest.mark.parametrize("spec", ["linear", "poly:d=2,c=1", "poly:d=3,c=0", "rbf:sigma=0.8"])
    def test_diagonal_products_are_exactly_symmetric(self, spec):
        # numpy forms x x' by a symmetric rank-k update, and every kernel map
        # is elementwise, so K[X] and R R' need no symmetrization of their own
        kernel, rng = KernelSpec.parse(spec), np.random.default_rng(61)
        for m in (2, 3, 7, 16, 33, 64, 129, 200, 320):
            for dim in (1, 2, 5, 12):
                x = rng.standard_normal((m, dim)) * 10.0 ** rng.uniform(-4, 2)
                for points in (x, np.asfortranarray(x)):
                    k = kernel.gram(points, points)
                    assert np.array_equal(k, k.T), (m, dim)
                if kernel.kind != "rbf":
                    r = _feature_factor(Dataset.from_array(x), kernel)[1]
                    rr = r @ r.T
                    assert np.array_equal(rr, rr.T), (m, dim)

    def test_linear_orthonormal_points(self):
        x = Dataset.from_array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(LINEAR.gram(x.points, x.points), np.eye(2), atol=1e-14)

    def test_rbf_unit_diagonal(self):
        x, _ = datasets(1)
        assert np.allclose(np.diag(RBF.gram(x.points, x.points)), 1.0, atol=1e-14)

    def test_poly_matches_feature_map(self):
        x, y = datasets(2, m=8, n=8)
        fx = _features(x)
        fy = _features(y)
        assert np.allclose(POLY.gram(x.points, x.points), fx @ fx.T, atol=1e-12)
        assert np.allclose(POLY.gram(x.points, y.points), fx @ fy.T, atol=1e-12)

    def test_dimension_mismatch(self):
        # RBF takes the Gram route, linear (D = 2 <= 5/2) the feature route
        rng = np.random.default_rng(3)
        x = Dataset.from_array(rng.standard_normal((5, 2)))
        y = Dataset.from_array(rng.standard_normal((5, 3)))
        for kernel in (RBF, LINEAR):
            with pytest.raises(DimensionError):
                rkhs_gaussian_distance(x, y, kernel, 0.5)

    def test_dataset_rejects_3d_array(self):
        with pytest.raises(DimensionError):
            Dataset.from_array(np.ones((4, 3, 2)))

    def test_centered_blocks_have_zero_sums(self):
        x, y = datasets(4, m=9, n=7)
        aa, bb, ab = _gram_blocks(x, y, RBF)[1]
        assert np.max(np.abs(aa.sum(axis=0))) <= 1e-10
        assert np.max(np.abs(bb.sum(axis=1))) <= 1e-10
        assert np.max(np.abs(ab.sum(axis=0))) <= 1e-10
        assert np.max(np.abs(ab.sum(axis=1))) <= 1e-10

    def test_centered_blocks_match_centering_products(self):
        # reference: J_m K J_n with the dense centering matrices
        x, y = datasets(5, m=13, n=8)
        m, n = x.m, y.m
        aa, bb, ab = _gram_blocks(x, y, RBF)[1]
        kxx, kyy = (RBF.gram(d.points, d.points) for d in (x, y))
        jm, jn = centering(m), centering(n)
        for got, k, left, right, scale in (
            (aa, (kxx + kxx.T) / 2.0, jm, jm, m),
            (bb, (kyy + kyy.T) / 2.0, jn, jn, n),
            (ab, RBF.gram(x.points, y.points), jm, jn, np.sqrt(m * n)),
        ):
            want = left @ k @ right / scale
            want = want if got is ab else (want + want.T) / 2.0
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _features(ds, kernel=POLY):
    from alphaproc.rkhs import _features as feature_map

    return feature_map(ds.points, kernel)


class TestMeanDiscrepancy:
    def test_same_dataset(self):
        x, _ = datasets(5)
        assert _gram_blocks(x, x, RBF)[0] == pytest.approx(0.0, abs=1e-10)

    def test_single_points_linear(self):
        # two clouds of one repeated point each: the mean embedding gap is |x - y|^2
        x = np.array([1.0, 2.0])
        y = np.array([-0.5, 1.0])
        mdd = _gram_blocks(Dataset.from_array([x, x]), Dataset.from_array([y, y]), LINEAR)[0]
        assert mdd == pytest.approx(float(np.sum((x - y) ** 2)), abs=1e-12)

    def test_matches_feature_space_means(self):
        x, y = datasets(6, m=10, n=13)
        mx, _ = feature_covariance(x, POLY)
        my, _ = feature_covariance(y, POLY)
        assert _gram_blocks(x, y, POLY)[0] == pytest.approx(
            float(np.sum((mx - my) ** 2)), rel=1e-10
        )


class TestExplicitFeatures:
    def test_linear_is_sample_moments(self):
        x, _ = datasets(7, m=9, dim=3)
        mean, cov = feature_covariance(x, LINEAR)
        assert np.allclose(mean, x.points.mean(axis=0))
        centered = x.points - x.points.mean(axis=0)
        assert np.allclose(cov.mat, centered.T @ centered / x.m, atol=1e-12)

    def test_degree_one_no_offset_equals_linear(self):
        x, _ = datasets(8, m=7, dim=3)
        mean_lin, cov_lin = feature_covariance(x, LINEAR)
        mean_poly, cov_poly = feature_covariance(
            x, KernelSpec.polynomial(1, 0.0)
        )
        assert np.allclose(mean_lin, mean_poly)
        assert np.allclose(cov_lin.mat, cov_poly.mat, atol=1e-12)

    def test_degree_two_feature_space(self):
        x, _ = datasets(9, m=6)
        features = _features(x)
        assert features.shape == (6, 6)
        assert np.allclose(features @ features.T, POLY.gram(x.points, x.points), atol=1e-12)

    @pytest.mark.parametrize(
        "kernel,p,width",
        [
            (LINEAR, 4, 4),
            (KernelSpec.polynomial(1, 0.0), 3, 3),
            (KernelSpec.polynomial(3, 0.0), 4, 20),
            (KernelSpec.polynomial(3, 0.5), 4, 35),
            (POLY, 5, 21),
            (KernelSpec.polynomial(7, 2.0), 1, 8),
        ],
    )
    def test_feature_width_is_the_feature_dimension(self, kernel, p, width):
        # D counts the multisets of d slots out of p + 1 (p when c = 0); the
        # map must have exactly D columns and reproduce the kernel
        x = Dataset.from_array(np.random.default_rng(11).standard_normal((6, p)))
        features = _features(x, kernel)
        assert _feature_dim(kernel, p) == width == features.shape[1]
        k = kernel.gram(x.points, x.points)
        assert np.max(np.abs(features @ features.T - k)) <= 1e-13 * np.max(np.abs(k))


class TestFeatureRouteErrors:
    def test_dimension_mismatch_before_any_feature(self, monkeypatch):
        import alphaproc.rkhs as rkhs_mod

        def refuse(*args):
            raise AssertionError("feature map built")

        monkeypatch.setattr(rkhs_mod, "_features", refuse)
        rng = np.random.default_rng(3)
        x = Dataset.from_array(rng.standard_normal((20, 2)))
        y = Dataset.from_array(rng.standard_normal((20, 3)))
        for kernel in (LINEAR, POLY):
            with pytest.raises(DimensionError):
                rkhs_alpha_distance(x, y, kernel, 0.5, 0.1)
            with pytest.raises(DimensionError):
                rkhs_alpha_distance(x, y, kernel, 0.75)
            with pytest.raises(DimensionError):
                rkhs_wasserstein(x, y, kernel)

    @pytest.mark.parametrize("alpha", [0.4, "foo", math.nan])
    def test_dimension_mismatch_before_a_bad_alpha(self, alpha):
        # the datasets are checked before alpha is read, on either route
        rng = np.random.default_rng(3)
        x = Dataset.from_array(rng.standard_normal((20, 2)))
        y = Dataset.from_array(rng.standard_normal((20, 3)))
        for kernel in (LINEAR, RBF):
            with pytest.raises(DimensionError):
                rkhs_alpha_distance(x, y, kernel, alpha)
            with pytest.raises(DimensionError):
                rkhs_gaussian_distance(x, y, kernel, alpha)

    @pytest.mark.parametrize("scale", [1e7, 1e10], ids=["blocks", "features"])
    def test_overflow_is_a_typed_error(self, scale):
        # poly:d=40,c=1 on 1-D data has D = 41 <= min(m, n)/2: at scale 1e7
        # the features are finite and their blocks overflow, at 1e10 the
        # features themselves do; the suite turns numpy warnings into errors
        kernel = KernelSpec.parse("poly:d=40,c=1")
        rng = np.random.default_rng(4)
        x, y = (Dataset.from_array(rng.standard_normal((k, 1)) * scale) for k in (90, 85))
        assert 2 * _feature_dim(kernel, 1) <= min(x.m, y.m)
        with pytest.raises(NonFiniteError, match="degree=40"):
            rkhs_gaussian_distance(x, y, kernel, 0.5)
        with pytest.raises(NonFiniteError, match="degree=40"):
            rkhs_alpha_distance(x, y, kernel, 0.25, 0.1)


class TestRegularizedDistance:
    def test_same_dataset_zero(self):
        x, _ = datasets(11)
        assert rkhs_alpha_distance(x, x, RBF, 0.8, 0.1) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("alpha,gamma", [(0.6, 0.1), (1.0, 0.2), (-0.5, 0.3), (0.3, 0.15)])
    def test_linear_kernel_reduction(self, alpha, gamma):
        rng = np.random.default_rng(12)
        x = Dataset.from_array(rng.standard_normal((12, 5)))
        y = Dataset.from_array(rng.standard_normal((12, 5)) + 0.2)
        _, cx = feature_covariance(x, LINEAR)
        _, cy = feature_covariance(y, LINEAR)
        d_feat = alpha_procrustes_regularized(cx, cy, gamma, alpha).value
        for d_gram in both_routes(x, y, LINEAR, alpha, gamma):
            assert abs(d_gram - d_feat) <= 1e-8 * max(1.0, d_feat)

    def test_polynomial_feature_oracle(self):
        x, y = datasets(13)
        _, cx = feature_covariance(x, POLY)
        _, cy = feature_covariance(y, POLY)
        for alpha, gamma in ((0.6, 0.1), (1.0, 0.05)):
            d_feat = alpha_procrustes_regularized(cx, cy, gamma, alpha).value
            for d_gram in both_routes(x, y, POLY, alpha, gamma):
                assert abs(d_gram - d_feat) <= 1e-8 * max(1.0, d_feat)

    def test_log_limit_matches_feature_oracle(self):
        x, y = datasets(14)
        _, cx = feature_covariance(x, POLY)
        _, cy = feature_covariance(y, POLY)
        gamma = 0.2
        d_feat = alpha_procrustes_regularized(
            cx, cy, gamma, AlphaParam.log_limit()
        ).value
        for d_gram in both_routes(x, y, POLY, 0.0, gamma):
            assert abs(d_gram - d_feat) <= 1e-8 * max(1.0, d_feat)

    @pytest.mark.parametrize("alpha", ["-0.5", "0.25", "0.75", "log-limit"])
    @pytest.mark.parametrize("kernel", [LINEAR, POLY], ids=["linear", "poly"])
    def test_unequal_sample_counts_match_feature_oracle(self, kernel, alpha):
        x, y = datasets(15, m=8, n=9)
        al, gamma = AlphaParam.parse(alpha), 0.1
        gx, gy = feature_gaussians(x, y, kernel)
        d_feat = alpha_procrustes_regularized(gx.covariance, gy.covariance, gamma, al).value
        for d_gram in both_routes(x, y, kernel, al, gamma):
            assert abs(d_gram - d_feat) <= 1e-8 * d_feat
        # gamma > 0 takes the regularized covariance term at every alpha
        d_rkhs = rkhs_gaussian_distance(x, y, kernel, al, gamma)
        d_gauss = gaussian_alpha_distance(gx, gy, al, gamma=gamma)
        assert abs(d_rkhs - d_gauss) <= 1e-8 * d_gauss

    def test_ill_conditioned_negative_alpha_matches_feature_oracle(self):
        # covariance spectra up to ~8e6 against gamma = 1e-3
        x, y = datasets(42, m=10, n=10, dim=3)
        x, y = Dataset.from_array(x.points * 30), Dataset.from_array(y.points * 30)
        _, cx = feature_covariance(x, POLY)
        _, cy = feature_covariance(y, POLY)
        d_gram = rkhs_alpha_distance(x, y, POLY, -0.5, 1e-3)
        d_feat = alpha_procrustes_regularized(cx, cy, 1e-3, -0.5).value
        assert abs(d_gram - d_feat) <= 1e-8 * d_feat

    @pytest.mark.parametrize("gamma", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("alpha", [-0.5, 0.25, 0.75, 2.0])
    def test_both_factor_sides_match_feature_oracle(self, eigh_orders, alpha, gamma):
        # the linear features span 12 dimensions: X's centered block (m = 8)
        # has rank 7 < m, Y's (n = 30) rank 12 < n, so Y's eigenbasis comes
        # first and X's remainders off it have a Schur complement of order 7
        x, y = datasets(43, m=8, n=30, dim=12)
        _, cx = feature_covariance(x, LINEAR)
        _, cy = feature_covariance(y, LINEAR)
        eigh_orders.clear()
        d_gram = rkhs_alpha_distance(x, y, LINEAR, alpha, gamma)
        assert eigh_orders == [8, 30, 7]
        d_feat = alpha_procrustes_regularized(cx, cy, gamma, alpha).value
        assert abs(d_gram - d_feat) <= 1e-10 * d_feat

    def test_rbf_decomposes_each_block_and_the_rotated_features(self, eigh_orders):
        # the RBF features span m + n dimensions, less one per dataset after
        # centering: aa, bb, then the Schur complement of order min(8, 11)
        x, y = datasets(44, m=9, n=12)
        rkhs_alpha_distance(x, y, RBF, 0.7, 0.1)
        assert eigh_orders == [9, 12, 8]

    def test_low_rank_poly_solves_no_order_above_the_sample_counts(self, eigh_orders):
        # poly:d=2,c=1 features of dim-5 data are D = 21 wide and span 20
        # centered dimensions: 2D <= min(m, n) takes the blocks of order D
        # from the feature factors, then the Schur complement of order 20
        rng = np.random.default_rng(29)
        x, y = (Dataset.from_array(_mixed_gaussian_sample(rng, m)) for m in (70, 50))
        d_lib = rkhs_alpha_distance(x, y, POLY, 0.25, 0.1)
        assert eigh_orders == [21, 21, 20]
        d_gram = gram_route(x, y, POLY, 0.25, 0.1)
        assert eigh_orders[3:] == [70, 50, 20]
        _, cx = feature_covariance(x, POLY)
        _, cy = feature_covariance(y, POLY)
        d_feat = alpha_procrustes_regularized(cx, cy, 0.1, 0.25).value
        for d in (d_lib, d_gram):
            assert abs(d - d_feat) <= 1e-10 * d_feat

    @pytest.mark.parametrize("m,n", [(12, 9), (9, 12), (11, 11)], ids=["ra>rb", "ra<rb", "ra=rb"])
    def test_rbf_is_symmetric_and_solves_the_smaller_rank(self, eigh_orders, m, n):
        # the dataset that goes first is chosen by rank (on a tie, by largest
        # eigenvalue), never by argument order: aa, bb, then the Schur
        # complement of order min(ra, rb)
        x, y = datasets(49, m=m, n=n, dim=3)
        aa, bb, _ = _gram_blocks(x, y, RBF)[1]
        wa, wb = np.linalg.eigvalsh(aa), np.linalg.eigvalsh(bb)
        tol = psd_tolerance(max(wa[-1], wb[-1]))
        ra, rb = int(np.sum(wa >= tol)), int(np.sum(wb >= tol))
        assert np.sign(ra - rb) == np.sign(m - n)
        for alpha in (-0.5, 0.25, 2.0):
            eigh_orders.clear()
            d_xy = rkhs_alpha_distance(x, y, RBF, alpha, 0.1)
            d_yx = rkhs_alpha_distance(y, x, RBF, alpha, 0.1)
            assert eigh_orders == [m, n, min(ra, rb), n, m, min(ra, rb)]
            assert abs(d_xy - d_yx) <= 1e-12 * d_xy

    @pytest.mark.parametrize("m,expected", [(41, [41, 41, 20]), (42, [21, 21, 20])])
    def test_feature_route_starts_at_twice_the_feature_dimension(self, eigh_orders, m, expected):
        # D = 21 for poly:d=2,c=1 on dim-5 data: the Gram route up to
        # min(m, n) = 41, the feature factors' blocks from 42
        rng = np.random.default_rng(30)
        x, y = (Dataset.from_array(_mixed_gaussian_sample(rng, m)) for _ in range(2))
        assert _feature_dim(POLY, 5) == 21
        d_lib = rkhs_alpha_distance(x, y, POLY, 0.25, 0.1)
        assert eigh_orders == expected
        d_gram = gram_route(x, y, POLY, 0.25, 0.1)
        assert abs(d_lib - d_gram) <= 1e-12 * d_gram

    @pytest.mark.parametrize("m", [40, 120])
    @pytest.mark.parametrize("kernel", [LINEAR, POLY], ids=["linear", "poly"])
    def test_feature_factors_match_the_gram_route(self, kernel, m):
        # the two routes build one triple of blocks up to an orthogonal change
        # of sample coordinates; poly at m = 40 (n = 30 < 2D) is the Gram
        # route on both sides
        rng = np.random.default_rng(31)
        x, y = (Dataset.from_array(_mixed_gaussian_sample(rng, k)) for k in (m, 3 * m // 4))
        regularized = [(0.25, 0.1), (-0.5, 0.1), (AlphaParam.log_limit(), 0.1)]
        for alpha, gamma in regularized + [(0.5, 0.0), (0.75, 0.0), (1.0, 0.0)]:
            d_lib, d_gram = both_routes(x, y, kernel, alpha, gamma)
            assert abs(d_lib - d_gram) <= 1e-12 * d_gram
        mdd = _gram_blocks(x, y, kernel)[0]
        w_gram = math.sqrt(mdd + gram_route(x, y, kernel, 0.5) ** 2 / 4)
        assert abs(rkhs_wasserstein(x, y, kernel) - w_gram) <= 1e-12 * w_gram

    @pytest.mark.parametrize("scale", [4.0, 8.0])
    @pytest.mark.parametrize("seed", [41, 44, 45, 46])
    def test_small_ridge_negative_alpha_matches_50_digit_reference(self, seed, scale):
        # covariance eigenvalues far below the largest uncentered Gram
        # eigenvalue, at alpha < 0 with a small ridge (seed 41 at scale 8 is
        # 1.547e-2): coordinates must come from the centered blocks
        x, y = datasets(seed, m=21, n=23, dim=2)
        xs, ys = x.points * scale, y.points * scale
        expected = mp_unregularized_poly(xs, ys, 2, 1.0, [-1.0], dps=50, gamma=1e-3)[0]
        x, y = Dataset.from_array(xs), Dataset.from_array(ys)
        for d in both_routes(x, y, POLY, -1.0, 1e-3):
            assert abs(d - expected) <= 1e-10 * expected

    @staticmethod
    def _thin_and_line(seed, y_scale):
        # X (m = 12): unit variance along e1, 1e-8 along e2 and e3; Y (n = 9)
        # on the e1 axis, so its features lie in the span of X's
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((12, 3))
        x = (x - x.mean(axis=0)) / x.std(axis=0) * [1.0, 1e-4, 1e-4]
        y = np.zeros((9, 3))
        y[:, 0] = rng.standard_normal(9) * y_scale
        return Dataset.from_array(x), Dataset.from_array(y)

    def test_datasets_of_very_different_scales_keep_each_basis_in_the_frame(self):
        # Y's variance ~1e6 sets the zero threshold above X's 1e-8
        # directions: they are cut from X's spectrum, so X's basis never has
        # more vectors than the frame has dimensions.  Equal ranks put X, of
        # the smaller largest eigenvalue, first, so the threshold set by Y's
        # scale cuts Y's remainder off X's span, never X's off Y's (~1e-8,
        # which decides alpha -0.5).  alpha -0.5 at gamma 1e-3 is still
        # ~2.5e-8 off.
        x, y = self._thin_and_line(3, 1e3)
        _, cx = feature_covariance(x, LINEAR)
        _, cy = feature_covariance(y, LINEAR)
        cases = [(alpha, gamma) for alpha in (0.25, 0.75, 2.0) for gamma in (1e-3, 0.1, 1.0)]
        for alpha, gamma in cases + [(-0.5, 0.1), (-0.5, 1.0)]:
            d_feat = alpha_procrustes_regularized(cx, cy, gamma, alpha).value
            for p, q in ((x, y), (y, x)):
                for d_gram in both_routes(p, q, LINEAR, alpha, gamma):
                    assert abs(d_gram - d_feat) <= 1e-11 * d_feat

    @pytest.mark.parametrize("alpha", [-0.5, 0.25, 0.75, 2.0])
    def test_complete_basis_is_orthonormal_on_small_covariance_directions(self, alpha):
        # X's features span the frame (ra = r = 3), so C_X + gI holds no
        # floor: a basis of X's 1e-8 directions off unit length by ~1e-8
        # would carry that error at the full ridged power
        x, y = self._thin_and_line(6, 1.0)
        _, cx = feature_covariance(x, LINEAR)
        _, cy = feature_covariance(y, LINEAR)
        for gamma in (0.1, 1.0):
            d_feat = alpha_procrustes_regularized(cx, cy, gamma, alpha).value
            for p, q in ((x, y), (y, x)):
                for d_gram in both_routes(p, q, LINEAR, alpha, gamma):
                    assert abs(d_gram - d_feat) <= 1e-10 * d_feat

    def test_constant_dataset_has_zero_covariance(self):
        # X's centered features vanish: C_X = 0 is held on no basis vectors
        _, y = datasets(48, m=6, n=7, dim=3)
        x0 = Dataset.from_array(np.ones((6, 3)))
        _, cy = feature_covariance(y, POLY)
        zero = SpdMatrix.from_array(np.zeros((cy.n, cy.n)))
        for alpha in (-0.5, 0.75):
            d_gram = rkhs_alpha_distance(x0, y, POLY, alpha, 0.1)
            d_feat = alpha_procrustes_regularized(zero, cy, 0.1, alpha).value
            assert abs(d_gram - d_feat) <= 1e-10 * d_feat
        assert rkhs_alpha_distance(x0, x0, POLY, 0.75, 0.1) == 0.0

    def test_negative_alpha_needs_the_ridge_above_tolerance(self):
        # C + gI must be strictly positive on the span of the features, as
        # for the matrix family: g below 1e-12 lambda_max is singular there
        x, y = datasets(45, m=6, n=7, dim=8)
        _, cx = feature_covariance(x, LINEAR)
        _, cy = feature_covariance(y, LINEAR)
        gamma = 1e-13 * cy.eig.max
        with pytest.raises(SingularBaseError):
            alpha_procrustes_regularized(cx, cy, gamma, -0.5)
        with pytest.raises(SingularBaseError):
            rkhs_alpha_distance(x, y, LINEAR, -0.5, gamma)
        # full-rank covariances on the span keep their own smallest eigenvalue
        x, y = datasets(46, m=20, n=25, dim=3)
        _, cx = feature_covariance(x, LINEAR)
        _, cy = feature_covariance(y, LINEAR)
        gamma = 1e-13 * cy.eig.max
        d_feat = alpha_procrustes_regularized(cx, cy, gamma, -0.5).value
        d_gram = rkhs_alpha_distance(x, y, LINEAR, -0.5, gamma)
        assert abs(d_gram - d_feat) <= 1e-10 * d_feat

    @pytest.mark.parametrize(
        "sigma,shared",
        [
            pytest.param(1.0, False, id="1.0"),
            pytest.param(3.0, False, id="3.0"),
            pytest.param(0.8, True, id="0.8-shared-point"),
        ],
    )
    def test_rbf_matches_40_digit_reference(self, sigma, shared):
        if shared:
            # 1-D data with one point in both sets: the pooled Gram is
            # singular, and its 40-digit eigenvalues include a roundoff negative
            x, y = datasets(0, m=8, n=10, dim=1)
            points = y.points.copy()
            points[0] = x.points[0]
            y = Dataset.from_array(points)
        else:
            x, y = datasets(47, m=7, n=6, dim=3)
        alphas = (-0.5, 0.25, 1.0, 2.0)
        reference = mp_regularized_rbf(x.points, y.points, sigma, alphas, 0.1)
        kernel = KernelSpec.gaussian_rbf(sigma)
        for alpha, ref in zip(alphas, reference):
            d = rkhs_alpha_distance(x, y, kernel, alpha, 0.1)
            assert abs(d - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("kernel", [LINEAR, POLY], ids=["linear", "poly"])
    def test_identical_points_against_varied_dataset(self, kernel):
        # X has zero covariance, so C_X + gI is gI on the whole span, and its
        # centered Gram block is exactly 0: the Gram-side log factor and
        # powers must vanish on it
        _, y = datasets(48, m=9, n=11, dim=3)
        x = Dataset.from_array(np.tile([0.5, -1.0, 2.0], (7, 1)))
        gamma = 0.1
        gx, gy = feature_gaussians(x, y, kernel)
        for alpha in (-0.5, 0.25, 1.0, AlphaParam.log_limit()):
            d_feat = alpha_procrustes_regularized(gx.covariance, gy.covariance, gamma, alpha).value
            d_xy = rkhs_alpha_distance(x, y, kernel, alpha, gamma)
            d_yx = rkhs_alpha_distance(y, x, kernel, alpha, gamma)
            assert abs(d_xy - d_feat) <= 1e-10 * d_feat
            assert abs(d_yx - d_xy) <= 1e-12 * d_xy
        d_feat = alpha_procrustes(gx.covariance, gy.covariance, 0.75).value
        d_xy = rkhs_alpha_distance(x, y, kernel, 0.75)
        assert abs(d_xy - d_feat) <= 1e-10 * d_feat

    @pytest.mark.parametrize("gamma", [0.1, 1e300])
    def test_log_limit_at_extreme_feature_scale(self, gamma):
        # Gram entries near 1e306: the Gram-side cross term must neither
        # overflow nor lose the answer to the scale of its factors
        rng = np.random.default_rng(1)
        x, y = (Dataset.from_array(rng.standard_normal((m, 2)) * 1e153) for m in (6, 5))
        _, cx = feature_covariance(x, LINEAR)
        _, cy = feature_covariance(y, LINEAR)
        log_limit = AlphaParam.log_limit()
        expected = alpha_procrustes_regularized(cx, cy, gamma, log_limit).value
        for d in both_routes(x, y, LINEAR, log_limit, gamma):
            assert d == pytest.approx(expected, rel=1e-9)

    def test_all_zero_features_give_zero(self):
        z = Dataset.from_array(np.zeros((4, 2)))
        assert rkhs_alpha_distance(z, z, LINEAR, 0.3, 0.1) == 0.0
        # points in R^0 have D = 0 features for linear and poly with c = 0:
        # there are no feature factors to take, so the Gram route serves them
        x, y = Dataset.from_array(np.ones((5, 0))), Dataset.from_array(np.ones((6, 0)))
        for kernel in (LINEAR, KernelSpec.polynomial(2), POLY):
            assert rkhs_alpha_distance(x, y, kernel, 0.3, 0.1) == 0.0
            assert rkhs_alpha_distance(x, y, kernel, 1.0) == 0.0

    @pytest.mark.parametrize("t", [1e-2, 1e2])
    @pytest.mark.parametrize(
        "kernel, degree, m, n, dim",
        [
            # ranks 3 and 3 span r = 3: the frame is complete (rb = r)
            (LINEAR, 1, 10, 12, 3),
            (KernelSpec.polynomial(2, 0.0), 2, 10, 12, 2),
            # ranks 4 and 3 of 6 (linear) and 5 and 3 of 10 (poly) features: rb < r
            (LINEAR, 1, 4, 5, 6),
            (KernelSpec.polynomial(2, 0.0), 2, 4, 6, 4),
        ],
        ids=["linear-complete", "poly-complete", "linear-partial", "poly-partial"],
    )
    def test_homogeneous_in_the_scale_of_the_points(self, kernel, degree, m, n, dim, t):
        # points times t scale a degree-d kernel's covariances by s = t^(2d),
        # so with the ridge scaled alike the distance scales by s^alpha
        x, y = datasets(49, m=m, n=n, dim=dim)
        tx, ty = (Dataset.from_array(t * ds.points) for ds in (x, y))
        s = t ** (2 * degree)
        for alpha in (-0.5, 0.25, 0.75, 2.0):
            for gamma in (1e-2, 0.1, 1.0):
                d = rkhs_alpha_distance(x, y, kernel, alpha, gamma)
                d_scaled = rkhs_alpha_distance(tx, ty, kernel, alpha, s * gamma)
                assert abs(d_scaled - s**alpha * d) <= 1e-9 * s**alpha * d

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
        assert rkhs_alpha_distance(x, x, RBF, 0.75) == pytest.approx(0.0, abs=1e-6)

    def test_half_alpha_is_twice_bw(self):
        x, y = datasets(19)
        _, cx = feature_covariance(x, LINEAR)
        _, cy = feature_covariance(y, LINEAR)
        for d in both_routes(x, y, LINEAR, 0.5):
            assert d == pytest.approx(2.0 * bures_wasserstein(cx, cy).value, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
    def test_polynomial_feature_oracle(self, alpha):
        x, y = datasets(20)
        _, cx = feature_covariance(x, POLY)
        _, cy = feature_covariance(y, POLY)
        d_feat = alpha_procrustes(cx, cy, alpha).value
        for d in both_routes(x, y, POLY, alpha):
            assert abs(d - d_feat) <= 1e-8 * max(1.0, d_feat)

    def test_gamma_sweep_convergence(self):
        for kernel, (x, y) in ((POLY, datasets(21)), (RBF, datasets(21, m=12, n=17))):
            d_un = rkhs_alpha_distance(x, y, kernel, 0.75)
            d_reg = rkhs_alpha_distance(x, y, kernel, 0.75, 1e-7)
            assert abs(d_reg - d_un) <= 1e-3 * d_un

    def test_unequal_counts_supported(self):
        x, y = datasets(22, m=9, n=12)
        d = rkhs_alpha_distance(x, y, POLY, 0.75)
        _, cx = feature_covariance(x, POLY)
        _, cy = feature_covariance(y, POLY)
        assert d == pytest.approx(alpha_procrustes(cx, cy, 0.75).value, rel=1e-8)

    @pytest.mark.parametrize("alpha", [0.55, 0.75, 1.0])
    def test_against_high_precision_feature_referee(self, alpha):
        # Centered poly:d=2,c=1 features of dim-5 data span 20 dimensions;
        # the 20th eigenvalue of Y's Gram block is 6.8e-11 of its largest, a
        # real range direction that the power bb^(a - 1/2) must keep.
        rng = np.random.default_rng(28)
        x, y = (_mixed_gaussian_sample(rng, m) for m in (120, 90))
        expected = mp_unregularized_poly(x, y, 2, 1.0, [alpha])[0]
        x, y = Dataset.from_array(x), Dataset.from_array(y)
        for d in both_routes(x, y, POLY, alpha):
            assert abs(d - expected) <= 1e-10 * expected

    def test_small_alpha_rejected(self):
        x, y = datasets(23)
        with pytest.raises(DomainError):
            rkhs_alpha_distance(x, y, POLY, 0.4)

    def test_cholesky_factors_match_the_eigenbases(self):
        # alpha = 1 from square factors of the blocks against the eigenbasis
        # route on the same blocks; about 4x the worst seen (1.4e-14 at seed 3,
        # dim 3, m = 9, n = 14, sigma 30).  Against a 40-digit referee on such
        # inputs either route reads up to ~2.5e-14.  Wide bandwidths leave the
        # shifted blocks numerically singular, so some cases fall back; those
        # must match bitwise.
        worst, by_factors = 0.0, 0
        for seed in range(6):
            for dim in (1, 3, 5):
                for m, n in ((9, 14), (23, 17), (40, 31)):
                    x, y = datasets(seed, m=m, n=n, dim=dim)
                    for sigma in np.geomspace(0.05, 30.0, 12):
                        kernel = KernelSpec.gaussian_rbf(float(sigma))
                        blocks = _gram_blocks(x, y, kernel)[1]
                        want = eigenbasis_alpha_one(blocks)
                        got = rkhs_alpha_distance(x, y, kernel, 1.0)
                        if _centered_factors(blocks) is None:
                            assert got == want
                            continue
                        by_factors += 1
                        assert got == _unregularized_distance(blocks, 1.0)
                        worst = max(worst, abs(got - want) / want)
        assert by_factors >= 400
        assert worst <= 5.5e-14

    @pytest.mark.parametrize("failing_call", [0, 1])
    def test_cholesky_failure_falls_back_bitwise(self, monkeypatch, failing_call):
        # aa or bb singular off the constant vector: the eigenbasis route's value, bit for bit
        import alphaproc.rkhs as rkhs_mod

        calls = []

        def failing(what, mat):
            calls.append(mat.shape)
            return None if len(calls) > failing_call else np.linalg.cholesky(mat)

        x, y = datasets(36, m=9, n=12)
        want = eigenbasis_alpha_one(_gram_blocks(x, y, RBF)[1])
        monkeypatch.setattr(rkhs_mod, "_cholesky", failing)
        assert rkhs_alpha_distance(x, y, RBF, 1.0) == want
        assert calls == [(9, 9), (12, 12)][: failing_call + 1]

    def test_wide_bandwidth_alpha_one_against_high_precision_referee(self):
        # at sigma 10 and 30 the RBF blocks are nearly rank deficient: the 3-D
        # ones still factor, the 1-D ones fall back to the eigenbases.  2.5x
        # the worst seen (1.57e-13 at seed 1, dim 1, sigma 30, the fallback).
        has_factors = set()
        for seed in (0, 1):
            for dim in (1, 3):
                x, y = datasets(seed, m=9, n=7, dim=dim)
                for sigma in (10.0, 30.0):
                    kernel = KernelSpec.gaussian_rbf(sigma)
                    has_factors.add(_centered_factors(_gram_blocks(x, y, kernel)[1]) is not None)
                    ref = mp_regularized_rbf(x.points, y.points, sigma, [1.0], 0)[0]
                    assert abs(rkhs_alpha_distance(x, y, kernel, 1.0) - ref) <= 4.0e-13 * ref
        assert has_factors == {False, True}


# Exact invariances of the covariance distances, checked on every route:
# regularized (alpha, gamma) and unregularized (alpha, 0.0).
METAMORPHIC_ROUTES = [
    *((alpha, gamma) for alpha in (-0.5, 0.25, 1.0, 2.0, AlphaParam.log_limit())
      for gamma in (1e-3, 0.1)),
    *((alpha, 0.0) for alpha in (0.5, 1.0, 2.0)),
]
# Relative deviation bounds, about 2.5x the worst seen over seeds 0-9 (in
# brackets).  RBF at alpha 2 and gamma 1e-3 loses digits to the cancellation
# of the trace form tr A^2a + tr B^2a - 2 cross, so it has its own bound, with
# almost no headroom: seeds 0-59 read up to 4.19e-8 there (median 7.0e-9), so
# a change to the roundoff of the Gram-route blocks may cross it by chance.
METAMORPHIC_RTOL_REGULARIZED = 1.4e-11  # [5.65e-12, RBF translation, alpha 1, gamma 1e-3]
METAMORPHIC_RTOL_UNREGULARIZED = 2.0e-14  # [8.14e-15, RBF translation, alpha 0.5]
METAMORPHIC_RTOL_RBF_CANCELLING = 2.1e-8  # [2.07e-8, RBF duplication, seed 8]


def _metamorphic_rtol(kernel, alpha, gamma):
    if gamma == 0.0:
        return METAMORPHIC_RTOL_UNREGULARIZED
    if kernel.kind == "rbf" and alpha == 2.0 and gamma == 1e-3:
        return METAMORPHIC_RTOL_RBF_CANCELLING
    return METAMORPHIC_RTOL_REGULARIZED


# Kernel scaling: the linear kernel on sqrt(c) X, and poly:d=3,c=0 on c^(1/6) X,
# give c K, so d(cK; c gamma) = c^a d(K; gamma) on the regularized routes (the
# log-limit reads c^0 = 1) and d(cK) = c^a d(K) on the unregularized ones.  At
# c = 4^-3 and 4^3 both scalings are powers of two, so every step is exact; at
# c = 10 the scaled data carry roundoff.  Relative bounds, about 2.5x the worst
# seen over seeds 0-9 (in brackets); alpha 2 loses digits to trace-form cancellation.
SCALING_RTOL_REGULARIZED = 1.0e-12  # [4.11e-13, poly, c 10, alpha 1, gamma 1e-3]
SCALING_RTOL_CANCELLING = 3.8e-10  # [1.53e-10, poly, c 10, alpha 2, gamma 0.1]
SCALING_RTOL_LOG_LIMIT = 5.1e-13  # [2.03e-13, linear, c 10, gamma 1e-3]
SCALING_RTOL_UNREGULARIZED = 9.3e-15  # [3.70e-15, linear, c 10, alpha 0.5]


def _scaling_rtol(alpha, gamma):
    if gamma == 0.0:
        return SCALING_RTOL_UNREGULARIZED
    if isinstance(alpha, AlphaParam):
        return SCALING_RTOL_LOG_LIMIT
    return SCALING_RTOL_CANCELLING if alpha == 2.0 else SCALING_RTOL_REGULARIZED


def _median_rbf(x, y):
    """RBF kernel whose sigma is the median distance between the pooled points."""
    pooled = np.vstack([x, y])
    pair_dists = np.linalg.norm(pooled[:, None] - pooled[None], axis=-1)
    return KernelSpec.gaussian_rbf(float(np.median(pair_dists[np.triu_indices(len(pooled), 1)])))


# (alpha, gamma) pairs for argument order and row permutation: both sides of
# the gamma = 0 switch of rkhs_alpha_distance
ORDER_ROUTES = [(0.75, 0.0), (1.0, 0.0), (-0.5, 0.1), (0.25, 0.1), (AlphaParam.log_limit(), 0.1)]


class TestMetamorphicRelations:
    @staticmethod
    def _distance(x, y, kernel, alpha, gamma):
        x, y = Dataset.from_array(x), Dataset.from_array(y)
        return rkhs_alpha_distance(x, y, kernel, alpha, gamma)

    @pytest.mark.parametrize("seed", range(10))
    def test_duplication_translation_and_rotation_leave_the_distance(self, seed):
        # duplicating X keeps its empirical moments; a common translation keeps
        # the linear covariances and the RBF Grams, and a common orthogonal
        # transform rotates both linear covariances alike and keeps the RBF Grams
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((30, 3))
        y = 1.3 * rng.standard_normal((25, 3)) + 0.4
        v, q = 5.0 * rng.standard_normal(3), rand_orthogonal(rng, 3)
        moved = {"duplication": (np.vstack([x, x]), y)}
        rigid = {"translation": (x + v, y + v), "orthogonal": (x @ q, y @ q)}
        relations = [
            (LINEAR, {**moved, **rigid}),
            (POLY, moved),
            (_median_rbf(x, y), {**moved, **rigid}),
        ]
        failures = []
        for kernel, cases in relations:
            for alpha, gamma in METAMORPHIC_ROUTES:
                d = self._distance(x, y, kernel, alpha, gamma)
                rtol = _metamorphic_rtol(kernel, alpha, gamma)
                for name, (x2, y2) in cases.items():
                    dev = abs(self._distance(x2, y2, kernel, alpha, gamma) - d) / d
                    if not dev <= rtol:
                        failures.append(f"{kernel} {name} alpha {alpha} gamma {gamma}: {dev:.2e}")
        assert failures == []

    @pytest.mark.parametrize("seed", range(10))
    def test_argument_order_and_row_permutation_leave_the_distance(self, seed):
        # d(X, Y) = d(Y, X), and the order of the rows of either sample is no
        # part of its empirical moments
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((30, 3))
        y = 1.3 * rng.standard_normal((25, 3)) + 0.4
        px, py = rng.permutation(len(x)), rng.permutation(len(y))
        cases = {"swapped": (y, x), "x permuted": (x[px], y), "y permuted": (x, y[py]),
                 "swapped and permuted": (y[py], x[px])}
        failures = []
        for kernel in (LINEAR, POLY, _median_rbf(x, y)):
            for alpha, gamma in ORDER_ROUTES:
                d = self._distance(x, y, kernel, alpha, gamma)
                rtol = _metamorphic_rtol(kernel, alpha, gamma)
                for name, (x2, y2) in cases.items():
                    dev = abs(self._distance(x2, y2, kernel, alpha, gamma) - d) / d
                    if not dev <= rtol:
                        failures.append(f"{kernel} {name} alpha {alpha} gamma {gamma}: {dev:.2e}")
        assert failures == []

    @pytest.mark.parametrize("seed", range(10))
    def test_kernel_scaling_scales_the_distance_by_c_to_the_alpha(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((30, 3))
        y = 1.3 * rng.standard_normal((25, 3)) + 0.4
        failures = []
        for kernel, root in ((LINEAR, 2), (KernelSpec.polynomial(3, 0.0), 6)):
            for alpha, gamma in METAMORPHIC_ROUTES:
                d = self._distance(x, y, kernel, alpha, gamma)
                a = alpha.value if isinstance(alpha, AlphaParam) else alpha
                for c in (4.0**-3, 4.0**3, 10.0):
                    s, c_gamma = c ** (1.0 / root), c * gamma
                    scaled = self._distance(s * x, s * y, kernel, alpha, c_gamma)
                    dev = abs(scaled - c**a * d) / (c**a * d)
                    if not dev <= _scaling_rtol(alpha, gamma):
                        failures.append(f"{kernel} c {c} alpha {alpha} gamma {gamma}: {dev:.2e}")
        assert failures == []


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
            d_feat = gaussian_alpha_distance(gx, gy, alpha, gamma=gamma)
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

    @pytest.mark.parametrize(
        "alpha,cholesky_fails,expected", [(0.5, False, 0), (1.0, False, 0), (1.0, True, 2)],
        ids=["0.5-0", "1.0-0", "1.0-fallback-2"],
    )
    def test_half_alpha_needs_no_eigensolve(
        self, monkeypatch, eigh_orders, alpha, cholesky_fails, expected
    ):
        # at alpha = 1/2 the range projections leave ab unchanged; at alpha = 1
        # Cholesky factors of the shifted centered blocks stand in for aa^(1/2)
        # and bb^(1/2), and without them alpha = 1 decomposes both blocks
        import alphaproc.rkhs as rkhs_mod

        if cholesky_fails:
            monkeypatch.setattr(rkhs_mod, "_cholesky", lambda what, mat: None)
        x, y = datasets(36, m=9, n=12)
        rkhs_gaussian_distance(x, y, RBF, alpha)
        assert len(eigh_orders) == expected
        if alpha == 0.5:
            rkhs_wasserstein(x, y, RBF)
            assert len(eigh_orders) == 0

    @pytest.mark.parametrize("alpha,gamma", [(0.75, 0.0), (1.0, 0.0), (0.3, 0.1), (0.0, 0.1)])
    def test_builds_gram_once(self, monkeypatch, alpha, gamma):
        import alphaproc.rkhs as rkhs_mod

        calls = []

        def counting(*args):
            calls.append(args)
            return _gram_blocks(*args)

        monkeypatch.setattr(rkhs_mod, "_gram_blocks", counting)
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
        e = SpdMatrix.from_array(_gram_blocks(x, y, RBF)[1][0])
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


class TestOverflow:
    def test_ridge_power_that_overflows_is_a_typed_error(self):
        # 0.1^-800 is beyond the float range; a Python float power would
        # raise a bare OverflowError (the suite errors on RuntimeWarning)
        rng = np.random.default_rng(1)
        x = Dataset.from_array(rng.standard_normal((30, 3)))
        y = Dataset.from_array(rng.standard_normal((25, 3)) + 1.0)
        with pytest.raises(NonFiniteError, match="^cross-term eigensolve: "):
            rkhs_alpha_distance(x, y, KernelSpec.gaussian_rbf(1.0), -400.0, 0.1)

    def test_mean_embedding_sums_that_overflow_are_a_typed_error(self):
        # 4 x 3 points near 3e153 (1, 1, 1) take the Gram route: each Gram entry
        # and each row sum is finite, the sums over all 16 entries are not
        rng = np.random.default_rng(0)
        x, y = (Dataset.from_array(3e153 * (1.0 + 0.1 * rng.standard_normal((4, 3))))
                for _ in range(2))
        with pytest.raises(NonFiniteError, match="^Gaussian distance: "):
            rkhs_gaussian_distance(x, y, KernelSpec.linear(), 0.5)
