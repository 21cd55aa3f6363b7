import math

import numpy as np
import pytest
from conftest import (
    commuting_pair,
    mp_family,
    noncommuting_pair,
    procrustes_residual,
    rand_orthogonal,
    rand_psd_rank_deficient,
    rand_spd,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaproc import (
    AlphaParam,
    AlphaProcError,
    Dataset,
    DomainError,
    DimensionError,
    KernelSpec,
    NonFiniteError,
    NumericalInconsistencyError,
    SingularBaseError,
    SpdMatrix,
    alpha_procrustes,
    alpha_procrustes_regularized,
    bures_wasserstein,
    log_euclidean,
    pairwise_distances,
    power_euclidean,
    procrustes_bruteforce_2x2,
    rkhs_alpha_distance,
    spd_power,
)
from alphaproc.metrics import BRUTEFORCE_GRID, NEG_TRACE_RTOL, _trace_form

# Referee-free relations of the definition min_U |A^a - B^a U|_F / |a| (ROADMAP item 21): each
# maps (A, B, an orthogonal Q, alpha) to two values that are equal in exact arithmetic.
RELATIONS = {
    # alpha transfer, d_a(A, B) = |b / a| d_b(A^(a/b), B^(a/b)), at b = 1/2
    "transfer": lambda a, b, q, al: (
        alpha_procrustes(a, b, al).value,
        abs(0.5 / al) * alpha_procrustes(spd_power(a, 2.0 * al), spd_power(b, 2.0 * al), 0.5).value,
    ),
    # inversion, d_a(A^-1, B^-1) = d_-a(A, B)
    "inversion": lambda a, b, q, al: (
        alpha_procrustes(spd_power(a, -1.0), spd_power(b, -1.0), al).value,
        alpha_procrustes(a, b, -al).value,
    ),
    # ridged congruence, d(QAQ' + gI, QBQ' + gI) = d(A + gI, B + gI), at g = 0.1
    "ridged congruence": lambda a, b, q, al: (
        alpha_procrustes_regularized(
            *(SpdMatrix.from_array(q @ x.mat @ q.T) for x in (a, b)), 0.1, al
        ).value,
        alpha_procrustes_regularized(a, b, 0.1, al).value,
    ),
}
RELATION_ALPHAS = (-2.0, -1.0, -0.5, 0.25, 0.5, 1.0, 2.0)
# ~2.5x the worst relative gap over 800 such draws (default_rng seeds 0-3, 200 pairs each):
# transfer 5.9e-14, inversion 4.6e-13, ridged congruence 8.0e-13
RELATION_RTOL = {"transfer": 1.5e-13, "inversion": 1.2e-12, "ridged congruence": 2e-12}

DIAG_A = SpdMatrix.from_array(np.diag([1.0, 4.0]))
DIAG_B = SpdMatrix.from_array(np.diag([9.0, 16.0]))


class TestAlphaProcrustes:
    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 1.0, 2.0, 0.0])
    def test_self_distance_zero(self, alpha):
        a = rand_spd(np.random.default_rng(0), 4)
        assert alpha_procrustes(a, a, alpha).value == pytest.approx(0.0, abs=1e-6)

    def test_commuting_half(self):
        # commuting case reduces to the power Euclidean value 4*sqrt(2)
        result = alpha_procrustes(DIAG_A, DIAG_B, 0.5)
        assert result.value == pytest.approx(4.0 * math.sqrt(2.0), abs=1e-12)
        assert result.formula_path == "commuting"

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        a, b = rand_spd(rng, 2), rand_spd(rng, 2)
        closed = alpha_procrustes(a, b, 0.7).value
        brute = procrustes_bruteforce_2x2(a, b, 0.7)
        assert closed == pytest.approx(brute, abs=1e-6)

    def test_log_limit_is_log_euclidean(self):
        rng = np.random.default_rng(2)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        result = alpha_procrustes(a, b, AlphaParam.log_limit())
        assert result.value == log_euclidean(a, b).value
        assert result.formula_path == "log-limit"

    def test_negative_alpha_needs_strict(self):
        a = rand_psd_rank_deficient(np.random.default_rng(3), 3, 2)
        b = rand_spd(np.random.default_rng(4), 3)
        with pytest.raises(SingularBaseError):
            alpha_procrustes(a, b, -1.0)
        with pytest.raises(SingularBaseError):
            alpha_procrustes(a, b, AlphaParam.log_limit())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_is_a_domain_error(self, alpha):
        # blamed on alpha before any arithmetic, not on the matrix it poisons
        with pytest.raises(DomainError, match="alpha must be finite"):
            alpha_procrustes(DIAG_A, DIAG_B, alpha)
        with pytest.raises(DomainError, match="alpha must be finite"):
            alpha_procrustes_regularized(DIAG_A, DIAG_B, 0.1, alpha)

    def test_psd_allowed_for_positive_alpha(self):
        rng = np.random.default_rng(5)
        a = rand_psd_rank_deficient(rng, 3, 2)
        b = rand_spd(rng, 3)
        assert alpha_procrustes(a, b, 0.5).value > 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            alpha_procrustes(DIAG_A, rand_spd(np.random.default_rng(6), 3), 0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([-1.0, 0.5, 1.0, 2.0]))
    def test_unitary_orbit_invariance(self, seed, alpha):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        a, b = rand_spd(rng, n), rand_spd(rng, n)
        q = rand_orthogonal(rng, n)
        d1 = alpha_procrustes(a, b, alpha).value
        d2 = alpha_procrustes(
            SpdMatrix.from_array(q @ a.mat @ q.T),
            SpdMatrix.from_array(q @ b.mat @ q.T),
            alpha,
        ).value
        assert abs(d1 - d2) <= 1e-9 * max(1.0, d1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([-1.0, 0.0, 0.5, 2.0]))
    def test_symmetry(self, seed, alpha):
        rng = np.random.default_rng(seed)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        d1 = alpha_procrustes(a, b, alpha).value
        d2 = alpha_procrustes(b, a, alpha).value
        assert abs(d1 - d2) <= 1e-9 * max(1.0, d1)


class TestMetamorphicRelations:
    """Scope: validate's draws (rand_spd, eigenvalues in [0.3, 3], n 2-6) at |alpha| <= 2.

    The extreme-scale and large-|alpha| classes are known to fail (ROADMAP items 1, 4
    and 21); they land with the changes that mend them.
    """

    @pytest.mark.parametrize("relation", sorted(RELATIONS))
    def test_relation_holds_on_validate_draws(self, relation):
        rng = np.random.default_rng(0)
        gaps = []
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a, b, q = rand_spd(rng, n), rand_spd(rng, n), rand_orthogonal(rng, n)
            for alpha in RELATION_ALPHAS:
                lhs, rhs = RELATIONS[relation](a, b, q, alpha)
                gaps.append(abs(lhs - rhs) / rhs)
        # np.max keeps a NaN, which then fails the bound
        assert np.max(gaps) <= RELATION_RTOL[relation]


class TestCrossTerm:
    # the cross term tr[(A^a B^2a A^a)^(1/2)], read through the value
    # (1/|a|) sqrt(tr A^2a + tr B^2a - 2 cross) it gives

    def test_identity_pair(self):
        # cross term 2 against tr I^2 = 2 on each side
        eye = SpdMatrix.from_array(np.eye(2))
        assert alpha_procrustes(eye, eye, 1.0).value == pytest.approx(0.0, abs=1e-12)

    def test_matches_product_eigenvalues(self):
        # cross term: sum of sqrt eigenvalues of A^2a B^2a, via a general eigensolve
        rng = np.random.default_rng(5)
        for alpha in (0.5, 0.8, -0.6):
            a, b = rand_spd(rng, 4), rand_spd(rng, 4)
            prod = spd_power(a, 2 * alpha).mat @ spd_power(b, 2 * alpha).mat
            w = np.linalg.eigvals(prod)
            cross = np.sum(np.sqrt(np.maximum(w.real, 0.0)))
            ta, tb = (np.sum(np.linalg.eigvalsh(m.mat) ** (2 * alpha)) for m in (a, b))
            expected = math.sqrt(ta + tb - 2.0 * cross) / abs(alpha)
            assert alpha_procrustes(a, b, alpha).value == pytest.approx(expected, rel=1e-10)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(6)
        a, b = rand_spd(rng, 5), rand_spd(rng, 5)
        forward = alpha_procrustes(a, b, 0.7).value
        backward = alpha_procrustes(b, a, 0.7).value
        assert abs(forward - backward) <= 1e-9 * forward


REFEREE_ALPHAS = (-1.0, -0.5, 0.25, 0.5, 1.0, 2.0)


class TestHighPrecision:
    # today's accuracy of the trace form: each bound is 2.5x the worst
    # relative error over seeds 0-1, alpha in REFEREE_ALPHAS order
    @pytest.mark.parametrize(
        "c, gamma, bounds",
        [
            (1e6, None, (2.3e-9, 9.4e-11, 4.8e-13, 9.0e-12, 3.0e-8, 1.2e-8)),
            (1e6, 1e-3, (6.5e-11, 1.2e-14, 6.2e-15, 1.2e-14, 1.0e-11, 3.9e-9)),
            (1e10, None, (5.9e-7, 3.0e-7, 1.4e-11, 6.1e-9, 3.7e-10, 3.0e-8)),
            (1e10, 1e-3, (1.2e-10, 2.9e-14, 1.1e-14, 3.0e-14, 1.9e-11, 2.2e-8)),
        ],
        ids=["cond1e6", "cond1e6-ridge", "cond1e10", "cond1e10-ridge"],
    )
    def test_ill_conditioned_pairs_match_mpmath(self, c, gamma, bounds):
        # A and B share the spectrum geomspace(1/c, 1, 5) in two random bases
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            qa, qb = rand_orthogonal(rng, 5), rand_orthogonal(rng, 5)
            w = np.geomspace(1.0 / c, 1.0, 5)
            an, bn = (qa * w) @ qa.T, (qb * w) @ qb.T
            a, b = SpdMatrix.from_array(an), SpdMatrix.from_array(bn)
            expected = mp_family(an, bn, REFEREE_ALPHAS, gamma or 0.0)
            for alpha, ref, bound in zip(REFEREE_ALPHAS, expected, bounds):
                if gamma is None:
                    value = alpha_procrustes(a, b, alpha).value
                else:
                    value = alpha_procrustes_regularized(a, b, gamma, alpha).value
                assert abs(value - ref) <= bound * ref, (seed, alpha)


class TestBuresWasserstein:
    def test_identity_pair(self):
        eye = SpdMatrix.from_array(np.eye(2))
        assert bures_wasserstein(eye, eye).value == pytest.approx(0.0, abs=1e-7)

    def test_commuting(self):
        # sqrt(tr A + tr B - 2 tr diag(3, 8)) = sqrt(8)
        assert bures_wasserstein(DIAG_A, DIAG_B).value == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-12
        )

    def test_half_alpha_coincidence(self):
        # against the Procrustes form, not the alpha = 1/2 member it is defined by
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a, b = rand_spd(rng, n), rand_spd(rng, n)
            residual = procrustes_residual(a, b)
            assert abs(bures_wasserstein(a, b).value - residual) <= 1e-12 * max(1.0, residual)


class TestLogEuclidean:
    def test_self(self):
        a = rand_spd(np.random.default_rng(8), 3)
        assert log_euclidean(a, a).value == 0.0

    def test_diagonal(self):
        a = SpdMatrix.from_array(np.diag([math.e, math.e**2]))
        b = SpdMatrix.from_array(np.eye(2))
        assert log_euclidean(a, b).value == pytest.approx(math.sqrt(5.0), abs=1e-12)

    def test_small_alpha_limit_rate(self):
        rng = np.random.default_rng(9)
        a, b = rand_spd(rng, 4), rand_spd(rng, 4)
        d_log = log_euclidean(a, b).value
        gaps = [
            abs(alpha_procrustes(a, b, al).value - d_log) for al in (1e-3, 1e-4)
        ]
        assert gaps[0] <= 2.0 * 1e-3 * d_log  # gap shrinks ~linearly in alpha
        assert gaps[1] < gaps[0]
        assert gaps[1] <= 2.0 * 1e-4 * d_log


class TestPowerEuclidean:
    def test_self(self):
        a = rand_spd(np.random.default_rng(10), 3)
        assert power_euclidean(a, a, 0.7).value == 0.0

    def test_commuting_diagonal(self):
        assert power_euclidean(DIAG_A, DIAG_B, 0.5).value == pytest.approx(
            4.0 * math.sqrt(2.0), abs=1e-12
        )

    def test_zero_alpha_is_the_log_euclidean_distance(self):
        # exact 0 is inside the log-limit band, like AlphaParam.log_limit()
        expected = log_euclidean(DIAG_A, DIAG_B).value
        for alpha in (0.0, AlphaParam.log_limit()):
            assert power_euclidean(DIAG_A, DIAG_B, alpha).value == expected

    def test_overflow_raises_typed_error_without_warning(self):
        # 3^1000 overflows the power (pytest errors on RuntimeWarning)
        a, b = (SpdMatrix.from_array(np.diag(d)) for d in ([1.0, 2.0], [3.0, 0.5]))
        with pytest.raises(NonFiniteError, match="power 1000.0: .* overflows"):
            power_euclidean(a, b, 1000.0)

    def test_norm_that_overflows_is_rescaled(self):
        # at -1000 every power is finite, but the squares of the ~1e301
        # difference overflow: the value is 0.5^-1000 / 1000 to roundoff
        a, b = (SpdMatrix.from_array(np.diag(d)) for d in ([1.0, 2.0], [3.0, 0.5]))
        assert power_euclidean(a, b, -1000.0).value == pytest.approx(2.0**1000 / 1000, rel=1e-14)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_norm_bitwise_equals_numpy_where_squares_are_finite(self, alpha):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n, scale = int(rng.integers(1, 13)), 10.0 ** rng.uniform(-150, 150)
            a, b = (SpdMatrix.from_array(rand_spd(rng, n).mat * scale) for _ in range(2))
            diff = spd_power(a, alpha).mat - spd_power(b, alpha).mat
            assert power_euclidean(a, b, alpha).value == np.linalg.norm(diff) / alpha

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_norm_whose_squares_overflow_matches_max_entry_rescaling(self, scale):
        rng = np.random.default_rng(14)
        a, b = (SpdMatrix.from_array(rand_spd(rng, 5).mat * scale) for _ in range(2))
        diff = spd_power(a, 1.0).mat - spd_power(b, 1.0).mat
        top = np.max(np.abs(diff))
        expected = top * np.linalg.norm(diff / top)
        assert power_euclidean(a, b, 1.0).value == pytest.approx(expected, rel=4e-16)

    def test_result_records_no_ridge(self):
        assert power_euclidean(DIAG_A, DIAG_B, 0.5).gamma == 0.0

    def test_tiny_alpha_routes_to_log(self):
        rng = np.random.default_rng(11)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        assert power_euclidean(a, b, 1e-9).value == log_euclidean(a, b).value

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([-1.0, 0.5, 0.7, 2.0]))
    def test_comparison_inequality(self, seed, alpha):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        a, b = noncommuting_pair(rng, n)
        d_pro = alpha_procrustes(a, b, alpha).value
        d_pow = power_euclidean(a, b, alpha).value
        assert d_pro <= d_pow + 1e-10
        assert d_pow - d_pro > 1e-6

    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 0.7, 2.0])
    def test_commuting_equality(self, alpha):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a, b = commuting_pair(rng, 4)
            d_pro = alpha_procrustes(a, b, alpha).value
            d_pow = power_euclidean(a, b, alpha).value
            assert abs(d_pro - d_pow) <= 1e-10 * max(1.0, d_pow)


class TestTraceForm:
    # scale |ta| + |tb| = 976562.5, far from 1, where NEG_TRACE_RTOL * scale is exactly 2^-10
    TA = TB = 488281.25

    def test_clamp_threshold_is_exact_at_this_scale(self):
        assert NEG_TRACE_RTOL * (self.TA + self.TB) == 2.0**-10

    def test_negative_argument_inside_the_threshold_is_clamped(self):
        cross = (self.TA + self.TB + 2.0**-11) / 2.0  # argument -2^-11
        assert _trace_form(self.TA, self.TB, cross, 1.0) == 0.0

    def test_negative_argument_at_the_threshold_raises(self):
        cross = (self.TA + self.TB + 2.0**-10) / 2.0  # argument -2^-10
        with pytest.raises(NumericalInconsistencyError, match="beyond the roundoff clamp"):
            _trace_form(self.TA, self.TB, cross, 1.0)


class TestRegularized:
    def test_self(self):
        a = rand_spd(np.random.default_rng(13), 3)
        assert alpha_procrustes_regularized(a, a, 0.1, 0.8).value == pytest.approx(
            0.0, abs=1e-6
        )

    def test_gamma_to_zero_convergence(self):
        rng = np.random.default_rng(14)
        a = rand_psd_rank_deficient(rng, 4, 3)
        b = rand_psd_rank_deficient(rng, 4, 3)
        d0 = alpha_procrustes(a, b, 0.5).value
        previous = math.inf
        for gamma in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
            gap = abs(alpha_procrustes_regularized(a, b, gamma, 0.5).value - d0)
            assert gap <= previous + 1e-12
            previous = gap
        assert gap <= 1e-3 * d0

    def test_scaling_identity(self):
        rng = np.random.default_rng(15)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        for gamma, alpha in ((0.35, 0.8), (2.0, -0.6), (0.5, 0.0)):
            lhs = alpha_procrustes_regularized(a, b, gamma, alpha).value
            rhs = gamma**alpha * alpha_procrustes_regularized(
                SpdMatrix.from_array(a.mat / gamma),
                SpdMatrix.from_array(b.mat / gamma),
                1.0,
                alpha,
            ).value
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)

    def test_log_limit_path(self):
        rng = np.random.default_rng(16)
        a = rand_psd_rank_deficient(rng, 3, 2)
        b = rand_psd_rank_deficient(rng, 3, 2)
        gamma = 0.2
        result = alpha_procrustes_regularized(a, b, gamma, AlphaParam.log_limit())
        expected = log_euclidean(a.add_ridge(gamma), b.add_ridge(gamma)).value
        assert result.value == expected

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_gamma_must_be_positive(self, gamma):
        with pytest.raises(DomainError, match="gamma"):
            alpha_procrustes_regularized(DIAG_A, DIAG_B, gamma, 0.5)


class TestBruteforce:
    def test_self_distance(self):
        a = rand_spd(np.random.default_rng(17), 2)
        assert procrustes_bruteforce_2x2(a, a, 0.8) == pytest.approx(0.0, abs=1e-9)

    def test_commuting_equals_power_euclidean(self):
        assert procrustes_bruteforce_2x2(DIAG_A, DIAG_B, 0.5) == pytest.approx(
            power_euclidean(DIAG_A, DIAG_B, 0.5).value, abs=1e-9
        )

    def test_half_alpha_equals_twice_bw(self):
        rng = np.random.default_rng(18)
        a, b = rand_spd(rng, 2), rand_spd(rng, 2)
        brute = procrustes_bruteforce_2x2(a, b, 0.5)
        assert brute == pytest.approx(2.0 * bures_wasserstein(a, b).value, abs=1e-6)

    def test_rejects_wrong_dimension(self):
        a = rand_spd(np.random.default_rng(19), 3)
        with pytest.raises(DimensionError):
            procrustes_bruteforce_2x2(a, a, 0.5)

    # values of the earlier per-angle grid plus golden-section oracle
    PINNED = {
        # best rotation angle a third of a grid step below 2 pi
        "best-angle-below-2pi": (
            [[2.0, 0.3], [0.3, 1.0]], [[2.0, 0.25], [0.25, 1.0]], 0.5, 0.05886104443823925
        ),
        "negative-alpha": (
            [[1.5, -0.4], [-0.4, 0.8]], [[0.6, 0.2], [0.2, 2.5]], -1.0, 1.551131693256739
        ),
        "cond-1e4": (
            [[1.0, 0.0], [0.0, 1e-4]], [[0.5, 0.49], [0.49, 0.4804]], 0.7, 1.0728510849502007
        ),
    }

    @pytest.mark.parametrize("case", PINNED)
    def test_pinned_values(self, case):
        a, b, alpha, expected = self.PINNED[case]
        value = procrustes_bruteforce_2x2(
            SpdMatrix.from_array(a), SpdMatrix.from_array(b), alpha
        )
        assert value == pytest.approx(expected, rel=1e-11, abs=0.0)

    def test_pinned_best_angle_is_just_below_two_pi(self):
        # the optimal U is the polar factor of B^a A^a, a rotation here
        a, b, alpha, _ = self.PINNED["best-angle-below-2pi"]
        pa, pb = (spd_power(SpdMatrix.from_array(x), alpha).mat for x in (a, b))
        left, _, right = np.linalg.svd(pb @ pa)
        u = left @ right
        theta = math.atan2(u[1, 0], u[0, 0]) % (2.0 * math.pi)
        step = 2.0 * math.pi / BRUTEFORCE_GRID
        assert 2.0 * math.pi - step / 2.0 < theta < 2.0 * math.pi


class TestDistanceResult:
    def test_float_conversion(self):
        result = alpha_procrustes(DIAG_A, DIAG_B, 0.5)
        assert float(result) == result.value

    def test_records_configuration(self):
        result = alpha_procrustes_regularized(DIAG_A, DIAG_B, 0.3, 0.8)
        assert result.gamma == 0.3
        assert result.alpha.value == 0.8

    def test_commuting_diagnostic_worked_out_only_when_read(self, monkeypatch):
        import alphaproc.metrics as metrics_mod

        calls = []
        original = metrics_mod._commutes

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(metrics_mod, "_commutes", counting)
        rng = np.random.default_rng(21)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        results = [
            alpha_procrustes(a, b, 0.5),
            alpha_procrustes_regularized(a, b, 0.1, 0.5),
            bures_wasserstein(a, b),
            power_euclidean(a, b, 0.5),
        ]
        assert len(calls) == 0
        for k, result in enumerate(results, start=1):
            assert result.formula_path == "general"
            assert len(calls) == k
            assert result.formula_path == "general"
            assert len(calls) == k
        assert calls[1][0].eig.min == a.eig.min + 0.1  # the ridged pair
        assert alpha_procrustes(a, b, AlphaParam.log_limit()).formula_path == "log-limit"
        assert log_euclidean(a, b).formula_path == "log-limit"
        assert len(calls) == len(results)

    @pytest.mark.parametrize("s", [1e-8, 1e-6, 1.0, 1e6, 1e8])
    def test_commuting_diagnostic_is_scale_free(self, s):
        # the commutator is compared with |A|_F |B|_F, so scaling both ends
        # moves neither pair across the threshold
        rng = np.random.default_rng(23)
        for pair, path in (
            (commuting_pair(rng, 4), "commuting"),
            (noncommuting_pair(rng, 4), "general"),
        ):
            a, b = (SpdMatrix.from_array(s * end.mat) for end in pair)
            assert alpha_procrustes(a, b, 0.5).formula_path == path

    def test_ridged_endpoints_form_no_matrix_until_read(self):
        # the distance needs only the ridged spectra; the dense A + gamma*I
        # is formed when formula_path reads it
        rng = np.random.default_rng(22)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        result = alpha_procrustes_regularized(a, b, 0.1, 0.5)
        assert all("mat" not in vars(end) for end in result._endpoints)
        assert result.formula_path == "general"
        assert all("mat" in vars(end) for end in result._endpoints)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: alpha_procrustes(DIAG_A, DIAG_B, 0.5),
            # the regularized RKHS family forms its cross term in its own frame
            # and shares trace_sqrt and the clamp with the matrix family
            lambda: rkhs_alpha_distance(
                Dataset.from_array(np.arange(8.0).reshape(4, 2)),
                Dataset.from_array(np.arange(8.0).reshape(4, 2) ** 1.5),
                KernelSpec.linear(),
                0.5,
                0.1,
            ),
        ],
        ids=["matrix", "rkhs"],
    )
    def test_negative_clamp_raises_beyond_threshold(self, monkeypatch, call):
        import alphaproc.metrics as metrics_mod
        import alphaproc.rkhs as rkhs_mod

        for module in (metrics_mod, rkhs_mod):
            monkeypatch.setattr(module, "trace_sqrt", lambda m: 1e9)
        with pytest.raises(NumericalInconsistencyError):
            call()


class TestPairwise:
    def test_matches_serial(self):
        rng = np.random.default_rng(20)
        mats = [rand_spd(rng, 3) for _ in range(4)]
        out = pairwise_distances(mats, 0.5)
        for i in range(4):
            for j in range(4):
                expected = 0.0 if i == j else alpha_procrustes(mats[i], mats[j], 0.5).value
                assert out[i, j] == pytest.approx(expected, abs=1e-12)
        assert np.allclose(out, out.T)


class TestExtremeScale:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_typed_error(self):
        # 4x4 Wishart pair scaled by 1e100: at alpha = 2 the cross term needs
        # B^4, whose entries (~1e400) overflow
        g, h = np.random.default_rng(5).standard_normal((2, 4, 6))
        a = SpdMatrix.from_array(g @ g.T * 1e100)
        b = SpdMatrix.from_array(h @ h.T * 1e100)
        with pytest.raises(AlphaProcError):
            alpha_procrustes(a, b, 2.0)

    @pytest.mark.parametrize("alpha", ["0.25", "0.5", "-0.5", "log-limit"])
    @pytest.mark.parametrize("s", [1e-13, 1e-20, 1e-50, 1e-100, 1e-150])
    def test_homogeneous_at_small_scale(self, s, alpha):
        # d(sA, sB) = s^a d(A, B): the PSD tolerance is relative, so a pair
        # scaled far below 1 keeps its whole spectrum
        al = AlphaParam.parse(alpha)
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            a, b = rand_spd(rng, n), rand_spd(rng, n)
            expected = s**al.value * alpha_procrustes(a, b, al).value
            scaled = alpha_procrustes(
                SpdMatrix.from_array(s * a.mat), SpdMatrix.from_array(s * b.mat), al
            ).value
            assert abs(scaled - expected) <= 1e-12 * expected
