import math

import numpy as np
import pytest
from conftest import (
    commuting_pair,
    noncommuting_pair,
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
)

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
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a, b = rand_spd(rng, n), rand_spd(rng, n)
            d_half = alpha_procrustes(a, b, 0.5).value
            d_bw = bures_wasserstein(a, b).value
            assert abs(d_half - 2.0 * d_bw) <= 1e-10 * max(1.0, d_half)
            assert d_bw == d_half / 2


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

    def test_zero_alpha_rejected(self):
        with pytest.raises(DomainError):
            power_euclidean(DIAG_A, DIAG_B, 0.0)

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
        assert calls[1][0].min_eig == a.min_eig + 0.1  # the ridged pair
        assert alpha_procrustes(a, b, AlphaParam.log_limit()).formula_path == "log-limit"
        assert log_euclidean(a, b).formula_path == "log-limit"
        assert len(calls) == len(results)

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
            # the regularized RKHS family is evaluated by the same function
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

        monkeypatch.setattr(
            metrics_mod, "trace_sqrt_triple", lambda a, b, al: 1e9
        )
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
