import math
import re

import numpy as np
import pytest
from conftest import rand_spd, rand_sym

from alphaproc import (
    AlphaParam,
    DomainError,
    GeodesicCurve,
    NonSpdIntermediateError,
    SingularBaseError,
    SpdMatrix,
    SymMatrix,
    alpha_procrustes,
    bures_wasserstein,
    geodesic_length_numeric,
    loewner_apply,
    metric_inner,
    solve_general_lyapunov,
    spd_log,
    spd_power,
    sym_eigendecompose,
)
from alphaproc.geometry import QUADRATURE_BLOCK_ENTRIES, _lyapunov_factor


def kron_lyapunov_solve(p0: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Independent Lyapunov oracle: solve (I x P0 + P0 x I) vec(H) = vec(Y)."""
    n = p0.shape[0]
    eye = np.eye(n)
    system = np.kron(eye, p0) + np.kron(p0, eye)
    return np.linalg.solve(system, y.reshape(-1)).reshape(n, n)


def forward_map(p0: SpdMatrix, h: SymMatrix, alpha: float) -> SymMatrix:
    """Dexp(log P0) o Dlog(P0^2a) (H P0^2a + P0^2a H), via loewner_apply."""
    p2a = spd_power(p0, 2.0 * alpha)
    w = SymMatrix.from_array(h.mat @ p2a.mat + p2a.mat @ h.mat)
    inner = loewner_apply(p2a.eig, "log", w)
    return loewner_apply(sym_eigendecompose(spd_log(p0)), "exp", inner)


class TestLyapunovSolve:
    def test_half_alpha_example(self):
        p0 = SpdMatrix.from_array(np.diag([1.0, 2.0]))
        y = SymMatrix.from_array([[2.0, 3.0], [3.0, 8.0]])
        h = solve_general_lyapunov(p0, y, 0.5)
        assert np.allclose(h.mat, [[1.0, 1.0], [1.0, 2.0]], atol=1e-12)

    def test_identity_base_point(self):
        rng = np.random.default_rng(0)
        y = rand_sym(rng, 4)
        for alpha in (0.5, -1.0, 2.0):
            h = solve_general_lyapunov(SpdMatrix.from_array(np.eye(4)), y, alpha)
            assert np.allclose(h.mat, y.mat / 2.0, atol=1e-12)

    def test_forward_map_residual(self):
        rng = np.random.default_rng(1)
        p0 = rand_spd(rng, 4)
        y = rand_sym(rng, 4)
        h = solve_general_lyapunov(p0, y, 0.8)
        back = forward_map(p0, h, 0.8)
        assert np.linalg.norm(back.mat - y.mat) <= 1e-9 * np.linalg.norm(y.mat)

    def test_half_alpha_matches_kronecker_oracle(self):
        rng = np.random.default_rng(2)
        p0 = rand_spd(rng, 4)
        y = rand_sym(rng, 4)
        h = solve_general_lyapunov(p0, y, 0.5)
        expected = kron_lyapunov_solve(p0.mat, y.mat)
        assert np.allclose(h.mat, expected, atol=1e-10)

    def test_small_alpha_matches_log_derivative(self):
        # as alpha -> 0 the solve collapses to H = (1/2) Dlog(P0) Y
        rng = np.random.default_rng(3)
        p0 = rand_spd(rng, 4)
        y = rand_sym(rng, 4)
        h = solve_general_lyapunov(p0, y, 1e-6)
        expected = loewner_apply(p0.eig, "log", y).mat / 2.0
        assert np.linalg.norm(h.mat - expected) <= 1e-5 * np.linalg.norm(expected)

    def test_zero_alpha_rejected(self):
        p0 = SpdMatrix.from_array(np.eye(2))
        with pytest.raises(DomainError):
            solve_general_lyapunov(p0, SymMatrix.from_array(np.eye(2)), 0.0)


class TestLyapunovFactor:
    def test_half_alpha_is_sum(self):
        lam = np.array([0.4, 1.3, 2.7])
        f = _lyapunov_factor(lam, 0.5)
        expected = lam[:, None] + lam[None, :]
        assert np.allclose(f, expected, atol=1e-12)

    def test_small_alpha_is_log_form(self):
        lam = np.array([0.4, 1.3, 2.7])
        f = _lyapunov_factor(lam, 1e-6)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = 2.0 * (lam[:, None] - lam[None, :]) / (
                np.log(lam)[:, None] - np.log(lam)[None, :]
            )
        np.fill_diagonal(expected, 2.0 * lam)
        assert np.allclose(f, expected, rtol=1e-6)

    def test_degenerate_limit(self):
        lam = np.array([1.5, 1.5])
        f = _lyapunov_factor(lam, 0.8)
        assert np.allclose(f, 2.0 * 1.5)


class TestMetricInner:
    def test_identity_base_point(self):
        rng = np.random.default_rng(4)
        y, z = rand_sym(rng, 4), rand_sym(rng, 4)
        eye = SpdMatrix.from_array(np.eye(4))
        for alpha in (0.5, 1.0, -0.7, 0.0):
            assert metric_inner(eye, y, z, alpha) == pytest.approx(
                np.trace(y.mat @ z.mat), rel=1e-12
            )

    def test_half_alpha_is_four_times_wasserstein_metric(self):
        rng = np.random.default_rng(5)
        p0 = rand_spd(rng, 4)
        y, z = rand_sym(rng, 4), rand_sym(rng, 4)
        hy = kron_lyapunov_solve(p0.mat, y.mat)
        hz = kron_lyapunov_solve(p0.mat, z.mat)
        expected = 4.0 * np.trace(hy @ p0.mat @ hz)
        assert metric_inner(p0, y, z, 0.5) == pytest.approx(expected, rel=1e-10)

    def test_log_limit_consistency(self):
        # the alpha-correction of the metric is linear, so check a linear
        # gap decay plus tight agreement at alpha = 1e-6
        rng = np.random.default_rng(6)
        p0 = rand_spd(rng, 4)
        y, z = rand_sym(rng, 4), rand_sym(rng, 4)
        v_limit = metric_inner(p0, y, z, 0.0)
        gaps = [
            abs(metric_inner(p0, y, z, alpha) - v_limit) / abs(v_limit)
            for alpha in (1e-2, 1e-3, 1e-4)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] == pytest.approx(gaps[0] / 10.0, rel=0.05)
        v_tiny = metric_inner(p0, y, z, 1e-6)
        assert abs(v_tiny - v_limit) <= 1e-5 * abs(v_limit)

    def test_symmetric_bilinear_positive(self):
        rng = np.random.default_rng(7)
        p0 = rand_spd(rng, 4)
        for _ in range(100):
            y, z = rand_sym(rng, 4), rand_sym(rng, 4)
            forward = metric_inner(p0, y, z, 0.8)
            backward = metric_inner(p0, z, y, 0.8)
            assert abs(forward - backward) <= 1e-12 * max(1.0, abs(forward))
            assert metric_inner(p0, y, y, 0.8) > 0.0

    @pytest.mark.parametrize(
        "alpha, solver, distinct_calls",
        [(0.8, "_eigenbasis_inner", 1), (0.0, "_eigenbasis_inner", 1)],
        ids=["0.8-_eigenbasis_inner", "0.0-_eigenbasis_inner"],
    )
    def test_speed_solves_once(self, monkeypatch, alpha, solver, distinct_calls):
        import alphaproc.geometry as geometry_mod

        calls = []
        original = getattr(geometry_mod, solver)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(geometry_mod, solver, counting)
        rng = np.random.default_rng(19)
        p0, y, z = rand_spd(rng, 3), rand_sym(rng, 3), rand_sym(rng, 3)
        assert metric_inner(p0, y, y, alpha) > 0.0
        assert len(calls) == 1
        calls.clear()
        metric_inner(p0, y, z, alpha)
        assert len(calls) == distinct_calls

    @pytest.mark.parametrize("alpha", [-1.0, -0.3, 0.25, 0.5, 0.8, 2.0])
    def test_matches_lyapunov_trace_form(self, alpha):
        # reference: 4 tr(H_Y P0^2a H_Z) with H from solve_general_lyapunov
        rng = np.random.default_rng(22)
        for n in (2, 5, 12):
            p0 = rand_spd(rng, n)
            y, z = rand_sym(rng, n), rand_sym(rng, n)
            hy = solve_general_lyapunov(p0, y, alpha).mat
            hz = solve_general_lyapunov(p0, z, alpha).mat
            expected = 4.0 * np.trace(hy @ spd_power(p0, 2.0 * alpha).mat @ hz)
            assert metric_inner(p0, y, z, alpha) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(23)
        p0 = rand_spd(rng, 3)
        for alpha in (0.8, AlphaParam.log_limit()):
            with pytest.raises(DomainError):
                metric_inner(p0, rand_sym(rng, 3), rand_sym(rng, 2), alpha)

    def test_log_limit_matches_log_derivative(self):
        # reference: tr(Dlog(P0)[Y] Dlog(P0)[Z]) through loewner_apply
        rng = np.random.default_rng(24)
        for n in (2, 5, 12):
            p0 = rand_spd(rng, n)
            y, z = rand_sym(rng, n), rand_sym(rng, n)
            ly, lz = loewner_apply(p0.eig, "log", y), loewner_apply(p0.eig, "log", z)
            expected = np.trace(ly.mat @ lz.mat)
            scale = math.sqrt(
                metric_inner(p0, y, y, AlphaParam.log_limit())
                * metric_inner(p0, z, z, AlphaParam.log_limit())
            )
            value = metric_inner(p0, y, z, AlphaParam.log_limit())
            assert abs(value - expected) <= 1e-12 * scale


class TestGeodesic:
    def test_endpoints(self):
        rng = np.random.default_rng(8)
        for alpha in (0.25, 0.5, 1.0, -0.5):
            a, b = rand_spd(rng, 3), rand_spd(rng, 3)
            curve = GeodesicCurve(a, b, alpha)
            assert np.linalg.norm(
                curve.at(0.0).mat - a.mat
            ) <= 1e-9 * np.linalg.norm(a.mat)
            assert np.linalg.norm(
                curve.at(1.0).mat - b.mat
            ) <= 1e-9 * np.linalg.norm(b.mat)

    def test_commuting_midpoint(self):
        a = SpdMatrix.from_array(np.diag([1.0, 4.0]))
        b = SpdMatrix.from_array(np.diag([9.0, 16.0]))
        mid = GeodesicCurve(a, b, 0.5).at(0.5)
        assert np.allclose(mid.mat, np.diag([4.0, 9.0]), atol=1e-12)

    def test_midpoint_additivity(self):
        rng = np.random.default_rng(9)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        curve = GeodesicCurve(a, b, 0.7)
        g = curve.at(0.3)
        total = alpha_procrustes(a, b, 0.7).value
        split = (
            alpha_procrustes(a, g, 0.7).value + alpha_procrustes(g, b, 0.7).value
        )
        assert abs(split - total) <= 1e-6 * total

    def test_t_outside_range_rejected(self):
        rng = np.random.default_rng(10)
        curve = GeodesicCurve(rand_spd(rng, 2), rand_spd(rng, 2), 0.5)
        with pytest.raises(DomainError):
            curve.at(1.5)

    def test_zero_alpha_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(DomainError):
            GeodesicCurve(rand_spd(rng, 2), rand_spd(rng, 2), 0.0)

    def test_output_is_spd(self):
        rng = np.random.default_rng(12)
        curve = GeodesicCurve(rand_spd(rng, 4), rand_spd(rng, 4), 0.6)
        for t in (0.1, 0.45, 0.9):
            assert curve.at(t).min_eig > 0


class TestGeodesicLength:
    def test_degenerate_curve(self):
        a = rand_spd(np.random.default_rng(13), 3)
        curve = GeodesicCurve(a, a, 0.5)
        assert geodesic_length_numeric(curve, 200) == pytest.approx(0.0, abs=1e-9)

    def test_half_alpha_matches_twice_bw(self):
        rng = np.random.default_rng(14)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        curve = GeodesicCurve(a, b, 0.5)
        length = geodesic_length_numeric(curve, 1000)
        assert length == pytest.approx(2.0 * bures_wasserstein(a, b).value, rel=1e-3)

    def test_quarter_alpha_matches_closed_form(self):
        rng = np.random.default_rng(15)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        curve = GeodesicCurve(a, b, 0.25)
        length = geodesic_length_numeric(curve, 1000)
        assert length == pytest.approx(alpha_procrustes(a, b, 0.25).value, rel=1e-3)

    def test_each_grid_point_evaluated_once(self, eigh_orders):
        # steps + 2 grid points plus one eigensolve for the cross root
        rng = np.random.default_rng(18)
        curve = GeodesicCurve(rand_spd(rng, 3), rand_spd(rng, 3), 0.7)
        eigh_orders.clear()
        geodesic_length_numeric(curve, 100)
        assert len(eigh_orders) == 103

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n, steps", [(2, 100), (5, 100), (48, 337)])
    def test_matches_per_point_reference(self, alpha, n, steps):
        # n=48 takes blocks of 14 points: 24 full blocks and a remainder of 3
        rng = np.random.default_rng(24)
        curve = GeodesicCurve(rand_spd(rng, n), rand_spd(rng, n), alpha)
        dt = 1.0 / steps
        points = [curve._point((j - 0.5) * dt) for j in range(steps + 2)]
        expected = 0.0
        for j in range(1, steps + 1):
            velocity = SymMatrix.from_array((points[j + 1].mat - points[j - 1].mat) / (2.0 * dt))
            speed_sq = metric_inner(points[j], velocity, velocity, alpha)
            expected += math.sqrt(max(speed_sq, 0.0)) * dt
        assert geodesic_length_numeric(curve, steps) == pytest.approx(expected, rel=1e-12)

    def test_lost_positivity_names_first_failing_t(self):
        # bracket I + t(1-t) diag(0, .., 0, -5): the last eigenvalue
        # 1 - 5t(1-t) turns negative near t = 0.276, in the third block of 14
        n, steps = 48, 100
        rng = np.random.default_rng(25)
        curve = GeodesicCurve(rand_spd(rng, n), rand_spd(rng, n), 0.5)
        cross = np.diag([2.0] * (n - 1) + [-3.0])
        curve.__dict__["_closed_form"] = (np.eye(n), np.eye(n), cross)
        dt = 1.0 / steps
        ts = [(j - 0.5) * dt for j in range(steps + 2)]
        first = next(t for t in ts if 1.0 - 5.0 * t * (1.0 - t) <= 1e-12)
        assert 0.276 < first < 0.3
        with pytest.raises(NonSpdIntermediateError, match=re.escape(f"t={first} ")):
            geodesic_length_numeric(curve, steps)
        with pytest.raises(NonSpdIntermediateError, match=re.escape("t=0.5 ")):
            curve.at(0.5)

    def test_non_strict_midpoint_rejected(self):
        # constant bracket diag(1, 1e-7) passes the positivity check, but at
        # alpha = 1/4 the point diag(1, 1e-14) is not strictly positive
        rng = np.random.default_rng(27)
        curve = GeodesicCurve(rand_spd(rng, 2), rand_spd(rng, 2), 0.25)
        d = np.diag([1.0, 1e-7])
        curve.__dict__["_closed_form"] = (d, d, 2.0 * d)
        with pytest.raises(SingularBaseError, match="metric inner product"):
            geodesic_length_numeric(curve, 100)

    def test_eigensolve_stacks_bounded(self, monkeypatch):
        n, steps = 192, 1000
        rng = np.random.default_rng(26)
        a, b = rand_spd(rng, n), rand_spd(rng, n)
        curve = GeodesicCurve(a, b, 0.5)
        curve._closed_form  # noqa: B018  (built before recording)
        sizes = []
        original = np.linalg.eigh

        def recording(mats, *args, **kwargs):
            sizes.append(np.size(mats))
            return original(mats, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        length = geodesic_length_numeric(curve, steps)
        assert sum(sizes) == (steps + 2) * n * n
        assert max(sizes) <= max(3 * n * n, QUADRATURE_BLOCK_ENTRIES)
        assert length == pytest.approx(2.0 * bures_wasserstein(a, b).value, rel=1e-3)

    def test_too_few_steps_rejected(self):
        rng = np.random.default_rng(16)
        curve = GeodesicCurve(rand_spd(rng, 2), rand_spd(rng, 2), 0.5)
        with pytest.raises(DomainError):
            geodesic_length_numeric(curve, 50)


SCALES = [1e-30, 1e-12, 1e-9, 1e-6, 1e3, 1e30]


class TestScaleCovariance:
    """The metric is homogeneous in P0: <sY, sZ>_sP0 = s^2a <Y, Z>_P0.

    Each eigenvalue-gap switch is relative to the eigenvalues it compares,
    so this holds to roundoff at any scale, not only near 1.
    """

    @pytest.mark.parametrize("alpha", ["-0.5", "0.25", "0.5", "1", "2", "log-limit"])
    @pytest.mark.parametrize("s", SCALES)
    def test_metric_inner(self, s, alpha):
        al = AlphaParam.parse(alpha)
        rng = np.random.default_rng(40)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            p0 = rand_spd(rng, n)
            y, z = rand_sym(rng, n), rand_sym(rng, n)
            expected = metric_inner(p0, y, z, al)
            scale = math.sqrt(metric_inner(p0, y, y, al) * metric_inner(p0, z, z, al))
            scaled = metric_inner(
                SpdMatrix.from_array(s * p0.mat),
                SymMatrix.from_array(s * y.mat),
                SymMatrix.from_array(s * z.mat),
                al,
            )
            assert abs(scaled / s ** (2.0 * al.value) - expected) <= 1e-12 * scale

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_geodesic_length(self, alpha):
        s = 1e-9
        rng = np.random.default_rng(41)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        expected = geodesic_length_numeric(GeodesicCurve(a, b, alpha), 200)
        scaled = geodesic_length_numeric(
            GeodesicCurve(SpdMatrix.from_array(s * a.mat), SpdMatrix.from_array(s * b.mat), alpha),
            200,
        )
        assert abs(scaled / s**alpha - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("s", SCALES)
    def test_log_derivative(self, s):
        # log(sP) = log(s) I + log(P), so Dlog(sP0)[sY] = Dlog(P0)[Y]
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            p0, y = rand_spd(rng, n), rand_sym(rng, n)
            expected = loewner_apply(p0.eig, "log", y).mat
            scaled = loewner_apply(
                SpdMatrix.from_array(s * p0.mat).eig, "log", SymMatrix.from_array(s * y.mat)
            ).mat
            assert np.linalg.norm(scaled - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_log_limit_metric_over_sixty_decades(self):
        # 61 scales from 1e-30 to 1e30; the log divided differences
        # subtract no logarithms, so roundoff does not grow with |log s|
        al = AlphaParam.log_limit()
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p0 = rand_spd(rng, n)
            y, z = rand_sym(rng, n), rand_sym(rng, n)
            expected = metric_inner(p0, y, z, al)
            scale = math.sqrt(metric_inner(p0, y, y, al) * metric_inner(p0, z, z, al))
            for s in np.logspace(-30.0, 30.0, 61):
                scaled = metric_inner(
                    SpdMatrix.from_array(s * p0.mat),
                    SymMatrix.from_array(s * y.mat),
                    SymMatrix.from_array(s * z.mat),
                    al,
                )
                assert abs(scaled - expected) <= 1e-13 * scale
