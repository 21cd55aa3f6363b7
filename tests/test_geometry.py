import math
import re

import numpy as np
import pytest
from conftest import lyapunov_forward_map, rand_orthogonal, rand_spd, rand_sym

from alphaproc import (
    AlphaParam,
    DimensionError,
    DomainError,
    GeodesicCurve,
    NonFiniteError,
    NonSpdIntermediateError,
    SingularBaseError,
    SpdMatrix,
    SymMatrix,
    alpha_procrustes,
    as_alpha,
    bures_wasserstein,
    geodesic_length_numeric,
    loewner_apply,
    metric_inner,
    solve_general_lyapunov,
    spd_power,
)
from alphaproc import geometry
from alphaproc.geometry import _lyapunov_factor
from alphaproc.geometry import geodesic_endpoints_residual
from alphaproc.validation import GEODESIC_ENDPOINT_REL


def kron_lyapunov_solve(p0: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Independent Lyapunov oracle: solve (I x P0 + P0 x I) vec(H) = vec(Y)."""
    n = p0.shape[0]
    eye = np.eye(n)
    system = np.kron(eye, p0) + np.kron(p0, eye)
    return np.linalg.solve(system, y.reshape(-1)).reshape(n, n)


def mp_metric(p0: SpdMatrix, y: SymMatrix, z: SymMatrix, alpha, dps=60):
    """<Y, Z>_P0 as an mpmath number, and H_Y of the solve as a float array, at ``dps`` digits.

    The high-precision referee of the eigenbasis formulas: P0's float
    eigenpairs are taken as exact, and the factor is the defining quotient
    2a (l_i - l_j)(l_i^2a + l_j^2a) / (l_i^2a - l_j^2a), its log-limit
    2 (l_i - l_j) / (log l_i - log l_j), and 2 l_i where l_i = l_j.
    """
    mp = pytest.importorskip("mpmath")
    al = as_alpha(alpha)
    with mp.workdps(dps):
        lam = [mp.mpf(float(x)) for x in p0.eig.values]
        v = mp.matrix(p0.eig.vectors.tolist())
        yt, zt = (v.T * mp.matrix(m.mat.tolist()) * v for m in (y, z))
        p = 0 if al.is_log_limit else 2 * mp.mpf(al.value)

        def factor(li, lj):
            if li == lj:
                return 2 * li
            if p == 0:
                return 2 * (li - lj) / (mp.log(li) - mp.log(lj))
            return p * (li - lj) * (li**p + lj**p) / (li**p - lj**p)

        pairs = [(i, j) for i in range(len(lam)) for j in range(len(lam))]
        f = {(i, j): factor(lam[i], lam[j]) for i, j in pairs}
        inner = 4 * mp.fsum(yt[i, j] * zt[j, i] * lam[j] ** p / f[i, j] ** 2 for i, j in pairs)
        ht = mp.matrix(len(lam), len(lam))
        for i, j in pairs:
            ht[i, j] = yt[i, j] / f[i, j]
        return inner, np.array((v * ht * v.T).tolist(), dtype=float)


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
        back = lyapunov_forward_map(p0, h, 0.8)
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

    @pytest.mark.parametrize(
        "alpha", [0.0, AlphaParam.log_limit(), -5e-8], ids=["0", "log-limit", "-5e-8"]
    )
    def test_log_limit_is_half_the_log_derivative(self, alpha):
        rng = np.random.default_rng(0)
        p0 = rand_spd(rng, 4)
        y = rand_sym(rng, 4)
        h = solve_general_lyapunov(p0, y, alpha)
        expected = loewner_apply(p0.eig, "log", y).mat / 2.0
        assert np.linalg.norm(h.mat - expected) <= 1e-13 * np.linalg.norm(expected)


class TestLyapunovFactor:
    def test_half_alpha_is_sum(self):
        lam = np.array([0.4, 1.3, 2.7])
        f = _lyapunov_factor(lam, AlphaParam(0.5))
        expected = lam[:, None] + lam[None, :]
        assert np.allclose(f, expected, atol=1e-12)

    def test_small_alpha_is_log_form(self):
        lam = np.array([0.4, 1.3, 2.7])
        f = _lyapunov_factor(lam, AlphaParam(1e-6))
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = 2.0 * (lam[:, None] - lam[None, :]) / (
                np.log(lam)[:, None] - np.log(lam)[None, :]
            )
        np.fill_diagonal(expected, 2.0 * lam)
        assert np.allclose(f, expected, rtol=1e-6)

    def test_degenerate_limit(self):
        lam = np.array([1.5, 1.5])
        f = _lyapunov_factor(lam, AlphaParam(0.8))
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
            with pytest.raises(DimensionError):
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


def ill_conditioned_pair(seed: int, c: float) -> tuple[np.ndarray, np.ndarray]:
    """A = Q diag(geomspace(1/c, 1, 4)) Q' of condition number c, and B = G G' + I/2."""
    rng = np.random.default_rng(seed)
    q = rand_orthogonal(rng, 4)
    g = rng.standard_normal((4, 4))
    return (q * np.geomspace(1.0 / c, 1.0, 4)) @ q.T, g @ g.T + 0.5 * np.eye(4)


def mp_geodesic_points(a, b, alphas, ts, dps=50):
    """{(alpha, t): g(t)} at ``dps`` digits, from the closed form whose cross
    root is A^a (A^a B^2a A^a)^(1/2) A^-a; A and B are decomposed once."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        (la, ua), (lb, ub) = (mp.eigsy(mp.matrix(m.tolist())) for m in (a, b))

        def power(lam, u, p):
            return u * mp.diag([x**p for x in lam]) * u.T

        points = {}
        for alpha in alphas:
            al = mp.mpf(alpha)
            a_pow, a2, b2 = power(la, ua, al), power(la, ua, 2 * al), power(lb, ub, 2 * al)
            inner = a_pow * b2 * a_pow
            s = a_pow * power(*mp.eigsy((inner + inner.T) / 2), mp.mpf(0.5)) * power(la, ua, -al)
            for t in ts:
                tm = mp.mpf(t)
                bracket = (1 - tm) ** 2 * a2 + tm**2 * b2 + tm * (1 - tm) * (s + s.T)
                g = power(*mp.eigsy((bracket + bracket.T) / 2), 1 / (2 * al))
                points[alpha, t] = np.array(g.tolist(), dtype=float)
    return points


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

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.25, 0.5, 1.0, 2.0])
    def test_curve_is_a_metric_segment(self, alpha):
        # the paper's theorem without a referee (ROADMAP item 23): d(A, g(t)) = t d(A, B) and
        # d(g(t), B) = (1 - t) d(A, B).  On validate's draws, seeds 0-39, the worst relative
        # gap is 7.2e-13 (alpha 0.25) and 5.2e-13 (alpha 2), <= 2.0e-13 at the other alphas;
        # seeds 40-199 read up to 1.07e-12.  The ill-conditioned classes of item 23 stay open.
        gaps = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            a, b = rand_spd(rng, n), rand_spd(rng, n)
            curve, d = GeodesicCurve(a, b, alpha), alpha_procrustes(a, b, alpha).value
            for t in (0.25, 0.5, 0.75):
                g = curve.at(t)
                gaps.append(abs(alpha_procrustes(a, g, alpha).value - t * d) / d)
                gaps.append(abs(alpha_procrustes(g, b, alpha).value - (1.0 - t) * d) / d)
        # np.max keeps a NaN, which then fails the bound
        assert np.max(gaps) <= 2e-12

    @pytest.mark.parametrize("bad", [1.5, -1e-12, 1.0 + 1e-12, math.nan])
    def test_t_outside_range_rejected(self, bad):
        # outside [0, 1] the cross term of X'X is subtracted: not the curve;
        # a stack names its first bad t
        rng = np.random.default_rng(10)
        curve = GeodesicCurve(rand_spd(rng, 2), rand_spd(rng, 2), 0.5)
        with pytest.raises(DomainError, match=re.escape(f"got {bad}")):
            curve.at(bad)
        with pytest.raises(DomainError, match=re.escape(f"got {bad}")):
            curve._spectra(np.array([0.0, 0.5, bad, 2.0, 1.0]))

    @pytest.mark.parametrize("bad", ["0.5", "abc", [0.5], None, 0.5j])
    def test_t_that_is_not_one_real_number_rejected(self, bad):
        rng = np.random.default_rng(10)
        curve = GeodesicCurve(rand_spd(rng, 2), rand_spd(rng, 2), 0.5)
        with pytest.raises(DomainError, match=re.escape(f"one real number, got {bad!r}")):
            curve.at(bad)
        assert np.array_equal(curve.at(np.float64(1.0)).mat, curve.at(1).mat)

    def test_zero_alpha_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(DomainError):
            GeodesicCurve(rand_spd(rng, 2), rand_spd(rng, 2), 0.0)

    def test_output_is_spd(self):
        rng = np.random.default_rng(12)
        curve = GeodesicCurve(rand_spd(rng, 4), rand_spd(rng, 4), 0.6)
        for t in (0.1, 0.45, 0.9):
            assert curve.at(t).eig.min > 0

    @pytest.mark.parametrize("c", [1e4, 1e6, 1e10])
    def test_ill_conditioned_points_match_mpmath(self, c):
        # the cross term comes from a polar factor, not from A^-a, so the
        # roundoff does not grow with cond(A); alpha < 0 still does
        bounds = {1.0: 1e-11, 2.0: 1e-11} | ({-0.5: 1e-9} if c <= 1e6 else {})
        ts = (0.1, 0.5, 0.9)
        for seed in range(3):
            a, b = ill_conditioned_pair(seed, c)
            referee = mp_geodesic_points(a, b, bounds, ts)
            for alpha, bound in bounds.items():
                curve = GeodesicCurve(SpdMatrix.from_array(a), SpdMatrix.from_array(b), alpha)
                for t in ts:
                    ref = referee[alpha, t]
                    err = np.linalg.norm(curve.at(t).mat - ref) / np.linalg.norm(ref)
                    assert err <= bound, (seed, alpha, t, err)

    def test_ill_conditioned_alpha_2_interior_point_exists(self):
        # cond(A) = 1e10: a cross term conjugated by A^-a (entries ~1e20)
        # makes this bracket indefinite on every seed
        for seed in range(20):
            a, b = ill_conditioned_pair(seed, 1e10)
            curve = GeodesicCurve(SpdMatrix.from_array(a), SpdMatrix.from_array(b), 2.0)
            assert curve.at(0.1).eig.min > 0


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
        assert length == pytest.approx(2.0 * bures_wasserstein(a, b).value, rel=1e-13, abs=0)

    def test_quarter_alpha_matches_closed_form(self):
        rng = np.random.default_rng(15)
        a, b = rand_spd(rng, 3), rand_spd(rng, 3)
        curve = GeodesicCurve(a, b, 0.25)
        length = geodesic_length_numeric(curve, 1000)
        # roundoff at h = 1/2000 reads 1.3e-12 here
        assert length == pytest.approx(alpha_procrustes(a, b, 0.25).value, rel=2.2e-12, abs=0)

    @pytest.mark.parametrize(
        "alpha, steps, bound", [(-0.5, 100, 6e-9), (-0.5, 1000, 1e-12), (-1.0, 100, 6e-8),
                                (-1.0, 1000, 6e-12)]
    )
    def test_negative_alpha_matches_closed_form(self, alpha, steps, bound):
        # the stencil's O(h^4) error: 1000 steps are 1e4 times closer than 100
        rng = np.random.default_rng(24)
        a, b = rand_spd(rng, 48), rand_spd(rng, 48)
        length = geodesic_length_numeric(GeodesicCurve(a, b, alpha), steps)
        assert length == pytest.approx(alpha_procrustes(a, b, alpha).value, rel=bound, abs=0)

    @pytest.mark.parametrize("steps", [100, 1000])
    def test_each_grid_point_evaluated_once(self, eigh_orders, steps):
        # 8 nodes x 5 stencil points; the cross term takes an SVD, not an eigensolve
        rng = np.random.default_rng(18)
        curve = GeodesicCurve(rand_spd(rng, 3), rand_spd(rng, 3), 0.7)
        eigh_orders.clear()
        geodesic_length_numeric(curve, steps)
        assert len(eigh_orders) == 40

    @pytest.mark.parametrize("steps", [100, 101, 1000])
    def test_stencil_stays_on_the_curve(self, monkeypatch, steps):
        # h = 1/(2 steps) and outer nodes 0.0199 from the ends: every t in [0, 1]
        rng = np.random.default_rng(29)
        curve = GeodesicCurve(rand_spd(rng, 3), rand_spd(rng, 3), 1.0)
        seen = []
        original = GeodesicCurve._spectra

        def recording(self, ts):
            seen.extend(ts.tolist())
            return original(self, ts)

        monkeypatch.setattr(GeodesicCurve, "_spectra", recording)
        geodesic_length_numeric(curve, steps)
        assert seen and all(0.0 <= t <= 1.0 for t in seen)

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n, steps", [(2, 100), (5, 100), (48, 337)])
    def test_matches_per_point_reference(self, alpha, n, steps):
        # 8 Gauss-Legendre nodes on [0, 1], each with a five-point stencil at h = 1/(2 steps)
        rng = np.random.default_rng(24)
        curve = GeodesicCurve(rand_spd(rng, n), rand_spd(rng, n), alpha)
        h = 1.0 / (2 * steps)
        x, w = np.polynomial.legendre.leggauss(8)
        expected = 0.0
        for t, weight in zip((x + 1.0) / 2.0, w / 2.0):
            p = [curve.at(t + k * h).mat for k in (-2, -1, 1, 2)]
            velocity = SymMatrix.from_array((p[0] - 8.0 * p[1] + 8.0 * p[2] - p[3]) / (12.0 * h))
            speed_sq = metric_inner(curve.at(t), velocity, velocity, alpha)
            expected += weight * math.sqrt(max(speed_sq, 0.0))
        assert geodesic_length_numeric(curve, steps) == pytest.approx(expected, rel=1e-12)

    def test_lost_positivity_names_first_failing_t(self):
        # X(t) = I except its last entry x(t) = 3.25e-6 (1-t) - 4.75e-6 t,
        # which crosses zero at t = 0.406: x^2 is not above 1e-12 of the
        # largest eigenvalue 1 for t in [0.281, 0.531], which first holds the
        # stencil of the node near 0.408
        n, steps = 48, 100
        rng = np.random.default_rng(25)
        curve = GeodesicCurve(rand_spd(rng, n), rand_spd(rng, n), 0.5)
        ends = (np.diag([1.0] * (n - 1) + [3.25e-6]), np.diag([1.0] * (n - 1) + [-4.75e-6]))
        curve.__dict__["_closed_form"] = ends
        h = 1.0 / (2 * steps)
        nodes, _ = geometry._gauss_rule()
        ts = [float(t) + k * h for t in nodes for k in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        first = next(t for t in ts if ((1.0 - t) * 3.25e-6 - t * 4.75e-6) ** 2 <= 1e-12)
        assert 0.39 < first < 0.40
        with pytest.raises(NonSpdIntermediateError, match=re.escape(f"t={first} ")):
            geodesic_length_numeric(curve, steps)
        with pytest.raises(NonSpdIntermediateError, match=re.escape("t=0.5 ")):
            curve.at(0.5)

    def test_non_strict_midpoint_rejected(self):
        # constant X = diag(1, sqrt(1e-7)) gives the bracket diag(1, 1e-7),
        # which passes the positivity check, but at alpha = 1/4 the point
        # diag(1, 1e-14) is not strictly positive
        rng = np.random.default_rng(27)
        curve = GeodesicCurve(rand_spd(rng, 2), rand_spd(rng, 2), 0.25)
        d = np.diag([1.0, math.sqrt(1e-7)])
        curve.__dict__["_closed_form"] = (d, d)
        with pytest.raises(SingularBaseError, match="metric inner product"):
            geodesic_length_numeric(curve, 100)

    def test_curve_takes_two_matrix_powers(self, monkeypatch):
        # the ends A^a and B^a U of X(t); no A^2a, B^2a or A^-a
        calls = []
        original = geometry.spd_power

        def recording(a, p):
            calls.append(p)
            return original(a, p)

        monkeypatch.setattr(geometry, "spd_power", recording)
        rng = np.random.default_rng(28)
        for alpha in (0.7, -0.5):
            calls.clear()
            curve = GeodesicCurve(rand_spd(rng, 3), rand_spd(rng, 3), alpha)
            geodesic_length_numeric(curve, 100)
            curve.at(0.3)
            assert calls == [alpha, alpha]

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
        assert sum(sizes) == 40 * n * n
        assert max(sizes) == 5 * n * n
        assert length == pytest.approx(2.0 * bures_wasserstein(a, b).value, rel=1e-13, abs=0)

    def test_too_few_steps_rejected(self):
        rng = np.random.default_rng(16)
        curve = GeodesicCurve(rand_spd(rng, 2), rand_spd(rng, 2), 0.5)
        for steps in (50, 100.5):
            with pytest.raises(DomainError):
                geodesic_length_numeric(curve, steps)


# Eigenvalues (1, 1 + d, 2) for 27 relative gaps d from 1e-14 to 1e-1: the
# divided differences must hold their accuracy at every gap, where a switch to
# the derivative below a threshold gap, or a subtraction of nearby powers above
# it, would lose up to ~1e-9
NEAR_GAPS = np.logspace(-14.0, -1.0, 27)
NEAR_ALPHAS = [AlphaParam.parse(a) for a in ("0.25", "2", "-0.5", "5", "log-limit")]


@pytest.mark.parametrize("alpha", NEAR_ALPHAS, ids=lambda al: str(al.label()))
class TestNearCoincident:
    """metric_inner and the Lyapunov solve at nearly equal eigenvalues, against mp_metric."""

    @staticmethod
    def cases(alpha):
        rng = np.random.default_rng(60)
        for d in NEAR_GAPS:
            p0 = SpdMatrix.from_array(np.diag([1.0, 1.0 + d, 2.0]))
            for _ in range(3):
                y, z = rand_sym(rng, 3), rand_sym(rng, 3)
                yield p0, y, z, mp_metric(p0, y, z, alpha)

    def test_metric_inner(self, alpha):
        worst = 0.0
        for p0, y, z, (expected, _) in self.cases(alpha):
            scale = math.sqrt(metric_inner(p0, y, y, alpha) * metric_inner(p0, z, z, alpha))
            worst = max(worst, abs(metric_inner(p0, y, z, alpha) - float(expected)) / scale)
        assert worst <= 1e-15

    def test_lyapunov_solve(self, alpha):
        worst = 0.0
        for p0, y, _, (_, expected) in self.cases(alpha):
            h = solve_general_lyapunov(p0, y, alpha).mat
            worst = max(worst, np.linalg.norm(h - expected) / np.linalg.norm(expected))
        assert worst <= 7.5e-16


# At diag(10, 20) and alpha 200 the metric's weights l^400 overflow, though the
# Lyapunov factor and the solve fit a float; at diag(1e-22, 2e-22) and alpha 7
# every answer fits a float (the metric is ~1e-260)
OUT_OF_RANGE = [(np.diag([10.0, 20.0]), 200.0), (np.diag([1e-22, 2e-22]), 7.0)]


@pytest.mark.parametrize("p0,alpha", OUT_OF_RANGE, ids=["overflow", "underflow"])
class TestOverflow:
    """Eigenvalue powers beyond the float range: the answer wherever it fits a float,
    else one typed error, with no RuntimeWarning."""

    Y = SymMatrix.from_array([[1.0, 0.5], [0.5, 2.0]])

    def test_metric_inner(self, p0, alpha):
        p0 = SpdMatrix.from_array(p0)
        expected = float(mp_metric(p0, self.Y, self.Y, alpha)[0])
        if math.isinf(expected):
            with pytest.raises(NonFiniteError, match="^metric inner product: "):
                metric_inner(p0, self.Y, self.Y, alpha)
        else:
            assert metric_inner(p0, self.Y, self.Y, alpha) == pytest.approx(expected, rel=1e-15)

    def test_lyapunov_solve(self, p0, alpha):
        p0 = SpdMatrix.from_array(p0)
        expected = mp_metric(p0, self.Y, self.Y, alpha)[1]
        np.testing.assert_allclose(solve_general_lyapunov(p0, self.Y, alpha).mat, expected,
                                   rtol=1e-15, atol=0)


def test_lyapunov_solve_past_the_float_range():
    # H ~ Y / P0 ~ 1e310 does not fit a float
    p0 = SpdMatrix.from_array(np.diag([1e-300, 2e-300]))
    with pytest.raises(NonFiniteError, match="^matrix: "):
        solve_general_lyapunov(p0, SymMatrix.from_array(1e10 * np.eye(2)), 0.5)


SCALES = [1e-30, 1e-12, 1e-9, 1e-6, 1e3, 1e30]


class TestScaleCovariance:
    """The metric is homogeneous in P0: <sY, sZ>_sP0 = s^2a <Y, Z>_P0.

    The divided differences depend on P0 only through the ratios of its
    eigenvalues, so this holds to roundoff at any scale, not only near 1.
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

    @pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
    def test_endpoint_residual_is_relative(self, s):
        # validate's gate reads this residual; each end's error is divided
        # by that end's norm, so it is scale-free
        rng = np.random.default_rng(44)
        a, b = (SpdMatrix.from_array(s * rand_spd(rng, 4).mat) for _ in range(2))
        assert geodesic_endpoints_residual(GeodesicCurve(a, b, 0.5)) <= GEODESIC_ENDPOINT_REL

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
