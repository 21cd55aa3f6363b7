"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here and match the library's documented
guarantees; nothing is calibrated at runtime.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from conftest import (
    CHILD_ENV,
    commuting_pair,
    feature_covariance,
    lyapunov_forward_map,
    noncommuting_pair,
    procrustes_residual,
    rand_spd,
    rand_sym,
)

from alphaproc import (
    AlphaParam,
    Dataset,
    GaussianMeasure,
    GeodesicCurve,
    KernelSpec,
    alpha_procrustes,
    alpha_procrustes_regularized,
    bures_wasserstein,
    gaussian_alpha_distance,
    geodesic_length_numeric,
    log_euclidean,
    power_euclidean,
    procrustes_bruteforce_2x2,
    rkhs_alpha_distance,
    rkhs_gaussian_distance,
    rkhs_wasserstein,
    solve_general_lyapunov,
    wasserstein_gaussian,
)
from alphaproc.cli import main as cli_main

SEED = 20240808


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


def test_criterion_01_half_alpha_coincidence():
    # bures_wasserstein is the alpha = 1/2 member halved, so the referee is the
    # Procrustes residual built from numpy alone; measured worst 1.7e-14
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a, b = rand_spd(rng, n), rand_spd(rng, n)
        residual = procrustes_residual(a, b)
        rel = abs(bures_wasserstein(a, b).value - residual) / residual
        worst = max(worst, rel)
        assert rel <= 4e-14
    report(1, "Bures-Wasserstein (alpha=1/2 halved) equals the Procrustes residual "
           f"on 100 pairs (worst rel {worst:.2e})")


def test_criterion_02_log_euclidean_limit():
    rng = np.random.default_rng(SEED + 1)
    worst_final = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a, b = rand_spd(rng, n), rand_spd(rng, n)
        d_log = log_euclidean(a, b).value
        gaps = [
            abs(alpha_procrustes(a, b, al).value - d_log)
            for al in (1e-2, 1e-3, 1e-4)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3 * d_log
        worst_final = max(worst_final, gaps[2] / d_log)
    report(2, f"small-alpha gaps decrease, final rel gap <= {worst_final:.2e} < 1e-3")


def test_criterion_03_bruteforce_procrustes_oracle():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for alpha in (-1.0, 0.5, 0.7, 2.0):
        for _ in range(50):
            a, b = rand_spd(rng, 2), rand_spd(rng, 2)
            closed = alpha_procrustes(a, b, alpha).value
            brute = procrustes_bruteforce_2x2(a, b, alpha)
            worst = max(worst, abs(closed - brute))
            assert abs(closed - brute) <= 1e-6
    report(3, f"O(2) grid+refine oracle matches closed form, worst abs gap {worst:.2e}")


def test_criterion_04_alt_comparison():
    rng = np.random.default_rng(SEED + 3)
    min_gap = np.inf
    for alpha in (-1.0, 0.5, 0.7, 2.0):
        for _ in range(25):
            n = int(rng.integers(2, 6))
            a, b = noncommuting_pair(rng, n)
            d_pro = alpha_procrustes(a, b, alpha).value
            d_pow = power_euclidean(a, b, alpha).value
            assert d_pro <= d_pow + 1e-10
            assert d_pow - d_pro > 1e-6
            min_gap = min(min_gap, d_pow - d_pro)
            ca, cb = commuting_pair(rng, n)
            dc_pro = alpha_procrustes(ca, cb, alpha).value
            dc_pow = power_euclidean(ca, cb, alpha).value
            assert abs(dc_pro - dc_pow) <= 1e-10 * max(1.0, dc_pow)
    report(4, f"family <= power Euclidean, strict gap off commuting locus (min {min_gap:.2e})")


def test_criterion_05_metric_axioms_triangle():
    rng = np.random.default_rng(SEED + 4)
    alphas = [
        AlphaParam(-1.0),
        AlphaParam.log_limit(),
        AlphaParam(0.5),
        AlphaParam(1.0),
        AlphaParam(2.0),
    ]
    checked = 0
    for trial in range(500):
        alpha = alphas[trial % len(alphas)]
        n = int(rng.integers(2, 6))
        mats = [rand_spd(rng, n) for _ in range(3)]
        means = [rng.standard_normal(n) for _ in range(3)]
        gs = [GaussianMeasure.from_arrays(m, c) for m, c in zip(means, mats)]

        d01 = alpha_procrustes(mats[0], mats[1], alpha).value
        d12 = alpha_procrustes(mats[1], mats[2], alpha).value
        d02 = alpha_procrustes(mats[0], mats[2], alpha).value
        assert d01 + d12 - d02 >= -1e-9

        g01 = gaussian_alpha_distance(gs[0], gs[1], alpha)
        g12 = gaussian_alpha_distance(gs[1], gs[2], alpha)
        g02 = gaussian_alpha_distance(gs[0], gs[2], alpha)
        assert g01 + g12 - g02 >= -1e-9

        r01 = alpha_procrustes_regularized(mats[0], mats[1], 0.1, alpha).value
        r12 = alpha_procrustes_regularized(mats[1], mats[2], 0.1, alpha).value
        r02 = alpha_procrustes_regularized(mats[0], mats[2], 0.1, alpha).value
        assert r01 + r12 - r02 >= -1e-9
        checked += 3
    report(5, f"triangle inequality slack >= -1e-9 on {checked} distance triples")


def test_criterion_06_generalized_lyapunov():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        p0 = rand_spd(rng, n)
        y = rand_sym(rng, n)
        alpha = float(rng.uniform(-2.0, 2.0))
        if abs(alpha) < 0.05:
            alpha = 0.25
        forward = lyapunov_forward_map(p0, solve_general_lyapunov(p0, y, alpha), alpha)
        residual = np.linalg.norm(forward.mat - y.mat) / np.linalg.norm(y.mat)
        worst = max(worst, residual)
        assert residual <= 1e-9

        h_half = solve_general_lyapunov(p0, y, 0.5)
        res_half = np.linalg.norm(
            h_half.mat @ p0.mat + p0.mat @ h_half.mat - y.mat
        ) / np.linalg.norm(y.mat)
        assert res_half <= 1e-10
    report(6, f"forward-map residual <= 1e-9 on 100 draws (worst {worst:.2e}); alpha=1/2 exact")


def test_criterion_07_geodesic_validation():
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0):
        for n in (2, 3, 5):
            a, b = rand_spd(rng, n), rand_spd(rng, n)
            curve = GeodesicCurve(a, b, alpha)
            res_a = np.linalg.norm(curve.at(0.0).mat - a.mat)
            res_b = np.linalg.norm(curve.at(1.0).mat - b.mat)
            assert res_a <= 1e-9 * np.linalg.norm(a.mat)
            assert res_b <= 1e-9 * np.linalg.norm(b.mat)
            d_closed = alpha_procrustes(a, b, alpha).value
            d_num = geodesic_length_numeric(curve, steps=2000)
            rel = abs(d_num - d_closed) / d_closed
            worst = max(worst, rel)
            assert rel <= 2e-12
    report(7, f"geodesic endpoints exact, numeric length within 2e-12 (worst {worst:.2e})")


def test_criterion_08_gamma_to_zero_convergence():
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    for alpha in (0.5, 0.75, 1.0):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            a, b = rand_spd(rng, n), rand_spd(rng, n)
            d0 = alpha_procrustes(a, b, alpha).value
            dg = alpha_procrustes_regularized(a, b, 1e-7, alpha).value
            rel = abs(dg - d0) / d0
            worst = max(worst, rel)
            assert rel <= 1e-3
    # same limit through the Gram-matrix route
    x = Dataset.from_array(np.random.default_rng(SEED + 8).standard_normal((12, 3)))
    y = Dataset.from_array(
        np.random.default_rng(SEED + 9).standard_normal((12, 3)) + 0.3
    )
    kernel = KernelSpec.gaussian_rbf(1.0)
    d_un = rkhs_alpha_distance(x, y, kernel, 0.75)
    d_reg = rkhs_alpha_distance(x, y, kernel, 0.75, 1e-7)
    assert abs(d_reg - d_un) <= 1e-3 * d_un
    report(8, f"gamma=1e-7 matches unregularized within 1e-3 (worst matrix rel {worst:.2e})")


def test_criterion_09_rkhs_feature_map_oracle():
    rng = np.random.default_rng(SEED + 10)
    poly = KernelSpec.polynomial(2, 1.0)
    x = Dataset.from_array(rng.standard_normal((15, 2)))
    y = Dataset.from_array(rng.standard_normal((15, 2)) * 1.2 + 0.4)
    mx, cx = feature_covariance(x, poly)
    my, cy = feature_covariance(y, poly)
    assert cx.n == 6

    alpha, gamma = 0.75, 0.1
    d_gram = rkhs_alpha_distance(x, y, poly, alpha, gamma)
    d_feat = alpha_procrustes_regularized(cx, cy, gamma, alpha).value
    assert abs(d_gram - d_feat) <= 1e-8 * d_feat

    d_w = rkhs_wasserstein(x, y, poly)
    gx = GaussianMeasure.from_arrays(mx, cx)
    gy = GaussianMeasure.from_arrays(my, cy)
    d_w_feat = wasserstein_gaussian(gx, gy)
    assert abs(d_w - d_w_feat) <= 1e-8 * d_w_feat

    d_g = rkhs_gaussian_distance(x, y, poly, 0.75)
    d_g_feat = gaussian_alpha_distance(gx, gy, 0.75)
    assert abs(d_g - d_g_feat) <= 1e-8 * d_g_feat
    d_g_reg = rkhs_gaussian_distance(x, y, poly, 0.3, gamma)
    d_g_reg_feat = gaussian_alpha_distance(gx, gy, 0.3, gamma=gamma)
    assert abs(d_g_reg - d_g_reg_feat) <= 1e-8 * d_g_reg_feat

    # linear-kernel reduction on R^5 data
    linear = KernelSpec.linear()
    x5 = Dataset.from_array(rng.standard_normal((14, 5)))
    y5 = Dataset.from_array(rng.standard_normal((14, 5)) + 0.2)
    mx5, cx5 = feature_covariance(x5, linear)
    my5, cy5 = feature_covariance(y5, linear)
    d_lin = rkhs_alpha_distance(x5, y5, linear, alpha, gamma)
    d_lin_feat = alpha_procrustes_regularized(cx5, cy5, gamma, alpha).value
    assert abs(d_lin - d_lin_feat) <= 1e-8 * d_lin_feat
    d_lin_w = rkhs_wasserstein(x5, y5, linear)
    d_lin_w_feat = wasserstein_gaussian(
        GaussianMeasure.from_arrays(mx5, cx5), GaussianMeasure.from_arrays(my5, cy5)
    )
    assert abs(d_lin_w - d_lin_w_feat) <= 1e-8 * d_lin_w_feat
    report(9, "Gram formulas match explicit 6-dim feature space and linear reduction to 1e-8")


def test_criterion_10_rkhs_wasserstein_unequal_counts():
    rng = np.random.default_rng(SEED + 11)
    poly = KernelSpec.polynomial(2, 1.0)
    x = Dataset.from_array(rng.standard_normal((10, 2)))
    y = Dataset.from_array(rng.standard_normal((14, 2)) * 1.4 + 0.3)
    d_gram = rkhs_wasserstein(x, y, poly)
    mx, cx = feature_covariance(x, poly)
    my, cy = feature_covariance(y, poly)
    d_feat = wasserstein_gaussian(
        GaussianMeasure.from_arrays(mx, cx), GaussianMeasure.from_arrays(my, cy)
    )
    rel = abs(d_gram - d_feat) / d_feat
    assert rel <= 1e-8
    report(10, f"m=10 vs n=14 Wasserstein matches feature space (rel {rel:.2e})")


def test_criterion_11_cli_contract(tmp_path):
    import contextlib
    import io

    def run(args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(args)
        return code, out.getvalue(), err.getvalue()

    # validate exits 0 on the default seed and trial count
    code, out, _ = run(["validate"])
    assert code == 0 and out.count("PASS") == 5

    a_path = tmp_path / "A.csv"
    a_path.write_text("1,0\n0,4\n")
    b_path = tmp_path / "B.csv"
    b_path.write_text("9,0\n0,16\n")

    # documented exit codes on malformed input
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    assert run(["dist", str(a_path), str(ragged), "--alpha", "1"])[0] == 2

    singular = tmp_path / "singular.csv"
    singular.write_text("1,0\n0,0\n")
    assert run(["dist", str(a_path), str(singular), "--alpha", "-1"])[0] == 3

    # byte-stable outputs across two runs (fixed input and seed)
    first = run(["dist", "--alpha", "0.7", str(a_path), str(b_path)])[1]
    second = run(["dist", "--alpha", "0.7", str(a_path), str(b_path)])[1]
    assert first == second
    v_first = run(["validate", "--trials", "5"])[1]
    v_second = run(["validate", "--trials", "5"])[1]
    assert v_first == v_second

    # the subprocess entry point agrees with the in-process runner
    proc = subprocess.run(
        [sys.executable, "-m", "alphaproc", "dist", "--alpha", "0.5",
         str(a_path), str(b_path)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["distance"] == pytest.approx(
        5.656854249492, abs=1e-9
    )
    report(11, "validate exits 0, exit codes 2/3 mapped, outputs byte-stable")
