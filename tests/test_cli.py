import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import CHILD_ENV, rand_spd

from alphaproc import (
    Dataset,
    GeodesicCurve,
    KernelSpec,
    NonFiniteError,
    NonSpdIntermediateError,
    SpdMatrix,
    alpha_procrustes,
    alpha_procrustes_regularized,
    rkhs_gaussian_distance,
)
from alphaproc.cli import _matrix_block, main


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process, capturing stdout/stderr and the exit code."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def write_matrix(path, mat):
    with open(path, "w") as fh:
        for row in np.atleast_2d(mat):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return str(path)


@pytest.fixture
def matrices(tmp_path):
    a = write_matrix(tmp_path / "A.csv", np.diag([1.0, 4.0]))
    b = write_matrix(tmp_path / "B.csv", np.diag([9.0, 16.0]))
    return a, b


@pytest.fixture
def datasets(tmp_path):
    rng = np.random.default_rng(0)
    x = write_matrix(tmp_path / "X.csv", rng.standard_normal((10, 3)))
    y = write_matrix(tmp_path / "Y.csv", rng.standard_normal((10, 3)) + 0.4)
    return x, y


# The exact stdout of every call that takes --output, on commuting diagonal
# inputs whose values are exact at the printed precision.
GOLDEN_STDOUT = {
    "dist-json": (
        ["dist", "--alpha", "0.5", "A.csv", "B.csv"],
        '{"schema": 1, "metric": "alpha-procrustes", "alpha": 0.5, "gamma": 0.0,'
        ' "distance": 5.65685424949}\n',
    ),
    "dist-csv": (
        ["dist", "--alpha", "0.5", "A.csv", "B.csv", "--format", "csv"],
        "alpha-procrustes,0.5,0,5.65685424949\n",
    ),
    "sweep-csv": (
        ["sweep", "--alphas", "0.5,1,log-limit", "A.csv", "B.csv"],
        "alpha,distance\n0.5,5.65685424949\n1,14.4222051019\nlog-limit,2.59800075037\n",
    ),
    "sweep-json": (
        ["sweep", "--alphas", "0.5,1,log-limit", "A.csv", "B.csv", "--format", "json"],
        '{"schema": 1, "gamma": 0.0, "rows": [{"alpha": 0.5, "distance": 5.65685424949},'
        ' {"alpha": 1.0, "distance": 14.4222051019},'
        ' {"alpha": "log-limit", "distance": 2.59800075037}]}\n',
    ),
    "geodesic-csv": (
        ["geodesic", "--alpha", "0.5", "--t-steps", "2", "A.csv", "B.csv"],
        "# t=0\n1,0\n0,4\n\n# t=0.5\n4,0\n0,9\n\n# t=1\n9,0\n0,16\n",
    ),
    "geodesic-json": (
        ["geodesic", "--alpha", "0.5", "--t-steps", "2", "A.csv", "B.csv", "--format", "json"],
        '{"schema": 1, "alpha": 0.5, "points": [{"t": 0.0, "matrix": [[1.0, 0.0], [0.0, 4.0]]},'
        ' {"t": 0.5, "matrix": [[4.0, 0.0], [0.0, 9.0]]},'
        ' {"t": 1.0, "matrix": [[9.0, 0.0], [0.0, 16.0]]}]}\n',
    ),
    "gauss-dist": (
        ["gauss-dist", "--mean-a", "ma.csv", "--cov-a", "A.csv", "--mean-b", "mb.csv",
         "--cov-b", "B.csv", "--alpha", "0.5"],
        '{"schema": 1, "alpha": 0.5, "gamma": 0.0, "mean_term": 5.0,'
        ' "cov_term": 5.65685424949, "distance": 5.74456264654}\n',
    ),
    "rkhs-dist": (
        ["rkhs-dist", "X.csv", "Y.csv", "--kernel", "linear", "--alpha", "0.5"],
        '{"schema": 1, "kernel": "linear", "alpha": 0.5, "gamma": 0.0,'
        ' "mean_term": 2.2360679775, "cov_term": 2.0, "distance": 2.44948974278}\n',
    ),
}


@pytest.fixture
def golden_argv(tmp_path, matrices):
    """argv of a GOLDEN_STDOUT case, its file names replaced by written files."""
    files = {
        "A.csv": matrices[0],
        "B.csv": matrices[1],
        "ma.csv": write_matrix(tmp_path / "ma.csv", [[1.0], [2.0]]),
        "mb.csv": write_matrix(tmp_path / "mb.csv", [[4.0, 6.0]]),
        # covariances diag(1, 1) and diag(4, 1), means 2 apart in x and 1 in y
        "X.csv": write_matrix(tmp_path / "X.csv", [[0, 0], [2, 0], [0, 2], [2, 2]]),
        "Y.csv": write_matrix(tmp_path / "Y.csv", [[1, 1], [5, 1], [1, 3], [5, 3]]),
    }
    return lambda case: [files.get(arg, arg) for arg in GOLDEN_STDOUT[case][0]]


@pytest.mark.parametrize("case", GOLDEN_STDOUT)
def test_golden_stdout(golden_argv, case):
    code, out, err = run_cli(golden_argv(case))
    assert (code, err) == (0, "")
    assert out == GOLDEN_STDOUT[case][1]


def test_parser_built_once_per_process(monkeypatch, golden_argv):
    import alphaproc.cli as cli_mod

    original, built = cli_mod.build_parser, []
    monkeypatch.setattr(cli_mod, "build_parser", lambda: built.append(1) or original())
    cli_mod._parser.cache_clear()
    try:
        for case in ("dist-json", "geodesic-csv"):
            assert run_cli(golden_argv(case)) == (0, GOLDEN_STDOUT[case][1], "")
    finally:
        cli_mod._parser.cache_clear()
    assert len(built) == 1


class TestDist:
    def test_alpha_procrustes_commuting(self, matrices):
        a, b = matrices
        code, out, _ = run_cli(
            ["dist", "--metric", "alpha-procrustes", "--alpha", "0.5", a, b]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["distance"] == pytest.approx(5.656854249492, abs=1e-9)

    def test_log_euclidean_self(self, matrices):
        a, _ = matrices
        code, out, _ = run_cli(["dist", "--metric", "log-euclidean", a, a])
        assert code == 0
        assert json.loads(out)["distance"] == 0.0

    @pytest.mark.parametrize("metric", ["alpha-procrustes", "power-euclidean"])
    def test_log_limit_alpha_matches_log_euclidean(self, matrices, metric):
        a, b = matrices
        code, out, _ = run_cli(["dist", "--metric", metric, "--alpha", "log-limit", a, b])
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == "log-limit"
        _, out_le, _ = run_cli(["dist", "--metric", "log-euclidean", a, b])
        assert payload["distance"] == json.loads(out_le)["distance"]

    def test_bures_is_half_family(self, matrices):
        a, b = matrices
        _, out_bw, _ = run_cli(["dist", "--metric", "bures-wasserstein", a, b])
        _, out_ap, _ = run_cli(
            ["dist", "--metric", "alpha-procrustes", "--alpha", "0.5", a, b]
        )
        d_bw = json.loads(out_bw)["distance"]
        d_ap = json.loads(out_ap)["distance"]
        assert d_ap == pytest.approx(2.0 * d_bw, rel=1e-10)

    def test_csv_format(self, matrices):
        a, b = matrices
        code, out, _ = run_cli(
            ["dist", "--metric", "alpha-procrustes", "--alpha", "0.5", "--format", "csv", a, b]
        )
        assert code == 0
        fields = out.strip().split(",")
        assert fields[0] == "alpha-procrustes"
        assert float(fields[3]) == pytest.approx(5.656854249492, abs=1e-9)

    def test_byte_stability(self, matrices):
        a, b = matrices
        runs = [
            run_cli(["dist", "--metric", "alpha-procrustes", "--alpha", "0.7", a, b])[1]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_missing_alpha_exits_2(self, matrices):
        a, b = matrices
        code, _, err = run_cli(["dist", "--metric", "alpha-procrustes", a, b])
        assert code == 2
        assert "alpha" in err

    def test_missing_file_exits_2(self, matrices, tmp_path):
        a, _ = matrices
        code, _, _ = run_cli(["dist", a, str(tmp_path / "nope.csv"), "--alpha", "1"])
        assert code == 2

    @pytest.mark.parametrize(
        "content",
        ["1,2\n3\n", "", "\n  \n", "1,x\nx,1\n", "1,0,\n0,1,\n", "# c\n1,0\n0,1\n",
         "1,2,3\n4,5,6\n"],
        ids=["ragged", "empty", "blank", "non-numeric", "trailing-comma", "hash-line",
             "non-square"],
    )
    def test_bad_csv_exits_2(self, matrices, tmp_path, content):
        bad = tmp_path / "bad.csv"
        bad.write_text(content)
        code, out, err = run_cli(["dist", matrices[0], str(bad), "--alpha", "1"])
        assert code == 2
        assert out == "" and str(bad) in err and "Traceback" not in err

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
    def test_asymmetric_matrix_exits_2(self, matrices, tmp_path, scale):
        # the tolerance is relative to the largest entry, so no scale slips through
        bad = write_matrix(tmp_path / "asym.csv", scale * np.array([[1.0, 0.5], [0.0, 1.0]]))
        code, _, err = run_cli(["dist", matrices[0], bad, "--alpha", "1"])
        assert code == 2
        assert "not symmetric" in err

    def test_zero_matrix_is_symmetric(self, matrices, tmp_path):
        zero = write_matrix(tmp_path / "zero.csv", np.zeros((2, 2)))
        assert run_cli(["dist", matrices[0], zero, "--alpha", "1"])[0] == 0

    def test_infinite_off_diagonal_exits_2_without_warning(self, matrices, tmp_path):
        bad = write_matrix(tmp_path / "inf.csv", np.array([[1.0, np.inf], [np.inf, 1.0]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["dist", bad, matrices[0], "--alpha", "1"])
        assert code == 2
        assert out == "" and "NaN or infinite" in err and str(bad) in err
        assert caught == []

    def test_overflow_exits_2_without_traceback(self, tmp_path):
        g, h = np.random.default_rng(5).standard_normal((2, 4, 6))
        a = write_matrix(tmp_path / "A.csv", g @ g.T * 1e100)
        b = write_matrix(tmp_path / "B.csv", h @ h.T * 1e100)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["dist", "--alpha", "2", a, b])
        assert code == 2
        assert out == "" and err.startswith("error:") and "Traceback" not in err
        assert caught == []

    @pytest.mark.parametrize(
        "alpha, expected", [("1000", None), ("-1000", 2.0**1000 / 1000)], ids=["1000", "-1000"]
    )
    def test_power_euclidean_overflow_exits_2_without_warning(self, tmp_path, alpha, expected):
        # 3^1000 overflows the power, so 1000 exits 2; at -1000 the powers are
        # finite and only the squares of the norm overflow, so the rescaled
        # norm gives (0.5^-1000 - 3^-1000) / 1000
        a = write_matrix(tmp_path / "A.csv", np.diag([1.0, 2.0]))
        b = write_matrix(tmp_path / "B.csv", np.diag([3.0, 0.5]))
        argv = ["dist", "--metric", "power-euclidean", "--alpha", alpha, a, b]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv)
        if expected is None:
            assert code == 2
            assert out == "" and err.startswith("error:") and "overflows" in err
        else:
            assert code == 0 and err == ""
            assert json.loads(out)["distance"] == pytest.approx(expected, rel=1e-11)
        assert caught == []

    def test_singular_with_negative_alpha_exits_3(self, matrices, tmp_path):
        singular = write_matrix(tmp_path / "sing.csv", np.diag([1.0, 0.0]))
        code, _, _ = run_cli(["dist", matrices[0], singular, "--alpha", "-1"])
        assert code == 3

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_exits_3(self, matrices, alpha):
        code, out, err = run_cli(["dist", f"--alpha={alpha}", *matrices])
        assert code == 3
        assert out == "" and "alpha must be finite" in err

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_exits_3(self, matrices, gamma):
        code, out, err = run_cli(["dist", *matrices, "--alpha", "0.5", f"--gamma={gamma}"])
        assert code == 3
        assert out == "" and "gamma must be positive and finite" in err

    def test_indefinite_matrix_exits_3(self, matrices, tmp_path):
        indefinite = write_matrix(tmp_path / "neg.csv", np.diag([1.0, -2.0]))
        code, _, _ = run_cli(["dist", matrices[0], indefinite, "--alpha", "0.5"])
        assert code == 3

    @pytest.mark.parametrize("case", GOLDEN_STDOUT)
    def test_output_file(self, golden_argv, tmp_path, case):
        """--output writes exactly the bytes the same call prints, and prints nothing."""
        argv = golden_argv(case)
        _, printed, _ = run_cli(argv)
        out_path = tmp_path / "result.txt"
        code, out, err = run_cli([*argv, "--output", str(out_path)])
        assert (code, out, err) == (0, "", "")
        assert out_path.read_bytes() == printed.encode("utf-8")

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_output_exits_2(self, golden_argv, tmp_path, target):
        path = tmp_path / "nope" / "out.json" if target == "missing-directory" else tmp_path
        code, out, err = run_cli([*golden_argv("dist-json"), "--output", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("metric", ["bures-wasserstein", "log-euclidean"])
    def test_alpha_on_metric_without_alpha_exits_2(self, matrices, metric):
        code, out, err = run_cli(["dist", *matrices, "--metric", metric, "--alpha", "7"])
        assert (code, out) == (2, "")
        assert err == (
            "error: --alpha only applies to the alpha-procrustes and power-euclidean metrics\n"
        )


class TestSweep:
    def test_three_alphas(self, matrices):
        a, b = matrices
        code, out, _ = run_cli(["sweep", "--alphas", "0.25,0.5,1", a, b])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,distance"
        assert len(lines) == 4

    def test_log_limit_row_and_limit_gap(self, matrices, tmp_path):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((3, 3))
        a = write_matrix(tmp_path / "ra.csv", base @ base.T + 0.5 * np.eye(3))
        base = rng.standard_normal((3, 3))
        b = write_matrix(tmp_path / "rb.csv", base @ base.T + 0.5 * np.eye(3))
        code, out, _ = run_cli(["sweep", "--alphas", "1e-3,log-limit", a, b])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        d_small = float(rows[0].split(",")[1])
        assert rows[1].split(",")[0] == "log-limit"
        d_limit = float(rows[1].split(",")[1])
        assert abs(d_small - d_limit) <= 5e-3 * d_limit

    @pytest.mark.parametrize("alpha_range", ["-0.5:0.5:5", "-1:1:4"], ids=["on-grid", "appended"])
    def test_alpha_range_includes_log_limit(self, matrices, alpha_range):
        # linspace(-1, 1, 4) misses 0, so the log-limit row is appended
        a, b = matrices
        code, out, _ = run_cli(["sweep", f"--alpha-range={alpha_range}", a, b])
        assert code == 0
        assert out.count("log-limit") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_alpha_range_to_infinity_exits_3(self, matrices):
        code, out, err = run_cli(["sweep", "--alpha-range=0:inf:3", *matrices])
        assert code == 3
        assert out == "" and "alpha must be finite" in err

    def test_empty_alpha_list_exits_2(self, matrices):
        a, b = matrices
        code, _, _ = run_cli(["sweep", "--alphas", "", a, b])
        assert code == 2


class TestGeodesic:
    def test_matrix_block_prints_shortest_round_trip_digits(self):
        mat = np.array([[0.1, -0.0, 1e300], [-2.5e-300, 1.0 / 3.0, 7.0]])
        expected = "\n".join(",".join(f"{v:.17g}" for v in row) for row in mat)
        assert _matrix_block(mat) == expected
        assert np.array_equal(np.array([[float(v) for v in ln.split(",")]
                                         for ln in expected.splitlines()]), mat)

    def test_single_step_returns_endpoints(self, matrices):
        a, b = matrices
        code, out, _ = run_cli(["geodesic", a, b, "--alpha", "0.5", "--t-steps", "1"])
        assert code == 0
        blocks = [blk for blk in out.strip().split("\n\n")]
        first = np.array(
            [[float(v) for v in line.split(",")] for line in blocks[0].splitlines()[1:]]
        )
        last = np.array(
            [[float(v) for v in line.split(",")] for line in blocks[-1].splitlines()[1:]]
        )
        assert np.allclose(first, np.diag([1.0, 4.0]), atol=1e-9)
        assert np.allclose(last, np.diag([9.0, 16.0]), atol=1e-9)

    def test_commuting_midpoint(self, matrices):
        a, b = matrices
        code, out, _ = run_cli(
            ["geodesic", a, b, "--alpha", "0.5", "--t-steps", "2", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        mid = np.array(payload["points"][1]["matrix"])
        assert np.allclose(mid, np.diag([4.0, 9.0]), atol=1e-9)

    def test_report_length_matches_dist(self, matrices):
        a, b = matrices
        code, out, _ = run_cli(
            ["geodesic", a, b, "--alpha", "0.5", "--t-steps", "2", "--report-length"]
        )
        assert code == 0
        length_line = [ln for ln in out.splitlines() if ln.startswith("# length=")][0]
        length = float(length_line.split("=")[1])
        _, out_dist, _ = run_cli(["dist", "--alpha", "0.5", a, b])
        assert length == pytest.approx(json.loads(out_dist)["distance"], rel=1e-3)

    def test_log_limit_alpha_exits_3(self, matrices):
        code, out, err = run_cli(["geodesic", *matrices, "--alpha", "log-limit", "--t-steps", "2"])
        assert code == 3
        assert out == "" and "no log-limit form" in err

    def test_curve_closed_form_built_once(self, tmp_path, eigh_orders):
        # 2 endpoint reads + 5 points + 102 quadrature points
        rng = np.random.default_rng(20)
        a = write_matrix(tmp_path / "A.csv", rand_spd(rng, 3).mat)
        b = write_matrix(tmp_path / "B.csv", rand_spd(rng, 3).mat)
        eigh_orders.clear()
        code, _, _ = run_cli(
            ["geodesic", a, b, "--alpha", "0.7", "--t-steps", "4", "--report-length",
             "--length-steps", "100"]
        )
        assert code == 0
        assert len(eigh_orders) == 109


class TestGaussDist:
    def test_mean_only(self, tmp_path):
        cov = write_matrix(tmp_path / "C.csv", np.eye(2))
        m1 = write_matrix(tmp_path / "m1.csv", np.array([[1.0, 0.0]]))
        m2 = write_matrix(tmp_path / "m2.csv", np.array([[0.0, 0.0]]))
        code, out, _ = run_cli(
            [
                "gauss-dist",
                "--mean-a", m1, "--cov-a", cov,
                "--mean-b", m2, "--cov-b", cov,
                "--alpha", "1.0",
            ]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["distance"] == pytest.approx(1.0, abs=1e-7)
        assert payload["mean_term"] == pytest.approx(1.0, abs=1e-12)

    def test_cov_term_exact_when_mean_term_dominates(self, tmp_path):
        a_mat = rand_spd(np.random.default_rng(8), 3).mat
        cov_a = write_matrix(tmp_path / "A.csv", a_mat)
        cov_b = write_matrix(tmp_path / "B.csv", a_mat + 1e-3 * np.eye(3))
        m1 = write_matrix(tmp_path / "m1.csv", np.zeros((1, 3)))
        m2 = write_matrix(tmp_path / "m2.csv", np.array([[1e4, 0.0, 0.0]]))
        code, out, _ = run_cli(
            ["gauss-dist", "--mean-a", m1, "--cov-a", cov_a,
             "--mean-b", m2, "--cov-b", cov_b, "--alpha", "0.75"]
        )
        assert code == 0
        expected = alpha_procrustes(
            SpdMatrix.from_array(np.loadtxt(cov_a, delimiter=",")),
            SpdMatrix.from_array(np.loadtxt(cov_b, delimiter=",")),
            0.75,
        ).value
        assert json.loads(out)["cov_term"] == pytest.approx(expected, rel=1e-10)

    def test_decomposes_each_covariance_once(self, tmp_path, eigh_orders):
        rng = np.random.default_rng(21)
        cov_a = write_matrix(tmp_path / "A.csv", rand_spd(rng, 3).mat)
        cov_b = write_matrix(tmp_path / "B.csv", rand_spd(rng, 3).mat)
        m1 = write_matrix(tmp_path / "m1.csv", np.zeros((1, 3)))
        m2 = write_matrix(tmp_path / "m2.csv", np.ones((1, 3)))
        eigh_orders.clear()
        code, _, _ = run_cli(
            ["gauss-dist", "--mean-a", m1, "--cov-a", cov_a,
             "--mean-b", m2, "--cov-b", cov_b, "--alpha", "0.75"]
        )
        assert code == 0
        assert len(eigh_orders) == 2


    @pytest.mark.parametrize("weight", ["inf", "nan"])
    def test_non_finite_mean_weight_exits_3(self, tmp_path, weight):
        cov = write_matrix(tmp_path / "C.csv", np.eye(2))
        m1 = write_matrix(tmp_path / "m1.csv", np.array([[1.0, 0.0]]))
        m2 = write_matrix(tmp_path / "m2.csv", np.array([[0.0, 0.0]]))
        code, out, err = run_cli(
            ["gauss-dist", "--mean-a", m1, "--cov-a", cov, "--mean-b", m2, "--cov-b", cov,
             "--alpha", "1.0", "--mean-weights", f"{weight},1"]
        )
        assert code == 3
        assert out == "" and "positive and finite" in err

    @pytest.mark.parametrize(
        "weights, expected",
        [([], 1e160), (["--mean-weights", "4,1,9"], 2e160)],
        ids=["unweighted", "weighted"],
    )
    def test_mean_term_beyond_the_square_range(self, tmp_path, weights, expected):
        cov = write_matrix(tmp_path / "C.csv", np.eye(3))
        m1 = write_matrix(tmp_path / "m1.csv", np.array([[1e160, 0.0, 0.0]]))
        m2 = write_matrix(tmp_path / "m2.csv", np.zeros((1, 3)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(
                ["gauss-dist", "--mean-a", m1, "--cov-a", cov, "--mean-b", m2, "--cov-b", cov,
                 "--alpha", "0.5", *weights]
            )
        # 1e160 squared overflows; the hypot of sqrt(w) * diff does not
        assert code == 0 and caught == []
        payload = json.loads(out)
        assert payload["mean_term"] == payload["distance"] == expected


class TestRkhsDist:
    def test_identical_datasets(self, datasets):
        x, _ = datasets
        code, out, _ = run_cli(
            ["rkhs-dist", x, x, "--kernel", "rbf:sigma=0.7", "--alpha", "0.75"]
        )
        assert code == 0
        assert json.loads(out)["distance"] == pytest.approx(0.0, abs=1e-6)

    def test_rbf_smoke(self, datasets):
        x, y = datasets
        code, out, _ = run_cli(
            ["rkhs-dist", x, y, "--kernel", "rbf:sigma=0.7", "--alpha", "0.3",
             "--gamma", "0.05"]
        )
        assert code == 0
        payload = json.loads(out)
        assert np.isfinite(payload["distance"]) and payload["distance"] >= 0

    def test_unequal_counts_regularized(self, tmp_path):
        rng = np.random.default_rng(3)
        x = write_matrix(tmp_path / "X.csv", rng.standard_normal((8, 3)))
        y = write_matrix(tmp_path / "Y.csv", rng.standard_normal((13, 3)) + 0.4)
        code, out, _ = run_cli(
            ["rkhs-dist", x, y, "--kernel", "rbf:sigma=0.7", "--alpha", "0.3",
             "--gamma", "0.1"]
        )
        assert code == 0
        assert json.loads(out)["distance"] > 0

    def test_gamma_applies_above_half(self, tmp_path):
        rng = np.random.default_rng(4)
        x = write_matrix(tmp_path / "X.csv", rng.standard_normal((30, 3)))
        y = write_matrix(tmp_path / "Y.csv", rng.standard_normal((25, 3)) + 0.4)
        distances = []
        for gamma in ("0", "0.1"):
            code, out, _ = run_cli(
                ["rkhs-dist", x, y, "--kernel", "poly:d=2,c=1", "--alpha", "0.75",
                 "--gamma", gamma]
            )
            assert code == 0
            distances.append(json.loads(out)["distance"])
        assert distances[0] != distances[1]

    def test_integral_float_degree(self, datasets):
        payloads = []
        for degree in ("2", "2.0"):
            code, out, err = run_cli(
                ["rkhs-dist", *datasets, "--kernel", f"poly:d={degree},c=1", "--alpha", "0.75"]
            )
            assert (code, err) == (0, "")
            payloads.append(json.loads(out))
        assert payloads[0] == payloads[1] | {"kernel": payloads[0]["kernel"]}

    def test_log_limit_needs_gamma(self, datasets):
        x, y = datasets
        code, _, _ = run_cli(
            ["rkhs-dist", x, y, "--kernel", "rbf:sigma=0.7", "--alpha", "log-limit"]
        )
        assert code == 3
        code, out, _ = run_cli(
            ["rkhs-dist", x, y, "--kernel", "rbf:sigma=0.7", "--alpha", "log-limit",
             "--gamma", "0.1"]
        )
        assert code == 0
        assert json.loads(out)["alpha"] == "log-limit"

    @pytest.mark.parametrize("alpha", ["log-limit", "0.5"])
    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_exits_3(self, datasets, alpha, gamma):
        code, out, err = run_cli(
            ["rkhs-dist", *datasets, "--kernel", "linear", "--alpha", alpha,
             f"--gamma={gamma}"]
        )
        assert code == 3
        assert out == "" and "gamma must be positive and finite" in err

    @pytest.mark.parametrize("sigma", ["1e200", "1e-200"])
    def test_bandwidth_out_of_float_range_exits_3(self, datasets, sigma):
        proc = subprocess.run(
            [sys.executable, "-m", "alphaproc", "rkhs-dist", *datasets,
             "--kernel", f"rbf:sigma={sigma}", "--alpha", "0.5", "--gamma", "0.1"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith("error: RBF bandwidth 2 sigma^2 must be a positive finite")

    @pytest.mark.parametrize(
        "kernel",
        ["rbf:sigma=nan", "rbf:sigma=inf", "poly:d=2,c=nan", "poly:d=2,c=inf", "rbf:sgima=0.5"],
    )
    def test_non_finite_kernel_parameter_exits_3(self, datasets, kernel):
        code, out, err = run_cli(["rkhs-dist", *datasets, "--kernel", kernel, "--alpha", "1"])
        assert code == 3
        expected = "kernel parameter 'sgima'" if "sgima" in kernel else "must be finite"
        assert out == "" and expected in err

    @pytest.mark.parametrize(
        "kernel, key", [("rbf:sigma=1,sigma=2", "sigma"), ("poly:d=2,c=1,d=3", "d")]
    )
    def test_repeated_kernel_parameter_exits_3(self, datasets, kernel, key):
        code, out, err = run_cli(["rkhs-dist", *datasets, "--kernel", kernel, "--alpha", "1"])
        assert code == 3
        assert out == "" and f"repeated {kernel[:kernel.index(':')]} kernel parameter '{key}'" in err

    def test_gram_overflow_exits_2_naming_the_kernel(self, datasets):
        code, out, err = run_cli(
            ["rkhs-dist", *datasets, "--kernel", "poly:d=100000,c=1", "--alpha", "1"]
        )
        assert code == 2
        assert out == "" and "degree=100000" in err

    @pytest.mark.parametrize("scale", [1e7, 1e10], ids=["blocks", "features"])
    def test_feature_overflow_exits_2_naming_the_kernel(self, tmp_path, scale):
        # D = 41 features of 1-D data, m = 90 >= 2D: the feature route
        rng = np.random.default_rng(5)
        x = write_matrix(tmp_path / "x.csv", rng.standard_normal((90, 1)) * scale)
        y = write_matrix(tmp_path / "y.csv", rng.standard_normal((90, 1)) * scale)
        code, out, err = run_cli(
            ["rkhs-dist", x, y, "--kernel", "poly:d=40,c=1", "--alpha", "1"]
        )
        assert code == 2
        assert out == "" and "degree=40" in err

    def test_linear_matches_gauss_dist_on_moments(self, datasets, tmp_path):
        from alphaproc import Dataset, KernelSpec, explicit_feature_covariance

        x_path, y_path = datasets
        x = Dataset.from_array(np.loadtxt(x_path, delimiter=","))
        y = Dataset.from_array(np.loadtxt(y_path, delimiter=","))
        mx, cx = explicit_feature_covariance(x, KernelSpec.linear())
        my, cy = explicit_feature_covariance(y, KernelSpec.linear())
        mean_a = write_matrix(tmp_path / "ma.csv", mx.reshape(1, -1))
        mean_b = write_matrix(tmp_path / "mb.csv", my.reshape(1, -1))
        cov_a = write_matrix(tmp_path / "ca.csv", cx.mat)
        cov_b = write_matrix(tmp_path / "cb.csv", cy.mat)

        _, out_rkhs, _ = run_cli(
            ["rkhs-dist", x_path, y_path, "--kernel", "linear", "--alpha", "0.3",
             "--gamma", "0.1"]
        )
        _, out_gauss, _ = run_cli(
            ["gauss-dist", "--mean-a", mean_a, "--cov-a", cov_a,
             "--mean-b", mean_b, "--cov-b", cov_b,
             "--alpha", "0.3", "--gamma", "0.1"]
        )
        d_rkhs = json.loads(out_rkhs)["distance"]
        d_gauss = json.loads(out_gauss)["distance"]
        assert d_rkhs == pytest.approx(d_gauss, rel=1e-8)

    def test_builds_gram_once(self, monkeypatch, datasets):
        import alphaproc.cli as cli_mod
        import alphaproc.rkhs as rkhs_mod

        calls = []
        original = rkhs_mod._gram_blocks

        def counting(*args):
            calls.append(args)
            return original(*args)

        # a separate build in the CLI would go through its own binding
        for mod in (rkhs_mod, cli_mod):
            monkeypatch.setattr(mod, "_gram_blocks", counting, raising=False)
        x, y = datasets
        for alpha, gamma in (("0.75", "0"), ("0.3", "0.1"), ("log-limit", "0.1")):
            code, _, _ = run_cli(
                ["rkhs-dist", x, y, "--kernel", "rbf:sigma=0.7", "--alpha", alpha,
                 "--gamma", gamma]
            )
            assert code == 0
        assert len(calls) == 3

    def test_header_flag(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "with_header.csv"
        data = rng.standard_normal((6, 2))
        with open(path, "w") as fh:
            fh.write("u,v\n")
            for row in data:
                fh.write(",".join(str(v) for v in row) + "\n")
        code, out, _ = run_cli(
            ["rkhs-dist", str(path), str(path), "--kernel", "linear",
             "--alpha", "0.5", "--header"]
        )
        assert code == 0
        assert json.loads(out)["distance"] == pytest.approx(0.0, abs=1e-7)


class TestValidate:
    def test_passes_with_small_trials(self):
        code, out, _ = run_cli(["validate", "--trials", "5"])
        assert code == 0
        assert out.count("PASS") == 5

    def test_injected_failure_exits_5(self, monkeypatch):
        from alphaproc import validation

        monkeypatch.setattr(validation, "TRIANGLE_SLACK", float("inf"))
        code, _, err = run_cli(["validate", "--trials", "3"])
        assert code == 5
        assert "triangle" in err

    def test_zero_trials_exits_2(self):
        code, _, _ = run_cli(["validate", "--trials", "0"])
        assert code == 2

    def test_negative_seed_exits_2(self):
        code, _, err = run_cli(["validate", "--trials", "1", "--seed", "-1"])
        assert code == 2
        assert "--seed" in err

    def test_seed_changes_draws_but_passes(self):
        code, out, _ = run_cli(["validate", "--trials", "4", "--seed", "123"])
        assert code == 0
        assert "FAIL" not in out


class TestExitCodeMapping:
    @pytest.mark.parametrize("argv, message", [
        (["dist", "--alpha", "abc", "{a}", "{b}"], "bad alpha 'abc'"),
        (["dist", "--metric", "bures-wasserstein", "--gamma", "0.1", "{a}", "{b}"],
         "--gamma only applies to the alpha-procrustes metric"),
        (["sweep", "--alpha-range=1:2", "{a}", "{b}"], "bad --alpha-range '1:2'"),
        (["sweep", "--alpha-range=1:0:5", "{a}", "{b}"], "needs lo < hi and steps >= 2"),
        (["geodesic", "--alpha", "0.5", "--t-steps", "0", "{a}", "{b}"],
         "--t-steps must be >= 1"),
        (["gauss-dist", "--mean-a", "{m}", "--cov-a", "{a}", "--mean-b", "{m}", "--cov-b", "{b}",
          "--alpha", "1", "--mean-weights", "1,x"], "bad --mean-weights"),
        (["gauss-dist", "--mean-a", "{a}", "--cov-a", "{a}", "--mean-b", "{m}", "--cov-b", "{b}",
          "--alpha", "1"], "expected a single row or column vector"),
    ], ids=["alpha", "gamma", "range-fields", "range-order", "t-steps", "mean-weights",
            "mean-shape"])
    def test_malformed_argument_exits_2(self, matrices, tmp_path, argv, message):
        a, b = matrices
        m = write_matrix(tmp_path / "m.csv", np.zeros((1, 2)))
        code, out, err = run_cli([arg.format(a=a, b=b, m=m) for arg in argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["geodesic", "--alpha", "0.5", "--t-steps", "2"],
                                         ["dist", "--alpha", "0.5"]])
    def test_dimension_mismatch_exits_2(self, tmp_path, command):
        rng = np.random.default_rng(24)
        a = write_matrix(tmp_path / "A3.csv", rand_spd(rng, 3).mat)
        b = write_matrix(tmp_path / "B4.csv", rand_spd(rng, 4).mat)
        code, out, err = run_cli([command[0], a, b, *command[1:]])
        assert code == 2
        assert out == "" and "dimensions differ" in err

    def test_complex_spectrum_maps_to_4(self, monkeypatch, datasets):
        import alphaproc.cli as cli_mod
        from alphaproc import ComplexSpectrumError

        def boom(*args, **kwargs):
            raise ComplexSpectrumError("synthetic")

        monkeypatch.setattr(cli_mod, "_rkhs_gaussian_terms", boom)
        x, y = datasets
        code, _, err = run_cli(
            ["rkhs-dist", x, y, "--kernel", "linear", "--alpha", "0.5"]
        )
        assert code == 4
        assert "synthetic" in err

    @pytest.mark.parametrize(
        "error, expected",
        [("CliInputError", 2), ("DimensionError", 2), ("NonFiniteError", 2),
         ("DomainError", 3), ("ConvergenceFailureError", 3), ("NotPsdError", 3)],
    )
    def test_one_rule_maps_each_error(self, monkeypatch, datasets, error, expected):
        import alphaproc
        import alphaproc.cli as cli_mod

        cls = cli_mod.CliInputError if error == "CliInputError" else getattr(alphaproc, error)

        def boom(*args, **kwargs):
            raise cls("synthetic")

        monkeypatch.setattr(cli_mod, "_rkhs_gaussian_terms", boom)
        code, out, err = run_cli(["rkhs-dist", *datasets, "--kernel", "linear", "--alpha", "0.5"])
        assert (code, out, err) == (expected, "", "error: synthetic\n")

    def test_subprocess_entry_point(self, matrices):
        a, b = matrices
        proc = subprocess.run(
            [sys.executable, "-m", "alphaproc", "dist", "--alpha", "0.5", a, b],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["distance"] == pytest.approx(
            5.656854249492, abs=1e-9
        )


def _pair_3x3():
    """3x3 SPD pair with eigenvalues in [0.4, 3] on random bases."""
    from conftest import rand_orthogonal

    rng = np.random.default_rng(0)
    mats = []
    for eigs in ([0.4, 1.5, 3.0], [0.5, 2.0, 2.9]):
        q = rand_orthogonal(rng, 3)
        mats.append((q * eigs) @ q.T)
    return mats


def _samples(rows, dim, scale, shift=0.0):
    return np.random.default_rng(rows).standard_normal((rows, dim)) * scale + shift


# One case per input that used to print numpy RuntimeWarnings (or Infinity)
# before its error: (argv after the two files, the two inputs, the library
# call on them, the stage the error names).
_DIAGS = (np.diag([1.0, 2.0]), np.diag([3.0, 0.5]))
# A^1000 and B^1000 A^1000 are finite (1.9^1000 ~ 1e278); the bracket X X' is not
_BRACKET_DIAGS = (np.diag([1.0, 1.9]), np.diag([0.9, 0.5]))
_LINEAR_1E153 = (_samples(6, 2, 1e153), _samples(5, 2, 1e153))
_POLY_10 = (_samples(30, 3, 10.0), _samples(25, 3, 10.0, 1.0))
NON_FINITE_CASES = {
    "geodesic-1000": (
        ["geodesic", "--alpha", "1000", "--t-steps", "3"], _DIAGS,
        lambda a, b: GeodesicCurve(SpdMatrix.from_array(a), SpdMatrix.from_array(b), 1000).at(0.5),
        "power 1000.0",
    ),
    "geodesic-1000-bracket": (
        ["geodesic", "--alpha", "1000", "--t-steps", "3"], _BRACKET_DIAGS,
        lambda a, b: GeodesicCurve(SpdMatrix.from_array(a), SpdMatrix.from_array(b), 1000).at(0.5),
        "eigendecomposition",
    ),
    "dist-200": (
        ["dist", "--alpha", "200"], _pair_3x3(),
        lambda a, b: alpha_procrustes(SpdMatrix.from_array(a), SpdMatrix.from_array(b), 200),
        "cross-term eigensolve",
    ),
    "dist-100-gamma-10": (
        ["dist", "--alpha", "100", "--gamma", "10"], _pair_3x3(),
        lambda a, b: alpha_procrustes_regularized(
            SpdMatrix.from_array(a), SpdMatrix.from_array(b), 10.0, 100
        ),
        "cross-term eigensolve",
    ),
    "rkhs-linear-1e153": (
        ["rkhs-dist", "--kernel", "linear", "--alpha", "1"], _LINEAR_1E153,
        lambda x, y: rkhs_gaussian_distance(
            Dataset.from_array(x), Dataset.from_array(y), KernelSpec.linear(), 1.0
        ),
        "singular values",
    ),
    "rkhs-poly-60": (
        ["rkhs-dist", "--kernel", "poly:d=3,c=1", "--alpha", "60", "--gamma", "0.1"], _POLY_10,
        lambda x, y: rkhs_gaussian_distance(
            Dataset.from_array(x), Dataset.from_array(y), KernelSpec.polynomial(3, 1.0), 60, 0.1
        ),
        "cross-term eigensolve",
    ),
    "dist-60-scaled": (
        ["dist", "--alpha", "60"], (np.diag([1e3, 2e3]), np.diag([1e-3, 2e-3])),
        lambda a, b: alpha_procrustes(SpdMatrix.from_array(a), SpdMatrix.from_array(b), 60),
        "trace form",
    ),
}


class TestNonFiniteRule:
    """Each overflow is one NonFiniteError naming its stage, with no numpy warning."""

    @pytest.mark.parametrize("case", NON_FINITE_CASES)
    def test_library_call_raises_typed_error(self, case):
        # the suite turns a RuntimeWarning into an error
        _, inputs, call, stage = NON_FINITE_CASES[case]
        with pytest.raises(NonFiniteError, match=f"^{stage}: NaN or infinite"):
            call(*inputs)

    @pytest.mark.parametrize("case", NON_FINITE_CASES)
    def test_cli_child_exits_2_with_one_error_line(self, tmp_path, case):
        argv, inputs, _, stage = NON_FINITE_CASES[case]
        paths = [write_matrix(tmp_path / f"{name}.csv", arr) for name, arr in zip("ab", inputs)]
        proc = subprocess.run(
            [sys.executable, "-m", "alphaproc", argv[0], *paths, *argv[1:]],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith(f"error: {stage}: NaN or infinite")


def test_geodesic_alpha_200_is_a_typed_positivity_error(tmp_path):
    # X(0.5) (~1e95) and the bracket X X' (~1e190) stay finite; the bracket's
    # smallest eigenvalue is lost in the roundoff of its largest
    a, b = _pair_3x3()
    with pytest.raises(NonSpdIntermediateError, match="at t=0.5 is not strictly positive"):
        GeodesicCurve(SpdMatrix.from_array(a), SpdMatrix.from_array(b), 200).at(0.5)
    paths = [write_matrix(tmp_path / f"{name}.csv", arr) for name, arr in zip("ab", (a, b))]
    proc = subprocess.run(
        [sys.executable, "-m", "alphaproc", "geodesic", *paths, "--alpha", "200", "--t-steps", "3"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert re.match(r"error: geodesic bracket at t=\S+ is not strictly positive definite ", proc.stderr)
