import json
import subprocess
import sys

import numpy as np
import pytest
from conftest import CHILD_ENV, rand_spd

from alphaproc import SpdMatrix, alpha_procrustes
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

    def test_log_limit_alpha_matches_log_euclidean(self, matrices):
        a, b = matrices
        code, out, _ = run_cli(["dist", "--alpha", "log-limit", a, b])
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
        ["1,2\n3\n", "", "\n  \n", "1,x\nx,1\n", "1,0,\n0,1,\n", "# c\n1,0\n0,1\n"],
        ids=["ragged", "empty", "blank", "non-numeric", "trailing-comma", "hash-line"],
    )
    def test_bad_csv_exits_2(self, matrices, tmp_path, content):
        bad = tmp_path / "bad.csv"
        bad.write_text(content)
        code, out, err = run_cli(["dist", matrices[0], str(bad), "--alpha", "1"])
        assert code == 2
        assert out == "" and str(bad) in err and "Traceback" not in err

    def test_asymmetric_matrix_exits_2(self, matrices, tmp_path):
        bad = write_matrix(tmp_path / "asym.csv", np.array([[1.0, 0.5], [0.0, 1.0]]))
        code, _, err = run_cli(["dist", matrices[0], bad, "--alpha", "1"])
        assert code == 2
        assert "symmetric" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_exits_2_without_traceback(self, tmp_path):
        g, h = np.random.default_rng(5).standard_normal((2, 4, 6))
        a = write_matrix(tmp_path / "A.csv", g @ g.T * 1e100)
        b = write_matrix(tmp_path / "B.csv", h @ h.T * 1e100)
        code, out, err = run_cli(["dist", "--alpha", "2", a, b])
        assert code == 2
        assert out == "" and err.startswith("error:") and "Traceback" not in err

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

    def test_output_file(self, matrices, tmp_path):
        a, b = matrices
        out_path = tmp_path / "result.json"
        code, out, _ = run_cli(
            ["dist", "--alpha", "1", a, b, "--output", str(out_path)]
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["schema"] == 1


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

    def test_alpha_range_includes_log_limit(self, matrices):
        a, b = matrices
        code, out, _ = run_cli(["sweep", "--alpha-range=-0.5:0.5:5", a, b])
        assert code == 0
        assert "log-limit" in out

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

    def test_curve_closed_form_built_once(self, tmp_path, eigh_orders):
        # 2 endpoint reads + 5 points + 102 quadrature points + 1 cross root
        rng = np.random.default_rng(20)
        a = write_matrix(tmp_path / "A.csv", rand_spd(rng, 3).mat)
        b = write_matrix(tmp_path / "B.csv", rand_spd(rng, 3).mat)
        eigh_orders.clear()
        code, _, _ = run_cli(
            ["geodesic", a, b, "--alpha", "0.7", "--t-steps", "4", "--report-length",
             "--length-steps", "100"]
        )
        assert code == 0
        assert len(eigh_orders) == 110


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
        original = rkhs_mod.gram_bundle

        def counting(*args):
            calls.append(args)
            return original(*args)

        # a separate build in the CLI would go through its own binding
        for mod in (rkhs_mod, cli_mod):
            monkeypatch.setattr(mod, "gram_bundle", counting, raising=False)
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

    def test_injected_failure_exits_5(self):
        code, _, err = run_cli(["validate", "--trials", "3", "--inject-failure"])
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
