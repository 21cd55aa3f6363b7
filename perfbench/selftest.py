"""Self-tests of the benchmark: the oracle, failure counting, the tracer and
the printed metric names.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the library's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle as orc  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

ap = run.import_library()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _rand_spd(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(0.3, 3.0, n)) @ q.T


@pytest.mark.parametrize("alpha", [0.5, 1.0, -0.5, 0.3, 2.0])
def test_oracle_matches_bruteforce_2x2(alpha):
    rng = np.random.default_rng(11)
    for _ in range(3):
        a, b = _rand_spd(rng, 2), _rand_spd(rng, 2)
        brute = ap.procrustes_bruteforce_2x2(
            ap.SpdMatrix.from_array(a), ap.SpdMatrix.from_array(b), alpha
        )
        assert orc.family(a, b, alpha) == pytest.approx(brute, rel=1e-8)


@pytest.mark.parametrize("alpha", [0.5, -1.0, 0.7])
def test_oracle_is_power_euclidean_on_commuting_pairs(alpha):
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = (q * rng.uniform(0.3, 3.0, 5)) @ q.T
    b = (q * rng.uniform(0.3, 3.0, 5)) @ q.T
    expected = ap.power_euclidean(
        ap.SpdMatrix.from_array(a), ap.SpdMatrix.from_array(b), alpha
    ).value
    assert orc.family(a, b, alpha) == pytest.approx(expected, rel=1e-10)


def test_oracle_half_alpha_is_twice_bures_wasserstein():
    rng = np.random.default_rng(13)
    for n in (3, 6):
        a, b = _rand_spd(rng, n), _rand_spd(rng, n)
        bw = ap.bures_wasserstein(ap.SpdMatrix.from_array(a), ap.SpdMatrix.from_array(b)).value
        assert orc.family(a, b, 0.5) == pytest.approx(2.0 * bw, rel=1e-10)
        assert orc.bures_wasserstein(a, b) == pytest.approx(bw, rel=1e-10)


def test_oracle_pairwise_matches_single_pairs():
    rng = np.random.default_rng(14)
    mats = np.stack([_rand_spd(rng, 4) for _ in range(5)])
    for alpha, gamma in ((0.5, 0.0), (orc.LOG_LIMIT, 0.0), (0.25, 0.1)):
        table = orc.pairwise(mats, alpha, gamma)
        assert table[1, 3] == pytest.approx(orc.family(mats[1], mats[3], alpha, gamma), rel=1e-12)
        assert np.array_equal(table, table.T)


def test_check_outputs_counts_wrong_answers_and_exceptions():
    workload = wl.WORKLOADS["pairs-large"]
    ops = workload.build(ap, workload.generate(wl.rng_for(workload.name, 5))[:3], None)
    outputs = [op.run() for op in ops]
    assert run.check_outputs(ops, outputs)[0] == []
    outputs[1] *= 1.0 + 1e-6
    outputs[2] = ap.DomainError("injected")
    failed, reasons = run.check_outputs(ops, outputs)
    assert failed == [1, 2]
    assert "rel err" in reasons[0] and "DomainError" in reasons[1]


def test_repeated_outputs_share_one_copy_and_are_all_checked():
    calls = []

    def produce():
        calls.append(1)
        return "wrong" if len(calls) == 3 else "x" * 1000

    op = wl.Op("k", produce, lambda: "x" * 1000,
               lambda out, exp: None if out == exp else "differs")
    outputs, _, _ = run.run_ops([op], run.plain_runner, lambda n, _: n == 4)
    assert outputs[0] is outputs[1] is outputs[3] and outputs[2] == "wrong"
    assert run.check_outputs([op], outputs)[0] == [2]


def _run_main(argv, capsys):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_injected_wrong_answer_raises_fail_ratio(monkeypatch, capsys):
    original = run.set_up

    def wrong_second_op(*args):
        setup_s, ops = original(*args)
        right = ops[1].run
        ops[1].run = lambda: right() * (1.0 + 1e-6)
        return setup_s, ops

    monkeypatch.setattr(run, "set_up", wrong_second_op)
    report, result = _run_main(
        ["--workload", "pairs-large", "--seed", "3", "--seconds", "0"], capsys
    )
    pool = 2 * wl.WORKLOADS["pairs-large"].cycle
    runs_of_op1 = len(range(1, result["attempted"], pool))
    assert result["correct"] is False
    assert result["failed"] == runs_of_op1 > 0
    assert report["fail_ratio"]["value"] == pytest.approx(runs_of_op1 / result["attempted"])


def test_printed_metric_names_match_benchmark_json(capsys):
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    report, result = _run_main(
        ["--workload", "pairs-large", "--seed", "4", "--seconds", "0"], capsys
    )
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["ops_beyond_p90"] >= 10

    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    report, result = _run_main(
        ["--workload", "pairs-large", "--seed", "4", "--seconds", "0", "--trace", "1"], capsys
    )
    assert result["correct"] and report["bitwise_mismatches"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert (run.ROOT / report["span_file"]).is_file()


def test_benchmark_json_workloads_match_the_code():
    for w in BENCHMARK["workloads"]:
        assert w["why"] == wl.WORKLOADS[w["name"]].why


def test_tracer_wraps_every_binding_and_links_worker_spans():
    mats = [ap.SpdMatrix.from_array(_rand_spd(np.random.default_rng(15), 3)) for _ in range(4)]
    originals = (ap.metrics.spd_power, ap.linalg.spd_power, np.linalg.eigvalsh)
    plain = ap.pairwise_distances(mats, 0.5, lambda a, b, al: ap.alpha_procrustes(a, b, al))
    tracer = Tracer()
    tracer.install()
    try:
        assert ap.metrics.spd_power is ap.linalg.spd_power is not originals[0]
        assert np.linalg.eigvalsh is not originals[2]
        traced, _ = tracer.run_op(
            0, lambda: ap.pairwise_distances(mats, 0.5, lambda a, b, al: ap.alpha_procrustes(a, b, al))
        )
    finally:
        tracer.uninstall()
    assert (ap.metrics.spd_power, ap.linalg.spd_power, np.linalg.eigvalsh) == originals
    assert traced.tobytes() == plain.tobytes()
    by_id = {span[0]: span for span in tracer.spans}
    (pairwise,) = [s for s in tracer.spans if s[4] == "metrics.pairwise_distances"]
    pairs = [s for s in tracer.spans if s[3] == "pair"]
    assert len(pairs) == 6 and all(s[1] == pairwise[0] for s in pairs)
    procrustes = [s for s in tracer.spans if s[4] == "metrics.alpha_procrustes"]
    assert len(procrustes) == 6 and all(by_id[s[1]][3] == "pair" for s in procrustes)
    metrics = tracer.layer_metrics(1)
    assert metrics["metrics.calls_per_op"] == 7
    assert metrics["lapack.eigvalsh_calls_per_op"] == 6
    assert metrics["lapack.mean_dim"] == 3
    assert metrics["metrics.pairwise.speedup"] > 0


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pairs-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
