"""Benchmark for alphaproc: five workloads, an independent oracle, a traced run.

    python3 perfbench/run.py --workload pairwise-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; alphaproc is imported from its
``src/`` directory and nowhere else.  One process drives the library with
one client thread in a closed loop (the next op starts when the last one
returns).  The library runs at its defaults: ``ALPHA_PROC_THREADS`` is
removed from the environment and BLAS threads are left as numpy sets them.

``--trace 0`` times whole cycles of the workload's ops for at least
``--seconds`` seconds and at least MIN_OPS ops, then checks every output
against ``oracle`` and prints the end-to-end metrics.  Set-up time is the
median of SETUP_PROBES fresh interpreters that each import alphaproc, build
the input objects and run one warm-up op.

``--trace 1`` runs whole cycles untraced for TRACED_SHARE of ``--seconds``,
replays the same ops (up to SPAN_BUDGET spans, in whole cycles) with every alphaproc function and the numpy.linalg
eigen/SVD entry points wrapped, requires the two passes' outputs to be
bitwise equal, and prints the per-layer metrics.  Spans are written to
``.perfbench_out/`` in the checkout.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with the environment, the failure ratio and per-kind latencies.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import workloads as wl
from tracer import LAPACK_FUNCTIONS, LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
MIN_OPS = 100
TRACED_SHARE = 0.4
SPAN_BUDGET = 200_000

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Reported in the report line and through `failed`/`attempted`; it is zero
# on a healthy build, so it is not one of the bounded end-to-end metrics.
FAIL_RATIO_UNIT = "ratio"


class SetupError(RuntimeError):
    """The checkout has no importable alphaproc under src/."""


def import_library():
    if not (SRC / "alphaproc" / "__init__.py").is_file():
        raise SetupError(f"no alphaproc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ap = importlib.import_module("alphaproc")
    if SRC.resolve() not in Path(ap.__file__).resolve().parents:
        raise SetupError(f"alphaproc was imported from {ap.__file__}, not from {SRC}")
    return ap


def set_up(workload, seed: int, workdir: Path):
    """Draw inputs (untimed), then time import + build + one warm-up op."""
    inputs = workload.generate(wl.rng_for(workload.name, seed))
    start = perf_counter()
    ap = import_library()
    ops = workload.build(ap, inputs, workdir)
    try:
        ops[0].run()
    except Exception:  # the same op fails, and is counted, in the measured loop
        pass
    return perf_counter() - start, ops


def plain_runner(_op_id, fn):
    start = perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a failing op is counted, never dropped
        out = exc
    return out, perf_counter() - start


def run_ops(ops, runner, stop):
    """Run ops in pool order until stop(count, elapsed) after some op.

    An output bitwise equal to the first output of the same pool entry is
    replaced by that first copy, so holding every output for the oracle does
    not grow the process's memory with the length of the run.
    """
    outputs, latencies, firsts = [], [], {}
    start = perf_counter()
    while True:
        i = len(outputs)
        out, seconds = runner(i, ops[i % len(ops)].run)
        first, first_print = firsts.setdefault(i % len(ops), (out, fingerprint(out)))
        if first is not out and fingerprint(out) == first_print:
            out = first
        outputs.append(out)
        latencies.append(seconds)
        if stop(i + 1, perf_counter() - start):
            return outputs, latencies, perf_counter() - start


def check_outputs(ops, outputs):
    """Indices of failed ops and the first few reasons."""
    failed, reasons, checked = [], [], {}
    for i, out in enumerate(outputs):
        op = ops[i % len(ops)]
        key = (i % len(ops), id(out))
        if key not in checked:
            checked[key] = op.check(out)
        reason = checked[key]
        if reason is not None:
            failed.append(i)
            if len(reasons) < 5:
                reasons.append(f"op {i} [{op.kind}]: {reason}")
    return failed, reasons


def fingerprint(out):
    """Bitwise identity of an op output."""
    if isinstance(out, BaseException):
        return ("raised", type(out).__name__, str(out))
    if isinstance(out, np.ndarray):
        return ("array", out.dtype.str, out.shape, out.tobytes())
    if isinstance(out, float):
        return ("float", struct.pack("<d", out))
    return ("value", repr(out))


def kind_latencies(ops, latencies):
    by_kind = {}
    for i, seconds in enumerate(latencies):
        by_kind.setdefault(ops[i % len(ops)].kind, []).append(seconds)
    return {k: round(1e3 * statistics.median(v), 4) for k, v in sorted(by_kind.items())}


# ------------------------------------------------------------------ environment


def _blas_threads():
    """OpenBLAS's own thread count, read through its C API when it is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _openblas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved ({name})"


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "alphaproc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(threads_env):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "ALPHA_PROC_THREADS": "unset" if threads_env is None
        else f"unset by the benchmark (was {threads_env!r})",
        "git_commit": _git_commit(),
        "src_sha256_16": _src_digest(),
        "client": "1 thread, closed loop",
    }


# ---------------------------------------------------------------------- modes


def probe_setup(args):
    """Median set-up time over fresh interpreters, each waited for."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def measure(args, workload, ops, main_setup_s):
    """Untraced timed run: end-to-end metrics."""
    cpu0 = process_time()
    outputs, latencies, wall = run_ops(
        ops, plain_runner,
        lambda n, elapsed: n % workload.cycle == 0 and n >= MIN_OPS and elapsed >= args.seconds,
    )
    cpu = process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s, samples = probe_setup(args)
    failed, reasons = check_outputs(ops, outputs)
    n = len(outputs)
    p50, p90 = np.percentile(latencies, [50, 90])
    metrics = {
        "ops_per_s": n / wall,
        "latency_p50_ms": 1e3 * float(p50),
        "latency_p90_ms": 1e3 * float(p90),
        "cpu_ms_per_op": 1e3 * cpu / n,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    report = {
        "ops": n,
        "wall_s": wall,
        "ops_beyond_p90": int(sum(lat > p90 for lat in latencies)),
        "fail_ratio": {"value": len(failed) / n, "unit": FAIL_RATIO_UNIT},
        "setup_samples_s": samples,
        "main_setup_s": main_setup_s,
        "kind_p50_ms": kind_latencies(ops, latencies),
        "cycle_s": [round(sum(latencies[i:i + workload.cycle]), 4)
                    for i in range(0, n, workload.cycle)],
    }
    return metrics, END_TO_END_UNITS, n, failed, reasons, report


def trace(args, workload, ops):
    """Untraced then traced pass over the same ops: per-layer metrics.

    The traced pass stops at the first cycle boundary past SPAN_BUDGET spans,
    which keeps the span list in memory bounded on call-heavy workloads.
    """
    outputs, plain_latencies, _ = run_ops(
        ops, plain_runner,
        lambda n, elapsed: n % workload.cycle == 0 and elapsed >= TRACED_SHARE * args.seconds,
    )
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_latencies, _ = run_ops(
            ops, tracer.run_op,
            lambda count, _: count == len(outputs)
            or (count % workload.cycle == 0 and len(tracer.spans) >= SPAN_BUDGET),
        )
    finally:
        tracer.uninstall()
    n = len(traced)
    mismatched = [i for i in range(n) if fingerprint(outputs[i]) != fingerprint(traced[i])]
    failed, reasons = check_outputs(ops, outputs[:n])
    failed = sorted(set(failed) | set(mismatched))
    if mismatched:
        reasons.append(f"{len(mismatched)} traced outputs differ from untraced ones")
    metrics = tracer.layer_metrics(n)
    untraced_s, traced_s = sum(plain_latencies[:n]), sum(traced_latencies)
    metrics["tracing.overhead_ratio"] = traced_s / untraced_s
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl.gz"
    tracer.write(span_file)
    units = {name: unit for name, unit, _ in PER_LAYER}
    report = {
        "ops": n,
        "untraced_op_s": untraced_s,
        "traced_op_s": traced_s,
        "bitwise_mismatches": len(mismatched),
        "fail_ratio": {"value": len(failed) / n, "unit": FAIL_RATIO_UNIT},
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)),
    }
    return metrics, units, n, failed, reasons, report


PER_LAYER = (
    [(f"{layer}.{metric}", unit, "lower") for layer in LAYERS
     for metric, unit in (("calls_per_op", "calls/op"), ("self_ms_per_op", "ms/op"))]
    + [("metrics.pairwise.speedup", "ratio", "higher"),
       ("metrics.pairwise.pair_us", "us", "lower")]
    + [(f"lapack.{name}_calls_per_op", "calls/op", "lower") for name in LAPACK_FUNCTIONS]
    + [("lapack.mean_dim", "order", "higher"),
       ("lapack.flops_per_op", "flop/op-computed", "lower"),
       ("lapack.time_share", "ratio", "higher"),
       ("rkhs.gram_builds_per_op", "calls/op", "lower"),
       ("tracing.overhead_ratio", "ratio", "lower")]
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads_env = os.environ.pop("ALPHA_PROC_THREADS", None)
    workload = wl.WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        setup_s, ops = set_up(workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            result = trace(args, workload, ops)
        else:
            result = measure(args, workload, ops, setup_s)
        metrics, units, attempted, failed, reasons, report = result
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # only removed once empty
            WORK_DIR.rmdir()
    for reason in reasons:
        print(f"perfbench: FAIL {reason}", file=sys.stderr)
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(threads_env), **report}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
