"""Command-line front end.

Subcommands: dist, sweep, geodesic, gauss-dist, rkhs-dist, validate.

Matrix CSV files are plain comma-separated rows with no header; matrices
must be symmetric within 1e-8 (they are then symmetrized exactly).  Dataset
CSV files hold one sample per row, with an optional header skipped by
--header.  Exit codes: 0 success, 2 parse/input errors, 3 domain errors,
4 complex spectrum, 5 validation failure.  Distances print with 12
significant digits, so output is byte-stable for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .exceptions import (
    AlphaProcError,
    ComplexSpectrumError,
    DimensionError,
    NonFiniteError,
)
from .gaussian import GaussianMeasure, MeanMetricSpec, _gaussian_terms
from .geometry import GeodesicCurve, geodesic_length_numeric
from .linalg import AlphaParam, SpdMatrix
from .metrics import (
    alpha_procrustes,
    alpha_procrustes_regularized,
    bures_wasserstein,
    log_euclidean,
    power_euclidean,
)
from .rkhs import Dataset, KernelSpec, _rkhs_gaussian_terms
from .validation import run_all_suites

MATRIX_SYM_TOL = 1e-8


class CliInputError(Exception):
    """Unreadable or malformed input; maps to exit code 2."""


def _fmt(value: float) -> float:
    """Round to 12 significant digits for byte-stable output."""
    return float(f"{value:.12g}")


def _read_rows(path: str, skip_header: bool = False) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    if skip_header:
        lines = lines[1:]
    if not lines:
        raise CliInputError(f"{path} is empty")
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise CliInputError(f"{path}: {exc}") from exc


def _read_matrix(path: str) -> SpdMatrix:
    arr = _read_rows(path)
    if arr.shape[0] != arr.shape[1]:
        raise CliInputError(f"{path}: matrix is not square ({arr.shape})")
    asym = float(np.max(np.abs(arr - arr.T)))
    if asym > MATRIX_SYM_TOL * max(1.0, float(np.max(np.abs(arr)))):
        raise CliInputError(f"{path}: matrix is not symmetric (max deviation {asym:.3e})")
    return SpdMatrix.from_array(arr)


def _read_vector(path: str) -> np.ndarray:
    arr = _read_rows(path)
    if 1 not in arr.shape:
        raise CliInputError(f"{path}: expected a single row or column vector")
    return arr.ravel()


def _read_dataset(path: str, skip_header: bool = False) -> Dataset:
    return Dataset.from_array(_read_rows(path, skip_header=skip_header))


def _parse_alpha(text: str) -> AlphaParam:
    try:
        return AlphaParam.parse(text)
    except ValueError as exc:
        raise CliInputError(f"bad alpha {text!r}: {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(payload: dict) -> str:
    return json.dumps(payload) + "\n"


def _cmd_dist(args) -> int:
    a = _read_matrix(args.matrix_a)
    b = _read_matrix(args.matrix_b)
    metric = args.metric
    needs_alpha = metric in ("alpha-procrustes", "power-euclidean")
    if needs_alpha and args.alpha is None:
        raise CliInputError(f"--alpha is required for metric {metric}")
    if args.gamma and metric != "alpha-procrustes":
        raise CliInputError("--gamma only applies to the alpha-procrustes metric")

    alpha = _parse_alpha(args.alpha) if args.alpha is not None else None
    if metric == "alpha-procrustes":
        if args.gamma:
            result = alpha_procrustes_regularized(a, b, args.gamma, alpha)
        else:
            result = alpha_procrustes(a, b, alpha)
    elif metric == "bures-wasserstein":
        result = bures_wasserstein(a, b)
    elif metric == "log-euclidean":
        result = log_euclidean(a, b)
    else:
        result = power_euclidean(a, b, alpha.value)

    payload = {
        "schema": 1,
        "metric": metric,
        "alpha": result.alpha.label() if needs_alpha else None,
        "gamma": result.gamma,
        "distance": _fmt(result.value),
    }
    if args.format == "json":
        _emit(_json_dump(payload), args.output)
    else:
        alpha_cell = "" if payload["alpha"] is None else payload["alpha"]
        _emit(
            f"{metric},{alpha_cell},{payload['gamma']:.12g},{payload['distance']:.12g}\n",
            args.output,
        )
    return 0


def _sweep_alphas(args) -> list[AlphaParam]:
    if args.alphas is not None:
        items = [item for item in args.alphas.split(",") if item.strip()]
        if not items:
            raise CliInputError("empty alpha list")
        return [_parse_alpha(item) for item in items]
    try:
        lo_s, hi_s, steps_s = args.alpha_range.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError as exc:
        raise CliInputError(f"bad --alpha-range {args.alpha_range!r}: {exc}") from exc
    if steps < 2 or hi <= lo:
        raise CliInputError("--alpha-range needs lo < hi and steps >= 2")
    lo, hi = AlphaParam(lo).value, AlphaParam(hi).value  # finite before linspace
    grid = [AlphaParam(v) for v in np.linspace(lo, hi, steps)]
    if lo <= 0.0 <= hi and not any(al.is_log_limit for al in grid):
        grid.append(AlphaParam.log_limit())
    return grid


def _cmd_sweep(args) -> int:
    a = _read_matrix(args.matrix_a)
    b = _read_matrix(args.matrix_b)
    rows = []
    for alpha in _sweep_alphas(args):
        if args.gamma:
            value = alpha_procrustes_regularized(a, b, args.gamma, alpha).value
        else:
            value = alpha_procrustes(a, b, alpha).value
        rows.append((alpha.label(), _fmt(value)))
    if args.format == "json":
        _emit(
            _json_dump(
                {
                    "schema": 1,
                    "gamma": args.gamma,
                    "rows": [{"alpha": al, "distance": d} for al, d in rows],
                }
            ),
            args.output,
        )
    else:
        lines = ["alpha,distance"]
        for al, d in rows:
            cell = al if isinstance(al, str) else f"{al:.12g}"
            lines.append(f"{cell},{d:.12g}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _matrix_block(mat: np.ndarray) -> str:
    row_fmt = ",".join(["%.17g"] * mat.shape[1])
    return "\n".join(row_fmt % tuple(row) for row in mat.tolist())


def _cmd_geodesic(args) -> int:
    a = _read_matrix(args.matrix_a)
    b = _read_matrix(args.matrix_b)
    alpha = _parse_alpha(args.alpha)
    if alpha.is_log_limit:
        raise CliInputError("geodesic needs a nonzero alpha")
    if args.t_steps < 1:
        raise CliInputError("--t-steps must be >= 1")
    curve = GeodesicCurve(a, b, alpha.value)
    ts = [k / args.t_steps for k in range(args.t_steps + 1)]
    points = [(t, curve.at(t).mat) for t in ts]
    length = (
        geodesic_length_numeric(curve, args.length_steps) if args.report_length else None
    )
    if args.format == "json":
        payload = {
            "schema": 1,
            "alpha": alpha.label(),
            "points": [
                {"t": _fmt(t), "matrix": [[_fmt(v) for v in row] for row in mat]}
                for t, mat in points
            ],
        }
        if length is not None:
            payload["length"] = _fmt(length)
        _emit(_json_dump(payload), args.output)
    else:
        blocks = [f"# t={t:.12g}\n{_matrix_block(mat)}" for t, mat in points]
        text = "\n\n".join(blocks) + "\n"
        if length is not None:
            text += f"\n# length={length:.12g}\n"
        _emit(text, args.output)
    return 0


def _cmd_gauss_dist(args) -> int:
    mean_metric = MeanMetricSpec()
    if args.mean_weights:
        try:
            weights = np.array([float(w) for w in args.mean_weights.split(",")])
        except ValueError as exc:
            raise CliInputError(f"bad --mean-weights: {exc}") from exc
        mean_metric = MeanMetricSpec(weights=weights)
    g1 = GaussianMeasure.from_arrays(_read_vector(args.mean_a), _read_matrix(args.cov_a))
    g2 = GaussianMeasure.from_arrays(_read_vector(args.mean_b), _read_matrix(args.cov_b))
    alpha = _parse_alpha(args.alpha)
    mean_term, cov_term, total = _gaussian_terms(g1, g2, alpha, args.gamma or None, mean_metric)
    payload = {
        "schema": 1,
        "alpha": alpha.label(),
        "gamma": args.gamma,
        "mean_term": _fmt(mean_term),
        "cov_term": _fmt(cov_term),
        "distance": _fmt(total),
    }
    _emit(_json_dump(payload), args.output)
    return 0


def _cmd_rkhs_dist(args) -> int:
    x = _read_dataset(args.data_x, skip_header=args.header)
    y = _read_dataset(args.data_y, skip_header=args.header)
    kernel = KernelSpec.parse(args.kernel)
    alpha = _parse_alpha(args.alpha)
    mean_term, cov_term, total = _rkhs_gaussian_terms(x, y, kernel, alpha, args.gamma)
    payload = {
        "schema": 1,
        "kernel": args.kernel,
        "alpha": alpha.label(),
        "gamma": args.gamma,
        "mean_term": _fmt(mean_term),
        "cov_term": _fmt(cov_term),
        "distance": _fmt(total),
    }
    _emit(_json_dump(payload), args.output)
    return 0


def _cmd_validate(args) -> int:
    if args.trials <= 0:
        raise CliInputError("--trials must be positive")
    if args.seed < 0:
        raise CliInputError("--seed must be non-negative")
    results = run_all_suites(args.seed, args.trials)
    if args.inject_failure:
        # results[0] is the metric-axioms suite; fails on demand for tests
        results[0].fail(f"seed={args.seed} injected failure of the triangle check")
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"{r.name:<{width}}  {status}  ({r.checks} checks)\n")
    failed = [r for r in results if not r.passed]
    if failed:
        for r in failed:
            for message in r.failures[:5]:
                sys.stderr.write(f"{r.name}: {message}\n")
        return 5
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphaproc",
        description="Distances on SPD matrices, Gaussian measures, and RKHS covariance operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distance between two SPD matrices")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument(
        "--metric",
        default="alpha-procrustes",
        choices=["alpha-procrustes", "bures-wasserstein", "log-euclidean", "power-euclidean"],
    )
    p.add_argument("--alpha", help="family parameter, a float or 'log-limit'")
    p.add_argument("--gamma", type=float, default=0.0, help="ridge for the regularized distance")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("sweep", help="family distance over a grid of alphas")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alphas", help="comma-separated alphas, 'log-limit' allowed")
    group.add_argument("--alpha-range", help="lo:hi:steps uniform grid")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--format", default="csv", choices=["json", "csv"])
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("geodesic", help="sample the geodesic between two SPD matrices")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t-steps", type=int, required=True)
    p.add_argument("--report-length", action="store_true")
    p.add_argument("--length-steps", type=int, default=1000)
    p.add_argument("--format", default="csv", choices=["json", "csv"])
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("gauss-dist", help="distance between two Gaussian measures")
    p.add_argument("--mean-a", required=True)
    p.add_argument("--cov-a", required=True)
    p.add_argument("--mean-b", required=True)
    p.add_argument("--cov-b", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--mean-weights", default=None, help="comma-separated positive weights")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_gauss_dist)

    p = sub.add_parser("rkhs-dist", help="distance between RKHS Gaussians of two datasets")
    p.add_argument("data_x")
    p.add_argument("data_y")
    p.add_argument("--kernel", required=True, help="linear | poly:d=2,c=1 | rbf:sigma=0.5")
    p.add_argument("--alpha", required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--header", action="store_true", help="skip a header row in the CSVs")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_rkhs_dist)

    p = sub.add_parser("validate", help="run the randomized property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--inject-failure", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (DimensionError, NonFiniteError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ComplexSpectrumError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except AlphaProcError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
