"""Command-line front end.

Subcommands: dist, sweep, geodesic, gauss-dist, rkhs-dist, validate.

Matrix CSV files are plain comma-separated rows with no header; matrices must
be symmetric within 1e-8 of their largest entry (they are then symmetrized
exactly).  Dataset CSV files hold one sample per row, with an optional header
skipped by --header.  --output, --gamma and the matrix_a matrix_b pair are
declared once and shared.  Each subcommand checks the flags it parses before
it reads any file.  Exit codes: 0 success, 2 parse/input errors
(an unwritable --output, dimension mismatch and non-finite values included),
3 other domain errors, 5 validation failure.  Distances
print with 12 significant digits, so output is byte-stable for fixed inputs
and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .exceptions import AlphaProcError, DimensionError, DomainError, NonFiniteError
from .gaussian import GaussianMeasure, MeanMetricSpec, _gaussian_terms
from .geometry import GeodesicCurve, geodesic_length_numeric
from .linalg import AlphaParam, SpdMatrix, _finite
from .metrics import _family, _optional_gamma, bures_wasserstein, log_euclidean, power_euclidean
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
    _finite(f"matrix {path}", arr)
    asym = float(np.max(np.abs(arr - arr.T)))
    if asym > MATRIX_SYM_TOL * float(np.max(np.abs(arr))):
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
    except DomainError as exc:
        if exc.__cause__ is None:  # a number outside the domain, such as nan: exit 3
            raise
        raise CliInputError(f"bad alpha {text!r}: {exc.__cause__}") from exc


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliInputError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(output: str | None, **fields) -> None:
    _emit(json.dumps({"schema": 1, **fields}) + "\n", output)


def _pair(args) -> tuple[SpdMatrix, SpdMatrix]:
    return _read_matrix(args.matrix_a), _read_matrix(args.matrix_b)


def _cmd_dist(args) -> int:
    metric = args.metric
    needs_alpha = metric in ("alpha-procrustes", "power-euclidean")
    if needs_alpha and args.alpha is None:
        raise CliInputError(f"--alpha is required for metric {metric}")
    if not needs_alpha and args.alpha is not None:
        raise CliInputError(
            "--alpha only applies to the alpha-procrustes and power-euclidean metrics"
        )
    gamma = _optional_gamma(args.gamma)
    if gamma and metric != "alpha-procrustes":
        raise CliInputError("--gamma only applies to the alpha-procrustes metric")

    alpha = _parse_alpha(args.alpha) if needs_alpha else None
    a, b = _pair(args)
    if metric == "alpha-procrustes":
        result = _family(a, b, alpha, gamma)
    elif metric == "bures-wasserstein":
        result = bures_wasserstein(a, b)
    elif metric == "log-euclidean":
        result = log_euclidean(a, b)
    else:
        result = power_euclidean(a, b, alpha)

    label = result.alpha.label() if needs_alpha else None
    distance = _fmt(result.value)
    if args.format == "json":
        _emit_json(args.output, metric=metric, alpha=label, gamma=result.gamma, distance=distance)
    else:
        alpha_cell = "" if label is None else label
        _emit(f"{metric},{alpha_cell},{result.gamma:.12g},{distance:.12g}\n", args.output)
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
    alphas = _sweep_alphas(args)
    gamma = _optional_gamma(args.gamma)
    a, b = _pair(args)
    rows = []
    for alpha in alphas:
        rows.append((alpha.label(), _fmt(_family(a, b, alpha, gamma).value)))
    if args.format == "json":
        rows_json = [{"alpha": al, "distance": d} for al, d in rows]
        _emit_json(args.output, gamma=gamma, rows=rows_json)
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
    alpha = _parse_alpha(args.alpha)
    if args.t_steps < 1:
        raise CliInputError("--t-steps must be >= 1")
    a, b = _pair(args)
    curve = GeodesicCurve(a, b, alpha)
    ts = [k / args.t_steps for k in range(args.t_steps + 1)]
    points = [(t, curve.at(t).mat) for t in ts]
    length = (
        geodesic_length_numeric(curve, args.length_steps) if args.report_length else None
    )
    if args.format == "json":
        points_json = [
            {"t": _fmt(t), "matrix": [[_fmt(v) for v in row] for row in mat]} for t, mat in points
        ]
        tail = {} if length is None else {"length": _fmt(length)}
        _emit_json(args.output, alpha=alpha.label(), points=points_json, **tail)
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
    alpha = _parse_alpha(args.alpha)
    gamma = _optional_gamma(args.gamma)
    g1 = GaussianMeasure.from_arrays(_read_vector(args.mean_a), _read_matrix(args.cov_a))
    g2 = GaussianMeasure.from_arrays(_read_vector(args.mean_b), _read_matrix(args.cov_b))
    terms = _gaussian_terms(g1, g2, alpha, gamma, mean_metric)
    return _emit_gaussian(args, alpha, gamma, terms)


def _cmd_rkhs_dist(args) -> int:
    kernel = KernelSpec.parse(args.kernel)
    alpha = _parse_alpha(args.alpha)
    gamma = _optional_gamma(args.gamma)
    x = _read_dataset(args.data_x, skip_header=args.header)
    y = _read_dataset(args.data_y, skip_header=args.header)
    terms = _rkhs_gaussian_terms(x, y, kernel, alpha, gamma)
    return _emit_gaussian(args, alpha, gamma, terms, kernel=args.kernel)


def _emit_gaussian(args, alpha: AlphaParam, gamma: float, terms, **head) -> int:
    """Print the (mean term, covariance term, distance) ``terms`` after the ``head`` fields."""
    mean_term, cov_term, total = terms
    _emit_json(
        args.output, **head, alpha=alpha.label(), gamma=gamma,
        mean_term=_fmt(mean_term), cov_term=_fmt(cov_term), distance=_fmt(total),
    )
    return 0


def _cmd_validate(args) -> int:
    if args.trials <= 0:
        raise CliInputError("--trials must be positive")
    if args.seed < 0:
        raise CliInputError("--seed must be non-negative")
    results = run_all_suites(args.seed, args.trials)
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
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("matrix_a")
    pair.add_argument("matrix_b")
    gamma = argparse.ArgumentParser(add_help=False)
    gamma.add_argument(
        "--gamma", type=float, default=0.0, help="ridge for the regularized distance"
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None)

    def command(name, func, help_text, *parents):
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.set_defaults(func=func)
        return p

    p = command("dist", _cmd_dist, "distance between two SPD matrices", pair, gamma, output)
    p.add_argument(
        "--metric",
        default="alpha-procrustes",
        choices=["alpha-procrustes", "bures-wasserstein", "log-euclidean", "power-euclidean"],
    )
    p.add_argument("--alpha", help="family parameter, a float or 'log-limit'")
    p.add_argument("--format", default="json", choices=["json", "csv"])

    p = command("sweep", _cmd_sweep, "family distance over a grid of alphas", pair, gamma, output)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alphas", help="comma-separated alphas, 'log-limit' allowed")
    group.add_argument("--alpha-range", help="lo:hi:steps uniform grid")
    p.add_argument("--format", default="csv", choices=["json", "csv"])

    p = command("geodesic", _cmd_geodesic, "sample the geodesic between two SPD matrices",
                pair, output)
    p.add_argument("--alpha", required=True)
    p.add_argument("--t-steps", type=int, required=True)
    p.add_argument("--report-length", action="store_true")
    p.add_argument("--length-steps", type=int, default=1000,
                   help="the stencil reaches 1/LENGTH_STEPS on either side of each node; "
                        "at least 100 keeps it inside [0, 1]")
    p.add_argument("--format", default="csv", choices=["json", "csv"])

    p = command("gauss-dist", _cmd_gauss_dist, "distance between two Gaussian measures",
                gamma, output)
    for name in ("--mean-a", "--cov-a", "--mean-b", "--cov-b", "--alpha"):
        p.add_argument(name, required=True)
    p.add_argument("--mean-weights", default=None, help="comma-separated positive weights")

    p = command("rkhs-dist", _cmd_rkhs_dist, "distance between RKHS Gaussians of two datasets",
                gamma, output)
    p.add_argument("data_x")
    p.add_argument("data_y")
    p.add_argument("--kernel", required=True, help="linear | poly:d=2,c=1 | rbf:sigma=0.5")
    p.add_argument("--alpha", required=True)
    p.add_argument("--header", action="store_true", help="skip a header row in the CSVs")

    p = command("validate", _cmd_validate, "run the randomized property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: the tree never changes between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliInputError, AlphaProcError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, (CliInputError, DimensionError, NonFiniteError)) else 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
