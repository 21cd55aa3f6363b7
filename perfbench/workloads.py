"""The benchmark's five workloads.

Each workload has two steps.  ``generate(seed)`` draws the raw inputs with
numpy alone; it is not part of the timed set-up.  ``build(ap, inputs, workdir)``
turns them into library objects (and CSV files for the CLI) and returns the
op pool: a list of ``Op`` whose length is a whole number of cycles.  Runs go
through the pool in order, so every measured stretch of whole cycles has the
same mix of op kinds.

Inputs are drawn generically (Wishart covariances, Gaussian samples) and are
never filtered.  Every op carries its own check against ``oracle``; the
expected value is computed once per pool entry, outside any timed region.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import oracle as orc

LOG = orc.LOG_LIMIT

# Agreement required with the oracle, relative to the oracle's value.  The
# matrix-family paths agree to ~1e-14 on these inputs.  RKHS values are
# limited to ~1e-10 by the square root of a numerically rank-deficient RBF
# Gram matrix.  The unregularized RKHS formula (alpha >= 1/2) also drops
# eigen-directions below RANK_TOL_FACTOR = 1e-10 of the largest eigenvalue;
# ROADMAP item 4 puts that path's agreement at ~1e-7 and leaves open which
# threshold is right, so it gets 1e-6.  CLI values print with 12 digits.
MATRIX_RTOL = 1e-9
RKHS_RTOL = 1e-8
RKHS_UNREGULARIZED_RTOL = 1e-6
CLI_RTOL = 1e-9
# Geodesic points print with 17 digits; the numeric length is a quadrature
# and only has to match the closed form to the paper's 1e-2.
GEODESIC_POINT_RTOL = 1e-8
GEODESIC_LENGTH_RTOL = 1e-2


@dataclass
class Op:
    """One call into the library plus the oracle that judges its output."""

    kind: str
    run: Callable[[], Any]
    expect: Callable[[], Any]
    compare: Callable[[Any, Any], Optional[str]]

    @functools.cached_property
    def expected(self):
        return self.expect()

    def check(self, output) -> Optional[str]:
        """None when ``output`` is right, else a one-line reason."""
        if isinstance(output, BaseException):
            return f"raised {type(output).__name__}: {output}"
        return self.compare(output, self.expected)


def _close(value: float, expected: float, rtol: float, what: str) -> Optional[str]:
    err = orc.relative_error(value, expected)
    if not err <= rtol:
        return f"{what}: got {value!r}, oracle {expected!r} (rel err {err:.2e} > {rtol:.0e})"
    return None


def covariance(rng: np.random.Generator, n: int) -> np.ndarray:
    """Wishart sample covariance of 2n standard normal draws, exactly symmetric."""
    x = rng.standard_normal((n, 2 * n))
    s = x @ x.T / (2 * n)
    return (s + s.T) / 2.0


def _alpha_arg(ap, alpha):
    return ap.AlphaParam.log_limit() if alpha == LOG else alpha


# --------------------------------------------------------------- pairwise-small

PAIRWISE_K = 40
PAIRWISE_SIZES = (4, 6, 8, 10)
# (label, alpha, gamma); gamma > 0 passes the regularized family as `metric`
PAIRWISE_KINDS = (
    ("alpha=0.5", 0.5, 0.0),
    ("alpha=1", 1.0, 0.0),
    ("alpha=-0.5", -0.5, 0.0),
    ("log-limit", LOG, 0.0),
    ("regularized alpha=0.25 gamma=0.1", 0.25, 0.1),
)


def _pairwise_generate(rng):
    ops = []
    cycle = len(PAIRWISE_KINDS) * len(PAIRWISE_SIZES)
    for j in range(2 * cycle):
        label, alpha, gamma = PAIRWISE_KINDS[j % len(PAIRWISE_KINDS)]
        n = PAIRWISE_SIZES[(j // len(PAIRWISE_KINDS)) % len(PAIRWISE_SIZES)]
        mats = np.stack([covariance(rng, n) for _ in range(PAIRWISE_K)])
        ops.append(dict(label=f"{label} n={n}", alpha=alpha, gamma=gamma, mats=mats))
    return ops


def _pairwise_compare(out, expected):
    out = np.asarray(out)
    if out.shape != expected.shape:
        return f"shape {out.shape} != {expected.shape}"
    if np.any(np.diag(out) != 0.0) or not np.array_equal(out, out.T):
        return "result is not symmetric with a zero diagonal"
    i, j = np.triu_indices(out.shape[0], 1)
    err = np.abs(out[i, j] - expected[i, j]) / np.abs(expected[i, j])
    worst = int(np.argmax(err))
    if not err[worst] <= MATRIX_RTOL:
        return _close(out[i, j][worst], expected[i, j][worst], MATRIX_RTOL,
                      f"pair ({i[worst]}, {j[worst]})")
    return None


def _pairwise_build(ap, inputs, workdir):
    def family(a, b, alpha):
        return ap.alpha_procrustes(a, b, alpha)

    def regularized(gamma):
        return lambda a, b, alpha: ap.alpha_procrustes_regularized(a, b, gamma, alpha)

    ops = []
    for spec in inputs:
        mats = [ap.SpdMatrix.from_array(m) for m in spec["mats"]]
        alpha = _alpha_arg(ap, spec["alpha"])
        metric = regularized(spec["gamma"]) if spec["gamma"] else family
        ops.append(Op(
            kind=spec["label"],
            run=lambda mats=mats, alpha=alpha, metric=metric:
                ap.pairwise_distances(mats, alpha, metric),
            expect=lambda s=spec: orc.pairwise(s["mats"], s["alpha"], s["gamma"]),
            compare=_pairwise_compare,
        ))
    return ops


# ----------------------------------------------------------------- pairs-large

LARGE_SIZES = (128, 192, 256)
LARGE_KINDS = (
    "alpha_procrustes alpha=0.75",
    "alpha_procrustes alpha=-0.5",
    "alpha_procrustes log-limit",
    "alpha_procrustes_regularized alpha=0.25 gamma=0.1",
    "bures_wasserstein",
    "gaussian_alpha_distance alpha=0.5",
)


def _large_generate(rng):
    ops = []
    cycle = len(LARGE_KINDS) * len(LARGE_SIZES)
    for j in range(2 * cycle):
        kind = LARGE_KINDS[j % len(LARGE_KINDS)]
        n = LARGE_SIZES[(j // len(LARGE_KINDS)) % len(LARGE_SIZES)]
        ops.append(dict(
            kind=kind, n=n, a=covariance(rng, n), b=covariance(rng, n),
            mean_a=rng.standard_normal(n), mean_b=rng.standard_normal(n),
        ))
    return ops


def _large_op(ap, spec) -> Op:
    a, b, kind = spec["a"], spec["b"], spec["kind"]

    def fresh():
        return ap.SpdMatrix.from_array(a), ap.SpdMatrix.from_array(b)

    if kind == "alpha_procrustes alpha=0.75":
        run, expect = (lambda: ap.alpha_procrustes(*fresh(), 0.75).value,
                       lambda: orc.family(a, b, 0.75))
    elif kind == "alpha_procrustes alpha=-0.5":
        run, expect = (lambda: ap.alpha_procrustes(*fresh(), -0.5).value,
                       lambda: orc.family(a, b, -0.5))
    elif kind == "alpha_procrustes log-limit":
        log_limit = ap.AlphaParam.log_limit()
        run, expect = (lambda: ap.alpha_procrustes(*fresh(), log_limit).value,
                       lambda: orc.family(a, b, LOG))
    elif kind == "alpha_procrustes_regularized alpha=0.25 gamma=0.1":
        run, expect = (lambda: ap.alpha_procrustes_regularized(*fresh(), 0.1, 0.25).value,
                       lambda: orc.family(a, b, 0.25, 0.1))
    elif kind == "bures_wasserstein":
        run, expect = (lambda: ap.bures_wasserstein(*fresh()).value,
                       lambda: orc.bures_wasserstein(a, b))
    else:
        ma, mb = spec["mean_a"], spec["mean_b"]

        def run():
            g1 = ap.GaussianMeasure.from_arrays(ma, a)
            g2 = ap.GaussianMeasure.from_arrays(mb, b)
            return ap.gaussian_alpha_distance(g1, g2, 0.5)

        def expect():
            return orc.gaussian(ma, a, mb, b, 0.5)

    return Op(f"{kind} n={spec['n']}", run, expect,
              lambda out, exp: _close(out, exp, MATRIX_RTOL, "distance"))


def _large_build(ap, inputs, workdir):
    return [_large_op(ap, spec) for spec in inputs]


# --------------------------------------------------------------- rkhs-datasets

RKHS_DIM = 5
RKHS_SIZES = (120, 200, 280)
RKHS_GAMMA = 0.1
RKHS_POLY = dict(d=2, c=1.0)
RKHS_KINDS = (
    "gaussian alpha=0.25 gamma=0.1",
    "gaussian log-limit gamma=0.1",
    "gaussian alpha=1 unequal m",
    "gaussian alpha=0.5 unequal m",
    "wasserstein unequal m",
)


def _sample(rng, m):
    """Gaussian sample with a random linear map and mean shift."""
    mix = rng.standard_normal((RKHS_DIM, RKHS_DIM)) / math.sqrt(RKHS_DIM)
    return rng.standard_normal((m, RKHS_DIM)) @ (np.eye(RKHS_DIM) + mix) + rng.normal(
        0.0, 0.3, RKHS_DIM
    )


def _median_sigma(x, y):
    z = np.vstack([x, y])
    d = np.sqrt(np.sum((z[:, None, :] - z[None, :, :]) ** 2, axis=-1))
    return float(np.median(d[np.triu_indices(z.shape[0], 1)]))


def _rkhs_generate(rng):
    """Three cycles: the cost of the non-symmetric eigensolve depends on the
    data, so each op kind and size is averaged over three dataset pairs."""
    ops = []
    cycle = len(RKHS_KINDS) * len(RKHS_SIZES)
    for j in range(3 * cycle):
        k, s = j % len(RKHS_KINDS), (j // len(RKHS_KINDS)) % len(RKHS_SIZES)
        m = RKHS_SIZES[s]
        m_y = m if k < 2 else (3 * m) // 4
        x, y = _sample(rng, m), _sample(rng, m_y)
        if (k + s) % 3 == 2:
            kernel = ("poly", dict(RKHS_POLY))
        else:
            kernel = ("rbf", dict(sigma=_median_sigma(x, y)))
        ops.append(dict(kind=RKHS_KINDS[k], x=x, y=y, kernel=kernel))
    return ops


def _rkhs_op(ap, spec) -> Op:
    kind, (kname, params) = spec["kind"], spec["kernel"]
    x, y = ap.Dataset.from_array(spec["x"]), ap.Dataset.from_array(spec["y"])
    if kname == "rbf":
        kernel = ap.KernelSpec.gaussian_rbf(params["sigma"])
    else:
        kernel = ap.KernelSpec.polynomial(params["d"], params["c"])
    raw_x, raw_y = spec["x"], spec["y"]
    rtol = RKHS_RTOL
    if kind == "wasserstein unequal m":
        run = lambda: ap.rkhs_wasserstein(x, y, kernel)  # noqa: E731
        expect = lambda: orc.rkhs_wasserstein(raw_x, raw_y, kname, **params)  # noqa: E731
    else:
        alpha, gamma = {
            "gaussian alpha=0.25 gamma=0.1": (0.25, RKHS_GAMMA),
            "gaussian log-limit gamma=0.1": (LOG, RKHS_GAMMA),
            "gaussian alpha=1 unequal m": (1.0, 0.0),
            "gaussian alpha=0.5 unequal m": (0.5, 0.0),
        }[kind]
        if not gamma:
            rtol = RKHS_UNREGULARIZED_RTOL
        lib_alpha = _alpha_arg(ap, alpha)
        run = lambda: ap.rkhs_gaussian_distance(x, y, kernel, lib_alpha, gamma)  # noqa: E731
        expect = lambda: orc.rkhs_gaussian(raw_x, raw_y, kname, alpha, gamma, **params)  # noqa: E731
    label = f"{kind} {kname} m={x.m},{y.m}"
    return Op(label, run, expect, lambda out, exp: _close(out, exp, rtol, "distance"))


def _rkhs_build(ap, inputs, workdir):
    return [_rkhs_op(ap, spec) for spec in inputs]


# ---------------------------------------------------- cli-geometry, cli-large

GEODESIC_ALPHAS = (0.25, 0.5, 1.0)
CHEAP_KINDS = ("dist", "dist-bw", "dist-log", "dist-reg", "sweep", "gauss-dist")
SWEEP_RANGE = "-1:1:9"


@dataclass(frozen=True)
class CliShape:
    """Sizes of one CLI workload's calls."""

    geodesic_sizes: tuple
    cheap_sizes: tuple
    length_steps: int
    validate_trials: int
    pool_cycles: int
    cheap_per_heavy: int


# Matrices of order 3-8: the length quadrature's thousands of tiny eigensolves
# and the CLI's parsing and formatting dominate, not LAPACK.
CLI_SMALL = CliShape(geodesic_sizes=(3, 5, 8), cheap_sizes=(3, 5, 8),
                     length_steps=1000, validate_trials=3, pool_cycles=2,
                     cheap_per_heavy=3)
# The same commands on matrices of order 48-192, where LAPACK dominates.  The
# quadrature needs far fewer steps than its default to meet the paper's 1e-2.
# One cycle in the pool: writing the CSV files is part of the timed set-up.
# Four cheap calls per heavy one put the median among the n=128 dist calls,
# which cost alike, and the 90th percentile among the n=48 geodesics and
# validate, not on the gap between two kinds of different cost.
CLI_LARGE = CliShape(geodesic_sizes=(48, 64), cheap_sizes=(64, 128, 192),
                     length_steps=100, validate_trials=1, pool_cycles=1,
                     cheap_per_heavy=4)


def _cli_generate(shape, rng):
    """Cycles of blocks of one heavy call (a geodesic per size and alpha, then
    one validate) followed by ``cheap_per_heavy`` cheap calls."""
    ops = []
    for _ in range(shape.pool_cycles):
        heavy = [("geodesic", n, al) for n in shape.geodesic_sizes for al in GEODESIC_ALPHAS]
        heavy.append(("validate", None, None))
        cheap = 0
        for kind, n, alpha in heavy:
            if kind == "validate":
                ops.append(dict(kind=kind, seed=int(rng.integers(0, 2**31)),
                                trials=shape.validate_trials))
            else:
                ops.append(dict(kind=kind, n=n, alpha=alpha, steps=shape.length_steps,
                                a=covariance(rng, n), b=covariance(rng, n)))
            for _ in range(shape.cheap_per_heavy):
                n = shape.cheap_sizes[(cheap // len(CHEAP_KINDS)) % len(shape.cheap_sizes)]
                ops.append(dict(kind=CHEAP_KINDS[cheap % len(CHEAP_KINDS)], n=n,
                                a=covariance(rng, n), b=covariance(rng, n),
                                mean_a=rng.standard_normal(n), mean_b=rng.standard_normal(n)))
                cheap += 1
    return ops


def _cli_cycle(shape):
    return (1 + shape.cheap_per_heavy) * (len(shape.geodesic_sizes) * len(GEODESIC_ALPHAS) + 1)


def _sweep_alphas():
    values = [float(v) for v in np.linspace(-1.0, 1.0, 9)]
    return [LOG if v == 0.0 else v for v in values]


def _cli_expect(spec):
    kind, a, b = spec["kind"], spec.get("a"), spec.get("b")
    if kind == "dist":
        return orc.family(a, b, 0.5)
    if kind == "dist-bw":
        return orc.bures_wasserstein(a, b)
    if kind == "dist-log":
        return orc.family(a, b, LOG)
    if kind == "dist-reg":
        return orc.family(a, b, -0.5, 0.1)
    if kind == "sweep":
        return [(al, orc.family(a, b, al)) for al in _sweep_alphas()]
    if kind == "gauss-dist":
        return dict(
            distance=orc.gaussian(spec["mean_a"], a, spec["mean_b"], b, 0.75),
            mean_term=float(np.linalg.norm(spec["mean_a"] - spec["mean_b"])),
            cov_term=orc.family(a, b, 0.75),
        )
    if kind == "geodesic":
        alpha = spec["alpha"]
        return dict(
            points=[orc.geodesic_point(a, b, alpha, k / 4) for k in range(5)],
            length=orc.family(a, b, alpha),
        )
    return None


def _compare_geodesic(text, expected):
    blocks = [blk for blk in text.strip().split("\n\n") if blk.strip()]
    points, length = [], None
    for blk in blocks:
        lines = blk.strip().splitlines()
        if lines[0].startswith("# length="):
            length = float(lines[0].split("=", 1)[1])
            continue
        points.append(np.array([[float(v) for v in row.split(",")] for row in lines[1:]]))
    if len(points) != len(expected["points"]) or length is None:
        return f"geodesic output has {len(points)} points, length {length}"
    for k, (got, want) in enumerate(zip(points, expected["points"])):
        err = float(np.linalg.norm(got - want) / np.linalg.norm(want))
        if not err <= GEODESIC_POINT_RTOL:
            return f"geodesic point {k}: rel err {err:.2e} > {GEODESIC_POINT_RTOL:.0e}"
    return _close(length, expected["length"], GEODESIC_LENGTH_RTOL, "geodesic length")


def _compare_validate(text, _expected):
    lines = [ln.split() for ln in text.strip().splitlines()]
    if len(lines) != 5 or any(len(ln) < 2 or ln[1] != "PASS" for ln in lines):
        return f"validate did not report five PASS suites: {text!r}"
    return None


def _compare_sweep(text, expected):
    rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
    cells = [LOG if al == LOG else f"{al:.12g}" for al, _ in expected]
    if [r[0] for r in rows] != cells:
        return f"sweep alphas {[r[0] for r in rows]} != {cells}"
    for (cell, got), (_, want) in zip(rows, expected):
        bad = _close(float(got), want, CLI_RTOL, f"sweep alpha={cell}")
        if bad:
            return bad
    return None


def _compare_gauss(text, expected):
    payload = json.loads(text)
    for key in ("distance", "mean_term", "cov_term"):
        bad = _close(float(payload[key]), expected[key], CLI_RTOL, f"gauss-dist {key}")
        if bad:
            return bad
    return None


def _compare_csv_distance(text, expected):
    return _close(float(text.strip().split(",")[-1]), expected, CLI_RTOL, "csv distance")


def _compare_json_distance(text, expected):
    return _close(float(json.loads(text)["distance"]), expected, CLI_RTOL, "distance")


CLI_COMPARE = {
    "validate": _compare_validate,
    "geodesic": _compare_geodesic,
    "sweep": _compare_sweep,
    "gauss-dist": _compare_gauss,
    "dist-bw": _compare_csv_distance,
}


def _cli_compare(kind):
    compare_text = CLI_COMPARE.get(kind, _compare_json_distance)

    def compare(output, expected):
        code, text = output
        if code != 0:
            return f"{kind} exited with code {code}"
        try:
            return compare_text(text, expected)
        except (ValueError, KeyError, IndexError) as exc:
            return f"{kind}: unparsable output ({exc}): {text[:120]!r}"

    return compare


def _write(path: Path, arr) -> str:
    np.savetxt(path, np.atleast_2d(arr), delimiter=",", fmt="%.17g")
    return str(path)


def _cli_argv(spec, idx, workdir: Path):
    kind = spec["kind"]
    if kind == "validate":
        return ["validate", "--seed", str(spec["seed"]), "--trials", str(spec["trials"])]
    a = _write(workdir / f"op{idx}_a.csv", spec["a"])
    b = _write(workdir / f"op{idx}_b.csv", spec["b"])
    if kind == "geodesic":
        return ["geodesic", a, b, "--alpha", f"{spec['alpha']:g}", "--t-steps", "4",
                "--report-length", "--length-steps", str(spec["steps"])]
    if kind == "dist":
        return ["dist", a, b, "--alpha", "0.5"]
    if kind == "dist-bw":
        return ["dist", a, b, "--metric", "bures-wasserstein", "--format", "csv"]
    if kind == "dist-log":
        return ["dist", a, b, "--metric", "log-euclidean"]
    if kind == "dist-reg":
        return ["dist", a, b, "--alpha", "-0.5", "--gamma", "0.1"]
    if kind == "sweep":
        return ["sweep", a, b, f"--alpha-range={SWEEP_RANGE}"]
    ma = _write(workdir / f"op{idx}_ma.csv", spec["mean_a"])
    mb = _write(workdir / f"op{idx}_mb.csv", spec["mean_b"])
    return ["gauss-dist", "--mean-a", ma, "--cov-a", a, "--mean-b", mb, "--cov-b", b,
            "--alpha", "0.75"]


def _cli_build(ap, inputs, workdir):
    cli = importlib.import_module("alphaproc.cli")
    workdir.mkdir(parents=True, exist_ok=True)

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    ops = []
    for idx, spec in enumerate(inputs):
        argv = _cli_argv(spec, idx, workdir)
        label = spec["kind"] if spec["kind"] == "validate" else f"{spec['kind']} n={spec['n']}"
        ops.append(Op(label, lambda argv=argv: call(argv),
                      lambda s=spec: _cli_expect(s), _cli_compare(spec["kind"])))
    return ops


# -------------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: int
    generate: Callable[[np.random.Generator], list]
    build: Callable[[Any, list, Path], list]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pairwise-small",
            "780 tiny eigensolves per pairwise_distances call: Python wrappers, "
            "spectral rebuilds and the thread pool dominate, not LAPACK",
            len(PAIRWISE_KINDS) * len(PAIRWISE_SIZES),
            _pairwise_generate,
            _pairwise_build,
        ),
        Workload(
            "pairs-large",
            "same metrics/linalg code on single pairs with n=128..256, where LAPACK "
            "dominates; overhead or batching changes should not move it",
            len(LARGE_KINDS) * len(LARGE_SIZES),
            _large_generate,
            _large_build,
        ),
        Workload(
            "rkhs-datasets",
            "Gram construction and the 3m non-symmetric eigvals of the regularized "
            "RKHS path; metrics is bypassed",
            len(RKHS_KINDS) * len(RKHS_SIZES),
            _rkhs_generate,
            _rkhs_build,
        ),
        Workload(
            "cli-geometry",
            "in-process CLI calls on n=3..8: the geodesic length quadrature's tiny "
            "eigensolves, validate suites, CSV parsing and output formatting dominate",
            _cli_cycle(CLI_SMALL),
            functools.partial(_cli_generate, CLI_SMALL),
            _cli_build,
        ),
        Workload(
            "cli-large",
            "in-process CLI calls (geodesic length, validate, dist, sweep, gauss-dist) "
            "on n=48..192, where LAPACK dominates: cli, geometry and validation layers",
            _cli_cycle(CLI_LARGE),
            functools.partial(_cli_generate, CLI_LARGE),
            _cli_build,
        ),
    )
}


def rng_for(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, list(WORKLOADS).index(name)])
