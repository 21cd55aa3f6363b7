"""Span recorder for the traced benchmark run.

``Tracer.install()`` replaces, at every alphaproc module binding, each
public function defined in an alphaproc module (``from .linalg import
spd_power`` gives ``metrics`` a second binding, and that one is replaced
too), each public method of an alphaproc class, and the four
``numpy.linalg`` entry points alphaproc calls.  Every call then records a
span: id, parent id, op id, layer, name, start, end and, for LAPACK calls,
the matrix order and a computed flop count.  ``uninstall()`` puts the
originals back.

``pairwise_distances`` evaluates pairs on worker threads, where the
thread-local span stack is empty.  Its wrapper therefore wraps the
``metric`` callable, so each pair runs as a span whose parent is the
``pairwise_distances`` span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np
import numpy.linalg as nla

LAYERS = ("cli", "validation", "rkhs", "gaussian", "geometry", "metrics", "linalg", "lapack")
LAPACK_FUNCTIONS = ("eigh", "eigvalsh", "eigvals", "svd")
OP_LAYER = "op"
PAIR_LAYER = "pair"
PAIRWISE_NAME = "metrics.pairwise_distances"


def lapack_cost(name: str, args, kwargs) -> tuple[int, int, float]:
    """(matrices in the stack, matrix order, computed flops) of one LAPACK call.

    Standard dense counts (Golub and Van Loan): symmetric eigensolver 9n^3
    with vectors and 4n^3/3 without; nonsymmetric eigenvalues 10n^3; SVD of
    an m x n matrix (m >= n) 4m^2 n + 8mn^2 + 9n^3 with vectors and
    4mn^2 - 4n^3/3 without.
    """
    shape = np.shape(args[0])
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    rows, cols = shape[-2], shape[-1]
    n = min(rows, cols)
    if name == "eigh":
        flops = 9.0 * n**3
    elif name == "eigvalsh":
        flops = 4.0 * n**3 / 3.0
    elif name == "eigvals":
        flops = 10.0 * n**3
    else:
        m = max(rows, cols)
        compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        if compute_uv:
            flops = 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3
        else:
            flops = 4.0 * m * n * n - 4.0 * n**3 / 3.0
    return batch, n, batch * flops


class Tracer:
    """Records spans while installed; not reentrant across tracers."""

    def __init__(self):
        self.spans = []  # (id, parent, op, layer, name, start, end, extra)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    # ---------------------------------------------------------------- spans

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.op = [], 0
        return local

    def call(self, layer, name, fn, args, kwargs, extra=None):
        local = self._state()
        sid = next(self._ids)
        parent = local.stack[-1] if local.stack else 0
        local.stack.append(sid)
        if name == PAIRWISE_NAME:
            args, kwargs = self._wrap_metric(sid, local.op, args, kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            local.stack.pop()
            self.spans.append((sid, parent, local.op, layer, name, start, end, extra))

    def run_op(self, op_id: int, fn):
        """Run one benchmark op as a root span; returns (output or exception, seconds)."""
        local = self._state()
        local.op = op_id
        start = perf_counter()
        try:
            out = self.call(OP_LAYER, "op", fn, (), {})
        except Exception as exc:  # a failing op is counted, never dropped
            out = exc
        return out, perf_counter() - start

    def _wrap_metric(self, parent_sid, op_id, args, kwargs):
        if len(args) >= 3:
            metric, rest = args[2], args[:2]
            wrapped = self._pair_callable(metric, parent_sid, op_id)
            return rest + (wrapped,) + tuple(args[3:]), kwargs
        if "metric" in kwargs:
            kwargs = dict(kwargs, metric=self._pair_callable(kwargs["metric"], parent_sid, op_id))
        return args, kwargs

    def _pair_callable(self, metric, parent_sid, op_id):
        def pair(*args, **kwargs):
            local = self._state()
            saved = local.stack, local.op
            local.stack, local.op = [parent_sid], op_id
            try:
                return self.call(PAIR_LAYER, "pair", metric, args, kwargs)
            finally:
                local.stack, local.op = saved

        return pair

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, layer, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs)

        return traced

    def _wrap_lapack(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call("lapack", name, fn, args, kwargs, lapack_cost(name, args, kwargs))

        return traced

    def install(self):
        replaced = {}
        for name in LAPACK_FUNCTIONS:
            original = getattr(nla, name)
            replaced[original] = self._wrap_lapack(original, name)
            self._patch(nla, name, replaced[original])
        modules = [m for key, m in list(sys.modules.items())
                   if key == "alphaproc" or key.startswith("alphaproc.")]
        classes = set()
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not callable(value):
                    continue
                if value in replaced:
                    self._patch(module, attr, replaced[value])
                elif inspect.isfunction(value) and _own(value):
                    layer = value.__module__.rsplit(".", 1)[-1]
                    replaced[value] = self._wrap(value, layer, f"{layer}.{value.__qualname__}")
                    self._patch(module, attr, replaced[value])
                elif inspect.isclass(value) and _own(value) and not issubclass(value, BaseException):
                    classes.add(value)
        for cls in classes:
            layer = cls.__module__.rsplit(".", 1)[-1]
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if kind else raw
                if not inspect.isfunction(fn):
                    continue  # properties and constants stay as they are
                wrapped = self._wrap(fn, layer, f"{layer}.{fn.__qualname__}")
                self._patch(cls, attr, kind(wrapped) if kind else wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def self_times(self) -> dict:
        """Span id -> duration minus the part of it covered by child spans."""
        children = defaultdict(list)
        for sid, parent, _, _, _, start, end, _ in self.spans:
            children[parent].append((start, end))
        out = {}
        for sid, _, _, _, _, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[sid] = (end - start) - covered
        return out

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metric values (name -> number) over ``ops`` traced ops."""
        self_time = self.self_times()
        calls = defaultdict(int)
        busy = defaultdict(float)
        lapack_calls = defaultdict(int)
        dims, flops = [], 0.0
        op_wall = pair_total = pairwise_wall = 0.0
        pairs = gram_builds = 0
        for sid, _, _, layer, name, start, end, extra in self.spans:
            calls[layer] += 1
            busy[layer] += self_time[sid]
            if layer == OP_LAYER:
                op_wall += end - start
            elif layer == PAIR_LAYER:
                pairs += 1
                pair_total += end - start
            elif name == PAIRWISE_NAME:
                pairwise_wall += end - start
            elif name == "rkhs.gram_bundle":
                gram_builds += 1
            elif layer == "lapack":
                lapack_calls[name] += 1
                dims.append(extra[1])
                flops += extra[2]
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls_per_op"] = calls[layer] / ops
            metrics[f"{layer}.self_ms_per_op"] = 1e3 * busy[layer] / ops
        metrics["metrics.pairwise.speedup"] = pair_total / pairwise_wall if pairwise_wall else 0.0
        metrics["metrics.pairwise.pair_us"] = 1e6 * pair_total / pairs if pairs else 0.0
        for name in LAPACK_FUNCTIONS:
            metrics[f"lapack.{name}_calls_per_op"] = lapack_calls[name] / ops
        metrics["lapack.mean_dim"] = float(np.mean(dims)) if dims else 0.0
        metrics["lapack.flops_per_op"] = flops / ops
        metrics["lapack.time_share"] = busy["lapack"] / op_wall if op_wall else 0.0
        metrics["rkhs.gram_builds_per_op"] = gram_builds / ops
        return metrics

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines, header first."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(["id", "parent", "op", "layer", "name", "start_s", "end_s",
                                 "lapack_batch_dim_flops"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _own(obj) -> bool:
    return (getattr(obj, "__module__", "") or "").startswith("alphaproc")
