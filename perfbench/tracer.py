"""Per-layer spans recorded from outside the program.

``Tracer`` wraps public functions of the growformer modules while it is
active. Every wrapped call is a span; a span's self time is its duration
minus the time covered by the wrapped calls it made. Because modules bind
imported names locally (``from .linalg import matmul`` in ``model``,
``ladder`` and ``trajectory``), each function object is replaced under
every name that holds it in every loaded ``growformer`` module, and put
back when the tracer exits.

Matrix products are split by the enclosing span, not by program state:
a ``matmul`` inside a ``verify_function_preservation`` span runs in
channel-ordered exact mode and is recorded as ``linalg.matmul.exact``,
every other one as ``linalg.matmul.blas``. FLOPs follow the ``flops.py``
convention, 2*m*k*n per product.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) -> stats reported for it. "calls", "self_s" and
# "total_s" come from the span itself; the others are per-function counts.
SPANS = {
    ("linalg", "matmul"): (),  # reported through MATMUL_SPLIT
    ("linalg", "gelu"): ("calls", "self_s"),
    ("linalg", "gelu_derivative"): ("calls", "self_s"),
    ("linalg", "softmax_rows"): ("calls", "self_s"),
    ("ladder", "ladder_forward"): ("calls", "self_s", "total_s"),
    ("ladder", "ladder_backward"): ("calls", "self_s", "total_s"),
    ("ladder", "attention_forward"): ("calls", "self_s", "total_s"),
    ("ladder", "attention_backward"): ("calls", "self_s", "total_s"),
    ("model", "model_forward"): ("calls", "self_s", "total_s"),
    ("model", "model_loss_and_grads"): ("calls", "self_s", "total_s"),
    ("model", "heldout_loss"): ("calls", "total_s"),
    ("training", "adamw_step"): ("calls", "self_s"),
    ("training", "train"): ("self_s", "total_s"),
    ("corpus", "gen_corpus"): ("calls", "self_s", "tokens"),
    ("rng", "subsample"): ("calls", "self_s", "entries"),
    ("alignment", "snapshot_alignment"): ("calls", "self_s", "total_s"),
    ("alignment", "u_p_score"): ("calls", "self_s"),
    ("alignment", "noc"): ("calls", "self_s"),
    ("alignment", "base_projection_sample"): ("calls", "total_s"),
    ("growth", "grow_model"): ("calls", "total_s"),
    ("growth", "verify_function_preservation"): ("calls", "total_s"),
    ("growth", "new_block_gradient_report"): ("total_s",),
    ("trajectory", "pca_fit"): ("total_s",),
    ("trajectory", "trajectory_series"): ("total_s",),
    ("seriesstats", "harmonic_fit"): ("total_s",),
    ("seriesstats", "fisher_g_test"): ("total_s",),
    ("seriesstats", "scaling_law_fit"): ("total_s",),
    ("experiment", "run_growth_experiment"): ("self_s", "total_s"),
    ("experiment", "analyze_snapshot_series"): ("total_s",),
    ("experiment", "emit_reports"): ("total_s", "bytes"),
    ("checkpoint", "save_checkpoint"): ("calls", "total_s", "bytes"),
    ("checkpoint", "load_checkpoint"): ("calls", "total_s", "bytes"),
}
MATMUL_SPLIT = ("blas", "exact")
MATMUL_STATS = ("calls", "self_s", "gflop", "gflop_per_s")
OVERHEAD = "trace.overhead_s"

UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "gflop": "GFLOP",
    "gflop_per_s": "GFLOP/s",
    "tokens": "tokens",
    "entries": "count",
    "bytes": "B",
}
HIGHER_IS_BETTER = {"gflop_per_s"}

_EXACT_SPAN = "growth.verify_function_preservation"


def per_layer_spec() -> list[dict]:
    """Every per-layer metric as it appears in BENCHMARK.json."""
    spec = []
    for (module, fn), stats in SPANS.items():
        names = (
            [(f"{module}.{fn}.{mode}", MATMUL_STATS) for mode in MATMUL_SPLIT]
            if fn == "matmul"
            else [(f"{module}.{fn}", stats)]
        )
        for span, span_stats in names:
            for stat in span_stats:
                better = "higher" if stat in HIGHER_IS_BETTER else "lower"
                spec.append({"name": f"{span}.{stat}", "unit": UNITS[stat], "better": better})
    spec.append({"name": OVERHEAD, "unit": "s", "better": "lower"})
    return spec


class _Record:
    __slots__ = ("calls", "total", "self", "count")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.count = 0


# Extra count of a span, computed from (args, kwargs, result).
_COUNTS = {
    "corpus.gen_corpus": lambda a, k, r: int(r.shape[0]),
    "rng.subsample": lambda a, k, r: int(r.shape[0]),
    "experiment.emit_reports": lambda a, k, r: sum(os.path.getsize(p) for p in r),
    "checkpoint.save_checkpoint": lambda a, k, r: os.path.getsize(a[1]),
    "checkpoint.load_checkpoint": lambda a, k, r: os.path.getsize(a[0]),
}


class Tracer:
    """Context manager that records spans around the functions in SPANS.

    Aggregates accumulate across activations, so one tracer can cover
    several traced operations; ``metrics(n)`` reports them per operation.
    """

    def __init__(self):
        self.records: dict[str, _Record] = defaultdict(_Record)
        self.flops = {mode: 0 for mode in MATMUL_SPLIT}
        self._stack: list[list[float]] = []
        self._exact_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    def _close(self, name: str, start: float, frame: list[float]) -> None:
        dt = time.perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        rec = self.records[name]
        rec.calls += 1
        rec.total += dt
        rec.self += dt - frame[0]

    def _wrap(self, name: str, fn):
        count = _COUNTS.get(name)
        exact = name == _EXACT_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            if exact:
                self._exact_depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start, frame)
                if exact:
                    self._exact_depth -= 1
            if count is not None:
                self.records[name].count += count(args, kwargs, result)
            return result

        return traced

    def _wrap_matmul(self, fn):
        @functools.wraps(fn)
        def traced(a, b):
            mode = "exact" if self._exact_depth else "blas"
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(a, b)
            finally:
                self._close(f"linalg.matmul.{mode}", start, frame)
            m, k = np.shape(a)
            self.flops[mode] += 2 * m * k * np.shape(b)[1]
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "growformer" or name.startswith("growformer."))
        ]
        for module, fn_name in SPANS:
            original = getattr(sys.modules[f"growformer.{module}"], fn_name)
            if fn_name == "matmul":
                wrapper = self._wrap_matmul(original)
            else:
                wrapper = self._wrap(f"{module}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def metrics(self, ops: int = 1) -> dict[str, float]:
        """Per-operation value of every per-layer metric except the
        tracing overhead, which only the caller can measure."""
        out: dict[str, float] = {}
        for (module, fn), stats in SPANS.items():
            if fn == "matmul":
                for mode in MATMUL_SPLIT:
                    rec = self.records[f"linalg.matmul.{mode}"]
                    gflop = self.flops[mode] / 1e9
                    span = f"linalg.matmul.{mode}"
                    out[f"{span}.calls"] = rec.calls / ops
                    out[f"{span}.self_s"] = rec.self / ops
                    out[f"{span}.gflop"] = gflop / ops
                    out[f"{span}.gflop_per_s"] = gflop / rec.self if rec.self > 0 else 0.0
                continue
            span = f"{module}.{fn}"
            rec = self.records[span]
            values = {
                "calls": rec.calls,
                "self_s": rec.self,
                "total_s": rec.total,
                "tokens": rec.count,
                "entries": rec.count,
                "bytes": rec.count,
            }
            for stat in stats:
                out[f"{span}.{stat}"] = values[stat] / ops
        return out
