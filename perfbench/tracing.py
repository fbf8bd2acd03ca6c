"""Span tracing around tcmc's layer boundaries, from outside the program.

`Tracer.install` replaces module attributes with wrappers that record a span
(name, start, end, parent) in memory while recording is on, and restores the
originals on `uninstall`. Nothing under src/ is edited. The wrapped names are
the ones the layers call each other through, so every call is seen:
`pipeline.parse_kernel` and `pipeline.lower_to_generics` (frontend),
`pipeline.apply_pass` (passes), `ir.verify`, `interp.interpret`,
`interp.compare_outputs`, `interp.ordered_fold` and `interp.eval_payload`
(numerics), the three `mathlib` approximations and `perf.simulate`.

A span's self time is its duration minus the durations of its direct
children. The self times of all span kinds plus `pipeline.self_s` (traced
wall time no span covers) add up to the traced wall time.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Callable, Optional

# (module, attribute, span name); apply_pass spans are named per pass.
WRAPPED = (
    ("pipeline", "parse_kernel", "frontend.parse"),
    ("pipeline", "lower_to_generics", "frontend.lower"),
    ("pipeline", "apply_pass", "passes"),
    ("ir", "verify", "ir.verify"),
    ("interp", "interpret", "interp.interpret"),
    ("interp", "compare_outputs", "interp.compare"),
    ("interp", "ordered_fold", "numerics.fold"),
    ("interp", "eval_payload", "numerics.payload"),
    ("mathlib", "exp_approx", "mathlib.approx"),
    ("mathlib", "tanh_approx", "mathlib.approx"),
    ("mathlib", "inv_sqrt_fast", "mathlib.approx"),
    ("perf", "simulate", "perf.simulate"),
)

PASS_NAMES = ("fuse", "tile", "vectorize", "mt", "async", "db", "math-approx")

# per-layer metric -> unit; the traced run prints exactly these
LAYER_METRICS = {
    "frontend.parse_s": "s",
    "frontend.lower_s": "s",
    **{f"passes.{p.replace('-', '_')}_s": "s" for p in PASS_NAMES},
    "passes.fuse.generics_removed": "count",
    "passes.mt.fired": "count",
    "passes.mt.fire_ratio": "ratio",
    "passes.db.fired": "count",
    "passes.db.fire_ratio": "ratio",
    "ir.verify_s": "s",
    "ir.verify_calls": "count",
    "ir.ops_lowered": "count",
    "ir.ops_final": "count",
    "interp.interpret_s": "s",
    "interp.self_s": "s",
    "interp.calls": "count",
    "interp.compare_s": "s",
    "numerics.fold_s": "s",
    "numerics.fold_calls": "count",
    "numerics.fold_elems": "count",
    "numerics.fold_ns_per_elem": "ns",
    "numerics.payload_s": "s",
    "numerics.payload_calls": "count",
    "mathlib.approx_s": "s",
    "perf.simulate_s": "s",
    "perf.simulate_calls": "count",
    "pipeline.self_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
}

# the self-time metrics that, with pipeline.self_s, partition the traced wall
SELF_TIME_OF = {
    "frontend.parse_s": "frontend.parse",
    "frontend.lower_s": "frontend.lower",
    **{f"passes.{p.replace('-', '_')}_s": f"passes.{p}" for p in PASS_NAMES},
    "ir.verify_s": "ir.verify",
    "interp.self_s": "interp.interpret",
    "interp.compare_s": "interp.compare",
    "numerics.fold_s": "numerics.fold",
    "numerics.payload_s": "numerics.payload",
    "mathlib.approx_s": "mathlib.approx",
    "perf.simulate_s": "perf.simulate",
}


class Tracer:
    def __init__(self, tc: SimpleNamespace):
        self.tc = tc
        self.recording = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.last_pass_ops: Optional[int] = None
        self.originals: list[tuple[object, str, Callable]] = []

    # -- wrapping --------------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span in WRAPPED:
            module = getattr(self.tc, mod_name)
            fn = getattr(module, attr)
            self.originals.append((module, attr, fn))
            if attr == "apply_pass":
                wrapper = self._wrap_apply_pass(fn)
            else:
                on_args = self._count_fold if attr == "ordered_fold" else None
                wrapper = self._wrap(fn, lambda args, span=span: span, on_args)
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.originals):
            setattr(module, attr, fn)
        self.originals.clear()

    def _wrap(self, fn: Callable, span_name: Callable, on_args: Optional[Callable] = None):
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if on_args is not None:
                on_args(args)
            idx = len(self.spans)
            self.spans.append([span_name(args), time.perf_counter(), 0.0,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
        return wrapper

    def _wrap_apply_pass(self, fn: Callable):
        timed = self._wrap(fn, lambda args: f"passes.{args[0]}")

        def wrapper(name, program, opts):
            if not self.recording:
                return fn(name, program, opts)
            out = timed(name, program, opts)
            self._count_pass(name, program, out)
            return out
        return wrapper

    @contextmanager
    def record(self):
        self.recording = True
        try:
            yield
        finally:
            self.recording = False

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.last_pass_ops = None

    # -- counts at the layer boundaries ------------------------------------------

    def _count_fold(self, args) -> None:
        self.counts["fold_elems"] += args[0].size

    def _count_pass(self, name: str, before, after) -> None:
        ir = self.tc.ir
        n_before, n_after = self._n_ops(before), self._n_ops(after)
        if name == "fuse":
            # every pipeline in the benchmark starts with fuse: its input is a
            # freshly lowered program and the previous pass output was final
            self.counts["ops_lowered"] += n_before
            if self.last_pass_ops is not None:
                self.counts["ops_final"] += self.last_pass_ops
            self.counts["generics_removed"] += (
                self._count(before, ir.GenericOp) - self._count(after, ir.GenericOp))
        elif name == "mt":
            self.counts["mt_fired"] += (
                self._count(after, ir.ForallOp) - self._count(before, ir.ForallOp))
            self.counts["mt_candidates"] += self._mt_candidates(before.ops, False)
        elif name == "db":
            self.counts["db_fired"] += self._db_loops(after) - self._db_loops(before)
            self.counts["db_candidates"] += sum(
                1 for op, _ in ir.walk_ops(before.ops)
                if isinstance(op, ir.ForOp) and "tiled_generic" in op.annotations
                and ir.annotation_value(op.annotations, "db_generic") is None)
        self.last_pass_ops = n_after

    def _n_ops(self, program) -> int:
        return sum(1 for _ in self.tc.ir.walk_ops(program.ops))

    def _count(self, program, cls) -> int:
        return sum(1 for op, _ in self.tc.ir.walk_ops(program.ops) if isinstance(op, cls))

    def _db_loops(self, program) -> int:
        ir = self.tc.ir
        return sum(1 for op, _ in ir.walk_ops(program.ops)
                   if isinstance(op, ir.ForOp)
                   and ir.annotation_value(op.annotations, "db_generic") is not None)

    def _mt_candidates(self, ops, in_tiled: bool) -> int:
        """Generics mt may distribute: inside a tiled loop, outer dim parallel."""
        ir = self.tc.ir
        n = 0
        for op in ops:
            if isinstance(op, ir.GenericOp):
                n += in_tiled and op.iterators[:1] == ("parallel",)
            elif isinstance(op, (ir.ForOp, ir.IfOp)):
                tiled = in_tiled or (isinstance(op, ir.ForOp) and "tiled_generic" in op.annotations)
                n += self._mt_candidates(op.body, tiled)
        return n

    # -- metrics ----------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        bench.trace_overhead_s needs an untraced run and is left to the caller.
        """
        self_s: Counter = Counter()
        incl_s: Counter = Counter()
        calls: Counter = Counter()
        child_s = [0.0] * len(self.spans)
        top_s = 0.0
        for name, start, end, parent in self.spans:
            dur = end - start
            incl_s[name] += dur
            calls[name] += 1
            if parent < 0:
                top_s += dur
            else:
                child_s[parent] += dur
        for (name, start, end, _), covered in zip(self.spans, child_s):
            self_s[name] += (end - start) - covered

        c = self.counts
        ops_final = c["ops_final"] + (self.last_pass_ops or 0)
        m = {metric: self_s[span] for metric, span in SELF_TIME_OF.items()}
        m.update({
            "passes.fuse.generics_removed": c["generics_removed"],
            "passes.mt.fired": c["mt_fired"],
            "passes.mt.fire_ratio": _ratio(c["mt_fired"], c["mt_candidates"]),
            "passes.db.fired": c["db_fired"],
            "passes.db.fire_ratio": _ratio(c["db_fired"], c["db_candidates"]),
            "ir.verify_calls": calls["ir.verify"],
            "ir.ops_lowered": c["ops_lowered"],
            "ir.ops_final": ops_final,
            "interp.interpret_s": incl_s["interp.interpret"],
            "interp.calls": calls["interp.interpret"],
            "numerics.fold_calls": calls["numerics.fold"],
            "numerics.fold_elems": c["fold_elems"],
            "numerics.fold_ns_per_elem": _ratio(self_s["numerics.fold"] * 1e9, c["fold_elems"]),
            "numerics.payload_calls": calls["numerics.payload"],
            "perf.simulate_calls": calls["perf.simulate"],
            "pipeline.self_s": wall_s - top_s,
            "bench.traced_wall_s": wall_s,
        })
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
