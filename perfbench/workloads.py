"""The benchmark's four workloads: set-up, timed items and independent checks.

Each workload is a list of `Item`s. `Item.run` is the timed work and goes
through tcmc's public entry points only (`pipeline.run_pipeline`,
`pipeline.apply_pass`, `pipeline.bench`, `perf.simulate`). `Item.check` and
`Item.cycles` run untimed after it. The check compares against a reference
that does not come from the compiler under test: `oracles.oracle_eval`
(float64) for the shipped kernels, a bit comparison against stage 0 for
random programs, and `ir.verify` for schedules that are only costed.
"""

from __future__ import annotations

import importlib
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Optional

import numpy as np

WORKLOADS = ("verify_reduce", "verify_ewise", "schedule_grid", "fuzz_small")

TCMC_MODULES = ("ir", "frontend", "interp", "numerics", "mathlib", "perf", "pipeline", "oracles")

DEFAULT_PASSES = ("fuse", "tile", "vectorize", "mt", "async", "db")

# Output check against the float64 oracle, allclose style:
# |got - want| <= ATOL_SCALE * max|want| + RTOL * |want|. An elementwise
# relative tolerance alone is meaningless near zero (exact gelu has
# rel_err 13 there at an absolute error of 4.8e-7).
RTOL = 1e-4
ATOL_SCALE = 1e-6

# verify_* sizes, well below DEFAULT_DIMS. The host's speed drifts, and the
# speed probes between items (run.py) cancel that drift only when an item
# is short (softmax: the interpreter's ordered fold costs one Python
# iteration per reduced element) and its arrays stay out of the last-level
# cache that other tenants share (4 MB arrays at N=1048576 did not).
REDUCE_CASES = (("softmax", {"N": 32768}), ("rmsnorm", {"R": 127, "C": 513}))
EWISE_CASES = (
    ("gelu", {"N": 131072}), ("silu", {"N": 131072}),
    ("expseries", {"N": 131072}), ("vecadd2d", {"R": 64, "C": 2048}),
)

# schedule_grid. block_cyclic:1 is left out: at N >= 16384 it costs 0.6-5 s
# per config to simulate (one loop iteration per chunk).
GRID_1D_TILES = (4096, 16384, 65536, None)
GRID_ROW_TILES = (1, 4, 16, None)
GRID_DISTS = (("block", 1), ("block_cyclic", 1024))
GRID_KERNELS = ("gelu", "silu", "expseries", "rmsnorm", "vecadd2d", "softmax")
SIZE_SWEEP_KERNELS = ("gelu", "silu", "softmax", "expseries")

FUZZ_PROGRAMS = 200
FUZZ_MT_THRESHOLDS = (1, 32768)


def import_tcmc() -> SimpleNamespace:
    """The tcmc modules the benchmark drives, as one namespace."""
    return SimpleNamespace(**{m: importlib.import_module(f"tcmc.{m}") for m in TCMC_MODULES})


def reimport_tcmc() -> SimpleNamespace:
    """Import tcmc afresh, so that set-up time includes running its modules.

    Everything built from an earlier import must be rebuilt from the new
    namespace: its classes are distinct from the old ones.
    """
    for name in [m for m in sys.modules if m == "tcmc" or m.startswith("tcmc.")]:
        del sys.modules[name]
    return import_tcmc()


class VerifyViolation(Exception):
    """ir.verify rejected a pass output."""


@dataclass
class Item:
    """One unit of timed work.

    `run` raises when tcmc reports a failure; `check` judges its outcome;
    `cycles` gives the modeled cycles of the final schedules (it is also
    called with None after `run` raised).
    """

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    cycles: Callable[[Any], list[float]]
    inputs: Optional[dict] = None


def kernel_inputs(program, kernel: str, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Inputs in the ranges tests/conftest.py::kernel_inputs uses."""
    out = {}
    for d in program.inputs():
        if kernel == "expseries":
            arr = rng.uniform(-1.0, 1.0, size=d.shape)
        elif kernel == "rmsnorm" and d.name == "g":
            arr = rng.uniform(0.5, 1.5, size=d.shape)
        else:
            arr = rng.standard_normal(d.shape) * 2.0
        out[d.name] = arr.astype(np.float32)
    return out


def close_to(got: dict, want: dict) -> bool:
    """Allclose-style check of named outputs against a float64 reference."""
    if sorted(got) != sorted(want):
        return False
    for name, w in want.items():
        g = np.asarray(got[name], dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        if g.shape != w.shape:
            return False
        tol = ATOL_SCALE * float(np.max(np.abs(w))) + RTOL * np.abs(w)
        if not np.all(np.abs(g - w) <= tol):
            return False
    return True


def bits_equal(a: dict, b: dict) -> bool:
    return sorted(a) == sorted(b) and all(
        np.asarray(a[k]).shape == np.asarray(b[k]).shape
        and np.array_equal(np.asarray(a[k], dtype=np.float32).view(np.uint32),
                           np.asarray(b[k], dtype=np.float32).view(np.uint32))
        for k in a)


def build(name: str, seed: int, tc: SimpleNamespace, kernels_dir: Path) -> list[Item]:
    """The items of workload `name`, inputs and order drawn from `seed`."""
    if name == "verify_reduce":
        items = _verify_items(REDUCE_CASES, seed, tc, kernels_dir)
    elif name == "verify_ewise":
        items = _verify_items(EWISE_CASES, seed, tc, kernels_dir)
    elif name == "schedule_grid":
        items = _grid_items(tc, kernels_dir) + _sweep_items(tc, kernels_dir)
    elif name == "fuzz_small":
        items = _fuzz_items(seed, tc)
    else:
        raise ValueError(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")
    random.Random(seed).shuffle(items)
    return items


# -- verify_reduce / verify_ewise ----------------------------------------------


def _verify_items(cases, seed: int, tc, kernels_dir: Path) -> list[Item]:
    items = []
    for k, (kernel, dims) in enumerate(cases):
        path = str(kernels_dir / f"{kernel}.tk")
        program = tc.frontend.lower_to_generics(
            tc.frontend.parse_kernel(Path(path).read_text()), dims)
        inputs = kernel_inputs(program, kernel, np.random.default_rng([seed, k]))
        for math_mode in ("exact", "approx"):
            passes = DEFAULT_PASSES + (("math-approx",) if math_mode == "approx" else ())
            items.append(_verify_item(tc, kernel, path, inputs, passes, math_mode))
    return items


def _verify_item(tc, kernel: str, path: str, inputs: dict, passes: tuple, math_mode: str) -> Item:
    spec = tc.pipeline.PipelineSpec(passes, tc.pipeline.PipelineOptions(), "bitexact")
    want: list[dict] = []

    def run():
        return tc.pipeline.run_pipeline(path, spec, inputs=inputs)

    def check(result) -> bool:
        if not want:
            want.append(tc.oracles.oracle_eval(kernel, inputs))
        return result.outputs is not None and close_to(result.outputs, want[0])

    def cycles(_result) -> list[float]:
        # costed from an unverified compile, so a verification failure does
        # not hide the schedule's cycles
        plain = tc.pipeline.PipelineSpec(passes, spec.options, "off")
        final = tc.pipeline.run_pipeline(path, plain, inputs=inputs).final
        return [tc.perf.simulate(final, spec.options.machine).total_cycles]

    return Item(f"{kernel}/math={math_mode}", run, check, cycles, inputs)


# -- schedule_grid ------------------------------------------------------------------


def _grid_tiles(kernel: str) -> tuple:
    if kernel == "softmax":
        return (None,)  # its single dim is a reduction: explicit tiles raise PassError
    if kernel in ("rmsnorm", "vecadd2d"):
        return tuple(None if t is None else (t, 0) for t in GRID_ROW_TILES)
    return tuple(None if t is None else (t,) for t in GRID_1D_TILES)


def _grid_items(tc, kernels_dir: Path) -> list[Item]:
    items = []
    for kernel in GRID_KERNELS:
        path = str(kernels_dir / f"{kernel}.tk")
        for tiles in _grid_tiles(kernel):
            for dist_kind, chunk in GRID_DISTS:
                for math_mode in ("exact", "approx"):
                    passes = DEFAULT_PASSES + (("math-approx",) if math_mode == "approx" else ())
                    opts = tc.pipeline.PipelineOptions(
                        tile_sizes=tiles, threads=4, dist_kind=dist_kind, dist_chunk=chunk,
                        mt_threshold=1)
                    spec = tc.pipeline.PipelineSpec(passes, opts, "off")
                    tile_label = "default" if tiles is None else "x".join(map(str, tiles))
                    dist_label = "block" if dist_kind == "block" else f"cyclic:{chunk}"
                    items.append(_grid_item(
                        tc, f"{kernel}/tile={tile_label}/dist={dist_label}/math={math_mode}",
                        path, spec))
    return items


def _grid_item(tc, item_id: str, path: str, spec) -> Item:
    machine = spec.options.machine

    def run():
        final = tc.pipeline.run_pipeline(path, spec).final
        return final, tc.perf.simulate(final, machine)

    def check(out) -> bool:
        final, report = out
        return (tc.ir.verify(final, tcm_bytes=machine.tcm_bytes).ok
                and math.isfinite(report.total_cycles) and report.total_cycles > 0)

    return Item(item_id, run, check, lambda out: [out[1].total_cycles])


def _sweep_items(tc, kernels_dir: Path) -> list[Item]:
    """The `tcmc bench` sweeps, one item per pipeline.bench call."""
    machine = tc.perf.MachineConfig()
    ladders = list(tc.perf.PASS_LADDERS)
    calls = []
    for kernel in SIZE_SWEEP_KERNELS:
        for size in tc.perf.SIZE_SWEEP:
            calls.append((f"bench/size/{kernel}/N={size}", [kernel], "size",
                          {"sizes": [size]}, 2))
    for kernel in GRID_KERNELS:
        calls.append((f"bench/passes/{kernel}", [kernel], "passes",
                      {"ladders": ladders}, len(ladders)))
    calls.append(("bench/memory_fraction", [], "memory_fraction", {}, 5))

    items = []
    for item_id, kernels, axis, kw, n_rows in calls:
        paths = [str(kernels_dir / f"{k}.tk") for k in kernels]

        def run(paths=paths, axis=axis, kw=kw):
            return tc.pipeline.bench(paths, machine, axis=axis, **kw)

        def check(rows, n_rows=n_rows) -> bool:
            return len(rows) == n_rows and all(
                math.isfinite(float(r["cycles"])) and float(r["cycles"]) > 0 for r in rows)

        items.append(Item(item_id, run, check, lambda rows: [float(r["cycles"]) for r in rows]))
    return items


# -- fuzz_small ----------------------------------------------------------------------


@dataclass
class FuzzOutcome:
    reference: dict
    stages: list            # (outputs, compare_outputs verdict) after every pass
    cycles: list[float]     # modeled cycles of the final IR per mt threshold


def _fuzz_items(seed: int, tc) -> list[Item]:
    items = []
    for s in range(FUZZ_PROGRAMS):
        program = tc.oracles.gen_random_program(tc.oracles.RandomProgramSpec(s))
        inputs = tc.oracles.random_inputs_for(program, seed * FUZZ_PROGRAMS + s)
        items.append(_fuzz_item(tc, f"random_{s}", program, inputs))
    return items


def _fuzz_item(tc, item_id: str, program, inputs: dict) -> Item:
    def run() -> FuzzOutcome:
        reference = tc.interp.interpret(program, inputs)
        stages, cycles = [], []
        for threshold in FUZZ_MT_THRESHOLDS:
            opts = tc.pipeline.PipelineOptions(mt_threshold=threshold)
            current = program
            for name in DEFAULT_PASSES:
                current = tc.pipeline.apply_pass(name, current, opts)
                report = tc.ir.verify(current, tcm_bytes=opts.machine.tcm_bytes)
                if not report.ok:
                    raise VerifyViolation(f"after {name} at mt_threshold={threshold}")
                got = tc.interp.interpret(current, inputs)
                verdict = tc.interp.compare_outputs(got, reference, "bitexact").ok
                stages.append((got, verdict))
            cycles.append(tc.perf.simulate(current, opts.machine).total_cycles)
        return FuzzOutcome(reference, stages, cycles)

    def check(out: FuzzOutcome) -> bool:
        return (all(ok and bits_equal(got, out.reference) for got, ok in out.stages)
                and all(math.isfinite(c) and c > 0 for c in out.cycles))

    return Item(item_id, run, check, lambda out: out.cycles, inputs)


def item_cycles(item: Item, outcome: Any) -> Optional[list[float]]:
    """Modeled cycles of an item's final schedules, or None if it failed."""
    try:
        return item.cycles(outcome)
    except Exception:  # an item that cannot be costed is already counted failed
        return None


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


_PROBE_SMALL = np.zeros(64, dtype=np.float32)
_PROBE_LARGE = np.ones(1 << 16, dtype=np.float32)
_PROBE_OUT = np.empty_like(_PROBE_LARGE)
_PROBE_STREAM = np.ones((3, 1 << 20), dtype=np.float32)


def speed_probe() -> float:
    """Seconds taken by a fixed piece of work that does not involve tcmc.

    It mixes the kinds of work tcmc's layers do: Python object and dict
    churn, many small numpy calls, a pass over a cache-sized array and two
    passes over arrays larger than a core's cache. Its time tracks how fast
    the host runs the benchmark at that moment.
    """
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(2000):
        p = _Point(i, i & 7)
        d[p.y] = d.get(p.y, 0) + p.x
    a = _PROBE_SMALL
    for _ in range(300):
        a = np.add(a, np.float32(1.0))
    for _ in range(4):
        np.multiply(_PROBE_LARGE, np.float32(1.5), out=_PROBE_OUT)
    x, y, out = _PROBE_STREAM
    np.add(x, y, out=out)
    np.multiply(out, x, out=out)
    return time.perf_counter() - t0


def run_pass(items, tracer=None, cycles=None) -> list[dict]:
    """Run every item once; time it, then check it untimed.

    A speed probe runs before each item (`probe_s`). With `cycles`, the
    modeled cycles of items not yet in it are added.
    """
    results = []
    for item in items:
        probe = speed_probe()
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = item.run()
            else:
                with tracer.record():
                    outcome = item.run()
        except Exception as exc:  # a failing item is counted, never fatal
            outcome, error = None, type(exc).__name__
        latency = time.perf_counter() - t0
        if error is not None:
            verdict = f"error:{error}"
        else:
            verdict = "ok" if item.check(outcome) else "wrong"
        if cycles is not None and item.id not in cycles:
            cycles[item.id] = item_cycles(item, outcome)
        results.append({"id": item.id, "latency_s": latency, "probe_s": probe,
                        "verdict": verdict})
    return results
