"""db fetches a loop-invariant staged tile once per loop entry.

A staged input whose offsets and sizes do not name the loop var, and whose
source the loop body does not write, takes one slot: the prologue fills it,
the first trip waits on it, and no `db_prefetch` loads it again. Checked
here: no prefetch of any shipped kernel's final IR reloads such a region,
rmsnorm's gain `g` is fetched once per context, the cycles that follow,
bit identity on random rmsnorm shapes and row tiles (the random programs
of `oracles.gen_random_program` hold no broadcast operand, so the fuzz
never stages an invariant tile), a loop that writes its staged source
keeping both slots, and the TCM counts of `tile` and `mt` against the
verifier's peak.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmc import ir, perf, pipeline
from tcmc.interp import interpret
from tcmc.ir import (
    AffineIndexMap, AllocOp, AsyncExecuteOp, DeallocOp, DmaStartOp, ExtractSliceOp, ForallOp,
    ForOp, GenericOp, IfOp, InsertSliceOp, IVar, KernelProgram, Payload, TensorDecl,
)
from tcmc.passes.common import BufInfo, resident_bytes
from tcmc.passes.double_buffer import double_buffer_loops, recognize_normal_form, tile_tcm_bytes
from tcmc.passes.threading import DistributionPolicy, _Threader
from tcmc.passes.tiling import TileSpec, _live_tile_bytes

from conftest import ALL_KERNELS, DEFAULT_PASSES, ROOT, bitexact, kernel_inputs, kernel_path

MACHINES = {name: perf.MachineConfig.from_text((ROOT / "configs" / f"{name}.machine").read_text())
            for name in ("default", "lowbw")}
ROW_KERNELS = ("rmsnorm", "vecadd2d")
# softmax's generics all reduce along d0, so it takes default tiles only
TILES = {k: (None,) if k == "softmax" else (None, (1, 0), (4, 0), (16, 0)) if k in ROW_KERNELS
         else (None, (4096,), (16384,)) for k in ALL_KERNELS}


def final(kernel, machine="default", dims=None, passes=DEFAULT_PASSES, **options):
    opts = pipeline.PipelineOptions(machine=MACHINES[machine], **options)
    spec = pipeline.PipelineSpec(passes, opts, "off")
    return pipeline.run_pipeline(kernel_path(kernel), spec, dims=dims)


def prefetch_loads(ops, var=None):
    """Each `dma_start` of a `db_prefetch` guard, with the var of the loop around it."""
    for op in ops:
        if isinstance(op, IfOp) and "db_prefetch" in op.annotations:
            yield from ((d, var) for d in op.body if isinstance(d, DmaStartOp))
        elif isinstance(op, (ForOp, ForallOp)):
            yield from prefetch_loads(op.body, op.var)
        elif getattr(op, "body", None) is not None:
            yield from prefetch_loads(op.body, var)


def executed(ops, env, source, counts):
    """Count, in `counts`, the `dma_start`s from `source` the program runs
    ("loads") and the thread contexts that run one ("contexts")."""
    for op in ops:
        if isinstance(op, DmaStartOp) and op.source == source:
            counts["loads"] += 1
        elif isinstance(op, (ForOp, ForallOp)):
            for i in ir.trips(op, env):
                executed(op.body, {**env, op.var: i}, source, counts)
        elif isinstance(op, IfOp):
            if ir.holds(op.pred, env):
                executed(op.body, env, source, counts)
        elif isinstance(op, AsyncExecuteOp):
            if any(isinstance(d, DmaStartOp) and d.source == source
                   for d, _ in ir.walk_ops(op.body)):
                counts["contexts"] += 1
            executed(op.body, env, source, counts)


def tcm_peak(program):
    """The verifier's peak live TCM of `program`, in bytes."""
    (v,) = ir.verify(program, tcm_bytes=0).violations
    return int(re.search(r"peak live TCM (\d+) bytes", v.message).group(1))


GRID = [(k, t, thr, m) for k in ALL_KERNELS for t in TILES[k] for thr in (None, 1)
        for m in MACHINES]


def test_no_prefetch_reloads_an_invariant_region():
    assert len(GRID) == 72
    checked = 0
    for kernel, tiles, threshold, machine in GRID:
        program = final(kernel, machine, tile_sizes=tiles, mt_threshold=threshold).final
        for load, var in prefetch_loads(program.ops):
            named = set().union(*(ir._extent_vars(e) for e in load.src_offsets + load.sizes))
            assert var in named, (kernel, tiles, threshold, machine, load)
            checked += 1
    assert checked > 0  # every kernel streams at least one varying tile


@pytest.mark.parametrize("machine", list(MACHINES))
@pytest.mark.parametrize("threshold", [None, 1])
def test_rmsnorm_rows_fetch_the_gain_once_per_context(machine, threshold):
    program = final("rmsnorm", machine, tile_sizes=(4, 0), mt_threshold=threshold).final
    static = [op for op, _ in ir.walk_ops(program.ops)
              if isinstance(op, DmaStartOp) and op.source == "g"]
    assert len(static) == 1
    assert not any(load.source == "g" for load, _ in prefetch_loads(program.ops))
    gain, rows = {"loads": 0, "contexts": 0}, {"loads": 0, "contexts": 0}
    executed(program.ops, {}, "g", gain)
    executed(program.ops, {}, "x", rows)
    # the normalize loop runs on one context, or forks once over four
    assert gain["loads"] == max(1, gain["contexts"])
    assert rows["loads"] == 2 * 32  # both row loops stream x, one 4-row tile a trip


# rmsnorm's total cycles under the default pipeline, the cost model choosing mt's forms
RMSNORM_CYCLES = {
    ("default", (1, 0)): 70336.0, ("default", (4, 0)): 33854.125,
    ("lowbw", (1, 0)): 116383.0, ("lowbw", (4, 0)): 101204.0,
}


@pytest.mark.parametrize("machine,tiles", list(RMSNORM_CYCLES))
def test_rmsnorm_row_tile_cycles(machine, tiles):
    program = final("rmsnorm", machine, tile_sizes=tiles).final
    assert perf.simulate(program, MACHINES[machine]).total_cycles == RMSNORM_CYCLES[machine, tiles]


PASS_LISTS = (DEFAULT_PASSES, ("fuse", "tile", "db"), ("fuse", "tile", "mt", "async", "db"))


@settings(max_examples=24, deadline=None, derandomize=True)
@given(rows=st.integers(1, 24), cols=st.integers(1, 80), tile=st.integers(1, 9),
       machine=st.sampled_from(list(MACHINES)), threshold=st.sampled_from([None, 1]),
       passes=st.sampled_from(PASS_LISTS))
def test_random_rmsnorm_row_tiles_are_bitexact(rows, cols, tile, machine, threshold, passes):
    dims = {"R": rows, "C": cols}
    opts = pipeline.PipelineOptions(tile_sizes=(tile, 0), mt_threshold=threshold,
                                    machine=MACHINES[machine])
    lowered = pipeline.run_pipeline(kernel_path("rmsnorm"), pipeline.PipelineSpec(
        (), opts, "off"), dims=dims).final
    inputs = kernel_inputs(lowered, "rmsnorm")
    # every prefix compared bit for bit with the input program, or VerifyFailure
    result = pipeline.run_pipeline(kernel_path("rmsnorm"), pipeline.PipelineSpec(
        passes, opts, "bitexact"), inputs=inputs, dims=dims)
    loads = [op for op, _ in ir.walk_ops(result.final.ops)
             if isinstance(op, DmaStartOp) and op.source == "g"]
    assert loads and not any(load.source == "g" for load, _ in prefetch_loads(result.final.ops))


@pytest.mark.parametrize("in_place", [False, True])
def test_a_loop_that_writes_its_staged_source_is_left_single_buffered(in_place):
    # every trip stages y[0:4], which trip 0 writes: trip 1 must see x[0:4]
    # there, so no prefetch may read y before trip 0's write lands
    decls = (TensorDecl("x", (8,), role="input"), TensorDecl("y", (8,), role="output"))
    i = IVar("i")
    ident = AffineIndexMap.identity(1)
    stages = (ExtractSliceOp("t", "y", (0,), (4,), "tcm"),
              ExtractSliceOp("u", "x", (i,), (4,), "tcm"))
    out = ExtractSliceOp("o", "y", (i,), (4,)) if in_place else AllocOp("o", (4,))
    add = GenericOp("g0", (4,), ("t", "u"), ("o",), (ident,) * 3, ("parallel",),
                    (Payload.binary("add", Payload.arg(0), Payload.arg(1)),))
    tail = () if in_place else (InsertSliceOp("o", "y", (i,), (4,)), DeallocOp("o"))
    loop = ForOp("i", 0, 8, 4, (*stages, out, add, *tail),
                 annotations=frozenset({"tiled_generic", "all_parallel"}))
    program = KernelProgram("w", decls, (loop,))
    assert recognize_normal_form(loop) is None
    assert double_buffer_loops(program) is program
    y = interpret(program, {"x": np.arange(1, 9, dtype=np.float32)})["y"]
    assert y.tolist() == [1, 2, 3, 4, 6, 8, 10, 12]


def test_an_invariant_stage_takes_one_slot_and_a_one_trip_loop_no_prefetch():
    decls = (TensorDecl("x", (4, 8), role="input"), TensorDecl("g", (8,), role="input"),
             TensorDecl("y", (4, 8), role="output"))
    i = IVar("i")
    maps = (AffineIndexMap((0, 1)), AffineIndexMap((1,)), AffineIndexMap((0, 1)))
    mul = GenericOp("g0", (2, 8), ("t", "u"), ("o",), maps, ("parallel", "parallel"),
                    (Payload.binary("mul", Payload.arg(0), Payload.arg(1)),))

    def loop(ub):
        return ForOp("i", 0, ub, 2, (
            ExtractSliceOp("t", "x", (i, 0), (2, 8), "tcm"),
            ExtractSliceOp("u", "g", (0,), (8,), "tcm"),
            AllocOp("o", (2, 8)), mul, InsertSliceOp("o", "y", (i, 0), (2, 8)), DeallocOp("o"),
        ), annotations=frozenset({"tiled_generic", "all_parallel"}))

    inputs = {"x": np.arange(32, dtype=np.float32).reshape(4, 8),
              "g": np.linspace(0.5, 1.5, 8, dtype=np.float32)}
    for ub in (4, 2):
        shaped = tuple(replace(d, shape=(ub, 8)) if len(d.shape) == 2 else d for d in decls)
        program = KernelProgram("b", shaped, (loop(ub),))
        # one trip: no trip stages a second tile, so every stage is invariant
        want = {"u"} if ub == 4 else {"t", "u"}
        assert recognize_normal_form(program.ops[0]).invariant == frozenset(want)
        buffered = double_buffer_loops(program)
        sizes = {op.result: op.sizes for op in buffered.ops if isinstance(op, AllocOp)}
        assert sizes["buf0"] == ((4, 8) if ub == 4 else (2, 8)) and sizes["buf1"] == (8,)
        loads = {load.source for load, _ in prefetch_loads(buffered.ops)}
        assert loads == ({"x"} if ub == 4 else set())  # one trip: nothing to prefetch
        (body,) = [op.body for op in buffered.ops if isinstance(op, ForOp)]
        first = [w.tag for op in body if isinstance(op, IfOp) and not op.annotations
                 for w in op.body]
        assert first == (["tag1"] if ub == 4 else [])  # g is waited on the first trip only
        rows = {"x": inputs["x"][:ub], "g": inputs["g"]}
        assert bitexact(interpret(buffered, rows), interpret(program, rows))


def test_tile_and_mt_count_tcm_as_the_verifier_does():
    after = {}
    for threshold in (None, 1):
        result = final("rmsnorm", tile_sizes=(4, 0), mt_threshold=threshold)
        after[threshold] = {s.name: s.program for s in result.stages}
        after[threshold]["final"] = result.final
    stages = after[None]
    fused, tiled = stages["fuse"], stages["tile"]
    resident = {d.name for d in tiled.decls if d.space == "tcm"}
    live = max(_live_tile_bytes(g, TileSpec((4, 0)), fused, resident)
               for g in fused.ops if isinstance(g, GenericOp) and len(g.domain) == 2)
    opts = pipeline.PipelineOptions(tile_sizes=(4, 0))
    assert resident_bytes(tiled) + live == tcm_peak(pipeline.apply_pass("db", tiled, opts))
    # under the override both row loops fork once over four contexts, each with
    # its own buffers: the normalize loop's set is the peak
    stages = after[1]
    forked = stages["final"]
    assert ir.count_ops(forked, lambda op: isinstance(op, ir.AsyncGroupOp)) == 2
    vectorized = stages["vectorize"]
    loops = [op for op in vectorized.ops if isinstance(op, ForOp)]
    narrow = BufInfo(vectorized).narrow.__contains__
    normalize = max(loops, key=lambda loop: tile_tcm_bytes((loop,), narrow, db=True))
    peak = tcm_peak(forked)
    assert resident_bytes(vectorized) + 4 * tile_tcm_bytes((normalize,), narrow, db=True) == peak
    for tcm, fits in ((peak, True), (peak - 1, False)):
        machine = replace(perf.MachineConfig(), tcm_bytes=tcm)
        threader = _Threader(vectorized, DistributionPolicy(), machine, 1, True)
        assert threader.fits(normalize) is fits
