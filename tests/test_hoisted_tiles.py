"""mt forks once around a tile loop: each context runs its own whole tiles.

The hoisted form of gelu and rmsnorm, its race-freedom under the structural
oracle, bit identity through every pass prefix, and the rule that hoisting
never raises modeled cycles against the same pipeline with the hoist
blocked by a smaller TCM. Under the cost model a loop of small explicit
tiles forks once, and a default tile loop re-tiled for T contexts is the
loop `--tile-size` would have built at that step, bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from tcmc import cli, ir, oracles, perf, pipeline
from tcmc.interp import interpret
from tcmc.ir import (
    AffineIndexMap, AllocOp, AsyncGroupOp, DeallocOp, ForallOp, ForOp, GenericOp, InsertSliceOp,
    KernelProgram, Payload, TensorDecl,
)
from tcmc.passes.common import BufInfo
from tcmc.passes.threading import _tile_tcm_bytes

from conftest import DEFAULT_PASSES, VERIFY_DIMS, bitexact, kernel_inputs, kernel_path, lower
from test_perf import ODD_CONFIG
from test_thread_strips import tie_inputs

UP_TO_MT = ("fuse", "tile", "vectorize", "mt")


def staged(kernel, dims, passes, **options):
    spec = pipeline.PipelineSpec(passes, pipeline.PipelineOptions(**options), "off")
    return pipeline.run_pipeline(kernel_path(kernel), spec, dims=dims).final


def hoisted_loops(program):
    """The tile loops that run inside a forall, with that forall."""
    return [(op, loop) for op in program.ops if isinstance(op, ForallOp)
            for loop in op.body if isinstance(loop, ForOp) and "tiled_generic" in loop.annotations]


def test_gelu_at_tile_4096_forks_once():
    program = staged("gelu", None, DEFAULT_PASSES, tile_sizes=(4096,), mt_threshold=1)
    assert ir.count_ops(program, lambda op: isinstance(op, AsyncGroupOp)) == 1
    # 256 tiles, 64 to each context, with no tail loop
    mt = staged("gelu", None, UP_TO_MT, tile_sizes=(4096,), mt_threshold=1)
    ((forall, loop),) = hoisted_loops(mt)
    assert [len(ir.trips(loop, {forall.var: t})) for t in range(4)] == [64] * 4
    assert len(mt.ops) == 1


@pytest.mark.parametrize("dist", [("block", 1), ("block_cyclic", 1024)])
def test_rmsnorm_rows_hoist_124_trips_and_leave_a_3_trip_tail(dist):
    kind, chunk = dist
    program = staged("rmsnorm", None, UP_TO_MT, tile_sizes=(1, 0), mt_threshold=1,
                     dist_kind=kind, dist_chunk=chunk)
    hoisted = hoisted_loops(program)
    assert len(hoisted) == 2  # the row sum and the normalize; the sqrt has one trip
    for forall, loop in hoisted:
        rows = [[i for i in ir.trips(loop, {forall.var: t})] for t in range(4)]
        assert [len(r) for r in rows] == [31] * 4
        assert sorted(i for r in rows for i in r) == list(range(124))
        if kind == "block":
            assert rows[1] == list(range(31, 62))
        else:  # tiles dealt round-robin
            assert rows[1] == list(range(1, 124, 4))
        # the tail runs the last 3 rows right after, forked per generic
        k = program.ops.index(forall)
        tail = program.ops[k + 1]
        assert isinstance(tail, ForOp) and list(ir.trips(tail, {})) == [124, 125, 126]
        assert tail.annotations == loop.annotations
        assert any(isinstance(op, ForallOp) for op, _ in ir.walk_ops(tail.body))
        assert not any(isinstance(op, ForallOp) for op, _ in ir.walk_ops(loop.body))


def test_a_hoisted_tile_over_the_window_runs_as_strips():
    # a tile of 65,536 gelu points holds 512 KB of operands: four strips of 16,384
    program = staged("gelu", None, UP_TO_MT, tile_sizes=(65536,))
    ((forall, loop),) = hoisted_loops(program)
    (strips,) = [op for op in loop.body if isinstance(op, ForOp)]
    assert strips.step == 16384
    assert len(ir.trips(strips, {forall.var: 0, loop.var: 0})) == 4


def test_hoisted_contexts_write_disjoint_regions_of_y():
    # every context allocates its own %o tile and writes it at offset 0; only
    # the writes to %y are shared, and those are disjoint
    program = staged("gelu", {"N": 100000}, UP_TO_MT, tile_sizes=(4096,), mt_threshold=1)
    ((forall, _),) = hoisted_loops(program)
    (execution,) = oracles.thread_write_intervals(program)[forall.var]
    assert all(body and {dest for dest, _, _ in body} == {"y"} for body in execution)
    assert sum(len(body) for body in execution) == 24
    assert oracles.regions_disjoint(execution)


def test_a_shared_buffer_written_twice_is_still_a_race():
    # each thread allocates %o (its own) and writes it to %y at the same rows
    ident = AffineIndexMap.identity(1)
    body = (AllocOp("o", (8,), "tcm"),
            GenericOp("g", (8,), ("x",), ("o",), (ident, ident), ("parallel",),
                      (Payload.arg(0),)),
            InsertSliceOp("o", "y", (0,), (8,)),
            DeallocOp("o"))
    decls = (TensorDecl("x", (8,), role="input"), TensorDecl("y", (16,), role="output"))
    program = KernelProgram("t", decls, (ForallOp("th", 2, body),))
    (execution,) = oracles.thread_write_intervals(program)["th"]
    assert execution == [[("y", (0,), (8,))]] * 2
    assert not oracles.regions_disjoint(execution)


@pytest.mark.parametrize("kernel,tiles,most", [
    ("gelu", (4096,), 221492), ("silu", (4096,), 205108), ("rmsnorm", (4, 0), 43772.4375)])
def test_the_model_forks_once_around_a_loop_of_small_tiles(kernel, tiles, most):
    # per trip, gelu's 256 tiles each run whole on one context for 851,968
    # cycles, silu's for 786,432 and rmsnorm's rows for 71,071.9
    program = staged(kernel, None, DEFAULT_PASSES, tile_sizes=tiles)
    mt = staged(kernel, None, UP_TO_MT, tile_sizes=tiles)
    forks = ir.count_ops(program, lambda op: isinstance(op, AsyncGroupOp))
    assert forks == len(hoisted_loops(mt)) == (2 if kernel == "rmsnorm" else 1)
    assert perf.simulate(program, perf.MachineConfig()).total_cycles <= most


def test_gelu_at_tile_4096_forks_once_from_the_command_line(capsys):
    argv = ["compile", kernel_path("gelu"), "--tile-size", "4096", "--emit-final"]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.count("async_group") == 1


@pytest.mark.parametrize("kernel", ["gelu", "silu", "expseries"])
def test_a_default_tile_loop_is_retiled_to_the_loop_of_that_tile_size(kernel):
    # one 131,072-point tile forks per trip; four of 32,768 fork once
    dims = VERIFY_DIMS[kernel]
    retiled = staged(kernel, dims, DEFAULT_PASSES)
    assert ir.print_ir(retiled) == ir.print_ir(
        staged(kernel, dims, DEFAULT_PASSES, tile_sizes=(32768,)))
    ((forall, loop),) = hoisted_loops(staged(kernel, dims, UP_TO_MT))
    assert loop.step == 32768
    assert ir.print_ir(staged(kernel, dims, ("fuse", "tile"))).count("step 131072") == 1


RETILED_CASES = {
    "gelu-131000": {"N": 131000},  # the last context's tile is partial
    "gelu-131003": {"N": 131003},  # vectorize splits each tile into main and epilogue
    "gelu-131073": {"N": 131073},  # five trips: a one-point tail loop
}


@pytest.mark.parametrize("dist", [("block", 1), ("block_cyclic", 1024)])
@pytest.mark.parametrize("data", ["random", "ties"])
@pytest.mark.parametrize("case", RETILED_CASES)
def test_every_pass_prefix_keeps_the_bits_of_retiled_loops(case, data, dist):
    program = lower("gelu", RETILED_CASES[case])
    inputs = kernel_inputs(program, "gelu") if data == "random" else tie_inputs(program)
    opts = pipeline.PipelineOptions(dist_kind=dist[0], dist_chunk=dist[1])
    with np.errstate(invalid="ignore"):  # ties make NaNs on purpose
        want = interpret(program, inputs)
        for name in DEFAULT_PASSES:
            program = pipeline.apply_pass(name, program, opts)
            assert ir.verify(program, tcm_bytes=opts.machine.tcm_bytes).ok, name
            assert bitexact(interpret(program, inputs), want), name
            if name == "mt":
                ((_, loop),) = hoisted_loops(program)
                assert loop.step == 32768 * (1 if dist[0] == "block" else 4)


HOIST_CASES = {
    "gelu-100000-4096": ("gelu", {"N": 100000}, (4096,)),  # 24 hoisted tiles, a partial tail
    "rmsnorm-127x513-1x0": ("rmsnorm", {"R": 127, "C": 513}, (1, 0)),
    "vecadd2d-64x2048-4x0": ("vecadd2d", {"R": 64, "C": 2048}, (4, 0)),  # no tail
}


@pytest.mark.parametrize("dist", [("block", 1), ("block_cyclic", 1024)])
@pytest.mark.parametrize("data", ["random", "ties"])
@pytest.mark.parametrize("case", HOIST_CASES)
def test_every_pass_prefix_keeps_the_bits_of_hoisted_loops(case, data, dist):
    kernel, dims, tiles = HOIST_CASES[case]
    program = lower(kernel, dims)
    inputs = kernel_inputs(program, kernel) if data == "random" else tie_inputs(program)
    opts = pipeline.PipelineOptions(tile_sizes=tiles, mt_threshold=1, dist_kind=dist[0],
                                    dist_chunk=dist[1])
    with np.errstate(invalid="ignore"):  # ties make NaNs on purpose
        want = interpret(program, inputs)
        for name in DEFAULT_PASSES:
            program = pipeline.apply_pass(name, program, opts)
            assert ir.verify(program, tcm_bytes=opts.machine.tcm_bytes).ok, name
            assert bitexact(interpret(program, inputs), want), name
            if name == "mt":
                assert hoisted_loops(program)


# the schedule_grid kernels at their explicit tiles
GRID_TILES = {
    "gelu": [(4096,), (16384,), (65536,)], "silu": [(4096,), (16384,), (65536,)],
    "expseries": [(4096,), (16384,), (65536,)],
    "rmsnorm": [(1, 0), (4, 0), (16, 0)], "vecadd2d": [(1, 0), (4, 0), (16, 0)],
}


def _blocking_machine(kernel, opts):
    """`opts.machine` with the largest TCM that still keeps mt from hoisting
    any of the program's tile loops: `threads` bodies of the smallest one of
    at least `threads` trips exceed a quarter of it by one byte. (A loop of
    fewer trips is never hoisted, and one whose operands are all resident
    holds no TCM at all.)"""
    program = staged(kernel, None, ("fuse", "tile", "vectorize"), tile_sizes=opts.tile_sizes)
    info = BufInfo(program)
    sizes = [_tile_tcm_bytes(op.body, info) for op in program.ops
             if isinstance(op, ForOp) and "all_parallel" in op.annotations
             and len(ir.trips(op, {})) >= opts.threads]
    smallest = min(b for b in sizes if b is not None)
    return replace(opts.machine, tcm_bytes=4 * opts.threads * smallest - 1)


@pytest.mark.parametrize("threshold", [1, 32768])
@pytest.mark.parametrize("dist", [("block", 1), ("block_cyclic", 1024)])
def test_hoisting_never_raises_cycles_but_where_one_dma_engine_binds(dist, threshold):
    lowered = 0
    for kernel, tile_list in GRID_TILES.items():
        for tiles in tile_list:
            for cfg in (perf.MachineConfig(), ODD_CONFIG):
                opts = pipeline.PipelineOptions(tile_sizes=tiles, mt_threshold=threshold,
                                                dist_kind=dist[0], dist_chunk=dist[1],
                                                machine=cfg)
                blocked = pipeline.PipelineOptions(**{**vars(opts),
                                                      "machine": _blocking_machine(kernel, opts)})
                assert not hoisted_loops(staged(kernel, None, UP_TO_MT, **vars(blocked)))
                got, want = (perf.simulate(staged(kernel, None, DEFAULT_PASSES, **vars(o)), cfg)
                             for o in (opts, blocked))
                lowered += got.total_cycles < want.total_cycles
                if got.total_cycles <= want.total_cycles:
                    continue
                # At ODD_CONFIG's 3 bytes a cycle, a per-trip db loop is
                # credited with prefetches that overlap its stores, so its
                # total is below its own transfer cycles, which one engine
                # cannot do; the hoisted loops move the same bytes through
                # the one engine their fork-join charges, and are bound by it.
                case = (kernel, tiles, cfg)
                assert cfg is ODD_CONFIG, case
                assert want.total_cycles < want.transfer_cycles, case
                assert got.total_cycles <= got.transfer_cycles + got.overhead_cycles, case
    assert lowered or threshold > 1
