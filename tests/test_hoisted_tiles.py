"""mt forks once around a tile loop: each context runs its own whole tiles.

The hoisted form of gelu and rmsnorm, each context's share of the trips
(every trip once, the first t mod T contexts one more, no tail loop), its
race-freedom under the structural oracle, bit identity through every pass
prefix, and the rule that hoisting never raises modeled cycles against the
same pipeline with the hoist blocked by a smaller TCM. Under the cost model
a loop of small explicit tiles forks once, and a default tile loop
re-tiled for T contexts is the loop `--tile-size` would have built at that
step, bit for bit, at a power of two or at the balanced step.
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
from tcmc.passes.double_buffer import tile_tcm_bytes

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
def test_rmsnorm_rows_hoist_all_127_trips_with_no_tail(dist):
    kind, chunk = dist
    program = staged("rmsnorm", None, UP_TO_MT, tile_sizes=(1, 0), mt_threshold=1,
                     dist_kind=kind, dist_chunk=chunk)
    hoisted = hoisted_loops(program)
    assert len(hoisted) == 2  # the row sum and the normalize; the sqrt has one trip
    for forall, loop in hoisted:
        rows = [[i for i in ir.trips(loop, {forall.var: t})] for t in range(4)]
        # 127 = 4 * 31 + 3: the first three contexts run one row more
        assert [len(r) for r in rows] == [32, 32, 32, 31]
        assert sorted(i for r in rows for i in r) == list(range(127))
        if kind == "block":
            assert rows[1] == list(range(32, 64))
        else:  # tiles dealt round-robin
            assert rows[1] == list(range(1, 127, 4))
        assert not any(isinstance(op, ForallOp) for op, _ in ir.walk_ops(loop.body))
    # no tail loop follows: every loop left at the top runs one trip
    assert all(len(ir.trips(op, {})) == 1 for op in program.ops if isinstance(op, ForOp))


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
    assert sum(len(body) for body in execution) == 25  # 24 whole tiles and the partial one
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


# (kernel, dims, the step its one default tile is re-tiled to)
RETILE_IDENTITY_CASES = {
    **{k: (k, VERIFY_DIMS[k], 32768) for k in ("gelu", "silu", "expseries")},
    "gelu-100000": ("gelu", {"N": 100000}, 25024),  # the balanced step
}


@pytest.mark.parametrize("case", RETILE_IDENTITY_CASES)
def test_a_default_tile_loop_is_retiled_to_the_loop_of_that_tile_size(case):
    # one tile of N points forks per trip; four of `step` fork once
    kernel, dims, step = RETILE_IDENTITY_CASES[case]
    retiled = staged(kernel, dims, DEFAULT_PASSES)
    assert ir.print_ir(retiled) == ir.print_ir(
        staged(kernel, dims, DEFAULT_PASSES, tile_sizes=(step,)))
    ((forall, loop),) = hoisted_loops(staged(kernel, dims, UP_TO_MT))
    assert loop.step == step
    assert ir.print_ir(staged(kernel, dims, ("fuse", "tile"))).count(f"step {dims['N']}") == 1


RETILED_CASES = {
    "gelu-131000": {"N": 131000},  # the last context's tile is partial
    "gelu-131003": {"N": 131003},  # vectorize splits each tile into main and epilogue
    "gelu-131073": {"N": 131073},  # five trips of 32,768, four of the balanced 32,800
}

# the step each case is re-tiled to: the largest power of two that gives four
# trips, unless ceil(N / 4) in whole vectors differs and prices cheaper
RETILED_STEPS = {"gelu-131000": 32768, "gelu-131003": 32768, "gelu-131073": 32800}


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
                assert loop.step == RETILED_STEPS[case] * (1 if dist[0] == "block" else 4)


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


# t mod T of each case: a hoist runs every trip, the first t mod T contexts
# one more than the rest, and no tail loop follows
SHARE_CASES = {
    **{f"gelu-{8 + extra}x512": ("gelu", {"N": 512 * (8 + extra) - 96}, (512,))
       for extra in range(4)},  # a partial last tile, whole vectors
    **{f"vecadd2d-{8 + extra}x96-1x0": ("vecadd2d", {"R": 8 + extra, "C": 96}, (1, 0))
       for extra in range(4)},
}


def _covered_once(writes, shape):
    """Whether the regions `writes` cover a buffer of `shape` exactly once,
    each a run of whole rows of its d0."""
    row = 0
    for offsets, sizes in sorted(writes):
        if offsets[0] != row or tuple(offsets[1:]) != (0,) * (len(shape) - 1) \
                or tuple(sizes[1:]) != tuple(shape[1:]):
            return False
        row += sizes[0]
    return row == shape[0]


@pytest.mark.parametrize("dist", [("block", 1), ("block_cyclic", 1024)])
@pytest.mark.parametrize("case", SHARE_CASES)
def test_hoisted_contexts_split_every_trip_once(case, dist):
    kernel, dims, tiles = SHARE_CASES[case]
    program = lower(kernel, dims)
    inputs = kernel_inputs(program, kernel)
    shape = next(d.shape for d in program.decls if d.role == "output")
    opts = pipeline.PipelineOptions(tile_sizes=tiles, mt_threshold=1, dist_kind=dist[0],
                                    dist_chunk=dist[1])
    want = interpret(program, inputs)
    for name in DEFAULT_PASSES:
        program = pipeline.apply_pass(name, program, opts)
        assert ir.verify(program, tcm_bytes=opts.machine.tcm_bytes).ok, name
        assert bitexact(interpret(program, inputs), want), name
        if name != "mt":
            continue
        ((forall, loop),) = hoisted_loops(program)
        assert program.ops == (forall,)  # no tail loop
        shares = [list(ir.trips(loop, {forall.var: t})) for t in range(opts.threads)]
        trips = list(range(0, shape[0], tiles[0]))
        assert sorted(i for share in shares for i in share) == trips
        each, extra = divmod(len(trips), opts.threads)
        assert [len(share) for share in shares] == [each + (t < extra) for t in range(opts.threads)]
        (execution,) = oracles.thread_write_intervals(program)[forall.var]
        assert oracles.regions_disjoint(execution)
        assert _covered_once([(off, sz) for body in execution for _, off, sz in body], shape)


def test_gelu_at_100000_points_forks_once_at_the_balanced_step():
    # the largest power of two that gives four trips, 32,768, leaves the last
    # context 1,696 points and prices above the one 100,000-point tile
    # (30,902 cycles); ceil(100000 / 4) in whole vectors, 25,024, forks once
    program = staged("gelu", {"N": 100000}, DEFAULT_PASSES)
    assert ir.count_ops(program, lambda op: isinstance(op, AsyncGroupOp)) == 1
    assert perf.simulate(program, perf.MachineConfig()).total_cycles <= 26216


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
    sizes = [tile_tcm_bytes(op.body, info.narrow.__contains__) for op in program.ops
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
