"""`tile` on whole-array reductions: the carried-accumulator loop, its tile
geometry, its TCM accounting, the reductions it leaves whole, and bit
identity through every pass."""

import math

import numpy as np
import pytest

from tcmc import cli, ir, oracles, pipeline
from tcmc.interp import interpret
from tcmc.ir import (
    AffineIndexMap, AllocOp, ExtractSliceOp, ForOp, GenericOp, KernelProgram, Payload, Reduction,
    TensorDecl, print_ir, verify,
)
from tcmc.passes import fuse_elementwise, tile_generic
from tcmc.passes.common import NameAllocator
from tcmc.passes.tiling import TileSpec, _tile_one

from conftest import DEFAULT_PASSES, bitexact, kernel_inputs, kernel_path, lower


def tiled(kernel, dims, **kwargs):
    return tile_generic(fuse_elementwise(lower(kernel, dims)), **kwargs)


def reduction_loops(program):
    return [op for op in program.ops if isinstance(op, ForOp)
            and "tiled_generic" in op.annotations and "all_parallel" not in op.annotations]


def fold_program(n, red=Reduction.sum()):
    """y[0] = the fold of x's n points: one rank-1 reduction and nothing else."""
    g = GenericOp("s", (n,), ("x",), ("y",), (AffineIndexMap((0,)), AffineIndexMap((None,))),
                  ("reduction",), (Payload.arg(0),), (red,))
    decls = (TensorDecl("x", (n,), role="input"), TensorDecl("y", (1,), role="output"))
    return KernelProgram("total", decls, (g,))


def test_softmax_reductions_fold_window_sized_tiles_into_tcm_accumulators():
    program = tiled("softmax", {"N": 40000})
    loops = reduction_loops(program)
    assert len(loops) == 2
    max_loop, sum_loop = loops
    # 32,767 points and the accumulator fill the window: two tiles, split evenly
    partition = oracles.tile_partition(40000, 20000)
    # the max stages its tiles of %x from DDR
    tiles = oracles.enumerate_tiles(program)
    assert [(o[0], s[0]) for o, s in tiles[max_loop.var]] == partition
    # the sum reads the TCM-resident %t2 through views of the same tiles
    (view,) = [op for op in sum_loop.body if isinstance(op, ExtractSliceOp)]
    assert view.space is None and program.decl(view.source).space == "tcm"
    assert [(ir.eval_extent(view.offsets[0], {sum_loop.var: i}),
             ir.eval_extent(view.sizes[0], {sum_loop.var: i}))
            for i in ir.trips(sum_loop, {})] == partition
    for loop in loops:
        (g,) = [op for op in loop.body if isinstance(op, GenericOp)]
        assert [r.init for r in g.reductions] == [None]
    accs = [op for op in program.ops if isinstance(op, AllocOp)]
    assert [(a.space, a.sizes, a.fill) for a in accs] == [("tcm", (1,), -math.inf),
                                                          ("tcm", (1,), 0.0)]
    text = print_ir(program)
    assert "%acc0 = alloc f32[1] @tcm fill=-inf\n" in text
    assert "reduce max init=out of a0\n" in text
    assert "reduce sum init=out of a0\n" in text


@pytest.mark.parametrize("window,width,tile", [
    (131072, 1, 20000), (131072, 32, 20000),  # 2 tiles; 20,000 is whole vectors already
    (65540, 1, 13334), (65540, 32, 13344),    # 3 tiles, rounded up to 417 vectors
    (4096, 32, 1000),                         # 40 tiles; 1,024 points would not fit
])
def test_the_tiles_are_the_fewest_that_fit_the_window_split_evenly(window, width, tile):
    # the footprint of a tile is its input tile plus the 4-byte accumulator
    program = tile_generic(fold_program(40000), compute_window_bytes=window, vector_width=width)
    (loop,) = reduction_loops(program)
    assert loop.step == tile and 4 * tile + 4 <= window
    fewest = -(-40000 // ((window - 4) // 4))
    assert len(range(0, 40000, tile)) == fewest
    # the tiles fold in order and cover the extent once
    assert oracles.enumerate_tiles(program)[loop.var] == [
        ((o,), (s,)) for o, s in oracles.tile_partition(40000, tile)]


@pytest.mark.parametrize("program", [
    fold_program(32767),  # 131072 bytes with y: fits the window
    fuse_elementwise(lower("softmax", {"N": 16384})),
    fuse_elementwise(lower("rmsnorm", {"R": 127, "C": 513})),  # a parallel dim
], ids=["fits-window", "softmax-16384", "rmsnorm"])
def test_reductions_that_fit_the_window_or_have_a_parallel_dim_keep_their_schedule(program):
    out = tile_generic(program)
    assert not reduction_loops(out)
    assert not any(isinstance(op, AllocOp) and op.fill is not None
                   for op, _ in ir.walk_ops(out.ops))


def test_the_accumulator_counts_toward_live_tcm():
    program = tile_generic(fold_program(40000))
    # the staged 20000-point tile and the accumulator, both live in the loop
    assert verify(program, tcm_bytes=20000 * 4 + 4).ok
    rules = [v.rule for v in verify(program, tcm_bytes=20000 * 4 + 3).violations]
    assert rules == ["tcm budget"]


def test_a_carried_fold_on_an_all_parallel_output_is_spurious():
    g = GenericOp("g", (8,), ("x",), ("y",), (AffineIndexMap.identity(1),) * 2,
                  ("parallel",), (Payload.arg(0),), (Reduction.sum().carried(),))
    decls = (TensorDecl("x", (8,), role="input"), TensorDecl("y", (8,), role="output"))
    rules = [v.rule for v in verify(KernelProgram("t", decls, (g,))).violations]
    assert rules == ["spurious combinator"]


def test_explicit_tiles_on_a_reduction_dim_still_exit_3(capsys):
    # the default tiles softmax's reductions at its default size; a size asked for does not
    argv = ["compile", kernel_path("softmax"), "--tile-size", "4096"]
    assert cli.main(argv) == cli.EXIT_SPEC
    assert "cannot tile reduction dim d0" in capsys.readouterr().err


@pytest.mark.parametrize("n", [32768, 40000, 100003, 1048576])
def test_tiled_softmax_is_bitexact_at_every_stage(n):
    spec = pipeline.PipelineSpec(DEFAULT_PASSES, pipeline.PipelineOptions(), "bitexact")
    result = pipeline.run_pipeline(kernel_path("softmax"), spec, dims={"N": n})
    assert all(st.compare.ok for st in result.stages[1:])
    tiled_stage = next(st.program for st in result.stages if st.name == "tile")
    assert len(reduction_loops(tiled_stage)) == 2


@pytest.mark.parametrize("red", [Reduction.sum(), Reduction.max()], ids=["sum", "max"])
def test_a_tiled_reduction_folds_to_the_bits_of_the_whole_one(red):
    # three tiles, the last one partial, over data with -0.0 and ±inf
    program = fold_program(40000, red)
    rng = np.random.default_rng(0)
    x = (rng.standard_normal(40000) * 1e3).astype(np.float32)
    x[[5, 20000]] = (-0.0, np.inf)
    if red.kind == "max":
        x[39999] = -np.inf
    for data in (x, np.full(40000, -0.0, np.float32)):
        want = interpret(program, {"x": data})
        assert bitexact(interpret(tile_generic(program), {"x": data}), want)


@pytest.mark.parametrize("rows", [7, 37])  # below and above the fold's 16-lane path
def test_a_reduction_dim_tiled_alone_carries_one_accumulator_per_row(rows):
    # no policy asks for it yet: rmsnorm's row-sum with its columns in tiles of 100
    program = fuse_elementwise(lower("rmsnorm", {"R": rows, "C": 513}))
    names = NameAllocator(program)
    ops = []
    for op in program.ops:
        if isinstance(op, GenericOp) and op.reduction_dims():
            ops.extend(_tile_one(op, TileSpec((0, 100)), program, names, None))
        else:
            ops.append(op)
    tiled_sum = program.with_ops(tuple(ops))
    assert verify(tiled_sum).ok
    (acc,) = [op for op in tiled_sum.ops if isinstance(op, AllocOp)]
    assert (acc.sizes, acc.fill) == ((rows,), 0.0)
    inputs = kernel_inputs(program, "rmsnorm")
    assert bitexact(interpret(tiled_sum, inputs), interpret(program, inputs))
