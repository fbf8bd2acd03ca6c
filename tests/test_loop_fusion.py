"""Tile-loop fusion: `tile` merges sibling row-local tile loops.

rmsnorm's row sum, sqrt and normalize run as one tile loop that stages `%x`
from DDR once; the merges fusion must refuse (temps left in DDR, a later
body writing an earlier body's input, loops of different steps) are
refused, as is one that would cost a loop its fork; and random rmsnorm
shapes and row tiles stay bit-exact through every pass prefix on the
default and the low-bandwidth machine.
"""

from hypothesis import given, settings, strategies as st

import pytest

from tcmc import ir, perf, pipeline
from tcmc.ir import (
    AffineIndexMap, ExtractSliceOp, ForOp, GenericOp, InsertSliceOp, IVar, KernelProgram, Payload,
    TensorDecl, ix_min, ix_sub,
)
from tcmc.passes import tiling

from conftest import DEFAULT_PASSES, ROOT, VERIFY_DIMS, kernel_inputs, kernel_path, lower

LOWBW = perf.MachineConfig.from_text((ROOT / "configs" / "lowbw.machine").read_text())
X_BYTES = 127 * 513 * 4  # all of rmsnorm's %x at default dims: 260,604


def _tiled(dims=None, **options):
    opts = pipeline.PipelineOptions(**options)
    spec = pipeline.PipelineSpec(("fuse", "tile"), opts, "off")
    return pipeline.run_pipeline(kernel_path("rmsnorm"), spec, dims=dims).final


def _staged_bytes(program, source):
    return sum(4 * ir.eval_extent(op.sizes[0], {op_var: 0}) * op.sizes[1]
               for loop in program.ops if isinstance(loop, ForOp)
               for op_var in (loop.var,)
               for op in loop.body
               if isinstance(op, ExtractSliceOp) and op.space == "tcm" and op.source == source)


@pytest.mark.parametrize("dims", [None, VERIFY_DIMS["rmsnorm"]], ids=["default", "verify"])
def test_rmsnorm_is_one_tile_loop_that_stages_x_once(dims):
    program = _tiled(dims)
    (loop,) = program.ops
    assert isinstance(loop, ForOp) and not any(isinstance(op, ForOp) for op in loop.body)
    assert [op.name for op in loop.body if isinstance(op, GenericOp)] == ["g0", "g2", "g3"]
    assert _staged_bytes(program, "x") == X_BYTES
    final = pipeline.build_staged(kernel_path("rmsnorm"), DEFAULT_PASSES, dims,
                                  perf.MachineConfig())
    dmas = [op for op, _ in ir.walk_ops(final.ops) if isinstance(op, ir.DmaStartOp)]
    assert sum(op.source == "x" for op in dmas) == 1  # one fill per context, none prefetched
    assert ir.count_ops(final, lambda op: isinstance(op, ir.AsyncGroupOp)) == 1


def test_temps_left_in_ddr_are_not_merged(monkeypatch):
    # the sqrt would stage %t0 before the row sum writes it back
    monkeypatch.setattr(tiling, "_resident_temps", lambda program, tiled, tcm_bytes: program)
    program = _tiled()
    assert [type(op) for op in program.ops] == [ForOp, ForOp, ForOp]
    assert _staged_bytes(program, "x") == 2 * X_BYTES


def test_loops_of_different_steps_are_not_merged():
    # `--tile-size 4,0` tiles the row loops by 4; the 1-D sqrt keeps its step 127
    program = _tiled(tile_sizes=(4, 0))
    assert [op.step for op in program.ops if isinstance(op, ForOp)] == [4, 127, 4]


def _copy_loop(var, src, dst, staged):
    """`for var = 0 to 8 step 4 { dst[var:var+4] = src[var:var+4] }`, `src`
    staged or viewed."""
    size = ix_min(4, ix_sub(8, IVar(var)))
    tile, out = f"t_{var}", f"o_{var}"
    copy = GenericOp(f"copy_{var}", (size,), (tile,), (out,), (AffineIndexMap.identity(1),) * 2,
                     ("parallel",), (Payload.arg(0),), (None,))
    body = (ExtractSliceOp(tile, src, (IVar(var),), (size,), "tcm" if staged else None),
            ir.AllocOp(out, (size,), "tcm"),
            copy,
            InsertSliceOp(out, dst, (IVar(var),), (size,)),
            ir.DeallocOp(out))
    return ForOp(var, 0, 8, 4, body, annotations=frozenset({"all_parallel", "tiled_generic"}))


def test_a_later_body_that_writes_an_earlier_bodys_input_is_not_merged():
    decls = tuple(TensorDecl(n, (8,), "f32", "ddr", role) for n, role in
                  (("a", "input"), ("b", "output"), ("c", "output")))
    program = KernelProgram("k", decls, ())
    # the second loop writes %a, which the first stages: merged, trip 1 of the
    # first would read what trip 0 of the second wrote
    refused = [_copy_loop("i", "a", "b", True), _copy_loop("j", "c", "a", True)]
    assert len(tiling._fuse_tile_loops(refused, program, None)) == 2
    # reading %a twice merges, and the second stage of %a[%i] is forwarded
    (merged,) = tiling._fuse_tile_loops(
        [_copy_loop("i", "a", "b", True), _copy_loop("j", "a", "c", True)], program, None)
    staged = [op for op in merged.body if isinstance(op, ExtractSliceOp)]
    assert [(op.result, op.source) for op in staged] == [("t_i", "a")]
    assert [op.inputs for op in merged.body if isinstance(op, GenericOp)] == [("t_i",)] * 2


def test_a_merge_whose_tiles_would_overflow_the_tcm_is_refused():
    # each loop holds its staged tile in db's two slots and its output, 48
    # bytes; merged, the one staged tile and both outputs, 64 bytes
    decls = tuple(TensorDecl(n, (8,), "f32", "ddr", role) for n, role in
                  (("a", "input"), ("b", "output"), ("c", "output")))
    program = KernelProgram("k", decls, ())
    loops = [_copy_loop("i", "a", "b", True), _copy_loop("j", "a", "c", True)]
    assert len(tiling._fuse_tile_loops(loops, program, 48)) == 2
    assert len(tiling._fuse_tile_loops(loops, program, 64)) == 1


def test_a_merge_that_would_cost_a_loop_its_fork_is_refused():
    # each loop's four contexts fit 192 bytes (4 x 48); the merged loop's
    # four need 256, so mt could fork the parts but not the merge
    decls = tuple(TensorDecl(n, (8,), "f32", "ddr", role) for n, role in
                  (("a", "input"), ("b", "output"), ("c", "output")))
    program = KernelProgram("k", decls, ())
    loops = [_copy_loop("i", "a", "b", True), _copy_loop("j", "a", "c", True)]
    assert len(tiling._fuse_tile_loops(loops, program, 192)) == 2
    assert len(tiling._fuse_tile_loops(loops, program, 256)) == 1
    assert len(tiling._fuse_tile_loops(loops, program, 192, threads=1)) == 1


@settings(max_examples=12, deadline=None, derandomize=True)
@given(rows=st.integers(1, 40), cols=st.integers(1, 70),
       tile=st.sampled_from([None, 1, 3, 8, 16]), lowbw=st.booleans())
def test_random_rmsnorm_shapes_stay_bitexact_through_every_prefix(rows, cols, tile, lowbw):
    dims = {"R": rows, "C": cols}
    inputs = kernel_inputs(lower("rmsnorm", dims), "rmsnorm")
    opts = pipeline.PipelineOptions(machine=LOWBW if lowbw else perf.MachineConfig(),
                                    tile_sizes=None if tile is None else (tile, 0))
    spec = pipeline.PipelineSpec(DEFAULT_PASSES, opts, "bitexact")
    # every stage is compared bit for bit with the unpassed program
    result = pipeline.run_pipeline(kernel_path("rmsnorm"), spec, inputs=inputs, dims=dims)
    assert all(stage.compare.ok for stage in result.stages[1:])
    if tile is None and rows > 1:  # one row's sqrt is one point in TCM, left untiled
        tiled = next(stage.program for stage in result.stages if stage.name == "tile")
        assert sum(isinstance(op, ForOp) for op in tiled.ops) == 1
