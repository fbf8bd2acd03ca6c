"""`vectorize` on reductions along their reduced dim: W blocked lanes of a
max, a main part and a carried epilogue, and the verifier rule that keeps
sums out; W row lanes across a parallel d0 for the folds blocked lanes leave,
and the verifier rule on that form; bit identity through every pass."""

from dataclasses import replace

import numpy as np
import pytest

from tcmc import ir, pipeline
from tcmc.interp import interpret
from tcmc.ir import (
    AffineIndexMap, AllocOp, ExtractSliceOp, GenericOp, InsertSliceOp, KernelProgram, Payload,
    Reduction, TensorDecl, verify,
)
from tcmc.passes import vectorize_innermost

from conftest import DEFAULT_PASSES, bitexact, kernel_inputs, kernel_path, lower

W = 32
ROW_LANES = frozenset({f"row_lanes({W})"})


def row_fold(rows, n, red=Reduction.max(), annotations=frozenset()):
    """y[r] = the fold of x[r, :] (of x when rows is 0): one reduction over
    the innermost dim."""
    dims = (rows, n) if rows else (n,)
    g = GenericOp("m", dims, ("x",), ("y",),
                  (AffineIndexMap.identity(len(dims)),
                   AffineIndexMap((0,) if rows else (None,))),
                  ("parallel", "reduction") if rows else ("reduction",),
                  (Payload.arg(0),), (red,), annotations)
    decls = (TensorDecl("x", dims, role="input"), TensorDecl("y", (rows or 1,), role="output"))
    return KernelProgram("fold", decls, (g,))


def generics(program):
    return [op for op, _ in ir.walk_ops(program.ops) if isinstance(op, GenericOp)]


def tie_inputs(program):
    """Mostly +0.0, -0.0 and -inf, so maxima are ties of signed zeros, with
    one NaN."""
    (x,) = program.inputs()
    rng = np.random.default_rng(0)
    data = rng.choice(np.array([0.0, -0.0, -np.inf, -1.0], np.float32), x.shape)
    data.reshape(-1)[x.shape[-1] // 2] = np.nan
    return {"x": data}


@pytest.mark.parametrize("rows", [0, 5])
def test_a_max_that_w_divides_is_marked_whole(rows):
    (g,) = generics(vectorize_innermost(row_fold(rows, 4 * W), W))
    assert ir.vector_width(g.annotations) == W and g.reductions == (Reduction.max(),)


@pytest.mark.parametrize("rows", [0, 5])
def test_a_max_that_w_does_not_divide_splits_into_main_and_a_carried_epilogue(rows):
    program = row_fold(rows, 4 * W + 3)
    out = vectorize_innermost(program, W)
    assert verify(out).ok
    main, epi = generics(out)
    assert (main.name, ir.vector_width(main.annotations)) == ("m_main", W)
    assert main.domain[-1] == 4 * W and main.reductions == (Reduction.max(),)
    assert (epi.name, "vec_epilogue" in epi.annotations) == ("m_epi", True)
    assert epi.domain[-1] == 3 and epi.reductions == (Reduction.max().carried(),)
    # both parts fold into the output in place: no sub-output, no write-back
    assert main.outputs == epi.outputs == ("y",)
    assert not any(isinstance(op, (AllocOp, InsertSliceOp)) for op in out.ops)
    inputs = tie_inputs(program)
    assert bitexact(interpret(out, inputs), interpret(program, inputs))


@pytest.mark.parametrize("program", [
    row_fold(0, W - 1),                        # below W
    row_fold(0, 4 * W, Reduction.sum()),       # a sum
    row_fold(0, 4 * W + 3, Reduction.sum()),
], ids=["below-w", "sum", "sum-remainder"])
def test_sums_and_extents_below_w_stay_as_they_are(program):
    # rank 1: no parallel d0 to put lanes along
    assert vectorize_innermost(program, W).ops == program.ops


def two_dim_fold(rows):
    """y[r] = the max of x[r, :, :]: d0 parallel, two reduction dims."""
    g = GenericOp("m", (rows, 4, W), ("x",), ("y",),
                  (AffineIndexMap.identity(3), AffineIndexMap((0,))),
                  ("parallel", "reduction", "reduction"), (Payload.arg(0),), (Reduction.max(),))
    decls = (TensorDecl("x", (rows, 4, W), role="input"), TensorDecl("y", (rows,), role="output"))
    return KernelProgram("fold", decls, (g,))


@pytest.mark.parametrize("program", [
    row_fold(5, W - 1),
    row_fold(5, 4 * W, Reduction.sum()),
    row_fold(5, 4 * W + 3, Reduction.sum()),
    two_dim_fold(5),
], ids=["below-w", "sum", "sum-remainder", "two-reduction-dims"])
def test_row_folds_blocked_lanes_leave_get_row_lanes(program):
    out = vectorize_innermost(program, W)
    (g,) = generics(out)
    (before,) = program.ops
    assert g == replace(before, annotations=ROW_LANES)
    assert verify(out).ok


def test_rmsnorm_row_sum_runs_in_row_lanes_under_the_default_passes():
    # forced to fork, so that every thread part is checked
    spec = pipeline.PipelineSpec(DEFAULT_PASSES, pipeline.PipelineOptions(mt_threshold=32768),
                                 "off")
    final = pipeline.run_pipeline(kernel_path("rmsnorm"), spec).final
    sums = [g for g in generics(final) if g.reduction_dims()]
    assert sums and all(r.kind == "sum" for g in sums for r in g.reductions)
    assert all(g.name.startswith("g0_th") for g in sums)  # every thread part of the row-sum
    assert all(ir.row_lanes(g.annotations) == W for g in sums)
    assert not any(ir.vector_width(g.annotations) for g in sums)


def copy_rows(annotations):
    """y = x over (5, 4W): both dims parallel."""
    g = GenericOp("m", (5, 4 * W), ("x",), ("y",), (AffineIndexMap.identity(2),) * 2,
                  ("parallel", "parallel"), (Payload.arg(0),), annotations=annotations)
    decls = (TensorDecl("x", (5, 4 * W), role="input"),
             TensorDecl("y", (5, 4 * W), role="output"))
    return KernelProgram("copy", decls, (g,))


@pytest.mark.parametrize("program", [
    copy_rows(ROW_LANES),                       # innermost dim parallel
    row_fold(0, W - 1, annotations=ROW_LANES),  # d0 a reduction
    row_fold(5, 4 * W, annotations=ROW_LANES | {f"vectorized({W})"}),
], ids=["innermost-parallel", "d0-reduced", "also-vectorized"])
def test_row_lanes_off_their_form_are_a_violation(program):
    assert [v.rule for v in verify(program).violations] == ["row lanes"]


@pytest.mark.parametrize("program", [
    row_fold(5, 4 * W, Reduction.sum(), frozenset({f"vectorized({W})"})),
    row_fold(0, 4 * W, Reduction.sum().carried(), frozenset({f"vectorized({W})"})),
], ids=["sum", "carried-sum"])
def test_a_vectorized_sum_reduction_is_a_violation(program):
    assert [v.rule for v in verify(program).violations] == ["vectorized reduction"]


def test_a_max_vectorized_along_one_of_two_reduction_dims_is_a_violation():
    # blocked lanes of the inner dim do not cover contiguous runs of the fold order
    g = GenericOp("m", (4, W), ("x",), ("y",),
                  (AffineIndexMap.identity(2), AffineIndexMap((None,))),
                  ("reduction", "reduction"), (Payload.arg(0),), (Reduction.max(),))
    decls = (TensorDecl("x", (4, W), role="input"), TensorDecl("y", (1,), role="output"))
    program = KernelProgram("t", decls, (g,))
    assert vectorize_innermost(program, W).ops == program.ops
    marked = program.with_ops((replace(g, annotations=frozenset({f"vectorized({W})"})),))
    assert [v.rule for v in verify(marked).violations] == ["vectorized reduction"]


@pytest.mark.parametrize("threshold", [1, 32768])
def test_a_row_max_threads_its_main_part_and_its_carried_epilogue(threshold):
    # (127, 513): with threshold 1, mt splits both parts by rows, and the
    # epilogue's row ranges are views of the output, so each thread folds on
    # from the main part's rows
    program = row_fold(127, 513)
    opts = pipeline.PipelineOptions(mt_threshold=threshold)
    inputs = tie_inputs(program)
    want = interpret(program, inputs)
    staged = program
    for name in DEFAULT_PASSES:
        staged = pipeline.apply_pass(name, staged, opts)
        assert verify(staged).ok, name
        assert bitexact(interpret(staged, inputs), want), name
    parts = generics(staged)
    assert {g.name.split("_th")[0] for g in parts} == {"m_main", "m_epi"}
    views = {op.result for op, _ in ir.walk_ops(staged.ops)
             if isinstance(op, ExtractSliceOp) and op.space is None}
    threaded_epis = [g for g in parts if g.name.startswith("m_epi_th")]
    assert bool(threaded_epis) == (threshold == 1)
    assert all(g.outputs[0] in views for g in threaded_epis)


def test_softmax_at_100003_folds_its_last_tile_as_main_part_and_epilogue():
    # the last max tile is 100003 - 6 * 16384 = 1699 = 53 * 32 + 3 points
    program = lower("softmax", {"N": 100003})
    opts = pipeline.PipelineOptions()
    staged = program
    for name in ("fuse", "tile", "vectorize"):
        staged = pipeline.apply_pass(name, staged, opts)
    maxes = [g for g in generics(staged) if g.reductions[0] and g.reductions[0].kind == "max"]
    assert [g.name for g in maxes] == ["g0_main", "g0_epi"]
    assert all(g.reductions[0].init is None for g in maxes)
    inputs = kernel_inputs(program, "softmax")
    assert bitexact(interpret(staged, inputs), interpret(program, inputs))


def wide_inputs(program):
    """Normal values over six decades of magnitude, where the order of float
    adds shows in the bits."""
    (x,) = program.inputs()
    rng = np.random.default_rng(1)
    data = rng.standard_normal(x.shape) * 10.0 ** rng.uniform(-3, 3, x.shape)
    return {"x": data.astype(np.float32)}


@pytest.mark.parametrize("threshold", [1, 32768])
@pytest.mark.parametrize("n", [W - 1, 513])
@pytest.mark.parametrize("rows", [1, 5, 31, 32, 33, 127])
@pytest.mark.parametrize("red", [Reduction.sum(), Reduction.max()], ids=["sum", "max"])
def test_row_folds_keep_their_bits_through_every_pass(red, rows, n, threshold):
    program = row_fold(rows, n, red)
    opts = pipeline.PipelineOptions(mt_threshold=threshold)
    input_sets = [tie_inputs(program)] + ([wide_inputs(program)] if red.kind == "sum" else [])
    wants = [interpret(program, inputs) for inputs in input_sets]
    staged = program
    for name in DEFAULT_PASSES:
        staged = pipeline.apply_pass(name, staged, opts)
        assert verify(staged).ok, name
        for inputs, want in zip(input_sets, wants):
            assert bitexact(interpret(staged, inputs), want), name
    lanes = [g for g in generics(staged) if ir.row_lanes(g.annotations)]
    # a max of at least W points per row folds in blocked lanes instead
    assert bool(lanes) == (red.kind == "sum" or n < W)
