"""`vectorize` on max reductions along their reduced dim: W blocked lanes, a
main part and a carried epilogue, the verifier rule that keeps sums out, and
bit identity through every pass."""

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
    row_fold(5, W - 1),                        # below W
    row_fold(5, 4 * W, Reduction.sum()),       # a sum
    row_fold(5, 4 * W + 3, Reduction.sum()),
], ids=["below-w", "sum", "sum-remainder"])
def test_sums_and_extents_below_w_stay_as_they_are(program):
    assert vectorize_innermost(program, W).ops == program.ops


def test_rmsnorm_row_sum_is_not_vectorized_by_the_default_passes():
    spec = pipeline.PipelineSpec(DEFAULT_PASSES, pipeline.PipelineOptions(), "off")
    final = pipeline.run_pipeline(kernel_path("rmsnorm"), spec).final
    sums = [g for g in generics(final) if g.reduction_dims()]
    assert sums and all(r.kind == "sum" for g in sums for r in g.reductions)
    assert not any(ir.vector_width(g.annotations) for g in sums)


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
