"""The structural oracles in `tcmc.oracles`, run against real pass output.

`oracle_eval` is the float64 reference every shipped kernel's compiled
output must match within an allclose bound.
`thread_write_intervals` + `regions_disjoint` check the mt race-freedom
contract, `enumerate_tiles` checks tiling geometry against
`tile_partition`, and `remove_first_wait` is the mutation that the
interpreter's DMA hazard checker must catch. A prefetch into the slot in
use is the mutation the hazard checker cannot see, which the bit-exact
output comparison must catch instead. `regions_disjoint` is
quadratic in the writes per forall execution, so block-cyclic chunks of 7
run only at small N.
"""

from dataclasses import replace

import numpy as np
import pytest

from tcmc import interp, ir, oracles, perf, pipeline
from tcmc.interp import ExecutionFault
from tcmc.passes import double_buffer_loops, fuse_elementwise, tile_generic

from conftest import (
    ALL_KERNELS, BENCH_DIMS, DEFAULT_PASSES, kernel_inputs, kernel_path, lower,
)

MT_PASSES = ("fuse", "tile", "vectorize", "mt")


def mt_output(kernel, dims, opts, passes=MT_PASSES):
    spec = pipeline.PipelineSpec(passes, opts, "off")
    return pipeline.run_pipeline(kernel_path(kernel), spec, dims=dims).final


def forall_executions(program):
    return [bodies for execs in oracles.thread_write_intervals(program).values()
            for bodies in execs]


@pytest.mark.parametrize("mt_threshold", [1, 32768])
@pytest.mark.parametrize("dist_kind,chunk", [("block", 1), ("block_cyclic", 1024)])
@pytest.mark.parametrize("kernel", ALL_KERNELS)
def test_thread_bodies_write_disjoint_regions(kernel, dist_kind, chunk, mt_threshold):
    opts = pipeline.PipelineOptions(dist_kind=dist_kind, dist_chunk=chunk,
                                    mt_threshold=mt_threshold)
    executions = forall_executions(mt_output(kernel, BENCH_DIMS[kernel], opts))
    if mt_threshold == 1:
        assert executions, f"mt did not fire on {kernel}"
    for bodies in executions:
        assert len(bodies) == opts.threads and any(bodies)
        assert oracles.regions_disjoint(bodies)


# vectorize leaves a tile that W does not divide unthreaded (its domain has no
# constant bound), so the vectorized case runs at a multiple of the tile; both
# run fewer tiles than threads, so mt forks per generic, not once per loop
@pytest.mark.parametrize("n,passes,tiles", [(3001, ("fuse", "tile", "mt"), 3),
                                             (3072, MT_PASSES, 3)])
@pytest.mark.parametrize("kernel", ["gelu", "silu", "expseries"])
def test_thread_bodies_disjoint_under_small_cyclic_chunks(kernel, n, passes, tiles):
    opts = pipeline.PipelineOptions(tile_sizes=(1024,), dist_kind="block_cyclic",
                                    dist_chunk=7, mt_threshold=1)
    executions = forall_executions(mt_output(kernel, {"N": n}, opts, passes))
    assert len(executions) == tiles
    for bodies in executions:
        assert oracles.regions_disjoint(bodies)


def test_regions_disjoint_reports_an_overlap():
    assert not oracles.regions_disjoint([[("y", (0,), (8,))], [("y", (7,), (8,))]])
    assert oracles.regions_disjoint([[("y", (0,), (8,))], [("y", (8,), (8,))]])
    assert oracles.regions_disjoint([[("y", (0,), (8,))], [("z", (0,), (8,))]])


def _view_writes(depth, stride):
    """Two threads that each write two rows of %y, starting at row `stride * th
    + depth - 1`, through `depth` levels of views."""
    th = ir.IVar("th")
    ident = ir.AffineIndexMap.identity(2)
    if depth == 1:
        views = (ir.ExtractSliceOp("a", "y", (ir.ix_mul(th, stride), 0), (2, 4)),)
    else:  # rows [stride * th, + 4) of %y, then rows [1, 3) of that
        views = (ir.ExtractSliceOp("w", "y", (ir.ix_mul(th, stride), 0), (4, 4)),
                 ir.ExtractSliceOp("a", "w", (1, 0), (2, 4)))
    generic = ir.GenericOp("g", (2, 4), ("x",), ("a",), (ident, ident),
                           ("parallel", "parallel"), (ir.Payload.arg(0),))
    decls = (ir.TensorDecl("x", (2, 4), role="input"), ir.TensorDecl("y", (8, 4), role="output"))
    program = ir.KernelProgram("t", decls, (ir.ForallOp("th", 2, (*views, generic)),))
    assert ir.verify(program).ok
    (execution,) = oracles.thread_write_intervals(program)["th"]
    return execution


@pytest.mark.parametrize("depth", [1, 2], ids=["view", "view-of-view"])
def test_writes_through_views_are_regions_of_the_root(depth):
    first = depth - 1
    overlapping, apart = _view_writes(depth, 1), _view_writes(depth, 2)
    # rows [first, first + 2) and [first + 1, first + 3) overlap in one row
    assert overlapping == [[("y", (first, 0), (2, 4))], [("y", (first + 1, 0), (2, 4))]]
    assert not oracles.regions_disjoint(overlapping)
    # rows [first, first + 2) and [first + 2, first + 4) do not
    assert apart == [[("y", (first, 0), (2, 4))], [("y", (first + 2, 0), (2, 4))]]
    assert oracles.regions_disjoint(apart)


def test_removing_first_dma_wait_faults():
    opts = pipeline.PipelineOptions(tile_sizes=(1024,))
    program = mt_output("gelu", {"N": 4096}, opts, ("fuse", "tile", "db"))
    inputs = kernel_inputs(program, "gelu")
    interp.interpret(program, inputs)
    with pytest.raises(ExecutionFault):
        interp.interpret(oracles.remove_first_wait(program), inputs)
    with pytest.raises(ValueError, match="no dma_wait"):
        oracles.remove_first_wait(lower("gelu", {"N": 4096}))


def test_prefetch_into_the_current_slot_is_caught():
    # one buffer per input: the hazard check sees no second fill in flight,
    # so the wrong slot must show in the outputs
    opts = pipeline.PipelineOptions(tile_sizes=(1024,))
    program = mt_output("gelu", {"N": 4096}, opts, ("fuse", "tile", "db"))
    loop = next(op for op in program.ops if isinstance(op, ir.ForOp))
    current = {op.source: op.offsets for op in loop.body if isinstance(op, ir.ExtractSliceOp)}

    def into_current_slot(op):
        if isinstance(op, ir.IfOp) and "db_prefetch" in op.annotations:
            return (replace(op, body=tuple(replace(d, dst_offsets=current[d.dest])
                                           for d in op.body)),)
        return None

    mutated = program.with_ops(ir.map_ops(program.ops, into_current_slot))
    assert mutated != program
    inputs = kernel_inputs(program, "gelu")
    want = interp.interpret(program, inputs)
    try:
        got = interp.interpret(mutated, inputs)
    except ExecutionFault:
        return
    assert not interp.compare_outputs(got, want, "bitexact").ok


def test_enumerated_tiles_match_reference_partition():
    n, tile = 16397, 4096
    program = tile_generic(fuse_elementwise(lower("gelu", {"N": n})), tile_sizes=(tile,))
    (tiles,) = oracles.enumerate_tiles(program).values()
    assert [(o[0], s[0]) for o, s in tiles] == oracles.tile_partition(n, tile)


def test_a_db_loop_reports_no_slot_views_as_tiles():
    # its body stages nothing: the views of the two-slot buffer are not tiles
    program = tile_generic(fuse_elementwise(lower("gelu", {"N": 4096})), tile_sizes=(1024,))
    (tiles,) = oracles.enumerate_tiles(program).values()
    assert [(o[0], s[0]) for o, s in tiles] == oracles.tile_partition(4096, 1024)
    assert list(oracles.enumerate_tiles(double_buffer_loops(program)).values()) == [[]]


def test_memory_fraction_sweep_reaches_ideal_overlap():
    rows = pipeline.bench([], perf.MachineConfig(), "memory_fraction")
    assert [r["size"] for r in rows] == ["0", "0.25", "0.5", "0.75", "1"]
    for r in rows:
        assert r["speedup"] == f"{perf.ideal_overlap_speedup(float(r['size'])):.6g}"


# below BENCH_DIMS, so the interpreter stays fast; still several tiles each
ORACLE_DIMS = {"softmax": {"N": 8192}, "gelu": {"N": 65536}, "silu": {"N": 65536},
               "rmsnorm": {"R": 33, "C": 257}, "vecadd2d": {"R": 16, "C": 4096},
               "expseries": {"N": 65536}}


@pytest.mark.parametrize("kernel", ALL_KERNELS)
def test_compiled_kernel_matches_float64_oracle(kernel):
    # the benchmark's output check: |got - want| <= 1e-6 * max|want| + 1e-4 * |want|
    dims = ORACLE_DIMS[kernel]
    inputs = kernel_inputs(lower(kernel, dims), kernel)
    spec = pipeline.PipelineSpec(DEFAULT_PASSES, pipeline.PipelineOptions(), "off")
    final = pipeline.run_pipeline(kernel_path(kernel), spec, inputs=inputs, dims=dims).final
    got = interp.interpret(final, inputs)["y"].astype(np.float64)
    want = oracles.oracle_eval(kernel, inputs)["y"].astype(np.float64)
    assert got.shape == want.shape
    tol = 1e-6 * np.max(np.abs(want)) + 1e-4 * np.abs(want)
    assert np.all(np.abs(got - want) <= tol)


def test_oracle_eval_rejects_an_unknown_kernel():
    with pytest.raises(KeyError, match="unknown kernel"):
        oracles.oracle_eval("matmul", {})
