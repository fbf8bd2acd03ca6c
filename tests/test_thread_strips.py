"""mt's window-sized strips: a thread part whose operands exceed the compute
window runs as a loop of strips that each fit it, every strip split from
the tile's generic directly. The strip form of rmsnorm and gelu, and bit
identity across strip edges through every pass prefix, on random data and
on ties of signed zeros and infinities with a NaN."""

import numpy as np
import pytest

from tcmc import ir, oracles, pipeline
from tcmc.interp import interpret
from tcmc.ir import ForallOp, GenericOp

from conftest import DEFAULT_PASSES, bitexact, kernel_inputs, kernel_path, lower

W = 32
UP_TO_MT = ("fuse", "tile", "vectorize", "mt")


def staged(kernel, dims, passes, **options):
    spec = pipeline.PipelineSpec(passes, pipeline.PipelineOptions(**options), "off")
    return pipeline.run_pipeline(kernel_path(kernel), spec, dims=dims).final


def thread_writes(program, generic):
    """For each execution of the forall that threads `generic`, each thread's
    writes as (offsets, sizes), one per strip."""
    (forall,) = [op for op, _ in ir.walk_ops(program.ops) if isinstance(op, ForallOp)
                 and any(isinstance(g, GenericOp) and g.name.startswith(f"{generic}_th")
                         for g, _ in ir.walk_ops(op.body))]
    return [[[(offs, sizes) for _, offs, sizes in body] for body in execution]
            for execution in oracles.thread_write_intervals(program)[forall.var]]


def test_rmsnorm_runs_its_last_thread_part_as_strips_of_16_and_15_rows():
    # 4,100 bytes a row and the 2,048-byte gain row: 16 rows fit the window, 32 do not
    # (forced to fork: the cost model runs the whole tile as strips on one context)
    (bodies,) = thread_writes(staged("rmsnorm", None, UP_TO_MT, mt_threshold=32768), "g3_main")
    assert bodies == [[((32 * t, 0), (16, 512)), ((32 * t + 16, 0), (16 if t < 3 else 15, 512))]
                      for t in range(4)]


# at W = 24 the largest power of two that fits, 16,384 points, is not a whole vector
# (forced to fork per trip: the cost model, and the override on a default loop
# of two trips or more, fork once around a re-tiled loop; 1M points take four
# default tiles, so their 262,144-point tiles are given explicitly)
@pytest.mark.parametrize("n,width", [(1048576, W), (100000, W), (120000, 24)])
def test_gelu_strips_start_and_end_on_whole_vectors(n, width):
    tiles = (262144,) if n == 1048576 else None
    executions = thread_writes(staged("gelu", {"N": n}, UP_TO_MT, vector_width=width,
                                      mt_threshold=32768, tile_sizes=tiles), "g0")
    for bodies in executions:
        for body in bodies:
            assert len(body) > 1
            for (off,), (size,) in body:
                assert off % width == 0 and (off + size) % width == 0 and size <= 16384
    if n == 100000:  # the last thread part, 24,928 points, ends inside its second strip
        assert executions == [[[((k * 25024 + s,), (min(16384, size - s),)) for s in (0, 16384)]
                               for k, size in enumerate((25024, 25024, 25024, 24928))]]


def tie_inputs(program):
    """Mostly +0.0, -0.0, -inf and -1.0, with one NaN in each input."""
    rng = np.random.default_rng(0)
    out = {}
    for d in program.inputs():
        data = rng.choice(np.array([0.0, -0.0, -np.inf, -1.0], np.float32), d.shape)
        data.reshape(-1)[d.shape[-1] // 2] = np.nan
        out[d.name] = data
    return out


# gelu is forced to fork per trip, where thread parts end inside strips; the
# cost model forks once around a re-tiled loop instead
STRIP_CASES = {
    "rmsnorm-127x513": ("rmsnorm", {"R": 127, "C": 513}, {}),
    "vecadd2d-64x2048": ("vecadd2d", {"R": 64, "C": 2048}, {}),  # four strips a thread
    # the last part ends inside a strip
    "gelu-100000": ("gelu", {"N": 100000}, {"mt_threshold": 32768}),
    # a chunk of 40,000 points (320 KB) is larger than the window
    "gelu-cyclic-40000": ("gelu", {"N": 131072},
                          {"dist_kind": "block_cyclic", "dist_chunk": 40000,
                           "mt_threshold": 32768}),
}


@pytest.mark.parametrize("data", ["random", "ties"])
@pytest.mark.parametrize("case", STRIP_CASES)
def test_every_pass_prefix_keeps_the_bits_across_strip_edges(case, data):
    kernel, dims, options = STRIP_CASES[case]
    program = lower(kernel, dims)
    inputs = kernel_inputs(program, kernel) if data == "random" else tie_inputs(program)
    opts = pipeline.PipelineOptions(**options)
    with np.errstate(invalid="ignore"):  # ties make NaNs on purpose
        want = interpret(program, inputs)
        for name in DEFAULT_PASSES:
            program = pipeline.apply_pass(name, program, opts)
            assert ir.verify(program, tcm_bytes=opts.machine.tcm_bytes).ok, name
            assert bitexact(interpret(program, inputs), want), name
            if name == "mt":
                assert "for %s0 = " in ir.print_ir(program)
