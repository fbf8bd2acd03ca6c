"""Cost model: golden TimingReports, the loop-costing mechanism, machine configs.

`tests/golden/perf_reports.txt` holds one line per case: the case id and the
five `TimingReport` fields as `float.hex()`, so a match is bit for bit.
Regenerate it only for a deliberate change to the cost model:

    PYTHONPATH=src python tests/test_perf.py --write
"""

import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from tcmc import cli, ir, oracles, perf, pipeline
from tcmc.ir import (
    AffineIndexMap, AllocOp, AsyncExecuteOp, AsyncGroupOp, AddToGroupOp, AwaitAllOp, CmpPred,
    DeallocOp, ExtractSliceOp, ForOp, GenericOp, IBin, IfOp, IVar, InsertSliceOp, KernelProgram,
    Payload, Reduction, TensorDecl,
)
from tcmc.frontend import lower_to_generics
from tcmc.passes import (
    DistributionPolicy, double_buffer_loops, form_async_threads, form_virtual_threads,
)

from conftest import ALL_KERNELS, ROOT, VERIFY_DIMS, kernel_path, squares_kernel
from test_fuzz import FUZZ_SEEDS

GOLDEN = ROOT / "tests" / "golden" / "perf_reports.txt"

# non-integer costs make float rounding depend on the order of additions
ODD_CONFIG = perf.MachineConfig(
    dma_bandwidth_bytes_per_cycle=3.0, dma_latency_cycles=7.3, window_miss_factor=1.7,
    scalar_op_cycles={**perf.DEFAULT_OP_CYCLES, "add": 0.3})

RANDOM_SEEDS = range(50)
REMAINDER_N = 16397  # not a multiple of any tile, chunk or vector width


def _final(kernel, passes, opts, dims=None):
    spec = pipeline.PipelineSpec(tuple(passes), opts, "off")
    return pipeline.run_pipeline(kernel_path(kernel), spec, dims=dims).final


FULL_PASSES = pipeline.PASS_ORDER[:6]
# without vectorize's main/epilogue split, mt also fires when N is not a multiple of W
NO_VEC_PASSES = ("fuse", "tile", "mt", "async", "db")


def _dist_cases(kernels, tiles_of, dists, dims, pass_lists=(FULL_PASSES,)):
    size = ",".join(f"{k}={v}" for k, v in dims.items()) if dims else "default"
    for kernel in kernels:
        for passes in pass_lists:
            for tiles in tiles_of(kernel):
                for dist_kind, chunk in dists:
                    for math_mode in ("exact", "approx"):
                        opts = pipeline.PipelineOptions(tile_sizes=tiles, dist_kind=dist_kind,
                                                        dist_chunk=chunk, mt_threshold=1)
                        tile = "default" if tiles is None else "x".join(map(str, tiles))
                        dist = "block" if dist_kind == "block" else f"cyclic:{chunk}"
                        vec = "" if "vectorize" in passes else "novec/"
                        full = passes + (("math-approx",) if math_mode == "approx" else ())
                        yield (f"grid/{kernel}/{size}/{vec}tile={tile}/{dist}/{math_mode}",
                               _final(kernel, full, opts, dims), opts.machine)


def _small_tiles(kernel):
    if kernel == "softmax":
        return (None,)  # its single dim is a reduction
    if kernel in ("rmsnorm", "vecadd2d"):
        return (None, (4, 0))
    return (None, (4096,))


def _remainder_tiles(kernel):
    return (None,) if kernel == "softmax" else (None, (1024,))


def golden_cases():
    """Yield (case id, program, machine config) for every golden report."""
    yield from _dist_cases(ALL_KERNELS, _small_tiles,
                           (("block", 1), ("block_cyclic", 1024)), None)
    yield from _dist_cases(("gelu", "silu", "expseries", "softmax"), _remainder_tiles,
                           (("block_cyclic", 7), ("block_cyclic", 1)), {"N": REMAINDER_N},
                           (FULL_PASSES, NO_VEC_PASSES))
    default = perf.MachineConfig()
    for kernel in ALL_KERNELS:
        for ladder, passes in perf.PASS_LADDERS.items():
            prog = pipeline.build_staged(kernel_path(kernel), passes, None, default)
            yield f"ladder/{kernel}/{ladder}", prog, default
            yield f"ladder/{kernel}/{ladder}/odd", prog, ODD_CONFIG
    for size in perf.SIZE_SWEEP:
        dims = {"N": size}
        yield (f"size/gelu/{size}/vec",
               pipeline.build_staged(kernel_path("gelu"), perf.PASS_LADDERS["vec"], dims, default),
               default)
        yield (f"size/gelu/{size}/vec_mt",
               pipeline.build_staged(kernel_path("gelu"), perf.PASS_LADDERS["vec_mt"], dims,
                                     default, mt_threshold=1),
               default)
    for m in (0.0, 0.25, 0.5, 0.75, 1.0):
        prog, cfg = perf.overlap_probe(m)
        yield f"m/{m:g}/base", prog, cfg
        yield f"m/{m:g}/db", double_buffer_loops(prog), cfg
    for seed in RANDOM_SEEDS:
        program = oracles.gen_random_program(oracles.RandomProgramSpec(seed))
        for threshold in (1, 32768):
            opts = pipeline.PipelineOptions(mt_threshold=threshold)
            current = program
            for k, name in enumerate(pipeline.PASS_ORDER[:6]):
                current = pipeline.apply_pass(name, current, opts)
                if threshold != 1 and k < 3:
                    continue  # the prefixes before mt do not depend on the threshold
                prefix = ",".join(pipeline.PASS_ORDER[:k + 1])
                yield f"random/{seed}/mt={threshold}/{prefix}", current, default
                yield f"random/{seed}/mt={threshold}/{prefix}/odd", current, ODD_CONFIG


def report_line(case_id, rep):
    return " ".join([case_id] + [float(getattr(rep, f.name)).hex() for f in fields(rep)])


def golden_lines():
    return [report_line(cid, perf.simulate(prog, cfg)) for cid, prog, cfg in golden_cases()]


def test_reports_match_golden_bit_for_bit():
    want = GOLDEN.read_text().splitlines()
    got = golden_lines()
    assert [line.split()[0] for line in got] == [line.split()[0] for line in want]
    diff = [(g, w) for g, w in zip(got, want) if g != w]
    assert not diff, f"{len(diff)} reports differ, first: got {diff[0][0]} want {diff[0][1]}"


def test_no_golden_report_overlaps_a_negative_amount():
    # overlap is a saving: total never exceeds compute + transfer + overhead,
    # up to the rounding of their sums (the worst case is about -3.5e-16 of total)
    names = [f.name for f in fields(perf.TimingReport)]
    for line in GOLDEN.read_text().splitlines():
        case, *values = line.split()
        rep = dict(zip(names, map(float.fromhex, values)))
        assert rep["overlapped_cycles"] >= -1e-12 * rep["total_cycles"], case


@pytest.mark.parametrize("links", [8, 12])
def test_fusion_never_adds_compute_to_a_shared_chain(tmp_path, links):
    src = squares_kernel(tmp_path, links)

    def compute(passes):
        spec = pipeline.PipelineSpec(passes, pipeline.PipelineOptions(), "off")
        program = pipeline.run_pipeline(src, spec, dims={"N": 65536}).final
        return perf.simulate(program, perf.MachineConfig()).compute_cycles

    # charged once per root-to-leaf path, the fused chain would cost 2^links operations a point
    assert compute(("fuse", "tile", "vectorize")) <= compute(("tile", "vectorize"))


# -- loop costing: cached iterations replay, the rest is walked ----------------

def _full_walk(monkeypatch, program, cfg):
    with monkeypatch.context() as m:
        m.setattr(perf, "_scan_loop", lambda loop: None)
        return perf.simulate(program, cfg)


def _count_body_walks(monkeypatch, body):
    walks = [0]
    real = perf._Sim.walk_block

    def spy(self, ops, *args, **kwargs):
        walks[0] += ops is body
        return real(self, ops, *args, **kwargs)

    monkeypatch.setattr(perf._Sim, "walk_block", spy)
    return walks


def test_tiled_loop_body_is_walked_once_per_iteration_class(monkeypatch):
    # a TCM of 256 KB holds the tiles but keeps mt from hoisting the loop, so
    # each trip forks and joins in the body
    opts = pipeline.PipelineOptions(tile_sizes=(4096,), mt_threshold=1,
                                    machine=perf.MachineConfig(tcm_bytes=1 << 18))
    program = _final("gelu", FULL_PASSES, opts)
    loop = next(op for op in program.ops if isinstance(op, ForOp))
    assert "tiled_generic" in loop.annotations
    assert len(range(loop.lb, loop.ub, loop.step)) == 256
    full = _full_walk(monkeypatch, program, ODD_CONFIG)
    walks = _count_body_walks(monkeypatch, loop.body)
    assert perf.simulate(program, ODD_CONFIG) == full
    # every iteration but the last, and the last, whose prefetch guard is false
    assert walks[0] == 2


def test_tiled_reduction_loop_replays_to_the_full_walk(monkeypatch):
    # softmax's reduction loops at N=100003: four trips of 25024 (the fewest
    # window-sized tiles, split evenly in whole vectors), the last partial,
    # each double-buffered with a carried accumulator
    program = _final("softmax", FULL_PASSES, pipeline.PipelineOptions(), {"N": 100003})
    loops = [op for op in program.ops if isinstance(op, ForOp)
             and "tiled_generic" in op.annotations and "all_parallel" not in op.annotations]
    assert len(loops) == 2
    assert all((loop.step, len(range(loop.lb, loop.ub, loop.step))) == (25024, 4)
               for loop in loops)
    full = _full_walk(monkeypatch, program, ODD_CONFIG)
    walks = _count_body_walks(monkeypatch, loops[0].body)
    assert perf.simulate(program, ODD_CONFIG) == full
    assert walks[0] < 4


@pytest.mark.parametrize("n", [32768, 100003, 1048576])
def test_no_reduction_pays_the_window_miss_factor(monkeypatch, n):
    # each reduction generic costs the same as it would with a miss factor of 1
    program = _final("softmax", FULL_PASSES, pipeline.PipelineOptions(), {"N": n})
    real = perf._Sim.generic_cost
    missed = []

    def spy(self, op, env, buffers):
        cost = real(self, op, env, buffers)
        if op.reduction_dims():
            config = self.cfg
            self.cfg = replace(config, window_miss_factor=1.0)
            missed.append(real(self, op, env, buffers) != cost)
            self.cfg = config
        return cost

    monkeypatch.setattr(perf._Sim, "generic_cost", spy)
    perf.simulate(program, perf.MachineConfig())
    assert missed and not any(missed)


# each kernel at pipeline.DEFAULT_DIMS (None) and at the verify_* sizes
KERNEL_DIMS = [(k, None) for k in ALL_KERNELS] + list(VERIFY_DIMS.items())
KERNEL_DIMS_IDS = [f"{k}-{'verify' if d else 'default'}" for k, d in KERNEL_DIMS]


def _lowered(source, dims):
    ast, bound = pipeline.resolve_kernel(source, dims)
    return lower_to_generics(ast, bound)


# a row sum of two operands at 127x513: 16 rows of a thread part fit the
# window and 32 do not, but strips of 16 rows would take two groups of 32
# row lanes where the part takes one, so under a fixed mt_threshold the
# part runs whole (the cost model prices 16-row strips too:
# tests/test_thread_forms.py)
ROW_DOT = """kernel rowdot(x: f32[R, C], z: f32[R, C], y: f32[R]) {
    store(y, sum(load(x) * load(z), axis=1))
}
"""


def _strip_cases():
    for kernel, dims in KERNEL_DIMS:
        yield f"{kernel}/{dims or 'default'}", _lowered(kernel_path(kernel), dims)
    yield "rowdot", _lowered(ROW_DOT, {"R": 127, "C": 513})
    for seed in FUZZ_SEEDS[:50]:
        yield f"random/{seed}", oracles.gen_random_program(oracles.RandomProgramSpec(seed))


def _stripped_and_whole(program, opts):
    """`program` after fuse, tile and vectorize, then mt with the machine's
    compute window and with an unbounded one (no strips), each followed by
    async and db."""
    for name in ("fuse", "tile", "vectorize"):
        program = pipeline.apply_pass(name, program, opts)
    policy = DistributionPolicy(opts.dist_kind, opts.threads, opts.dist_chunk)
    return [double_buffer_loops(form_async_threads(form_virtual_threads(
                program, policy, replace(opts.machine, compute_window_bytes=window),
                opts.mt_threshold)))
            for window in (opts.machine.compute_window_bytes, 1 << 60)]


@pytest.mark.parametrize("dist_kind,chunk", [("block", 1), ("block_cyclic", 1024)])
@pytest.mark.parametrize("threshold", [1, 32768])
def test_strips_never_raise_cycles(dist_kind, chunk, threshold):
    opts = pipeline.PipelineOptions(dist_kind=dist_kind, dist_chunk=chunk, mt_threshold=threshold)
    lowered = 0
    for case, program in _strip_cases():
        stripped, whole = _stripped_and_whole(program, opts)
        for cfg in (perf.MachineConfig(), ODD_CONFIG):
            got, want = perf.simulate(stripped, cfg), perf.simulate(whole, cfg)
            assert got.total_cycles <= want.total_cycles, (case, cfg)
            # strips only ever take the miss factor off a thread part
            assert got.compute_cycles <= want.compute_cycles, (case, cfg)
            lowered += got.total_cycles < want.total_cycles
    assert lowered


@pytest.mark.parametrize("kernel,dims", KERNEL_DIMS, ids=KERNEL_DIMS_IDS)
def test_no_generic_pays_the_window_miss_factor(monkeypatch, kernel, dims):
    # every generic of the default schedule, threaded or not, costs what it
    # would with a miss factor of 1
    program = _final(kernel, FULL_PASSES, pipeline.PipelineOptions(), dims)
    real = perf._Sim.generic_cost
    missed = []

    def spy(self, op, env, buffers):
        cost = real(self, op, env, buffers)
        config = self.cfg
        self.cfg = replace(config, window_miss_factor=1.0)
        missed.append(real(self, op, env, buffers) != cost)
        self.cfg = config
        return cost

    monkeypatch.setattr(perf._Sim, "generic_cost", spy)
    perf.simulate(program, perf.MachineConfig())
    assert missed and not any(missed)


@pytest.mark.parametrize("kernel,passes,dims", [
    ("vecadd2d", FULL_PASSES, {"R": 64, "C": 16384}),  # in the thread parts of a fork-join
    ("softmax", ("fuse", "tile", "vectorize"), {"N": REMAINDER_N}),  # in whole tiles
])
def test_the_miss_share_is_what_the_window_miss_factor_adds(kernel, passes, dims):
    # mt's hoist floor takes the compute without the factor from this share
    program = _final(kernel, passes, pipeline.PipelineOptions(), dims)
    decls = {d.name: (d.shape, d.space, d.dtype == "f16") for d in program.decls}
    cfg = perf.MachineConfig()
    _, compute, _, missed = perf.FragmentPricer(cfg).price(program.ops, decls, {})
    flat = perf.FragmentPricer(replace(cfg, window_miss_factor=1.0)).price(program.ops, decls, {})
    assert missed > 0
    assert compute - missed == pytest.approx(flat[1], rel=1e-12)
    assert flat[3] == 0


@pytest.mark.parametrize("rows", [1, 5])
def test_a_vectorized_max_costs_its_lanes_plus_their_combine(rows):
    # W divides the extent: compute / W, plus W - 1 max2 per output point
    width, n = 32, 4096
    cfg = perf.MachineConfig(window_miss_factor=1.0,
                             scalar_op_cycles={**perf.DEFAULT_OP_CYCLES, "max2": 2.5})
    g = GenericOp("m", (rows, n), ("x",), ("y",),
                  (AffineIndexMap.identity(2), AffineIndexMap((0,))),
                  ("parallel", "reduction"), (Payload.unary("exp", Payload.arg(0)),),
                  (Reduction.max(),))
    decls = (TensorDecl("x", (rows, n), role="input"), TensorDecl("y", (rows,), role="output"))
    scalar = KernelProgram("t", decls, (g,))
    vectorized = pipeline.apply_pass("vectorize", scalar, pipeline.PipelineOptions())
    (v,) = vectorized.ops
    assert ir.vector_width(v.annotations) == width
    compute = perf.simulate(scalar, cfg).compute_cycles
    assert compute == rows * n * (12.0 + 2.5)
    assert perf.simulate(vectorized, cfg).compute_cycles == (
        compute / width + rows * (width - 1) * 2.5)


# ceil(rows / W') groups of W' = 32 lanes (64 for f16); one f16 row is capped
# at the scalar charge, half a step
ROW_GROUPS = {"f32": {1: 1, 31: 1, 32: 1, 33: 2, 127: 4},
              "f16": {1: 0.5, 31: 1, 32: 1, 33: 1, 127: 2}}


@pytest.mark.parametrize("dtype", ["f32", "f16"])
@pytest.mark.parametrize("rows", [1, 31, 32, 33, 127])
def test_row_lanes_cost_one_step_per_group_of_rows(rows, dtype):
    # no lane combine: each lane folds its own row into its own output
    n = 513
    cfg = perf.MachineConfig(window_miss_factor=1.0)
    g = GenericOp("s", (rows, n), ("x",), ("y",),
                  (AffineIndexMap.identity(2), AffineIndexMap((0,))),
                  ("parallel", "reduction"), (Payload.unary("exp", Payload.arg(0)),),
                  (Reduction.sum(),))
    decls = (TensorDecl("x", (rows, n), dtype, role="input"),
             TensorDecl("y", (rows,), role="output"))
    scalar = KernelProgram("t", decls, (g,))
    lanes = pipeline.apply_pass("vectorize", scalar, pipeline.PipelineOptions())
    (v,) = lanes.ops
    assert ir.row_lanes(v.annotations) == 32
    per_point = 12.0 + 1.0  # exp, then one add into the row's sum
    compute = perf.simulate(lanes, cfg).compute_cycles
    assert compute == ROW_GROUPS[dtype][rows] * n * per_point
    assert compute <= perf.simulate(scalar, cfg).compute_cycles


def _strip_row_lanes(program):
    def fn(op):
        if isinstance(op, GenericOp) and ir.row_lanes(op.annotations):
            return (replace(op, annotations=frozenset(
                a for a in op.annotations if not a.startswith("row_lanes("))),)
        return None

    return program.with_ops(ir.map_ops(program.ops, fn))


def _row_lane_schedules():
    default = perf.MachineConfig()
    for kernel in ALL_KERNELS:
        for ladder, passes in perf.PASS_LADDERS.items():
            yield f"{kernel}/{ladder}", pipeline.build_staged(kernel_path(kernel), passes, None,
                                                              default)
    for seed in range(50):
        for threshold in (1, 32768):
            opts = pipeline.PipelineOptions(mt_threshold=threshold)
            program = oracles.gen_random_program(oracles.RandomProgramSpec(seed))
            for name in FULL_PASSES:
                program = pipeline.apply_pass(name, program, opts)
            yield f"random/{seed}/mt={threshold}", program


def test_removing_row_lanes_never_lowers_total_cycles():
    # guards the greedy context packing against list-scheduling anomalies:
    # a cheaper body must never make a schedule slower
    rose = 0
    for case, program in _row_lane_schedules():
        stripped = _strip_row_lanes(program)
        if stripped.ops == program.ops:
            continue
        for cfg in (perf.MachineConfig(), ODD_CONFIG):
            with_lanes = perf.simulate(program, cfg).total_cycles
            without = perf.simulate(stripped, cfg).total_cycles
            assert without >= with_lanes, case
            rose += without > with_lanes
    assert rose > 0


def _tcm_loop(domain, size, trips=8):
    i = IVar("i")
    decls = (TensorDecl("x", (64,), role="input"), TensorDecl("y", (64,), role="output"))
    body = (
        ExtractSliceOp("t", "x", (i,), (size,), "tcm"),
        AllocOp("o", (size,), "tcm"),
        GenericOp("g", (domain,), ("t",), ("o",), (AffineIndexMap.identity(1),) * 2,
                  ("parallel",), (Payload.binary("add", Payload.arg(0), Payload.const(1.0)),)),
        InsertSliceOp("o", "y", (i,), (size,)),
        DeallocOp("o"),
    )
    loop = ForOp("i", 0, trips, 1, body)
    return KernelProgram("t", decls, (loop,)), loop


@pytest.mark.parametrize("where", ["domain", "alloc"])
def test_distinct_keys_walk_every_iteration(monkeypatch, where):
    plus_one = IBin("add", IVar("i"), 1)
    program, loop = _tcm_loop(plus_one if where == "domain" else 4,
                              plus_one if where == "alloc" else 4)
    full = _full_walk(monkeypatch, program, ODD_CONFIG)
    walks = _count_body_walks(monkeypatch, loop.body)
    assert perf.simulate(program, ODD_CONFIG) == full
    assert walks[0] == 8


def test_constant_body_is_walked_once(monkeypatch):
    program, loop = _tcm_loop(4, 4)
    full = _full_walk(monkeypatch, program, ODD_CONFIG)
    walks = _count_body_walks(monkeypatch, loop.body)
    assert perf.simulate(program, ODD_CONFIG) == full
    assert walks[0] == 1


def _guarded_loop(pred, domain, lb=0, ub=8):
    """A loop whose body runs a generic over `domain` when `pred` holds."""
    work = GenericOp("g", (domain,), ("x",), ("y",), (AffineIndexMap.identity(1),) * 2,
                     ("parallel",), (Payload.binary("add", Payload.arg(0), Payload.arg(0)),))
    loop = ForOp("i", lb, ub, 1, (IfOp(pred, (work,)),))
    decls = (TensorDecl("x", (64,), role="input"), TensorDecl("y", (64,), role="output"))
    return KernelProgram("t", decls, (loop,)), loop


def test_zero_divisor_trip_is_walked_and_the_rest_replayed(monkeypatch):
    # 64 // (i - 3) divides by 0 at i = 3, where the guard keeps the walk off
    # it; dividing by 1 there instead would give trip 4's key
    i = IVar("i")
    off = IBin("sub", i, 3)
    guard = CmpPred("ne", IBin("mul", off, IBin("sub", i, 4)), 0)
    program, loop = _guarded_loop(guard, IBin("floordiv", 64, off), ub=12)
    full = _full_walk(monkeypatch, program, ODD_CONFIG)
    walks = _count_body_walks(monkeypatch, loop.body)
    assert perf.simulate(program, ODD_CONFIG) == full
    # distinct (domain, guard) keys over the other 11 trips, plus trip 3
    keys = {(64 // (k - 3), k not in (3, 4)) for k in range(12) if k != 3}
    assert walks[0] == len(keys) + 1


def test_atoms_past_two_to_the_62_keep_exact_keys(monkeypatch):
    # i * 2**62 wraps in int64 from i = 2 on, where the guard turns false
    i = IVar("i")
    program, loop = _guarded_loop(CmpPred("lt", IBin("mul", i, 1 << 62), 1 << 63), 4, ub=5)
    dtypes = []
    real = perf._LoopPlan._columns

    def spy(self, env, var, trips, dtype):
        dtypes.append(dtype)
        return real(self, env, var, trips, dtype)

    full = _full_walk(monkeypatch, program, ODD_CONFIG)
    monkeypatch.setattr(perf._LoopPlan, "_columns", spy)
    walks = _count_body_walks(monkeypatch, loop.body)
    assert perf.simulate(program, ODD_CONFIG) == full
    assert full.compute_cycles == pytest.approx(2 * 4 * 0.3)  # trips 0 and 1 only
    assert dtypes == [np.int64, object]
    assert walks[0] == 2


@pytest.mark.parametrize("block", [perf._BLOCK, 3])
def test_body_walks_equal_distinct_keys(monkeypatch, block):
    # min(4, 10 - i) takes 4 values; keys taken in blocks of 3 trips still
    # match across blocks
    monkeypatch.setattr(perf, "_BLOCK", block)
    i = IVar("i")
    program, loop = _tcm_loop(IBin("min", 4, IBin("sub", 10, i)), 4, trips=10)
    keys = {min(4, 10 - k) for k in range(10)}
    full = _full_walk(monkeypatch, program, ODD_CONFIG)
    walks = _count_body_walks(monkeypatch, loop.body)
    assert perf.simulate(program, ODD_CONFIG) == full
    assert walks[0] == len(keys)


@pytest.mark.parametrize("trips", [3, 4])
def test_short_loops_are_keyed_without_arrays(monkeypatch, trips):
    # min(4, 12 // (3 - i)) is 4 at trips 0-2, which replay one walk; the
    # divisor is 0 at trip 3, which gets no key and is walked, its guard false
    i = IVar("i")
    off = IBin("sub", 3, i)
    program, loop = _guarded_loop(CmpPred("ne", off, 0),
                                  IBin("min", 4, IBin("floordiv", 12, off)), ub=trips)
    full = _full_walk(monkeypatch, program, ODD_CONFIG)
    monkeypatch.setattr(perf._LoopPlan, "_columns", None)  # no numpy pass may run
    walks = _count_body_walks(monkeypatch, loop.body)
    assert perf.simulate(program, ODD_CONFIG) == full
    assert walks[0] == 1 + (trips == 4)


def test_spawn_loop_adding_to_outer_group_is_walked_in_full(monkeypatch):
    _, inner = _tcm_loop(4, 4)
    spawn = ForOp("th", 0, 4, 1, (AsyncExecuteOp("tok", (inner,)), AddToGroupOp("grp", "tok")))
    program = KernelProgram("t", (TensorDecl("x", (64,), role="input"),
                                  TensorDecl("y", (64,), role="output")),
                            (AsyncGroupOp("grp", 4), spawn, AwaitAllOp("grp")))
    full = _full_walk(monkeypatch, program, ODD_CONFIG)
    walks = _count_body_walks(monkeypatch, spawn.body)
    assert perf.simulate(program, ODD_CONFIG) == full
    assert walks[0] == 4


# -- machine configs -----------------------------------------------------------

def _fork_join_of_copies(threads, elems, tiles=1):
    """`threads` async bodies, each copying its own `elems` floats of %x to
    %y through TCM in a tile loop of `tiles` trips."""
    th = IVar("th")
    decls = (TensorDecl("x", (threads * elems,), role="input"),
             TensorDecl("y", (threads * elems,), role="output"))
    size = elems // tiles
    copy = (ExtractSliceOp("t", "x", (IVar("i"),), (size,), "tcm"),
            InsertSliceOp("t", "y", (IVar("i"),), (size,)))
    loop = ForOp("i", IBin("mul", th, elems), IBin("mul", IBin("add", th, 1), elems), size, copy,
                 annotations=frozenset({"tiled_generic", "all_parallel"}))
    spawn = ForOp("th", 0, threads, 1,
                  (AsyncExecuteOp("tok", (loop,)), AddToGroupOp("grp", "tok")),
                  annotations=frozenset({"async_threads"}))
    return KernelProgram("t", decls, (AsyncGroupOp("grp", threads), spawn, AwaitAllOp("grp")))


@pytest.mark.parametrize("cfg", [perf.MachineConfig(), ODD_CONFIG], ids=["default", "odd"])
def test_contexts_share_one_dma_engine(cfg):
    # four bodies that each move B bytes (in and out) take at least 4B / bandwidth
    elems = 16384
    moved = 2 * elems * 4
    rep = perf.simulate(_fork_join_of_copies(4, elems), cfg)
    engine = 4 * moved / cfg.dma_bandwidth_bytes_per_cycle
    assert rep.total_cycles == 4 * cfg.thread_spawn_cycles + engine + cfg.barrier_cycles
    # one body alone is bound by its context, latency included
    one = perf.simulate(_fork_join_of_copies(1, elems), cfg)
    assert one.total_cycles == (cfg.thread_spawn_cycles + 2 * perf._Sim(None, cfg).transfer_cost(
        moved / 2) + cfg.barrier_cycles)
    # a double-buffered tile loop in each body shares the engine the same way:
    # its prologue, prefetches and stores all count
    piped = perf.simulate(double_buffer_loops(_fork_join_of_copies(4, elems, tiles=8)), cfg)
    assert piped.total_cycles >= engine + 4 * cfg.thread_spawn_cycles + cfg.barrier_cycles


def test_default_config_round_trips_through_text():
    cfg = perf.MachineConfig()
    assert perf.MachineConfig.from_text(cfg.to_text()) == cfg
    assert perf.MachineConfig.from_text((ROOT / "configs" / "default.machine").read_text()) == cfg


def test_low_bandwidth_machine_is_the_default_at_8_bytes_per_cycle():
    lowbw = perf.MachineConfig.from_text((ROOT / "configs" / "lowbw.machine").read_text())
    assert lowbw == replace(perf.MachineConfig(), dma_bandwidth_bytes_per_cycle=8)


BAD_LINES = [
    "op_cost = 1", "to_text = 2", "scalar_op_cycles = 3", "op. = 1", "nonsense = 1",
    "no equals sign", "num_hvx_contexts = 2.5", "dma_latency_cycles = fast",
    "op.add = nan", "op.exp = inf", "op.mul = -1",
    "window_miss_factor = nan", "dma_latency_cycles = inf", "barrier_cycles = -1",
    "dma_bandwidth_bytes_per_cycle = 0", "num_hvx_contexts = 0", "window_miss_factor = 0.5",
    "tcm_bytes = 0",
]


@pytest.mark.parametrize("line", BAD_LINES)
def test_bad_config_line_is_rejected(line):
    with pytest.raises(perf.MachineConfigError):
        perf.MachineConfig.from_text(line + "\n")


def test_bench_with_bad_machine_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.machine"
    bad.write_text("window_miss_factor = nan\n")
    argv = ["bench", "--sweep", "passes", "--kernels", kernel_path("gelu"), "--machine", str(bad)]
    assert cli.main(argv) == cli.EXIT_PARSE
    assert "window_miss_factor = nan" in capsys.readouterr().err

if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_perf.py --write")
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
    print(f"wrote {GOLDEN}")
