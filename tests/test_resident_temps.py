"""`tile` keeps each temp that fits resident in TCM.

Every final schedule fits `tcm_bytes` with its resident temps; no DMA and
no staged slice reads a resident temp; softmax and rmsnorm stay bit-exact
through every pass prefix with their temps resident and without; a hoisted
tile loop that would crowd the resident temps stays per trip; db's slots
hold only the tile a loop can take; a one-point generic over resident
temps is left whole; and past `tile`, only db allocates: vectorize and mt
split through views.
"""

from dataclasses import replace

import pytest

from tcmc import ir, oracles, perf, pipeline
from tcmc.ir import AllocOp, DmaStartOp, ExtractSliceOp, ForallOp, ForOp, GenericOp
from tcmc.passes import tiling
from tcmc.passes.threading import _Threader

from conftest import (
    ALL_KERNELS, BENCH_DIMS, DEFAULT_PASSES, VERIFY_DIMS, kernel_inputs, kernel_path, lower,
)
from test_fuzz import FUZZ_SEEDS
from test_perf import ODD_CONFIG

# softmax's %t2 (4 MiB at default dims) stays in DDR here. Resident, beside
# %t0's 4 bytes, it would leave 1 MiB - 4 bytes, and the exp loop needs 1 MiB:
# its 512 KiB input tile in db's two slots, its output then a view of %t2
SMALL_TCM = replace(perf.MachineConfig(), tcm_bytes=5 * 2**20)
MACHINES = {"default": perf.MachineConfig(), "odd": ODD_CONFIG, "small-tcm": SMALL_TCM}

# perfbench's schedule_grid tiles, on the kernels that take them
GRID_TILES = {
    "gelu": ((4096,), (16384,), (65536,)),
    "silu": ((4096,), (16384,), (65536,)),
    "expseries": ((4096,), (16384,), (65536,)),
    "rmsnorm": ((1, 0), (4, 0), (16, 0)),
    "vecadd2d": ((1, 0), (4, 0), (16, 0)),
}
GRID_OPTIONS = [dict(mt_threshold=mt, dist_kind=kind, dist_chunk=chunk)
                for mt in (1, None) for kind, chunk in (("block", 1), ("block_cyclic", 1024))]

ONE_POINT = """\
kernel onepoint(x: f32[N], y: f32[N]) {
    xv = load(x)
    s = sum(xv, axis=0)
    t = s * 2.0
    store(y, xv * t)
}
"""

# `e` (2 MiB at 1024x512) is read by the row sum and by the divide
ROW_EXP = """\
kernel rowexp(x: f32[R, C], y: f32[R, C]) {
    e = exp(load(x))
    s = sum(e, axis=1)
    store(y, e / s)
}
"""


def _compile(program, options, passes=DEFAULT_PASSES):
    for name in passes:
        program = pipeline.apply_pass(name, program, options)
    return program


def _cases(group):
    """(case id, lowered program, pipeline options but the machine)."""
    if group == "kernels":
        for kernel in ALL_KERNELS:
            for label, dims in (("default", None), ("verify", VERIFY_DIMS[kernel]),
                                ("bench", BENCH_DIMS[kernel])):
                bound = pipeline.resolve_kernel(kernel_path(kernel), dims)[1]
                yield f"{kernel}/{label}", lower(kernel, bound), {}
    elif group == "grid":
        for kernel, tiles in GRID_TILES.items():
            program = lower(kernel, pipeline.resolve_kernel(kernel_path(kernel))[1])
            for tile in tiles:
                for options in GRID_OPTIONS:
                    yield f"{kernel}/tile={tile}/{options}", program, dict(tile_sizes=tile,
                                                                           **options)
    else:
        for seed in FUZZ_SEEDS:
            yield (f"random/{seed}",
                   oracles.gen_random_program(oracles.RandomProgramSpec(seed)), {})


def _faults(program, machine):
    """What is wrong with a final schedule: a TCM overflow, or a DMA or
    staged slice that reads a resident temp."""
    report = ir.verify(program, tcm_bytes=machine.tcm_bytes)
    faults = [] if report.ok else [str(report)]
    resident = {d.name for d in program.decls if d.space == "tcm"}
    for op, where in ir.walk_ops(program.ops):
        staged = isinstance(op, ExtractSliceOp) and op.space == "tcm"
        if (staged or isinstance(op, DmaStartOp)) and op.source in resident:
            faults.append(f"{where} reads resident %{op.source}")
    return faults


@pytest.mark.parametrize("group", ["kernels", "grid", "fuzz"])
@pytest.mark.parametrize("machine", MACHINES)
def test_every_final_schedule_fits_the_tcm_and_never_stages_a_resident_temp(machine, group):
    cfg = MACHINES[machine]
    faults = []
    for case, program, options in _cases(group):
        final = _compile(program, pipeline.PipelineOptions(machine=cfg, **options))
        faults += [f"{case}: {f}" for f in _faults(final, cfg)]
    assert not faults, faults[:5]


@pytest.mark.parametrize("group", ["kernels", "grid", "fuzz"])
def test_only_tile_and_db_allocate(group):
    # vectorize and mt split through views: every alloc after `tile` is one
    # of its tile outputs or accumulators, or a db buffer or tag
    faults = []
    for case, program, options in _cases(group):
        opts = pipeline.PipelineOptions(**options)
        tiled = set()
        for name in DEFAULT_PASSES:
            program = pipeline.apply_pass(name, program, opts)
            ops = [op for op, _ in ir.walk_ops(program.ops)]
            allocs = {op.result for op in ops if isinstance(op, AllocOp)}
            db = {op.dest for op in ops if isinstance(op, DmaStartOp)} | {
                op.result for op in ops if isinstance(op, AllocOp) and "dma_tag" in op.annotations}
            if name == "tile":
                tiled = allocs
            faults += [f"{case}: {name} allocates %{a}" for a in sorted(allocs - tiled - db)]
    assert not faults, faults[:5]


@pytest.mark.parametrize("machine, resident", [("default", True), ("small-tcm", False)])
def test_softmax_keeps_t2_in_tcm_only_where_it_fits(machine, resident):
    tiled = pipeline.build_staged(kernel_path("softmax"), ("fuse", "tile"), None,
                                  MACHINES[machine])
    spaces = {d.name: d.space for d in tiled.decls if d.role == "temp"}
    assert spaces == {"t0": "tcm", "t2": "tcm" if resident else "ddr", "t3": "tcm"}
    slices = [op for op, _ in ir.walk_ops(tiled.ops)
              if isinstance(op, ExtractSliceOp) and op.source == "t2"]
    # the sum's tile and the divide's; resident, the exp's output tile too
    assert len(slices) == (3 if resident else 2)
    assert all(op.space == (None if resident else "tcm") for op in slices)


@pytest.mark.parametrize("resident", [True, False], ids=["resident", "in-ddr"])
@pytest.mark.parametrize("kernel", ["softmax", "rmsnorm"])
def test_bit_exact_through_every_prefix(kernel, resident, monkeypatch):
    if not resident:
        monkeypatch.setattr(tiling, "_resident_temps", lambda program, tiled, tcm_bytes: program)
    dims = VERIFY_DIMS[kernel]
    inputs = kernel_inputs(lower(kernel, dims), kernel)
    spec = pipeline.PipelineSpec(DEFAULT_PASSES, pipeline.PipelineOptions(), "bitexact")
    # every stage is compared bit for bit with the unpassed program
    result = pipeline.run_pipeline(kernel_path(kernel), spec, inputs=inputs, dims=dims)
    assert all(st.compare.ok for st in result.stages[1:])
    temps = [d for d in result.final.decls if d.role == "temp"]
    assert temps and all(d.space == ("tcm" if resident else "ddr") for d in temps)


def test_views_of_resident_temps_follow_the_staged_tiles():
    # db prefetches only the leading run of staged slices: rmsnorm's %g
    # stays double-buffered beside the view of its resident %t2
    final = pipeline.build_staged(kernel_path("rmsnorm"), DEFAULT_PASSES, None,
                                  perf.MachineConfig())
    dmas = {op.source for op, _ in ir.walk_ops(final.ops) if isinstance(op, DmaStartOp)}
    assert dmas == {"x", "g"}
    tiled = pipeline.build_staged(kernel_path("rmsnorm"), ("fuse", "tile"), None,
                                  perf.MachineConfig())
    # one loop runs the row sum, the sqrt and the normalize: its staged
    # tiles lead, and the views of the resident %t0 and %t2 follow them
    (loop,) = tiled.ops
    slices = [(op.source, op.space) for op in loop.body if isinstance(op, ExtractSliceOp)]
    assert slices == [("x", "tcm"), ("g", "tcm"), ("t0", None), ("t2", None)]


def _row_exp(tcm_bytes, passes=DEFAULT_PASSES):
    opts = pipeline.PipelineOptions(machine=replace(perf.MachineConfig(), tcm_bytes=tcm_bytes),
                                    tile_sizes=(16, 0), mt_threshold=1)
    return pipeline.run_pipeline(ROW_EXP, pipeline.PipelineSpec(passes, opts, "off"),
                                 dims={"R": 1024, "C": 512}).final


def test_a_hoist_that_would_crowd_the_resident_temps_stays_per_trip():
    up_to_mt = DEFAULT_PASSES[:DEFAULT_PASSES.index("mt") + 1]
    # 2.25 MiB holds the 2 MiB `e` beside one context's tiles of the exp
    # loop, not four, so that loop stays per trip, and `tile` does not merge
    # it into the others, which would cost them their fork
    crowded = _row_exp(9 * 2**18, up_to_mt)
    assert [type(op) for op in crowded.ops] == [ForOp, ForallOp]
    # the row sum and the divide read `e` as views: merged, they still fork once
    assert not any(isinstance(op, ExtractSliceOp) and op.space == "tcm" and op.source == "t0"
                   for op, _ in ir.walk_ops(crowded.ops[1:]))
    # with room, one loop runs all three and forks once
    roomy = _row_exp(2**23, up_to_mt)
    assert [type(op) for op in roomy.ops] == [ForallOp]
    for program in (crowded, roomy):
        assert {d.name: d.space for d in program.decls if d.role == "temp"} == {
            "t0": "tcm", "t1": "tcm"}
    # run_pipeline verifies every stage against the TCM, db's slots included
    _row_exp(9 * 2**18)


def test_db_slots_hold_the_tile_the_loop_can_take():
    # 8-row tiles of a 5-row `x`: a slot holds 5 rows, where 8-row slots
    # took 2,112 bytes and the schedule peaked at 2,792 bytes of a 2,048-byte
    # TCM; and the loop has one trip, so db gives the tile one slot of 660
    # bytes beside the resident temps, not two
    opts = pipeline.PipelineOptions(machine=replace(perf.MachineConfig(), tcm_bytes=2048),
                                    tile_sizes=(8, 0))
    spec = pipeline.PipelineSpec(DEFAULT_PASSES, opts, "bitexact")
    result = pipeline.run_pipeline(ROW_EXP, spec, dims={"R": 5, "C": 33})
    assert "%buf0 = alloc f32[5, 33] @tcm" in ir.print_ir(result.final)
    assert ir.verify(result.final, tcm_bytes=2048).ok


def test_without_the_fit_check_the_crowded_hoist_overflows_the_tcm(monkeypatch):
    monkeypatch.setattr(_Threader, "fits", lambda self, hoisted: True)
    with pytest.raises(pipeline.PassError, match="tcm budget"):
        _row_exp(9 * 2**18)


def _one_point(monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setattr(tiling, "_one_point_in_tcm", lambda op, program: False)
    spec = pipeline.PipelineSpec(DEFAULT_PASSES, pipeline.PipelineOptions(), "bitexact")
    return pipeline.run_pipeline(ONE_POINT, spec, dims={"N": 64})


def test_a_one_point_generic_over_resident_temps_is_left_untiled(monkeypatch):
    result = _one_point()  # bit-exact through every prefix, or it raises
    tiled = next(st.program for st in result.stages if st.name == "tile")
    (t,) = [op for op in tiled.ops if isinstance(op, GenericOp) and op.outputs == ("t1",)]
    assert t.domain == (1,)
    loops = [op for op in result.final.ops if isinstance(op, ForOp)]
    assert all(not any(isinstance(g, GenericOp) and g.name.startswith(t.name)
                       for g, _ in ir.walk_ops(loop.body)) for loop in loops)
    # below one vector, vectorize marks it an epilogue in place: no split, no view
    (epi,) = [op for op in result.final.ops
              if isinstance(op, GenericOp) and op.name.startswith(t.name)]
    assert epi.name == f"{t.name}_epi" and "vec_epilogue" in epi.annotations
    assert (epi.inputs, epi.outputs) == (t.inputs, t.outputs)
    assert len(ir.print_ir(result.final).splitlines()) == 30
    cfg = perf.MachineConfig()
    untiled = perf.simulate(result.final, cfg).total_cycles
    assert untiled <= perf.simulate(_one_point(monkeypatch).final, cfg).total_cycles
