"""The `--mt-threshold` override forks once around a default tile loop of
two trips or more: where the loop does not hoist at its own step, mt hoists
it at the first step the cost model would re-tile it to
(`_Threader.retile_steps`). A one-trip loop and a loop of explicit tiles
keep the point-count rule's schedule. Every new schedule is bit-exact
through every pass prefix. Each case that the hoist raises, on
`configs/lowbw.machine` or the default machine, ends on or above its floor
of bytes moved / DMA bandwidth, where the per-trip form it replaces was
priced below that floor.
"""

import pytest

from tcmc import cli, ir, perf, pipeline
from tcmc.ir import AsyncGroupOp, ForOp
from tcmc.passes.threading import _Threader

from conftest import DEFAULT_PASSES, kernel_path
from test_hoisted_tiles import GRID_TILES, UP_TO_MT, hoisted_loops, staged
from test_thread_forms import LOWBW

DISTS = {"block": ("block", 1), "cyclic:1024": ("block_cyclic", 1024),
         "cyclic:7": ("block_cyclic", 7)}


def _without_retiling(monkeypatch):
    """Withhold the re-tiled steps from the override: the rule it kept
    before it hoisted a loop at one."""
    monkeypatch.setattr(_Threader, "retile_steps", lambda self, loop: [])


@pytest.mark.parametrize("kernel,cycles", [
    ("gelu", 190772), ("silu", 174388), ("expseries", 502068)])
def test_the_override_forks_once_around_a_retiled_default_loop(kernel, cycles):
    # four default tiles of 262,144 points forked per trip: 265,424 cycles
    # for gelu, 249,040 for silu and 576,720 for expseries
    program = staged(kernel, None, DEFAULT_PASSES, mt_threshold=1)
    assert ir.count_ops(program, lambda op: isinstance(op, AsyncGroupOp)) == 1
    ((_, loop),) = hoisted_loops(staged(kernel, None, UP_TO_MT, mt_threshold=1))
    (tiled,) = [op for op in staged(kernel, None, ("fuse", "tile")).ops if isinstance(op, ForOp)]
    assert (tiled.step, loop.step) == (262144, 65536)
    assert perf.simulate(program, perf.MachineConfig()).total_cycles == cycles


def test_the_override_forks_gelu_once_from_the_command_line(capsys):
    argv = ["compile", kernel_path("gelu"), "--mt-threshold", "1", "--emit-final"]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.count("async_group") == 1


# a one-trip default loop, and every explicit grid tile under both dists
KEPT_CASES = {
    "gelu-131072-default": ("gelu", {"N": 131072}, None),
    **{f"{k}-{'x'.join(map(str, t))}": (k, None, t) for k, ts in GRID_TILES.items() for t in ts},
}


@pytest.mark.parametrize("threshold", [1, 32768])
@pytest.mark.parametrize("dist", ["block", "cyclic:1024"])
@pytest.mark.parametrize("case", KEPT_CASES)
def test_one_trip_and_explicit_tile_loops_keep_the_override_schedule(case, dist, threshold,
                                                                     monkeypatch):
    kernel, dims, tiles = KEPT_CASES[case]
    kind, chunk = DISTS[dist]
    options = dict(tile_sizes=tiles, mt_threshold=threshold, dist_kind=kind, dist_chunk=chunk)
    passes = DEFAULT_PASSES[:DEFAULT_PASSES.index("async") + 1]
    got = ir.print_ir(staged(kernel, dims, passes, **options))
    _without_retiling(monkeypatch)
    assert got == ir.print_ir(staged(kernel, dims, passes, **options))


@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("n", [524288, 1048576, 100003])
@pytest.mark.parametrize("kernel", ["gelu", "softmax"])
def test_override_schedules_are_bitexact_through_every_pass_prefix(kernel, n, dist):
    kind, chunk = DISTS[dist]
    opts = pipeline.PipelineOptions(mt_threshold=1, dist_kind=kind, dist_chunk=chunk)
    result = pipeline.run_pipeline(kernel_path(kernel), pipeline.PipelineSpec(
        DEFAULT_PASSES, opts, "bitexact"), dims={"N": n})
    assert all(st.compare.ok for st in result.stages[1:])  # run_pipeline raises first
    mt = next(st.program for st in result.stages if st.name == "mt")
    # gelu's default loop, and softmax's exp and divide loops, have two or
    # four trips here but one at 100,003 points: only those loops hoist
    assert bool(hoisted_loops(mt)) == (n != 100003)


def _cycles_and_floor(kernel, dims, machine, options):
    """The final IR's cycles on `machine` and its floor of bytes moved / bandwidth."""
    program = staged(kernel, dims, DEFAULT_PASSES, machine=machine, **options)
    decls = {d.name: (d.shape, d.space, d.dtype == "f16") for d in program.decls}
    moved = perf.FragmentPricer(machine).price(program.ops, decls, {})[2]
    return (perf.simulate(program, machine).total_cycles,
            moved / machine.dma_bandwidth_bytes_per_cycle)


# the cases of the six kernels at SIZE_SWEEP, 100003 points and their bench
# and verify dims whose override cycles rose; vecadd2d at 64 x 16384 rose on
# the default machine too, under block only
RISES = {
    **{f"{k}-{n}-lowbw": (k, {"N": n}, LOWBW)
       for k in ("gelu", "silu", "expseries") for n in (524288, 1048576)},
    "vecadd2d-64x16384-lowbw": ("vecadd2d", {"R": 64, "C": 16384}, LOWBW),
    "vecadd2d-64x16384-default": ("vecadd2d", {"R": 64, "C": 16384}, perf.MachineConfig()),
}


@pytest.mark.parametrize("case", RISES)
def test_each_rise_replaces_a_price_below_the_dma_floor(case, monkeypatch):
    kernel, dims, machine = RISES[case]
    cases = [dict(mt_threshold=t, dist_kind=kind, dist_chunk=chunk)
             for t in (1, 1024, 32768) for kind, chunk in DISTS.values()]
    got = [_cycles_and_floor(kernel, dims, machine, options) for options in cases]
    _without_retiling(monkeypatch)
    before = [_cycles_and_floor(kernel, dims, machine, options) for options in cases]
    raised = 0
    for options, (cycles, floor), (was, was_floor) in zip(cases, got, before):
        assert floor == was_floor, options  # a hoist moves the same bytes
        if cycles > was:
            raised += 1
            assert was < floor <= cycles, options
    assert raised
