"""mt asks the cost model how each tiled generic runs: whole, as strips on
one context, or forked across the contexts.

At every decision the chosen form's fragment cycles are at most every
rejected form's, and end to end the model's schedule is never slower than
the fixed point-count rule it replaced (`mt_threshold=32768`). A row-lanes
generic of which fewer than W rows fit the window runs in strips of fewer
rows, bit for bit.
"""

import numpy as np
import pytest

from tcmc import ir, oracles, perf, pipeline
from tcmc.interp import interpret
from tcmc.ir import ForallOp, ForOp, GenericOp
from tcmc.passes import threading as mt
from tcmc.passes.common import const_upper

from conftest import ALL_KERNELS, DEFAULT_PASSES, VERIFY_DIMS, bitexact, kernel_path
from test_fuzz import FUZZ_SEEDS
from test_perf import ODD_CONFIG, ROW_DOT, _lowered
from test_thread_strips import tie_inputs

MACHINES = {"default": perf.MachineConfig(), "odd": ODD_CONFIG}
FIXED = 32768  # the point-count rule the model replaced, kept as the override


def _programs():
    """(case id, lowered program, tile sizes) for every kernel at default and
    verify dims, gelu at a tile that hoists, the row dot, and the fuzz seeds."""
    for kernel in ALL_KERNELS:
        for label, dims in (("default", None), ("verify", VERIFY_DIMS[kernel])):
            yield f"{kernel}/{label}", _lowered(kernel_path(kernel), dims), None
    yield "gelu/tile=65536", _lowered(kernel_path("gelu"), None), (65536,)
    yield "rowdot", _lowered(ROW_DOT, {"R": 127, "C": 513}), None
    for seed in FUZZ_SEEDS:
        yield (f"random/{seed}", oracles.gen_random_program(oracles.RandomProgramSpec(seed)),
               None)


def _compile(program, passes, opts):
    for name in passes:
        program = pipeline.apply_pass(name, program, opts)
    return program


@pytest.mark.parametrize("machine", MACHINES)
def test_every_decision_keeps_the_cheapest_form(monkeypatch, machine):
    decisions = []
    real = mt._Threader.form

    def spy(self, g, env, hoisted):
        form = real(self, g, env, hoisted)
        decisions.append((self, g, env, hoisted, form))
        return form

    monkeypatch.setattr(mt._Threader, "form", spy)
    for _, program, tiles in _programs():
        opts = pipeline.PipelineOptions(tile_sizes=tiles, machine=MACHINES[machine])
        _compile(program, ("fuse", "tile", "vectorize", "mt"), opts)
    kinds = set()
    for threader, g, env, hoisted, form in decisions:
        n = const_upper(g.domain[0])
        if not g.iterators or g.iterators[0] != "parallel" or n is None:
            assert form == mt.WHOLE
            continue
        forms = [mt.WHOLE] + [("strips", s) for s in threader.strips(g, n) if s]
        if not hoisted:
            forms += [("fork", s) for s in threader.strips(g, threader.part(g))]
        info = threader.info
        buffers = {name: (info.shapes[name], info.spaces[name], name in info.narrow)
                   for name in g.inputs + g.outputs}
        costs = {f: threader.cost(g, f, buffers, env) for f in forms}
        assert form in costs, (g.name, form)
        assert costs[form] == min(costs.values()), (g.name, costs, form)
        kinds.add((form[0], hoisted))
    assert kinds >= {("whole", False), ("strips", False), ("fork", False), ("strips", True)}


@pytest.mark.parametrize("machine", MACHINES)
def test_the_model_is_never_slower_than_the_fixed_rule(machine):
    cfg = MACHINES[machine]
    lowered = 0
    for case, program, tiles in _programs():
        got, fixed = (perf.simulate(_compile(program, DEFAULT_PASSES, pipeline.PipelineOptions(
                                        tile_sizes=tiles, mt_threshold=t, machine=cfg)),
                                    cfg).total_cycles
                      for t in (None, FIXED))
        assert got <= fixed, case
        lowered += got < fixed
    assert lowered


def test_a_row_dot_runs_in_strips_of_16_rows_on_one_context():
    # 4,108 bytes a row: 16 rows fit the window and W = 32 do not. Sixteen-row
    # strips take 8 lane groups for 127 rows where the whole tile takes 4,
    # but none pays the miss factor 3: 8,208 compute cycles against 12,312
    # whole and 8,500 + 3,078 forked in parts of 32 rows
    program = _lowered(ROW_DOT, {"R": 127, "C": 513})
    inputs = tie_inputs(program)
    opts = pipeline.PipelineOptions()
    with np.errstate(invalid="ignore"):  # ties make NaNs on purpose
        want = interpret(program, inputs)
        staged = program
        for name in DEFAULT_PASSES:
            staged = pipeline.apply_pass(name, staged, opts)
            assert ir.verify(staged, tcm_bytes=opts.machine.tcm_bytes).ok, name
            assert bitexact(interpret(staged, inputs), want), name
            if name == "mt":
                (strips,) = [op for op, _ in ir.walk_ops(staged.ops)
                             if isinstance(op, ForOp) and op.var.startswith("s")]
                assert strips.step == 16
                assert not any(isinstance(op, ForallOp) for op, _ in ir.walk_ops(staged.ops))
    fixed = _compile(program, DEFAULT_PASSES, pipeline.PipelineOptions(mt_threshold=FIXED))
    got, was = (perf.simulate(p, opts.machine) for p in (staged, fixed))
    assert (got.total_cycles, got.compute_cycles) == (9167.875, 8208.0)
    assert (was.total_cycles, was.overhead_cycles) == (12097.9375, 8500.0)


def test_vecadd2d_runs_unforked_and_below_vec():
    # the fork's 8,500 cycles of spawns and barrier bought back 4,064 of compute
    config = perf.MachineConfig()
    vec, threaded = (pipeline.build_staged(kernel_path("vecadd2d"), perf.PASS_LADDERS[ladder],
                                           None, config)
                     for ladder in ("vec", "vec_mt"))
    assert not any(isinstance(op, GenericOp) and "_th" in op.name
                   for op, _ in ir.walk_ops(threaded.ops))
    got = perf.simulate(threaded, config)
    assert got.total_cycles == 15910.8125 < perf.simulate(vec, config).total_cycles
    assert got.overhead_cycles == 0
