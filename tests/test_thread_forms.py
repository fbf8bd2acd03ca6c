"""mt asks the cost model how each tiled generic runs: whole, as strips on
one context, or forked across the contexts; and how each top-level tile
loop runs: per trip, or forked once at its own step or a re-tiled one.

At every decision the chosen form's fragment cycles are at most every
rejected form's, and at every loop-level decision the kept candidate is
priced no higher than the rejected ones, both before db and after (each
priced afresh, with nothing pruned). End to end the model's schedule is
never slower than the fixed point-count rule it replaced
(`mt_threshold=32768`), nor than the loop-level rule it replaced, under
the machine it was compiled for. A row-lanes generic of which fewer than
W rows fit the window runs in strips of fewer rows, bit for bit. `perf`
prices a forall as the fork-join `async` lowers it to, so mt prices its
forms as it builds them and `async` changes no cycle.
"""


import numpy as np
import pytest

from tcmc import ir, oracles, perf, pipeline
from tcmc.interp import interpret
from tcmc.ir import ForallOp, ForOp, GenericOp
from tcmc.passes import threading as mt
from tcmc.passes.common import const_upper

from conftest import ALL_KERNELS, DEFAULT_PASSES, ROOT, VERIFY_DIMS, bitexact, kernel_path
from test_fuzz import FUZZ_SEEDS
from test_perf import ODD_CONFIG, ROW_DOT, _lowered
from test_thread_strips import tie_inputs

LOWBW = perf.MachineConfig.from_text((ROOT / "configs" / "lowbw.machine").read_text())
MACHINES = {"default": perf.MachineConfig(), "odd": ODD_CONFIG}
LOOP_MACHINES = {**MACHINES, "lowbw": LOWBW}
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


def _fresh_cost(threader, g, form, env):
    """The cycles of `g` in `form`, built and walked afresh, outside the
    pass's cost cache."""
    info = threader.info
    buffers = {name: (info.shapes[name], info.spaces[name], name in info.narrow)
               for name in g.inputs + g.outputs}
    with threader.scratch():
        ops = threader.build(g, form)
    return perf.FragmentPricer(threader.machine).price(ops, buffers, env)[0]


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
        costs = {f: _fresh_cost(threader, g, f, env) for f in forms}
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


@pytest.mark.parametrize("machine", LOOP_MACHINES)
def test_async_changes_no_cycle(machine):
    # perf prices a forall as the fork-join async lowers it to: a spawn per
    # thread, the bodies packed onto the contexts and the barrier
    cfg = LOOP_MACHINES[machine]
    forked = 0
    for case, program, tiles in _programs():
        opts = pipeline.PipelineOptions(tile_sizes=tiles, machine=cfg)
        staged = _compile(program, ("fuse", "tile", "vectorize", "mt"), opts)
        lowered = pipeline.apply_pass("async", staged, opts)
        assert perf.simulate(lowered, cfg) == perf.simulate(staged, cfg), case
        forked += any(isinstance(op, ForallOp) for op, _ in ir.walk_ops(staged.ops))
    assert forked


def _loop_prices(threader, loop, env):
    """Each loop-level form of `loop` mapped to its (cycles after db, cycles
    before db), priced afresh and none pruned: "per-trip", and each hoist
    by its step."""
    threader.pricer = perf.FragmentPricer(threader.machine)
    mark = threader.names.mark()
    forms = {"per-trip": (threader.per_trip(loop, env),)}
    own = threader.qualifies(loop) and threader.fits(loop)
    for step in [loop.step] * own + threader.retile_steps(loop):
        candidate = loop if step == loop.step else mt._retiled(loop, step)
        forms[step] = threader.hoisted(candidate, env)
    threader.names.reset(mark)
    return {key: tuple(threader.price(ops, env, piped)[0]
                       for piped in (True, False))
            for key, ops in forms.items()}


def _spy_loop_decisions(monkeypatch) -> list:
    """The list each loop-level decision of `mt` is appended to, as
    (threader, loop, env, kept form)."""
    decisions = []
    real = mt._Threader.cheapest

    def spy(self, loop, env):
        kept = real(self, loop, env)
        decisions.append((self, loop, env, kept))
        return kept

    monkeypatch.setattr(mt._Threader, "cheapest", spy)
    return decisions


def _check_loop_decisions(decisions) -> list[str]:
    """Assert that each decision kept the cheapest candidate, and return the
    kind each kept: "per-trip", "own" or "re-tiled"."""
    kinds = []
    for threader, loop, env, kept in decisions:
        prices = _loop_prices(threader, loop, env)
        base = prices.pop("per-trip")
        # a hoist is kept only below the per-trip form both after db and before
        wins = {step: p for step, p in prices.items() if p[0] < base[0] and p[1] < base[1]}
        if isinstance(kept[0], ForOp):
            assert not wins, (loop.var, base, prices)
            kinds.append("per-trip")
            continue
        (inner,) = kept[0].body
        step = inner.step  # the tests' policy is block: a context's trips are contiguous
        assert step in wins, (loop.var, base, prices, step)
        assert wins[step][0] == min(p[0] for p in wins.values())
        kinds.append("own" if step == loop.step else "re-tiled")
    return kinds


@pytest.mark.parametrize("machine", LOOP_MACHINES)
def test_every_loop_decision_keeps_the_cheapest_candidate(monkeypatch, machine):
    decisions = _spy_loop_decisions(monkeypatch)
    for _, program, tiles in _programs():
        opts = pipeline.PipelineOptions(tile_sizes=tiles, machine=LOOP_MACHINES[machine])
        _compile(program, ("fuse", "tile", "vectorize", "mt"), opts)
    kinds = set(_check_loop_decisions(decisions))
    assert kinds >= {"per-trip", "own"}
    # on the two transfer-bound machines the contexts of a re-tiled loop wait
    # on the one DMA engine, and no re-tiled hoist is kept
    assert ("re-tiled" in kinds) == (machine == "default")


@pytest.mark.parametrize("machine,step", [("default", 4128), ("lowbw", 4096)])
def test_a_retiled_hoist_may_shed_the_window_miss_factor(monkeypatch, machine, step):
    # softmax's exp loop at N=16397 is one tile, and its vector part, whose
    # extent has no constant bound, runs whole and pays the window miss
    # factor; re-tiled at 4,096 or at the balanced 4,128 points, every tile
    # fits the window, so the hoist computes less than a 1/T share of the
    # per-trip form, and the floor that prunes hoists must allow for that
    decisions = _spy_loop_decisions(monkeypatch)
    program = _lowered(kernel_path("softmax"), {"N": 16397})
    opts = pipeline.PipelineOptions(machine=LOOP_MACHINES[machine])
    staged = _compile(program, ("fuse", "tile", "vectorize", "mt"), opts)
    assert _check_loop_decisions(decisions) == ["re-tiled", "per-trip"]  # exp, then divide
    (forall,) = [op for op in staged.ops if isinstance(op, ForallOp)]
    assert forall.body[0].step == step


@pytest.mark.parametrize("machine", LOOP_MACHINES)
def test_threads_priced_once_per_class_price_as_every_thread_walked(monkeypatch, machine):
    # mt walks once the contexts of a hoist whose tiles have the same extents
    # (`_context_extents`) and the threads of a fork with equal parts
    # (`fork_parts`); walked each, every such form costs the same
    real = perf.FragmentPricer.price
    checked = []

    def price(self, ops, buffers, env, thread_classes=None):
        got = real(self, ops, buffers, env, thread_classes)
        if thread_classes is not None:
            assert real(self, ops, buffers, env) == got, thread_classes
            checked.append(len(set(thread_classes)) < len(thread_classes))
        return got

    monkeypatch.setattr(perf.FragmentPricer, "price", price)
    for _, program, tiles in _programs():
        opts = pipeline.PipelineOptions(tile_sizes=tiles, machine=LOOP_MACHINES[machine])
        _compile(program, ("fuse", "tile", "vectorize", "mt"), opts)
    assert any(checked)  # some form had threads of one class


@pytest.mark.parametrize("after_db,before_db,hoists", [
    (90000, 90000, True), (90000, 110000, False), (110000, 90000, False),
    (100000, 90000, False), (90000, 100000, False)])
def test_a_hoist_is_kept_only_where_it_is_cheaper_before_db_and_after(
        monkeypatch, after_db, before_db, hoists):
    # the per-trip loop prices 100,000 both ways; ties go to it
    def price(self, ops, env, piped):
        if not isinstance(ops[0], ForallOp):
            return 100000.0, 0.0, 0.0, 0.0
        return float(after_db if piped else before_db), 0.0, 0.0, 0.0

    monkeypatch.setattr(mt._Threader, "price", price)
    program = _lowered(kernel_path("gelu"), VERIFY_DIMS["gelu"])
    staged = _compile(program, ("fuse", "tile", "vectorize", "mt"), pipeline.PipelineOptions())
    assert isinstance(staged.ops[0], ForallOp) == hoists


def _parent_rule(self, loop, env):
    """mt's loop-level rule before it priced loops: hoist at the loop's own
    step where it qualifies and one of its generics forks per trip."""
    if self.qualifies(loop) and self.forks(loop, env):
        hoisted = self.hoisted(loop, env)
        if hoisted:
            return hoisted
    return (self.per_trip(loop, env),)


@pytest.mark.parametrize("machine", LOOP_MACHINES)
def test_loop_forms_never_raise_a_total(monkeypatch, machine):
    cfg = LOOP_MACHINES[machine]
    lowered = 0
    for case, program, tiles in _programs():
        opts = pipeline.PipelineOptions(tile_sizes=tiles, machine=cfg)
        got = perf.simulate(_compile(program, DEFAULT_PASSES, opts), cfg).total_cycles
        with monkeypatch.context() as m:
            m.setattr(mt._Threader, "cheapest", _parent_rule)
            was = perf.simulate(_compile(program, DEFAULT_PASSES, opts), cfg).total_cycles
        assert got <= was, case
        lowered += got < was
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
