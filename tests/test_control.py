"""`ir.trips` and `ir.holds`: the one definition of loop trips and guards.

The interpreter, the cost model and both structural oracles run a schedule's
control flow through them, so a bad step is the same `ExecutionFault`, with
the same message, from every one of them.
"""

import pytest

from tcmc import interp, ir, oracles, perf
from tcmc.ir import (
    AddToGroupOp, AsyncExecuteOp, AsyncGroupOp, AwaitAllOp, CmpPred, ExecutionFault, ForallOp,
    ForOp, IfOp, InsertSliceOp, IVar, KernelProgram, TensorDecl,
)


def program(*ops):
    return KernelProgram("t", (TensorDecl("y", (8,), role="output"),), ops)


WALKERS = {
    "interp": lambda p: interp.interpret(p, {}),
    "perf": lambda p: perf.simulate(p, perf.MachineConfig()),
    "enumerate_tiles": oracles.enumerate_tiles,
    "thread_write_intervals": oracles.thread_write_intervals,
}

# the step %j is 0 on the first of 4 outer trips, enough for perf to key the outer loop
SYMBOLIC_STEP_0 = ForOp("j", 0, 4, 1, (ForOp("i", 0, 8, IVar("j"), ()),))

CONTROL_FAULTS = {
    "step 0": (ForOp("i", 0, 8, 0, ()), "for %i: step 0 < 1"),
    "step -1": (ForOp("i", 8, 0, -1, ()), "for %i: step -1 < 1"),
    "symbolic step 0": (SYMBOLIC_STEP_0, "for %i: step 0 < 1"),
}


@pytest.mark.parametrize("walker", WALKERS)
@pytest.mark.parametrize("case", CONTROL_FAULTS)
def test_every_walker_faults_alike(case, walker):
    op, message = CONTROL_FAULTS[case]
    with pytest.raises(ExecutionFault) as info:
        WALKERS[walker](program(op))
    assert str(info.value) == message


GROUP_FAULTS = {
    "unknown group at add_to_group": ((AsyncExecuteOp("tok", ()), AddToGroupOp("grp", "tok")),
                                      "add_to_group: unknown group %grp"),
    "token never issued": ((AsyncGroupOp("grp", 1), AddToGroupOp("grp", "tok"),
                            AwaitAllOp("grp")), "add_to_group: token %tok not issued"),
    "unknown group at await_all": ((AwaitAllOp("grp"),), "await_all on unknown group %grp"),
}


@pytest.mark.parametrize("walker", ["interp", "perf"])
@pytest.mark.parametrize("case", GROUP_FAULTS)
def test_interpreter_and_cost_model_fault_alike_on_groups(case, walker):
    ops, message = GROUP_FAULTS[case]
    with pytest.raises(ExecutionFault) as info:
        WALKERS[walker](program(*ops))
    assert str(info.value) == message


def test_interp_reexports_the_one_fault_type():
    assert interp.ExecutionFault is ir.ExecutionFault


def test_thread_writes_follow_guards():
    # only the first branch runs; a walker that entered every `if` saw both
    def threaded(offset):
        write = InsertSliceOp("y", "y", (ir.IBin("add", IVar("t"), offset),), (1,))
        return ForallOp("t", 2, (write,))

    p = program(IfOp(CmpPred("lt", 0, 1), (threaded(0),)),
                IfOp(CmpPred("ge", 0, 1), (threaded(4),)))
    assert oracles.thread_write_intervals(p) == {
        "t": [[[("y", (0,), (1,))], [("y", (1,), (1,))]]]}
