"""IR: index expressions, the verifier, the printer, golden IR digests.

`tests/golden/ir_digests.txt` holds one line per case: the case id and the
sha256 of `print_ir` after a pass (or of a `tcmc bench` CSV), so any change
to the IR a pass emits shows as a changed line. Regenerate it only for a
deliberate change to what a pass emits:

    PYTHONPATH=src python tests/test_ir.py --write
"""

import contextlib
import copy
import dataclasses
import hashlib
import io
import itertools
import pickle
import sys
import threading
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmc import cli, ir, numerics, oracles, perf, pipeline
from tcmc.interp import interpret
from tcmc.ir import (
    AffineIndexMap, AllocOp, AsyncExecuteOp, CmpPred, DeallocOp, ExtractSliceOp, ForallOp,
    ForOp, GenericOp, IBin, IfOp, IVar, KernelProgram, Payload, Reduction, TensorDecl,
    Violation, count_ops, eval_extent, extent_bounds, extent_divisible, ix_add, ix_min, ix_mul,
    ix_sub, print_extent, print_ir, verify,
)

from conftest import ALL_KERNELS, DEFAULT_PASSES, ROOT, kernel_inputs, kernel_path, lower


def elementwise(name="g0", domain=(8,), inputs=("x",), outputs=("y",), maps=None):
    rank = len(domain)
    maps = maps or tuple(AffineIndexMap.identity(rank) for _ in (*inputs, *outputs))
    return GenericOp(name, domain, inputs, outputs, maps,
                     ("parallel",) * rank, (Payload.arg(0),) * len(outputs))


def program(ops, decls=None):
    decls = decls or (TensorDecl("x", (8,), role="input"), TensorDecl("y", (8,), role="output"))
    return KernelProgram("t", tuple(decls), tuple(ops))


# -- extents -----------------------------------------------------------------

def test_extent_algebra_folds_constants():
    assert ix_add(2, 3) == 5
    assert ix_mul(4, ix_min(3, 5)) == 12
    assert ix_sub(IVar("i"), 0) == IVar("i")
    e = ix_min(32, ix_sub(100, IVar("i")))
    assert eval_extent(e, {"i": 96}) == 4
    assert eval_extent(e, {"i": 0}) == 32


def test_extent_bounds_interval():
    e = ix_min(32, ix_sub(100, IVar("i")))
    assert extent_bounds(e, {"i": (0, 99)}) == (1, 32)
    assert extent_bounds(e, {}) is None


def test_extent_divisibility():
    e = ix_min(262144, ix_sub(1048576, IVar("i")))
    assert extent_divisible(e, 32, frozenset({"i"}))
    assert not extent_divisible(ix_sub(100, IVar("i")), 32, frozenset({"i"}))
    assert extent_divisible(7, 1, frozenset())


def test_unbound_variable_raises():
    with pytest.raises(KeyError):
        eval_extent(IVar("nope"), {})


# -- extents: compiled forms against the plain recursive definitions ----------

# The recursive walkers IBin's cached closure, free-var set and bound memo
# replaced, kept verbatim as the oracle.

def old_eval(e, env):
    if isinstance(e, int):
        return e
    if isinstance(e, IVar):
        try:
            return env[e.name]
        except KeyError:
            raise KeyError(f"unbound index variable {e.name}") from None
    return ir._IBIN_FNS[e.op](old_eval(e.lhs, env), old_eval(e.rhs, env))


def old_vars(e):
    if isinstance(e, int):
        return set()
    if isinstance(e, IVar):
        return {e.name}
    return old_vars(e.lhs) | old_vars(e.rhs)


def old_bounds(e, ranges):
    if isinstance(e, int):
        return (e, e)
    if isinstance(e, IVar):
        return ranges.get(e.name)
    lb = old_bounds(e.lhs, ranges)
    rb = old_bounds(e.rhs, ranges)
    if lb is None or rb is None:
        return None
    if e.op == "add":
        return (lb[0] + rb[0], lb[1] + rb[1])
    if e.op == "sub":
        return (lb[0] - rb[1], lb[1] - rb[0])
    if e.op == "mul":
        c = [a * b for a in lb for b in rb]
        return (min(c), max(c))
    if e.op == "floordiv":
        if rb[0] <= 0:
            return None
        c = [a // b for a in lb for b in rb]
        return (min(c), max(c))
    if e.op == "min":
        return (min(lb[0], rb[0]), min(lb[1], rb[1]))
    return (max(lb[0], rb[0]), max(lb[1], rb[1]))


def rebuild(e):
    """A structurally equal tree made of fresh nodes (no caches filled)."""
    if isinstance(e, IBin):
        return IBin(e.op, rebuild(e.lhs), rebuild(e.rhs))
    return e


OPS = ("add", "sub", "mul", "floordiv", "min", "max")
VARS = ("i", "j", "k")
leaves = st.one_of(st.integers(-40, 40), st.sampled_from(VARS).map(IVar))


def nodes(sub):
    # floordiv only by positive constants, so evaluation never divides by zero
    return st.sampled_from(OPS).flatmap(lambda op: st.builds(
        IBin, st.just(op), sub, st.integers(1, 9) if op == "floordiv" else sub))


extents = st.recursive(leaves, nodes, max_leaves=12)
envs = st.fixed_dictionaries({v: st.integers(-50, 50) for v in VARS})
intervals = st.tuples(st.integers(-30, 30), st.integers(0, 20)).map(lambda t: (t[0], t[0] + t[1]))
# edits applied in turn to one ranges dict: set a var's range, or drop it
range_edits = st.lists(st.tuples(st.sampled_from(VARS), st.none() | intervals),
                       min_size=1, max_size=8)


@given(extents, st.lists(envs, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_compiled_eval_matches_recursive(e, env_list):
    for env in env_list:
        assert eval_extent(e, env) == old_eval(e, env)


@given(extents, envs, st.lists(st.tuples(st.sampled_from(VARS), st.integers(-50, 50)),
                              min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_value_memo_follows_changing_values(e, env, edits):
    # one index dict edited in place, one var at a time, as the interpreter's
    # loops do: a memo keyed on anything less than the value of every free
    # var goes stale
    assert eval_extent(e, env) == old_eval(e, env)
    for var, value in edits:
        env[var] = value
        assert eval_extent(e, env) == old_eval(e, env)


def test_value_memo_holds_under_concurrent_evaluation():
    # threads that share one node and walk the same index values in
    # different orders, switching often: a memo whose key and value could
    # be read from different writes would give some thread a stale value
    e = IBin("add", IBin("mul", IVar("i"), 3), IVar("j"))
    wrong = []

    def evaluate(k):
        for step in range(5000):
            i, j = step * (k + 1) % 16, step % 3
            if eval_extent(e, {"i": i, "j": j}) != 3 * i + j:
                wrong.append((i, j))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=evaluate, args=(k,)) for k in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not wrong


@given(extents)
@settings(max_examples=100, deadline=None)
def test_free_vars_match_recursive(e):
    assert ir._extent_vars(e) == old_vars(e)
    assert ir._extent_vars(e) == old_vars(e)  # cached the second time


@given(extents, st.fixed_dictionaries({v: intervals for v in VARS}), range_edits)
@settings(max_examples=100, deadline=None)
def test_bounds_memo_follows_changing_ranges(e, ranges, edits):
    # one dict edited in place, one var at a time, as the verifier does on
    # loop entry and exit: a memo keyed on anything less than the ranges of
    # every free var goes stale
    assert extent_bounds(e, ranges) == old_bounds(e, ranges)
    for var, interval in edits:
        if interval is None:
            ranges.pop(var, None)
        else:
            ranges[var] = interval
        assert extent_bounds(e, ranges) == old_bounds(e, ranges)


@given(extents, envs, st.dictionaries(st.sampled_from(VARS), intervals))
@settings(max_examples=100, deadline=None)
def test_caches_stay_out_of_equality_hash_and_print(e, env, ranges):
    fresh = rebuild(e)
    text = print_extent(e)
    eval_extent(e, env)
    extent_bounds(e, ranges)
    ir._extent_vars(e)
    assert e == fresh and hash(e) == hash(fresh)
    assert print_extent(e) == text and repr(e) == repr(fresh)
    assert pickle.loads(pickle.dumps(e)) == e


@pytest.mark.parametrize("kernel, dims", [("rmsnorm", {"R": 9, "C": 40}), ("softmax", {"N": 300})])
def test_generic_plan_stays_out_of_equality_hash_print_and_pickle(kernel, dims):
    program = lower(kernel, dims)
    opts = pipeline.PipelineOptions(mt_threshold=1)
    for name in DEFAULT_PASSES:
        program = pipeline.apply_pass(name, program, opts)
    generics = [op for op, _ in ir.walk_ops(program.ops) if isinstance(op, GenericOp)]
    before = [(pickle.loads(pickle.dumps(g)), hash(g), repr(g)) for g in generics]
    text = print_ir(program)
    interpret(program, kernel_inputs(program, kernel))
    assert any(getattr(g, "_plan", None) is not None for g in generics)
    assert print_ir(program) == text
    for g, (fresh, digest, shown) in zip(generics, before):
        assert g == fresh and hash(g) == digest and repr(g) == shown
        for other in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g),
                      dataclasses.replace(g)):
            assert other == g and getattr(other, "_plan", None) is None


@given(extents.filter(lambda e: old_vars(e)), envs, st.data())
@settings(max_examples=100, deadline=None)
def test_unbound_variable_named_in_key_error(e, env, data):
    missing = data.draw(st.sampled_from(sorted(old_vars(e))))
    env = {k: v for k, v in env.items() if k != missing}
    with pytest.raises(KeyError) as want:
        old_eval(e, env)
    with pytest.raises(KeyError) as got:
        eval_extent(e, env)
    assert str(got.value) == str(want.value)
    assert f"unbound index variable {missing}" in str(got.value)


# -- verifier ----------------------------------------------------------------

def test_wellformed_program_verifies():
    assert verify(program([elementwise()])).ok


def test_operand_map_arity_violation():
    bad = GenericOp("g", (8,), ("x", "x2"), ("y",),
                    (AffineIndexMap.identity(1), AffineIndexMap.identity(1)),
                    ("parallel",), (Payload.arg(0),))
    decls = (TensorDecl("x", (8,), role="input"), TensorDecl("x2", (8,), role="input"),
             TensorDecl("y", (8,), role="output"))
    rep = verify(program([bad], decls))
    assert not rep.ok
    assert any(v.rule == "operand/map arity" for v in rep.violations)


def test_reduction_escaping_into_output_map():
    bad = GenericOp("g", (4, 8), ("x",), ("y",),
                    (AffineIndexMap.identity(2), AffineIndexMap.identity(2)),
                    ("parallel", "reduction"), (Payload.arg(0),),
                    (Reduction.sum(),))
    decls = (TensorDecl("x", (4, 8), role="input"), TensorDecl("y", (4, 8), role="output"))
    rep = verify(program([bad], decls))
    assert any(v.rule == "reduction escapes" for v in rep.violations)


def test_payload_arg_out_of_range():
    bad = GenericOp("g", (8,), ("x",), ("y",),
                    (AffineIndexMap.identity(1), AffineIndexMap.identity(1)),
                    ("parallel",), (Payload.arg(1),))
    rep = verify(program([bad]))
    assert any(v.rule == "payload args" for v in rep.violations)


def test_block_rules_keep_their_messages_and_order():
    # the text the verifier printed before it dispatched by a type table
    ops = (
        ir.AsyncGroupOp("grp", 2),
        AsyncExecuteOp("tok0", (elementwise(),)),
        ir.InsertSliceOp("x", "y", (0,), (8,)),
        ir.AddToGroupOp("grp", "tok9"),
        ir.AwaitAllOp("grp"), ir.AwaitAllOp("grp"),
        ir.AwaitAllOp("nogroup"),
        AllocOp("t", (8,), "tcm"), DeallocOp("t"), DeallocOp("t"), DeallocOp("u"),
        AllocOp("v", (8,), "tcm"),
        ir.DmaStartOp("tagx", "x", (0,), "ghost", (0,), (8,)),
        ir.DmaWaitOp("tagx"),
        ForallOp("th", 0, (ExtractSliceOp("s", "x", (IVar("th"),), (4,)),)),
        ForOp("i", 0, 8, 4, (ir.InsertSliceOp("nope", "y", (IVar("j"),), (4,)),)),
        AsyncExecuteOp("tok1", ()),
    )
    assert str(verify(program(ops))) == """verify: 14 violation(s)
  [token discipline] ops[2]: token %tok0 not added to a group immediately
  [token discipline] ops[3]: add_to_group of %tok9 does not follow its async_execute
  [group scope] ops[6]: await_all on %nogroup: group not created in this block
  [double dealloc] ops[9]: %t deallocated twice
  [dealloc pairing] ops[10]: dealloc %u without alloc in the same block
  [undefined-buffer] ops[12]: dma_start references undefined %ghost
  [undefined-buffer] ops[12]: dma tag %tagx undefined
  [undefined-buffer] ops[13]: dma tag %tagx undefined
  [thread count] ops[14]: forall threads 0 < 1
  [undefined-buffer] ops[15].body[0]: insert_slice source %nope undefined
  [unbound-index] ops[15].body[0]: index variable %j not in scope
  [token discipline] ops: token %tok1 never added to a group
  [alloc pairing] ops[11]: alloc %v has no dealloc in its block
  [group discipline] ops: group %grp awaited 2 times (want 1)"""


def test_f16_tcm_decl_counts_two_bytes_an_element():
    def decl(dtype):
        return KernelProgram("t", (TensorDecl("x", (1024,), dtype, "tcm", "input"),), ())

    assert verify(decl("f16"), tcm_bytes=2048).ok
    assert [v.rule for v in verify(decl("f32"), tcm_bytes=2048).violations] == ["tcm budget"]


def test_every_op_type_has_a_verifier_and_an_interpreter_handler():
    from tcmc import interp
    op_types = set(typing.get_args(ir.Op))
    assert len(op_types) == 14
    assert set(ir._VERIFY_HANDLERS) == op_types
    assert set(interp._HANDLERS) == op_types


def test_payload_memo_stays_out_of_equality_hash_and_print():
    def tree():
        return Payload.binary("add", Payload.arg(2), Payload.unary("exp", Payload.arg(0)))

    p, fresh = tree(), tree()
    assert p.max_arg_index() == 2 and p._nodes == p.nodes()
    assert [n.kind for n in p.nodes()] == ["arg", "exp", "arg", "add"]
    x = np.arange(4, dtype=np.float32)
    assert np.array_equal(numerics.eval_payload(p, [x, x, x]), np.exp(x) + x)
    assert p._plan is not None
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    assert ir.print_payload(p) == ir.print_payload(fresh) == "add(a2, exp(a0))"
    for copied in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        # before `==`, which walks the copy's nodes() and so derives its `_nodes`
        assert getattr(copied, "_nodes", None) is None and getattr(copied, "_plan", None) is None
        assert copied == p
    assert Payload.const(1.0).max_arg_index() == -1


def squares_chain(links: int, x: Payload = Payload.arg(0)) -> Payload:
    """t{k} = t{k-1} * t{k-1} + 0.25 from t0 = `x`, each link's operand shared."""
    t = x
    for _ in range(links):
        t = Payload.binary("add", Payload.binary("mul", t, t), Payload.const(0.25))
    return t


def test_payload_equality_hash_and_repr_are_linear_on_a_40_link_shared_chain():
    # 2**40 root-to-leaf paths: a walk per path would never finish
    a, b = squares_chain(40), squares_chain(40)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != squares_chain(39) and a != squares_chain(40, Payload.arg(1))
    assert repr(a) == ir.print_payload(a) and len(repr(a).splitlines()) == 40
    ga, gb = (GenericOp("g", (8,), ("x",), ("y",), (AffineIndexMap.identity(1),) * 2,
                        ("parallel",), (p,)) for p in (a, b))
    assert ga == gb and hash(ga) == hash(gb) and repr(ga) == repr(gb)
    assert program([ga]) == program([gb]) and hash(program([ga])) == hash(program([gb]))


def test_payload_equality_is_blind_to_sharing():
    x = Payload.unary("exp", Payload.arg(0))
    shared = Payload.binary("mul", x, x)
    unshared = Payload.binary("mul", x, Payload.unary("exp", Payload.arg(0)))
    assert shared == unshared and hash(shared) == hash(unshared)
    assert shared != Payload.binary("mul", x, Payload.unary("exp", Payload.arg(1)))
    assert shared != Payload.binary("add", x, x) and shared != "mul(exp(a0), exp(a0))"


def test_substitute_args_shares_what_it_does_not_change():
    x = Payload.unary("exp", Payload.arg(0))
    p = Payload.binary("mul", x, Payload.arg(1))
    assert p.substitute_args({}) is p
    assert p.substitute_args({2: Payload.arg(0)}) is p  # p never reads arg 2
    swapped = p.substitute_args({1: x})
    assert swapped.args[0] is x and swapped.args[1] is x
    # the shared exp prints once, named, before the expression that reads it
    assert ir.print_payload(swapped) == "%s0 = exp(a0)\nmul(%s0, %s0)"
    renumbered = p.substitute_args({0: Payload.arg(3)})
    assert renumbered.args[1] is p.args[1]
    assert ir.print_payload(renumbered) == "mul(exp(a3), a1)"


def test_undefined_buffer_and_duplicate_decl():
    rep = verify(program([elementwise(inputs=("ghost",))]))
    assert any(v.rule == "undefined-buffer" for v in rep.violations)
    decls = (TensorDecl("x", (8,), role="input"), TensorDecl("x", (8,)),
             TensorDecl("y", (8,), role="output"))
    rep = verify(program([elementwise()], decls))
    assert any(v.rule == "duplicate decl" for v in rep.violations)


def test_alloc_without_dealloc():
    rep = verify(program([AllocOp("t", (8,), "tcm"), elementwise()]))
    assert any(v.rule == "alloc pairing" for v in rep.violations)
    ok = verify(program([AllocOp("t", (8,), "tcm"), elementwise(), DeallocOp("t")]))
    assert ok.ok


def test_tcm_budget_enforced():
    ops = [AllocOp("t", (1024,), "tcm"), elementwise(), DeallocOp("t")]
    rep = verify(program(ops), tcm_bytes=4095)
    assert [v.rule for v in rep.violations] == ["tcm budget"]
    assert verify(program(ops), tcm_bytes=4096).ok


def staging_loop(var, *, staged=2, views=0):
    """for %var over %x (64 f32) in tiles of 16: `staged` extracts @tcm of
    the tile (64 bytes each), then `views` same-space extracts of the first,
    each written back to %y."""
    i = IVar(var)
    body = [ExtractSliceOp(f"{var}_t{k}", "x", (i,), (16,), "tcm") for k in range(staged)]
    body += [ExtractSliceOp(f"{var}_v{k}", f"{var}_t0", (0,), (16,)) for k in range(views)]
    body += [ir.InsertSliceOp(op.result, "y", (i,), (16,)) for op in body]
    return ForOp(var, 0, 64, 16, tuple(body))


STAGING_DECLS = (TensorDecl("x", (64,), role="input"), TensorDecl("y", (64,), role="output"))


def tcm_rules(ops, budget):
    return [v.rule for v in verify(program(ops, STAGING_DECLS), tcm_bytes=budget).violations]


def test_staged_extracts_count_toward_the_tcm_budget():
    assert tcm_rules([staging_loop("i")], 127) == ["tcm budget"]
    assert tcm_rules([staging_loop("i")], 128) == []
    three = program([staging_loop("i", staged=3)], STAGING_DECLS)
    assert verify(three, tcm_bytes=128).violations == (
        Violation("program", "tcm budget", "peak live TCM 192 bytes exceeds budget 128"),)


def test_staged_extracts_are_released_when_their_block_ends():
    # each loop holds 128 bytes; held past its body, the second would peak at 256
    assert tcm_rules([staging_loop("i"), staging_loop("j")], 128) == []
    assert tcm_rules([staging_loop("i"), staging_loop("j")], 127) == ["tcm budget"]


def test_extracts_without_a_space_are_not_counted():
    # three views of the staged tile: only the tile's 64 bytes are live
    assert tcm_rules([staging_loop("i", staged=1, views=3)], 64) == []
    assert tcm_rules([staging_loop("i", staged=1, views=3)], 63) == ["tcm budget"]
    # a view of a DDR tensor holds no TCM at all
    assert tcm_rules([slice_loop("k", 0, 64, 16, IVar("k"), 16)], 0) == []


def _context_body(th):
    """One context's share of %x (64 f32): a 64-byte staged tile of rows
    16*th.. and its 64-byte output tile, written back to %y."""
    off = (ix_mul(IVar(th), 16),)
    return (ExtractSliceOp("t", "x", off, (16,), "tcm"), AllocOp("o", (16,), "tcm"),
            elementwise(domain=(16,), inputs=("t",), outputs=("o",)),
            ir.InsertSliceOp("o", "y", off, (16,)), DeallocOp("o"))


def test_thread_bodies_count_their_tcm_once_per_context():
    # each of 4 contexts holds 128 bytes: 128 fit once, 4 * 128 = 512 are needed
    forall = ForallOp("th", 4, _context_body("th"))
    spawn = ForOp("th", 0, 4, 1, (AsyncExecuteOp("tok", _context_body("th")),
                                  ir.AddToGroupOp("grp", "tok")),
                  annotations=frozenset({"async_threads"}))
    lowered = [ir.AsyncGroupOp("grp", 4), spawn, ir.AwaitAllOp("grp")]
    for ops in ([forall], lowered):
        assert tcm_rules(ops, 511) == ["tcm budget"]
        assert tcm_rules(ops, 512) == []
    # a loop that is not a spawn loop runs its trips one after another
    serial = ForOp("th", 0, 4, 1, _context_body("th"))
    assert tcm_rules([serial], 128) == []


def test_map_bounds_checked():
    decls = (TensorDecl("x", (4,), role="input"), TensorDecl("y", (8,), role="output"))
    rep = verify(program([elementwise(domain=(8,))], decls))
    assert any(v.rule == "map bounds" for v in rep.violations)


def slice_loop(var, lb, ub, step, offset, size, result="s"):
    """for %var = lb to ub step step { %result = extract_slice %x[offset][size] }"""
    return ForOp(var, lb, ub, step, (ExtractSliceOp(result, "x", (offset,), (size,)),))


def test_unbound_index_after_its_loop_closed():
    ops = [slice_loop("i", 0, 8, 4, IVar("i"), 4),
           ExtractSliceOp("t", "x", (IVar("i"),), (4,))]
    assert verify(program(ops)).violations == (
        Violation("ops[1]", "unbound-index", "index variable %i not in scope"),)


def test_unbound_index_from_sibling_loop():
    ops = [slice_loop("i", 0, 8, 4, IVar("i"), 4),
           slice_loop("j", 0, 8, 4, ix_add(IVar("j"), IVar("i")), 4, result="t")]
    assert verify(program(ops)).violations == (
        Violation("ops[1].body[0]", "unbound-index", "index variable %i not in scope"),)
    inner = ForOp("j", 0, 2, 1, (ExtractSliceOp("t", "x", (ix_add(IVar("i"), IVar("j")),), (4,)),))
    assert verify(program([ForOp("i", 0, 4, 4, (inner,))])).ok


def test_slice_bounds_reports_definite_overflow_only():
    definite = verify(program([slice_loop("i", 0, 8, 4, ix_add(IVar("i"), 8), 4)]))
    assert definite.violations == (
        Violation("ops[0].body[0]", "slice bounds", "slice of %x dim 0: offset+size exceeds extent"),)
    # %i = 4 overflows at run time, but %i = 0 fits: possible, not definite
    assert verify(program([slice_loop("i", 0, 8, 4, IVar("i"), 5)])).ok


def test_dma_start_regions_report_definite_overflow_only():
    def dma_loop(src_offset, dst_offset):
        return ForOp("i", 0, 8, 4, (
            AllocOp("tag", (1,), "ddr"), AllocOp("t", (4,), "tcm"),
            ir.DmaStartOp("tag", "x", (src_offset,), "t", (dst_offset,), (4,)),
            ir.DmaWaitOp("tag"), DeallocOp("t"), DeallocOp("tag")))

    def bounds(side, name):
        return (Violation("ops[0].body[2]", "slice bounds",
                          f"dma_start {side} %{name} dim 0: offset+size exceeds extent"),)

    assert verify(program([dma_loop(ix_add(IVar("i"), 8), 0)])).violations == bounds("src", "x")
    assert verify(program([dma_loop(IVar("i"), 1)])).violations == bounds("dst", "t")
    # %i = 4 reads past %x at run time, but %i = 0 fits: possible, not definite
    assert verify(program([dma_loop(ix_add(IVar("i"), 1), 0)])).ok


@pytest.mark.parametrize("step", [0, -1])
def test_loop_step_below_one_is_reported(step):
    assert verify(program([slice_loop("i", 0, 8, step, IVar("i"), 1)])).violations == (
        Violation("ops[0]", "loop step", f"for %i: step {step} < 1"),)
    # %j - 3 is at most -1 over %j in [0, 2]
    inner = slice_loop("i", 0, 8, ix_sub(IVar("j"), 3), IVar("i"), 1)
    assert verify(program([ForOp("j", 0, 3, 1, (inner,))])).violations == (
        Violation("ops[0].body[0]", "loop step", "for %i: step (%j - 3) < 1"),)


def test_loop_step_that_may_drop_below_one_faults_at_run_time():
    # 2 - %j is 0 only at %j = 2: possible, not definite
    inner = slice_loop("i", 0, 8, ix_sub(2, IVar("j")), IVar("i"), 1)
    p = program([ForOp("j", 0, 3, 1, (inner,))])
    assert verify(p).ok
    with pytest.raises(ir.ExecutionFault, match="^for %i: step 0 < 1$"):
        interpret(p, {"x": np.zeros(8, np.float32)})


@pytest.mark.parametrize("bad_first", [False, True])
def test_sibling_loops_bound_one_node_under_their_own_ranges(bad_first):
    offset = ix_add(IVar("i"), 4)  # one node object, sliced in both loops
    fits = slice_loop("i", 0, 4, 1, offset, 4)           # %i in [0, 3]: ends <= 8
    overflows = slice_loop("i", 6, 8, 1, offset, 4, "t")  # %i in [6, 7]: starts past 8
    ops = [overflows, fits] if bad_first else [fits, overflows]
    bad = 0 if bad_first else 1
    assert verify(program(ops)).violations == (
        Violation(f"ops[{bad}].body[0]", "slice bounds",
                  "slice of %x dim 0: offset+size exceeds extent"),)


# -- printer -----------------------------------------------------------------

def test_print_deterministic_and_stable():
    p = lower("softmax")
    a, b = print_ir(p), print_ir(p)
    assert a == b
    p2 = lower("softmax")
    assert print_ir(p2) == a  # equal programs, identical bytes


def test_print_annotations_sorted():
    g = elementwise()
    g = ir.GenericOp(g.name, g.domain, g.inputs, g.outputs, g.maps, g.iterators,
                     g.payloads, annotations=frozenset({"zeta", "alpha"}))
    text = print_ir(program([g]))
    assert "{alpha, zeta}" in text


def test_print_empty_program():
    text = print_ir(KernelProgram("empty", (), ()))
    assert text == "program @empty stage=initial {\n}\n"


def test_fmt_f32_shortest_roundtrip():
    assert ir.fmt_f32(0.044715) == "0.044715"
    assert ir.fmt_f32(float("-inf")) == "-inf"
    assert np.float32(ir.fmt_f32(1 / 3)) == np.float32(1 / 3)


def test_golden_dumps(golden_dir):
    from tcmc.passes import fuse_elementwise, tile_generic
    fused = fuse_elementwise(lower("softmax"))
    tiled = tile_generic(fuse_elementwise(lower("gelu")), tile_sizes=(262144,))
    for name, prog in [("softmax_fused.ir", fused), ("gelu_tiled.ir", tiled)]:
        want = (golden_dir / name).read_text()
        assert print_ir(prog) == want, f"golden mismatch for {name}"


def test_tiled_gelu_dump_carries_annotations():
    from tcmc.passes import fuse_elementwise, tile_generic
    text = print_ir(tile_generic(fuse_elementwise(lower("gelu")), tile_sizes=(262144,)))
    assert "all_parallel" in text and "tiled_generic" in text
    assert "1048576" in text and "262144" in text


# -- count_ops ---------------------------------------------------------------

def test_count_ops_generics_and_annotations():
    p = lower("softmax")
    assert count_ops(p, lambda o: isinstance(o, GenericOp)) == 5
    assert count_ops(p, lambda o: False) == 0
    assert count_ops(KernelProgram("e", (), ()), lambda o: True) == 0


def test_count_ops_recurses_into_bodies():
    from tcmc.passes import fuse_elementwise, tile_generic
    p = tile_generic(fuse_elementwise(lower("gelu")))
    assert count_ops(p, lambda o: isinstance(o, GenericOp)) == 1
    assert count_ops(p, lambda o: isinstance(o, ExtractSliceOp) and o.space == "tcm") == 1


# -- map_ops -----------------------------------------------------------------

def nested_ops():
    """One op per body kind, each holding a dealloc, around two top-level leaves."""
    return (
        DeallocOp("a"),
        ForOp("i", 0, 4, 1, (DeallocOp("b"), IfOp(CmpPred("lt", IVar("i"), 2), (DeallocOp("c"),)))),
        ForallOp("t", 2, (DeallocOp("d"),)),
        AsyncExecuteOp("tok", (DeallocOp("e"),)),
        DeallocOp("f"),
    )


def label(op):
    return getattr(op, "target", None) or type(op).__name__


def test_map_ops_visits_pre_order_and_keeps_what_fn_declines():
    seen = []
    ops = nested_ops()

    def fn(op):
        seen.append(label(op))
        return None

    assert ir.map_ops(ops, fn) == ops
    assert seen == ["a", "ForOp", "b", "IfOp", "c", "ForallOp", "d", "AsyncExecuteOp", "e", "f"]


def test_map_ops_does_not_visit_what_fn_replaced():
    seen = []

    def fn(op):
        seen.append(label(op))
        return (op,) if isinstance(op, ForOp) else None

    ops = nested_ops()
    assert ir.map_ops(ops, fn) == ops
    assert "b" not in seen and "c" not in seen and "d" in seen


def test_map_ops_deletes_and_expands_in_every_body_kind():
    def fn(op):
        if isinstance(op, DeallocOp) and op.target in "bdf":
            return ()
        if isinstance(op, DeallocOp):
            return (op, DeallocOp(op.target * 2))
        return None

    out = ir.map_ops(nested_ops(), fn)
    assert [label(op) for op in out] == ["a", "aa", "ForOp", "ForallOp", "AsyncExecuteOp"]
    loop, forall, spawn = out[2:]
    assert [label(op) for op in loop.body] == ["IfOp"]
    assert [label(op) for op in loop.body[0].body] == ["c", "cc"]
    assert forall.body == () and [label(op) for op in spawn.body] == ["e", "ee"]
    assert (loop.var, loop.ub, forall.threads, spawn.token) == ("i", 4, 2, "tok")


# -- golden IR digests -------------------------------------------------------

GOLDEN = ROOT / "tests" / "golden" / "ir_digests.txt"
RANDOM_SEEDS = range(60)
MT_THRESHOLDS = (1, 32768)
DISTS = (("block", 1), ("block_cyclic", 7))
REMAINDER_N = 16397  # not a multiple of any tile, chunk or vector width
# without vectorize's main/epilogue split, mt also fires when N is not a multiple of W
NO_VEC_PASSES = ("fuse", "tile", "mt", "async", "db")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stage_digests(case, program, passes, opts):
    """Yield one line for the input and for every pass prefix."""
    yield f"{case}/00_input {_digest(print_ir(program))}"
    for k, name in enumerate(passes, 1):
        program = pipeline.apply_pass(name, program, opts)
        yield f"{case}/{k:02d}_{name} {_digest(print_ir(program))}"


def _kernel_digests(kernels, dims_of, tiles_of, pass_lists=(DEFAULT_PASSES,)):
    for kernel, base_passes in itertools.product(kernels, pass_lists):
        dims = dims_of(kernel)
        program = lower(kernel, dims)
        size = ",".join(f"{k}={v}" for k, v in dims.items()) if dims else "bench_dims"
        for tiles in tiles_of(kernel):
            tile = "default" if tiles is None else "x".join(map(str, tiles))
            for math_mode in ("exact", "approx"):
                passes = base_passes + (("math-approx",) if math_mode == "approx" else ())
                for threshold in MT_THRESHOLDS:
                    for dist_kind, chunk in DISTS:
                        dist = "block" if dist_kind == "block" else f"cyclic:{chunk}"
                        opts = pipeline.PipelineOptions(
                            tile_sizes=tiles, mt_threshold=threshold, dist_kind=dist_kind,
                            dist_chunk=chunk)
                        case = (f"kernel/{kernel}/{size}/{','.join(base_passes)}/tile={tile}"
                                f"/{math_mode}/mt={threshold}/{dist}")
                        yield from _stage_digests(case, program, passes, opts)


def _bench_digests():
    """(case id, argv, argv plus the options its sweep never reads, or None).

    Such an option is a SpecError, so the case runs without it: its digest
    was recorded when the option was dropped without a word.
    """
    kernels = {"passes": ",".join(kernel_path(k) for k in ALL_KERNELS),
               "size": kernel_path("gelu"), "m": ""}
    ladders = ",".join(perf.PASS_LADDERS)
    for sweep, kernel_arg in kernels.items():
        for with_ladders in (False, True):
            for with_sizes in (False, True):
                argv = ["bench", "--sweep", sweep, "--kernels", kernel_arg]
                unread: list[str] = []
                if with_ladders:
                    (argv if sweep == "passes" else unread).extend(["--ladders", ladders])
                if with_sizes:
                    (argv if sweep == "size" else unread).extend(["--sizes", "8192,40000"])
                yield (f"bench/{sweep}/ladders={with_ladders}/sizes={with_sizes}", argv,
                       argv + unread if unread else None)
    yield ("bench/passes/shape", ["bench", "--sweep", "passes", "--shape", f"N={REMAINDER_N}",
                                  "--kernels", f"{kernel_path('gelu')},{kernel_path('softmax')}"],
           None)


def golden_lines():
    yield from _kernel_digests(ALL_KERNELS, lambda k: None, lambda k: (None,))
    yield from _kernel_digests(("gelu", "silu", "expseries", "softmax"),
                               lambda k: {"N": REMAINDER_N},
                               lambda k: (None,) if k == "softmax" else (None, (1024,)),
                               (DEFAULT_PASSES, NO_VEC_PASSES))
    for seed in RANDOM_SEEDS:
        program = oracles.gen_random_program(oracles.RandomProgramSpec(seed))
        for threshold in MT_THRESHOLDS:
            opts = pipeline.PipelineOptions(mt_threshold=threshold)
            yield from _stage_digests(f"random/{seed}/mt={threshold}", program,
                                      DEFAULT_PASSES, opts)
    for case, argv, rejected in _bench_digests():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if rejected is not None:
                assert cli.main(rejected) == cli.EXIT_SPEC
            assert cli.main(argv) == cli.EXIT_OK
        yield f"{case} {_digest(out.getvalue())}"
    for m in (0.0, 0.25, 0.5, 0.75, 1.0):
        probe, _ = perf.overlap_probe(m)
        yield from _stage_digests(f"probe/m={m:g}", probe, ("db",), pipeline.PipelineOptions())
    # softmax is 1-D: it gets the same point count, and ignores the 2-D tile
    yield from _kernel_digests(("softmax", "rmsnorm", "vecadd2d"),
                               lambda k: {"N": 33 * 257} if k == "softmax" else {"R": 33, "C": 257},
                               lambda k: (None, (7, 0)))


def test_ir_matches_golden_digests():
    want = GOLDEN.read_text().splitlines()
    got = list(golden_lines())
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, f"{len(bad)} digests differ, first: {bad[0]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_ir.py --write")
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
    print(f"wrote {GOLDEN}")
