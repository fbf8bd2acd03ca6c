"""Reference interpreter: values, determinism, faults, golden digests, comparison.

`tests/golden/interp_outputs.txt` holds one line per case: the case id and
the sha256 of each output's raw f32 bits, so a match is bit for bit.
Regenerate it only for a deliberate change to the interpreter's semantics:

    PYTHONPATH=src python tests/test_interp.py --write
"""

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmc import interp, ir, oracles, pipeline
from tcmc.frontend import lower_to_generics, parse_kernel
from tcmc.interp import ExecutionFault, TensorValue, compare_outputs, interpret
from tcmc.ir import (
    AllocOp, CmpPred, DeallocOp, DmaStartOp, DmaWaitOp, ExtractSliceOp,
    IfOp, InsertSliceOp, KernelProgram, TensorDecl,
)

from conftest import (
    ALL_KERNELS, DEFAULT_PASSES, ROOT, bitexact, kernel_inputs, kernel_source, lower,
)
from test_fuzz import FUZZ_SEEDS, fuzz_failures


def run_kernel(name, dims, inputs):
    p = lower_to_generics(parse_kernel(kernel_source(name)), dims)
    return interpret(p, inputs)


# -- frozen values (float64 oracle derived, see test_oracles) ------------------

def test_softmax_1_2_3():
    out = run_kernel("softmax", {"N": 3}, {"x": np.array([1, 2, 3], np.float32)})
    want = np.array([0.09003057, 0.24472847, 0.66524096], np.float32)
    np.testing.assert_allclose(out["y"], want, rtol=1e-6)


@given(st.floats(min_value=-20, max_value=20, width=32))
@settings(max_examples=30, deadline=None)
def test_softmax_symmetry_constant_rows(c):
    out = run_kernel("softmax", {"N": 3}, {"x": np.full(3, c, np.float32)})
    np.testing.assert_array_equal(out["y"], np.full(3, np.float32(1.0 / 3.0)))


def test_gelu_zero():
    out = run_kernel("gelu", {"N": 1}, {"x": np.zeros(1, np.float32)})
    assert out["y"][0] == 0.0


def test_silu_values():
    out = run_kernel("silu", {"N": 2}, {"x": np.array([0, 1], np.float32)})
    assert out["y"][0] == 0.0
    np.testing.assert_allclose(out["y"][1], 0.7310586, rtol=1e-6)


def test_rmsnorm_unit_rows():
    src = kernel_source("rmsnorm").replace("const EPSILON = 1e-6", "const EPSILON = 0.0")
    p = lower_to_generics(parse_kernel(src), {"R": 1, "C": 3})
    out = interpret(p, {"x": np.ones((1, 3), np.float32), "g": np.ones(3, np.float32)})
    np.testing.assert_array_equal(out["y"], np.ones((1, 3), np.float32))


# -- determinism ---------------------------------------------------------------

def test_interpret_deterministic():
    p = lower("rmsnorm", {"R": 127, "C": 513})
    x = kernel_inputs(p, "rmsnorm", 7)
    assert bitexact(interpret(p, x), interpret(p, x))


def test_elementwise_ops_offset_independent():
    # the property the vectorized interpreter rests on: per-element results
    # do not depend on slicing offsets or lengths
    rng = np.random.default_rng(3)
    x = (rng.standard_normal(4099) * 4).astype(np.float32)
    for fn in (np.exp, np.tanh, np.sqrt):
        full = fn(np.abs(x)) if fn is np.sqrt else fn(x)
        src = np.abs(x) if fn is np.sqrt else x
        for off, ln in [(0, 7), (1, 33), (5, 4000)]:
            part = fn(src[off:off + ln])
            assert np.array_equal(full[off:off + ln].view(np.uint32), part.view(np.uint32))


# -- execution faults ----------------------------------------------------------

def dma_program(with_wait=True, read_before_wait=False):
    decls = (TensorDecl("x", (8,), role="input"), TensorDecl("y", (8,), role="output"))
    ops = [
        AllocOp("tile", (8,), "tcm"),
        AllocOp("tag", (1,), "ddr"),
        DmaStartOp("tag", "x", (0,), "tile", (0,), (8,)),
    ]
    if read_before_wait:
        ops.append(InsertSliceOp("tile", "y", (0,), (8,)))
    if with_wait:
        ops.append(DmaWaitOp("tag"))
        ops.append(InsertSliceOp("tile", "y", (0,), (8,)))
    ops += [DeallocOp("tag"), DeallocOp("tile")]
    return KernelProgram("dma", decls, tuple(ops))


def fault_message(program, inputs) -> str:
    with pytest.raises(ExecutionFault) as info:
        interpret(program, inputs)
    return str(info.value)


def test_dma_read_before_wait_faults():
    x = {"x": np.arange(8, dtype=np.float32)}
    ok = interpret(dma_program(), x)
    np.testing.assert_array_equal(ok["y"], x["x"])
    assert fault_message(dma_program(read_before_wait=True), x) == (
        "read of %tile before dma_wait(tag=%tag) completed its fill")


def test_dma_unbalanced_tag_faults():
    x = {"x": np.arange(8, dtype=np.float32)}
    assert fault_message(dma_program(with_wait=False), x) == (
        "dealloc %tile while dma tag=%tag is in flight")
    no_deallocs = dma_program(with_wait=False)
    no_deallocs = no_deallocs.with_ops(no_deallocs.ops[:3])
    assert fault_message(no_deallocs, x) == (
        "program ended with un-waited dma tags: ['tag']")
    # double start on one tag
    p = dma_program()
    ops = list(p.ops)
    ops.insert(3, ops[2])
    assert fault_message(p.with_ops(tuple(ops)), x) == (
        "dma_start on tag %tag already in flight (start/start)")


def test_wait_on_idle_tag_faults():
    decls = (TensorDecl("x", (8,), role="input"), TensorDecl("y", (8,), role="output"))
    ops = (AllocOp("tag", (1,), "ddr"), DmaWaitOp("tag"), DeallocOp("tag"),
           InsertSliceOp("x", "y", (0,), (8,)))
    assert fault_message(KernelProgram("p", decls, ops), {"x": np.zeros(8, np.float32)}) == (
        "dma_wait on idle tag %tag (no dma_start in flight)")


def test_out_of_bounds_slice_faults():
    decls = (TensorDecl("x", (8,), role="input"), TensorDecl("y", (8,), role="output"))
    ops = (ExtractSliceOp("s", "x", (4,), (8,)), InsertSliceOp("s", "y", (0,), (8,)))
    assert fault_message(KernelProgram("p", decls, ops), {"x": np.zeros(8, np.float32)}) == (
        "extract_slice %x: out-of-bounds slice dim 0: offset 4 size 8 extent 8")


def test_missing_input_rejected():
    p = lower("gelu", {"N": 8})
    with pytest.raises(ValueError, match="missing input"):
        interpret(p, {})
    with pytest.raises(ValueError, match="shape"):
        interpret(p, {"x": np.zeros(9, np.float32)})


# -- golden digests -------------------------------------------------------------

GOLDEN = ROOT / "tests" / "golden" / "interp_outputs.txt"
RANDOM_SEEDS = range(50)
MT_THRESHOLDS = (1, 32768)
# `tile` splits both reductions into tiles of 16384, the last partial; at
# 100003 the last max tile, 1699 = 53 * 32 + 3 points, folds as `vectorize`'s
# main part and carried epilogue
TILED_SOFTMAX_SIZES = (40000, 100003)


def _staged(program, passes, opts):
    """Yield (stage id, program) for the input and every pass prefix."""
    yield "00_input", program
    for k, name in enumerate(passes, 1):
        program = pipeline.apply_pass(name, program, opts)
        yield f"{k:02d}_{name}", program


def golden_cases():
    """Yield (case id, program, inputs) for every golden digest.

    The kernels' stages with math-approx appended extend those without it,
    so one staged run per kernel covers both pipelines.
    """
    for kernel in ALL_KERNELS:
        program = lower(kernel)
        inputs = kernel_inputs(program, kernel)
        for stage, staged in _staged(program, DEFAULT_PASSES + ("math-approx",),
                                     pipeline.PipelineOptions()):
            yield f"kernel/{kernel}/{stage}", staged, inputs
    for seed in RANDOM_SEEDS:
        program = oracles.gen_random_program(oracles.RandomProgramSpec(seed))
        inputs = oracles.random_inputs_for(program, seed)
        for threshold in MT_THRESHOLDS:
            opts = pipeline.PipelineOptions(mt_threshold=threshold)
            for stage, staged in _staged(program, DEFAULT_PASSES, opts):
                yield f"random/{seed}/mt={threshold}/{stage}", staged, inputs
    for n in TILED_SOFTMAX_SIZES:
        program = lower("softmax", {"N": n})
        inputs = kernel_inputs(program, "softmax")
        for stage, staged in _staged(program, DEFAULT_PASSES, pipeline.PipelineOptions()):
            yield f"kernel/softmax/N={n}/{stage}", staged, inputs


def digest_line(case_id: str, outputs: dict) -> str:
    digests = " ".join(
        f"{name}={hashlib.sha256(np.ascontiguousarray(outputs[name], np.float32).tobytes()).hexdigest()}"
        for name in sorted(outputs))
    return f"{case_id} {digests}"


def golden_lines():
    return [digest_line(cid, interpret(prog, inputs)) for cid, prog, inputs in golden_cases()]


def assert_golden_digests():
    want = GOLDEN.read_text().splitlines()
    got = golden_lines()
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, f"{len(bad)} digests differ, first: {bad[0]}"


def assert_pool_within_bound():
    pool = interp._pool()
    assert pool.retained == sum(a.nbytes for arrays in pool.free.values() for a in arrays)
    assert pool.retained <= interp.POOL_RETAIN_BYTES


def test_outputs_match_golden_bit_for_bit():
    assert_golden_digests()
    assert_pool_within_bound()


def test_tiled_reductions_keep_the_input_stage_bits():
    golden = GOLDEN.read_text().splitlines()
    for n in TILED_SOFTMAX_SIZES:
        prefix = f"kernel/softmax/N={n}/"
        lines = [line.split() for line in golden if line.startswith(prefix)]
        assert [cid[len(prefix):] for cid, _ in lines] == [
            f"{k:02d}_{name}" for k, name in enumerate(("input",) + DEFAULT_PASSES)]
        assert {digest for _, digest in lines} == {lines[0][1]}


# -- buffer pool ------------------------------------------------------------------

POISON_BITS = 0x7FA5A5A5  # a NaN


@pytest.fixture
def fresh_pool(monkeypatch):
    """An empty pool for this thread, so what a test gives back is retained."""
    monkeypatch.setattr(interp._LOCAL, "pool", interp._BufferPool(), raising=False)


def poison_released_storage(monkeypatch):
    give = interp._BufferPool.give

    def poisoning_give(pool, arr):
        arr.view(np.uint32).fill(POISON_BITS)
        give(pool, arr)

    monkeypatch.setattr(interp._BufferPool, "give", poisoning_give)


def test_released_storage_is_never_read(monkeypatch):
    # a read after release, or a buffer that does not fully initialise the
    # array it takes, changes some output bits
    poison_released_storage(monkeypatch)
    assert_golden_digests()
    for threshold in MT_THRESHOLDS:
        failures = [f for seed in FUZZ_SEEDS for f in fuzz_failures(seed, threshold)]
        assert not failures, "\n".join(failures)
    assert_pool_within_bound()


def test_alloc_reads_as_zeros_from_reused_storage(monkeypatch, fresh_pool):
    poison_released_storage(monkeypatch)
    decls = (TensorDecl("x", (8,), role="input"), TensorDecl("y", (8,), role="output"))
    ops = (AllocOp("t", (8,)), InsertSliceOp("t", "y", (0,), (8,)), DeallocOp("t"))
    program = KernelProgram("p", decls, ops)
    x = {"x": np.ones(8, np.float32)}
    for _ in range(2):  # the second call's alloc reuses a poisoned array
        np.testing.assert_array_equal(interpret(program, x)["y"], np.zeros(8, np.float32))


def test_a_buffer_with_a_fill_in_flight_is_not_given_back(fresh_pool):
    # %s goes out of scope at the end of the if body with its fill in
    # flight; had it been given back, %t would take its array and the
    # wait would fill %t
    decls = (TensorDecl("x", (8,), role="input"), TensorDecl("y", (8,), role="output"))
    ops = (
        AllocOp("tag", (1,), "ddr"),
        AllocOp("d", (8,)),
        IfOp(CmpPred("lt", 0, 1), (
            ExtractSliceOp("s", "d", (0,), (8,)),
            DmaStartOp("tag", "x", (0,), "s", (0,), (8,)),
        )),
        AllocOp("t", (8,)),
        DmaWaitOp("tag"),
        InsertSliceOp("t", "y", (0,), (8,)),
        DeallocOp("t"), DeallocOp("d"), DeallocOp("tag"),
    )
    out = interpret(KernelProgram("p", decls, ops), {"x": np.ones(8, np.float32)})
    np.testing.assert_array_equal(out["y"], np.zeros(8, np.float32))


def db_program():
    opts = pipeline.PipelineOptions(tile_sizes=(1024,), mt_threshold=1)
    program = lower("gelu", {"N": 4096 + 37})
    for name in DEFAULT_PASSES:
        program = pipeline.apply_pass(name, program, opts)
    return program


def test_db_slot_views_share_memory_with_their_two_slot_buffer(monkeypatch, fresh_pool):
    # a same-space extract_slice reads its source in place, and its storage
    # never goes back to the pool
    program = db_program()
    slot_views = {op.result: op.source for op, _ in ir.walk_ops(program.ops)
                  if isinstance(op, ExtractSliceOp) and op.space is None
                  and op.source.startswith("buf")}
    assert slot_views
    views, given = [], []
    run = interp._HANDLERS[ExtractSliceOp]

    def checking(self, op, env):
        run(self, op, env)
        if op.result in slot_views:
            view = env.lookup(op.result)
            assert view.view and np.shares_memory(view.data, env.lookup(op.source).data)
            views.append(view.data)

    give = interp._BufferPool.give
    monkeypatch.setitem(interp._HANDLERS, ExtractSliceOp, checking)
    monkeypatch.setattr(interp._BufferPool, "give",
                        lambda pool, arr: given.append(arr) or give(pool, arr))
    interpret(program, kernel_inputs(program, "gelu"))
    assert views and given
    assert not any(arr is view for arr in given for view in views)


def test_outputs_and_inputs_are_never_pool_storage():
    program = db_program()
    inputs = kernel_inputs(program, "gelu")
    inputs["x"].flags.writeable = False  # a write into the caller's array raises
    x_bits = inputs["x"].view(np.uint32).copy()
    out = interpret(program, inputs)
    y_bits = out["y"].view(np.uint32).copy()
    for seed in range(50):
        other = oracles.gen_random_program(oracles.RandomProgramSpec(seed))
        interpret(other, oracles.random_inputs_for(other, seed))
    assert np.array_equal(out["y"].view(np.uint32), y_bits)
    assert np.array_equal(inputs["x"].view(np.uint32), x_bits)


def test_second_call_takes_all_storage_from_the_pool(monkeypatch, fresh_pool):
    fresh = []
    new = interp._BufferPool._new

    def counting_new(shape):
        fresh.append(shape)
        return new(shape)

    monkeypatch.setattr(interp._BufferPool, "_new", staticmethod(counting_new))
    program = db_program()
    kinds = {type(op) for op, _ in ir.walk_ops(program.ops)}
    assert {AllocOp, ExtractSliceOp, DmaStartOp} <= kinds
    inputs = kernel_inputs(program, "gelu")
    first = interpret(program, inputs)
    assert fresh
    fresh.clear()
    second = interpret(program, inputs)
    assert fresh == []
    assert bitexact(first, second)
    assert_pool_within_bound()


def test_each_thread_has_its_own_pool():
    programs = [lower(k, {"N": 2048}) for k in ("gelu", "silu", "expseries", "softmax")]
    cases = [(p, kernel_inputs(p, p.name)) for p in programs]
    want = [interpret(p, x) for p, x in cases]
    results: dict[int, list] = {}
    pools: dict[int, interp._BufferPool] = {}

    def work(k):
        pools[k] = interp._pool()
        p, x = cases[k]
        results[k] = [interpret(p, x) for _ in range(20)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == list(range(len(cases)))
    assert len({id(pool) for pool in pools.values()} | {id(interp._pool())}) == len(cases) + 1
    for k, runs in results.items():
        assert all(bitexact(got, want[k]) for got in runs)


# -- compare_outputs -----------------------------------------------------------

def test_compare_bitexact_modes():
    a = {"y": np.array([1.0, 2.0], np.float32)}
    assert compare_outputs(a, {"y": a["y"].copy()}, "bitexact").ok
    b = {"y": np.array([1.0, 2.0000002], np.float32)}
    rep = compare_outputs(a, b, "bitexact")
    assert not rep.ok and rep.worst_index == (1,)


def test_compare_reltol_worst_offender():
    a = {"y": np.array([1.0], np.float32)}
    b = {"y": np.array([1.1], np.float32)}
    rep = compare_outputs(a, b, ("reltol", 1e-6))
    assert not rep.ok
    assert rep.worst_index == (0,) and rep.rel_err > 0.09
    assert compare_outputs(a, b, ("reltol", 0.2)).ok


def test_bitexact_failure_report_prints_bits():
    rep = compare_outputs({"y": np.array([1.0, -0.0], np.float32)},
                          {"y": np.array([1.0, 0.0], np.float32)}, "bitexact")
    assert not rep.ok and rep.rel_err is None
    assert str(rep) == ("compare(bitexact): FAIL worst %y[1] "
                        "got -0.0 (0x80000000) want 0.0 (0x00000000)")


@pytest.mark.parametrize("got,want,ok", [
    (np.nan, 2.0, False),
    (np.inf, 2.0, False),
    (np.inf, -np.inf, False),
    (2.0, np.nan, False),
    (np.nan, np.nan, True),
    (-np.inf, -np.inf, True),
])
def test_compare_reltol_nonfinite(got, want, ok):
    a = {"y": np.array([1.0, got], np.float32)}
    b = {"y": np.array([1.0, want], np.float32)}
    rep = compare_outputs(a, b, ("reltol", 1e-4))
    assert rep.ok == ok
    if not ok:
        assert rep.worst_index == (1,) and rep.rel_err == np.inf
        assert "rel_err inf" in str(rep)


def test_compare_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape"):
        compare_outputs({"y": np.zeros(2, np.float32)}, {"y": np.zeros(3, np.float32)},
                        "bitexact")
    with pytest.raises(ValueError, match="name"):
        compare_outputs({"y": np.zeros(2, np.float32)}, {"z": np.zeros(2, np.float32)},
                        "bitexact")


def test_negative_zero_is_not_bitexact_zero():
    a = {"y": np.array([0.0], np.float32)}
    b = {"y": np.array([-0.0], np.float32)}
    assert not compare_outputs(a, b, "bitexact").ok


# -- TensorValue ---------------------------------------------------------------

def test_tensor_value_roundtrip():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    tv = TensorValue.from_array(arr)
    assert tv.shape == (2, 3) and tv.data.ndim == 1
    np.testing.assert_array_equal(tv.to_array(), arr)
    with pytest.raises(ValueError):
        TensorValue((2, 3), np.zeros(5, np.float32))


@pytest.mark.parametrize("rows,cols", [(3, 4), (4, 5)])  # 12 and 20 output lanes
@pytest.mark.parametrize("transposed", [False, True])
def test_carried_folds_continue_from_the_output_in_its_own_layout(rows, cols, transposed):
    # y = sum of x over d2, once whole and once as two carried folds over
    # halves of d2 into an accumulator laid out as y is
    out_map = ir.AffineIndexMap((1, 0) if transposed else (0, 1))
    y_shape = (cols, rows) if transposed else (rows, cols)

    def fold(src, dst, red, depth=10):
        return ir.GenericOp(f"s_{src}", (rows, cols, depth), (src,), (dst,),
                            (ir.AffineIndexMap.identity(3), out_map),
                            ("parallel", "parallel", "reduction"), (ir.Payload.arg(0),), (red,))

    decls = (TensorDecl("x", (rows, cols, 10), role="input"),
             TensorDecl("y", y_shape, role="output"))
    whole = KernelProgram("whole", decls, (fold("x", "y", ir.Reduction.sum()),))
    halves = KernelProgram("halves", decls, (
        AllocOp("acc", y_shape, "tcm", fill=0.0),
        ExtractSliceOp("h0", "x", (0, 0, 0), (rows, cols, 5)),
        fold("h0", "acc", ir.Reduction.sum().carried(), 5),
        ExtractSliceOp("h1", "x", (0, 0, 5), (rows, cols, 5)),
        fold("h1", "acc", ir.Reduction.sum().carried(), 5),
        InsertSliceOp("acc", "y", (0, 0), y_shape),
        DeallocOp("acc"),
    ))
    assert ir.verify(halves).ok
    x = np.random.default_rng(rows).standard_normal((rows, cols, 10)).astype(np.float32) * 1e4
    x[0, 0] = -0.0
    assert bitexact(interpret(halves, {"x": x}), interpret(whole, {"x": x}))


def test_interpret_accepts_tensor_values():
    p = lower("gelu", {"N": 4})
    tv = TensorValue.from_array(np.zeros(4, np.float32))
    out = interpret(p, {"x": tv})
    np.testing.assert_array_equal(out["y"], np.zeros(4, np.float32))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_interp.py --write")
    GOLDEN.write_text("\n".join(golden_lines()) + "\n")
