import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmc import interp, ir
from tcmc.frontend import lower_to_generics, parse_kernel
from tcmc.interp import ExecutionFault, TensorValue, compare_outputs, interpret
from tcmc.ir import (
    AllocOp, CopyOp, DeallocOp, DmaStartOp, DmaWaitOp, ExtractSliceOp,
    InsertSliceOp, KernelProgram, TensorDecl,
)

from conftest import bitexact, kernel_inputs, kernel_source, lower


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
        ops.append(CopyOp("tile", "y"))
    if with_wait:
        ops.append(DmaWaitOp("tag"))
        ops.append(CopyOp("tile", "y"))
    ops += [DeallocOp("tag"), DeallocOp("tile")]
    return KernelProgram("dma", decls, tuple(ops))


def test_dma_read_before_wait_faults():
    x = {"x": np.arange(8, dtype=np.float32)}
    ok = interpret(dma_program(), x)
    np.testing.assert_array_equal(ok["y"], x["x"])
    with pytest.raises(ExecutionFault, match="before dma_wait"):
        interpret(dma_program(read_before_wait=True), x)


def test_dma_unbalanced_tag_faults():
    x = {"x": np.arange(8, dtype=np.float32)}
    with pytest.raises(ExecutionFault, match="un-waited|in flight"):
        interpret(dma_program(with_wait=False), x)
    # double start on one tag
    p = dma_program()
    ops = list(p.ops)
    ops.insert(3, ops[2])
    with pytest.raises(ExecutionFault, match="already in flight"):
        interpret(p.with_ops(tuple(ops)), x)


def test_wait_on_idle_tag_faults():
    decls = (TensorDecl("x", (8,), role="input"), TensorDecl("y", (8,), role="output"))
    ops = (AllocOp("tag", (1,), "ddr"), DmaWaitOp("tag"), DeallocOp("tag"),
           CopyOp("x", "y"))
    with pytest.raises(ExecutionFault, match="idle tag"):
        interpret(KernelProgram("p", decls, ops), {"x": np.zeros(8, np.float32)})


def test_out_of_bounds_slice_faults():
    decls = (TensorDecl("x", (8,), role="input"), TensorDecl("y", (8,), role="output"))
    ops = (ExtractSliceOp("s", "x", (4,), (8,)), InsertSliceOp("s", "y", (0,), (8,)))
    with pytest.raises(ExecutionFault, match="out-of-bounds"):
        interpret(KernelProgram("p", decls, ops), {"x": np.zeros(8, np.float32)})


def test_missing_input_rejected():
    p = lower("gelu", {"N": 8})
    with pytest.raises(ValueError, match="missing input"):
        interpret(p, {})
    with pytest.raises(ValueError, match="shape"):
        interpret(p, {"x": np.zeros(9, np.float32)})


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


def test_interpret_accepts_tensor_values():
    p = lower("gelu", {"N": 4})
    tv = TensorValue.from_array(np.zeros(4, np.float32))
    out = interpret(p, {"x": tv})
    np.testing.assert_array_equal(out["y"], np.zeros(4, np.float32))
