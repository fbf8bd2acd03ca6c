import numpy as np
import pytest

from tcmc import interp, ir, pipeline
from tcmc.frontend import (
    Assign, EReduce, ParseError, Store, evaluate_ast, lower_to_generics,
    parse_kernel, print_kernel_source, strip_spans,
)

from conftest import (
    ALL_KERNELS, BENCH_DIMS, CONST_SCALAR_SOURCE, DEFAULT_PASSES, bitexact, kernel_inputs,
    kernel_source, lower,
)


def test_softmax_ast_statements():
    ast = parse_kernel(kernel_source("softmax"))
    assigns = [s for s in ast.stmts if isinstance(s, Assign)]
    stores = [s for s in ast.stmts if isinstance(s, Store)]
    assert [s.name for s in assigns] == ["xv", "shifted", "num", "den", "out"]
    assert len(stores) == 1 and stores[0].tensor == "y"
    assert isinstance(assigns[3].expr, EReduce) and assigns[3].expr.kind == "sum"
    assert ast.stmts[0].span.line > 1  # spans attached, 1-based


def test_rmsnorm_ast_uses_sqrt_not_rsqrt():
    ast = parse_kernel(kernel_source("rmsnorm"))
    text = print_kernel_source(ast)
    assert "sqrt(" in text and "rsqrt" not in text
    assert "sum(" in text


@pytest.mark.parametrize("source,fragment,line", [
    ("kernel k(x: f32[N], y: f32[N]) { y2 = x + }", "expected expression", 1),
    ("kernel k(x: f32[N], y: f32[N]) {\n    a = load(x)\n    b = ghost + a\n    store(y, b)\n}",
     "undefined identifier", 3),
    ("kernel k(x: f32[N], y: f32[N]) {\n    a = load(x)\n    store(y, a)\n    store(y, a)\n}",
     "duplicate store", 4),
    ("kernel k(x: f32[N], y: f32[N]) {\n    a = sum(load(x), axis=1)\n    store(y, a)\n}",
     "axis 1 invalid", 2),
])
def test_parse_errors_carry_spans(source, fragment, line):
    with pytest.raises(ParseError) as e:
        parse_kernel(source)
    assert fragment in str(e.value)
    assert e.value.span.line == line


def test_param_read_requires_load():
    src = "kernel k(x: f32[N], y: f32[N]) {\n    store(y, x + 1.0)\n}"
    with pytest.raises(ParseError, match="load"):
        parse_kernel(src)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_roundtrip_parse_print_parse(name):
    ast = parse_kernel(kernel_source(name))
    again = parse_kernel(print_kernel_source(ast))
    assert strip_spans(again) == strip_spans(ast)


def test_lower_softmax_structure():
    p = lower("softmax")
    gens = [op for op in p.ops if isinstance(op, ir.GenericOp)]
    kinds = ["reduction" if g.reduction_dims() else "parallel" for g in gens]
    assert kinds == ["reduction", "parallel", "parallel", "reduction", "parallel"]
    # division reads the reduced scalar through a broadcast map, not recompute
    div = gens[-1]
    assert len(div.inputs) == 2
    assert div.maps[1].results == (None,)


def test_lower_single_statement_add():
    src = "kernel add1(a: f32[8], b: f32[8], y: f32[8]) {\n" \
          "    av = load(a)\n    bv = load(b)\n    store(y, av + bv)\n}"
    p = lower_to_generics(parse_kernel(src))
    gens = [op for op in p.ops if isinstance(op, ir.GenericOp)]
    assert len(gens) == 1
    assert all(m == ir.AffineIndexMap.identity(1) for m in gens[0].maps)
    assert gens[0].outputs == ("y",)


def test_lower_gelu_single_generic_with_cubic_tanh_payload():
    p = lower("gelu", {"N": 64})
    gens = [op for op in p.ops if isinstance(op, ir.GenericOp)]
    assert len(gens) == 1 and gens[0].is_all_parallel()
    kinds = [n.kind for n in gens[0].payloads[0].nodes()]
    assert "tanh" in kinds
    consts = {n.value for n in gens[0].payloads[0].nodes() if n.kind == "const"}
    assert float(np.float32(0.044715)) in consts


def test_constant_scalar_assignments_fold_into_the_payload():
    ast = parse_kernel(CONST_SCALAR_SOURCE)
    program = lower_to_generics(ast, {"N": 4096})
    gens = [op for op in program.ops if isinstance(op, ir.GenericOp)]
    assert len(gens) == 1 and gens[0].inputs == ("x",) and gens[0].outputs == ("y",)
    assert 6.0 in {n.value for n in gens[0].payloads[0].nodes() if n.kind == "const"}
    inputs = kernel_inputs(program, "scaled")
    want = evaluate_ast(ast, inputs, {"N": 4096})
    assert bitexact(interp.interpret(program, inputs), want)


RANK0_SOURCE = """\
kernel rank0(x: f32[N], y: f32[N]) {
    xv = load(x)
    s = sum(xv, axis=0)
    t = s * 2.0
    u = exp(t / N) - s
    store(y, xv * t + u)
}
"""


def test_scalar_math_on_a_rank0_tensor_lowers_to_one_point_generics():
    ast = parse_kernel(RANK0_SOURCE)
    program = lower_to_generics(ast, {"N": 64})
    gens = [op for op in program.ops if isinstance(op, ir.GenericOp)]
    # sum, then t and u each over one point, then the store
    assert [g.domain for g in gens] == [(64,), (1,), (1,), (64,)]
    assert [d.shape for d in program.decls if d.role == "temp"] == [(1,), (1,), (1,)]
    ones = {"x": np.ones(64, np.float32)}
    want = evaluate_ast(ast, ones, {"N": 64})
    np.testing.assert_allclose(want["y"], 128.0 + (np.exp(2.0) - 64.0), rtol=1e-6)  # s = 64
    assert bitexact(interp.interpret(program, ones), want)
    inputs = kernel_inputs(program, "rank0")
    want = evaluate_ast(ast, inputs, {"N": 64})
    opts = pipeline.PipelineOptions(mt_threshold=1)
    for name in DEFAULT_PASSES:
        program = pipeline.apply_pass(name, program, opts)
        assert bitexact(interp.interpret(program, inputs), want), name


def test_lower_rmsnorm_broadcast_maps():
    p = lower("rmsnorm", {"R": 4, "C": 8})
    out = [op for op in p.ops if isinstance(op, ir.GenericOp)][-1]
    # operands: xv (R,C), rms (R), gv (C)
    by_input = dict(zip(out.inputs, out.input_maps()))
    assert by_input["x"].results == (0, 1)
    assert by_input["g"].results == (1,)


def test_unresolved_dim_symbol_rejected():
    with pytest.raises(ValueError, match="unresolved dimension"):
        lower_to_generics(parse_kernel(kernel_source("gelu")))


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_lowered_program_verifies(name):
    assert ir.verify(lower(name)).ok


@pytest.mark.parametrize("name", ALL_KERNELS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ingestion_preserves_semantics_bitexact(name, seed):
    dims = {"softmax": {"N": 513}, "gelu": {"N": 4096}, "silu": {"N": 1000},
            "rmsnorm": {"R": 17, "C": 33}, "vecadd2d": {"R": 5, "C": 40},
            "expseries": {"N": 2048}}[name]
    ast = parse_kernel(kernel_source(name))
    program = lower_to_generics(ast, dims)
    inputs = kernel_inputs(program, name, seed)
    got = interp.interpret(program, inputs)
    want = evaluate_ast(ast, inputs, dims)
    assert bitexact(got, want)
