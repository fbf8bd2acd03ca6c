"""Shared pass helpers: `split_generic` and the constant extent bounds."""

from dataclasses import replace

import numpy as np
import pytest

from tcmc import ir
from tcmc.interp import interpret
from tcmc.ir import (
    AffineIndexMap, AllocOp, DeallocOp, ExtractSliceOp, GenericOp, InsertSliceOp, IVar,
    KernelProgram, Payload, TensorDecl, ix_min, ix_sub,
)
from tcmc.passes.common import BufInfo, NameAllocator, const_upper, const_uppers, split_generic

from conftest import bitexact

ROWS, COLS = 6, 10


def two_output_program() -> KernelProgram:
    """y1 = x + b and y2 = x * b over (ROWS, COLS), b broadcast along the rows."""
    g = GenericOp(
        "g", (ROWS, COLS), ("x", "b"), ("y1", "y2"),
        (AffineIndexMap((0, 1)), AffineIndexMap((1,)),
         AffineIndexMap((0, 1)), AffineIndexMap((0, 1))),
        ("parallel", "parallel"),
        (Payload.binary("add", Payload.arg(0), Payload.arg(1)),
         Payload.binary("mul", Payload.arg(0), Payload.arg(1))))
    decls = (TensorDecl("x", (ROWS, COLS), role="input"), TensorDecl("b", (COLS,), role="input"),
             TensorDecl("y1", (ROWS, COLS), role="output"),
             TensorDecl("y2", (ROWS, COLS), role="output"))
    return KernelProgram("two_out", decls, (g,))


def split_in_two(program: KernelProgram, dim: int, cut: int) -> tuple[KernelProgram, list]:
    (g,) = program.ops
    names, info = NameAllocator(program), BufInfo(program)
    ops, parts = [], []
    for k, (offset, size) in enumerate(((0, cut), (cut, g.domain[dim] - cut))):
        head, sub, tail = split_generic(g, dim, offset, size, names, info, "v", "w")
        parts.append((head, sub, tail))
        ops += [*head, replace(sub, name=f"g_{k}"), *tail]
    return program.with_ops(tuple(ops)), parts


@pytest.mark.parametrize("dim,cut", [(0, 4), (1, 7)])
def test_split_generic_interprets_bit_equal(dim, cut):
    program = two_output_program()
    split, _ = split_in_two(program, dim, cut)
    assert ir.verify(split).ok
    rng = np.random.default_rng(0)
    inputs = {d.name: rng.standard_normal(d.shape).astype(np.float32) for d in program.inputs()}
    assert bitexact(interpret(split, inputs), interpret(program, inputs))


def test_split_generic_op_order_is_pinned():
    # Both outputs are inserted back before either sub-output is deallocated.
    _, parts = split_in_two(two_output_program(), 1, 7)
    head, sub, tail = parts[1]
    assert head == (
        ExtractSliceOp("v2", "x", (0, 7), (ROWS, 3)),
        ExtractSliceOp("v3", "b", (7,), (3,)),
        AllocOp("w2", (ROWS, 3), "ddr"),
        AllocOp("w3", (ROWS, 3), "ddr"),
    )
    assert sub.domain == (ROWS, 3) and sub.inputs == ("v2", "v3") and sub.outputs == ("w2", "w3")
    assert tail == (
        InsertSliceOp("w2", "y1", (0, 7), (ROWS, 3)),
        InsertSliceOp("w3", "y2", (0, 7), (ROWS, 3)),
        DeallocOp("w2"),
        DeallocOp("w3"),
    )


def test_split_generic_keeps_inputs_that_do_not_read_the_dim():
    _, parts = split_in_two(two_output_program(), 0, 4)
    head, sub, _ = parts[0]
    assert sub.inputs == ("v0", "b") and sub.domain == (4, COLS)
    assert head[0] == ExtractSliceOp("v0", "x", (0, 0), (4, COLS))


def test_const_upper_bounds_ints_and_min_only():
    i = IVar("i")
    assert const_upper(7) == 7
    assert const_upper(ix_min(4096, ix_sub(16397, i))) == 4096
    assert const_upper(ix_min(ix_sub(16397, i), 4096)) == 4096
    assert const_upper(ix_sub(16397, i)) is None
    assert const_upper(ix_min(ix_min(8, ix_sub(9, i)), 5)) == 5
    assert const_upper(ix_min(5, ix_min(8, ix_sub(9, i)))) == 5
    assert const_uppers((3, ix_min(5, ix_sub(9, i)))) == (3, 5)
    assert const_uppers((3, ix_sub(9, i))) is None
    assert const_uppers(()) == ()
