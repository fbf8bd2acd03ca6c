"""Shared pass helpers (`split_generic`, the constant extent bounds) and the db pass."""

from dataclasses import replace

import numpy as np
import pytest

from tcmc import ir, perf, pipeline
from tcmc.frontend import lower_to_generics, parse_kernel
from tcmc.interp import interpret
from tcmc.ir import (
    AffineIndexMap, AllocOp, DeallocOp, ExtractSliceOp, ForOp, GenericOp, InsertSliceOp,
    IVar, KernelProgram, Payload, TensorDecl, ix_min, ix_sub,
)
from tcmc.passes import double_buffer_loops as db
from tcmc.passes.common import BufInfo, NameAllocator, const_upper, const_uppers, split_generic

from conftest import DEFAULT_PASSES, bitexact

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
        head, sub = split_generic(g, dim, offset, size, names, info, "v")
        parts.append((head, sub))
        ops += [*head, replace(sub, name=f"g_{k}")]
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
    # One view per operand, inputs then outputs: each output is written in place.
    split, parts = split_in_two(two_output_program(), 1, 7)
    head, sub = parts[1]
    assert head == (
        ExtractSliceOp("v4", "x", (0, 7), (ROWS, 3)),
        ExtractSliceOp("v5", "b", (7,), (3,)),
        ExtractSliceOp("v6", "y1", (0, 7), (ROWS, 3)),
        ExtractSliceOp("v7", "y2", (0, 7), (ROWS, 3)),
    )
    assert sub.domain == (ROWS, 3) and sub.inputs == ("v4", "v5") and sub.outputs == ("v6", "v7")
    assert not ir.count_ops(split, lambda op: isinstance(op, (AllocOp, InsertSliceOp, DeallocOp)))


def test_split_generic_keeps_inputs_that_do_not_read_the_dim():
    _, parts = split_in_two(two_output_program(), 0, 4)
    head, sub = parts[0]
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


# -- db: double buffering ------------------------------------------------------

DB_N, DB_T = 40, 16  # 40 is not a multiple of the tile: the last tile is partial


def tiled_loop_program(normal_form: bool = True) -> KernelProgram:
    """y1 = x + w and y2 = x * w, tiled by DB_T, both inputs staged into TCM.

    With `normal_form` off the generic reads DDR views directly, so the
    body has no leading `extract_slice ... @tcm` run for db to double-buffer.
    """
    i = IVar("i")
    size = ix_min(DB_T, ix_sub(DB_N, i))
    ident = AffineIndexMap.identity(1)
    body: list = []
    ins = []
    for name in ("x", "w"):
        body.append(ExtractSliceOp(f"{name}_t", name, (i,), (size,), "tcm" if normal_form else None))
        ins.append(f"{name}_t")
    body += [
        AllocOp("o1", (size,), "tcm"), AllocOp("o2", (size,), "tcm"),
        GenericOp("g", (size,), tuple(ins), ("o1", "o2"), (ident,) * 4, ("parallel",),
                  (Payload.binary("add", Payload.arg(0), Payload.arg(1)),
                   Payload.binary("mul", Payload.arg(0), Payload.arg(1)))),
        InsertSliceOp("o1", "y1", (i,), (size,)),
        InsertSliceOp("o2", "y2", (i,), (size,)),
    ]
    body += [DeallocOp("o1"), DeallocOp("o2")]
    loop = ForOp("i", 0, DB_N, DB_T, tuple(body),
                 annotations=frozenset({"tiled_generic", "all_parallel"}))
    decls = tuple(TensorDecl(n, (DB_N,), space="ddr", role=role)
                  for n, role in (("x", "input"), ("w", "input"),
                                  ("y1", "output"), ("y2", "output")))
    return KernelProgram("db_probe", decls, (loop,), stage="tiled")


# pins the buf/tag names, the slot offsets and the op order
DB_EXPECTED = """\
program @db_probe stage=db-dma {
  tensor %x: f32[40] @ddr role=input
  tensor %w: f32[40] @ddr role=input
  tensor %y1: f32[40] @ddr role=output
  tensor %y2: f32[40] @ddr role=output
  %buf0 = alloc f32[32] @tcm
  %buf1 = alloc f32[32] @tcm
  %tag0 = alloc f32[1] @ddr {dma_tag}
  %tag1 = alloc f32[1] @ddr {dma_tag}
  if (0 < 40) {db_generic=0, db_prologue} {
    dma_start tag=%tag0 %x[0] -> %buf0[0] sizes=[16]
    dma_start tag=%tag1 %w[0] -> %buf1[0] sizes=[16]
  }
  for %i = 0 to 40 step 16 {all_parallel, db_generic=0, tiled_generic} {
    dma_wait tag=%tag0
    dma_wait tag=%tag1
    %x_t = extract_slice %buf0[(((%i // 16) - (((%i // 16) // 2) * 2)) * 16)][16]
    %w_t = extract_slice %buf1[(((%i // 16) - (((%i // 16) // 2) * 2)) * 16)][16]
    if ((%i + 16) < 40) {db_prefetch} {
      dma_start tag=%tag0 %x[(%i + 16)] -> %buf0[((1 - ((%i // 16) - (((%i // 16) // 2) * 2))) * 16)] sizes=[min(16, (40 - (%i + 16)))]
      dma_start tag=%tag1 %w[(%i + 16)] -> %buf1[((1 - ((%i // 16) - (((%i // 16) // 2) * 2))) * 16)] sizes=[min(16, (40 - (%i + 16)))]
    }
    %o1 = alloc f32[min(16, (40 - %i))] @tcm
    %o2 = alloc f32[min(16, (40 - %i))] @tcm
    generic @g domain=[min(16, (40 - %i))] iters=[parallel]
        ins(%x_t: (d0) %w_t: (d0)) outs(%o1: (d0) %o2: (d0))
        yield add(a0, a1)
        yield mul(a0, a1)
    insert_slice %o1 -> %y1[%i][min(16, (40 - %i))]
    insert_slice %o2 -> %y2[%i][min(16, (40 - %i))]
    dealloc %o1
    dealloc %o2
  }
  dealloc %tag0
  dealloc %tag1
  dealloc %buf0
  dealloc %buf1
}
"""


def test_db_emits_the_pinned_ping_pong_dma_form():
    program = tiled_loop_program()
    out = db(program)
    assert ir.verify(program).ok and ir.verify(out).ok
    assert ir.print_ir(out) == DB_EXPECTED
    rng = np.random.default_rng(0)
    inputs = {d.name: rng.standard_normal(d.shape).astype(np.float32) for d in program.inputs()}
    assert bitexact(interpret(out, inputs), interpret(program, inputs))


def test_db_leaves_a_loop_outside_normal_form_as_it_is():
    program = tiled_loop_program(normal_form=False)
    assert ir.verify(program).ok
    assert db(program) is program


def test_db_twice_equals_db_once():
    once = db(tiled_loop_program())
    assert db(once) is once


# -- f16 (narrow) staging --------------------------------------------------------

NARROW_N, NARROW_T = 4096 + 100, 1024  # the last tile is partial


def twin_stages(dtype: str) -> list[KernelProgram]:
    """y = x * x + 0.5 with x and y declared `dtype`: the lowered program,
    then the program after each default pass."""
    source = (f"kernel twin(x: {dtype}[N], y: {dtype}[N]) {{\n"
              "    xv = load(x)\n    store(y, xv * xv + 0.5)\n}\n")
    stages = [lower_to_generics(parse_kernel(source), {"N": NARROW_N})]
    opts = pipeline.PipelineOptions(tile_sizes=(NARROW_T,))
    for name in DEFAULT_PASSES:
        stages.append(pipeline.apply_pass(name, stages[-1], opts))
    return stages


def test_f16_staging_through_the_default_passes():
    f16, f32 = twin_stages("f16"), twin_stages("f32")
    final = f16[-1]
    # the same schedule, with the two-slot buffer and the output tile allocated narrow
    text = ir.print_ir(final).replace(" narrow", "").replace("f16", "f32")
    assert text == ir.print_ir(f32[-1])
    buffers = [op for op, _ in ir.walk_ops(final.ops)
               if isinstance(op, AllocOp) and op.result.startswith("buf")]
    assert [op.result for op in buffers] == ["buf0"]
    assert all(op.narrow for op in buffers)

    # live TCM of the tiled stage: the staged %x tile (1024 f16, 2048 bytes)
    # plus the narrow output tile (2048 bytes); both are 4096 bytes in f32
    tiled = next(p for p in f16 if p.stage == "tiled")
    assert any(isinstance(op, ExtractSliceOp) and op.space == "tcm"
               for op, _ in ir.walk_ops(tiled.ops))
    assert ir.verify(tiled, tcm_bytes=4096).ok
    assert [v.rule for v in ir.verify(tiled, tcm_bytes=4095).violations] == ["tcm budget"]
    twin_tiled = next(p for p in f32 if p.stage == "tiled")
    assert [v.rule for v in ir.verify(twin_tiled, tcm_bytes=8191).violations] == ["tcm budget"]

    # every transfer, staged extract or DMA, moves half the bytes: the
    # bandwidth term halves and the latency term stays
    machine = perf.MachineConfig()
    bandwidth_only = replace(machine, dma_latency_cycles=0.0)
    for narrow, wide in zip(f16[2:], f32[2:]):  # from `tile` on
        half = perf.simulate(wide, bandwidth_only).transfer_cycles / 2
        assert half > 0
        assert perf.simulate(narrow, bandwidth_only).transfer_cycles == half
        assert perf.simulate(narrow, machine).transfer_cycles == (
            perf.simulate(wide, machine).transfer_cycles - half)

    rng = np.random.default_rng(0)
    inputs = {"x": rng.standard_normal(NARROW_N).astype(np.float32)}
    got = interpret(final, inputs)
    assert bitexact(got, interpret(f16[0], inputs))
    assert bitexact(got, interpret(f32[-1], inputs))
