"""`fuse_elementwise` against the quadratic pass it replaced, and its cost growth.

The oracle below is the earlier pass kept verbatim: it rescans the program
from the first op after every splice, counts a tensor's uses with a fresh
walk per legality check, and copies whole payload trees. The linear pass
must print byte-identical IR on every program here.
"""

import sys
from dataclasses import replace
from typing import Optional, Union

import pytest

from tcmc import ir, oracles
from tcmc.ir import (
    AffineIndexMap, ForOp, GenericOp, InsertSliceOp, KernelProgram, Payload, Reduction, TensorDecl,
)
from tcmc.passes import fusion, fuse_elementwise, tile_generic

from conftest import ALL_KERNELS, lower

# -- the oracle: the earlier pass, kept verbatim -------------------------------


def old_map_args(p: Payload, remap: dict[int, int]) -> Payload:
    if p.kind == "arg":
        return Payload.arg(remap[p.index])
    if not p.args:
        return p
    return replace(p, args=tuple(old_map_args(a, remap) for a in p.args))


def old_substitute_arg(p: Payload, index: int, expr: Payload) -> Payload:
    if p.kind == "arg":
        return expr if p.index == index else p
    if not p.args:
        return p
    return replace(p, args=tuple(old_substitute_arg(a, index, expr) for a in p.args))


def old_use_count(program: KernelProgram, tensor: str) -> int:
    uses = 0
    for op, _ in ir.walk_ops(program.ops):
        if isinstance(op, GenericOp):
            uses += sum(1 for n in op.inputs if n == tensor)
        else:
            for attr in ("source", "dest"):
                if getattr(op, attr, None) == tensor:
                    uses += 1
    return uses


def old_fusion_legal(program, producer, consumer, operand) -> Union[
        fusion.FusionCandidate, fusion.FusionRejection]:
    FusionCandidate, FusionRejection = fusion.FusionCandidate, fusion.FusionRejection
    tensor = consumer.inputs[operand]
    assert tensor in producer.outputs, "operand is not produced by this producer"

    if not producer.is_all_parallel():
        return FusionRejection("producer_has_reduction",
                               f"@{producer.name} has reduction iterators")
    if len(producer.outputs) != 1:
        return FusionRejection("map_mismatch", f"@{producer.name} has multiple outputs")
    decl = program.decl(tensor)
    if decl is not None and decl.role != "temp":
        return FusionRejection("multi_use", f"%{tensor} is a program output")
    if old_use_count(program, tensor) != 1:
        return FusionRejection("multi_use", f"%{tensor} has multiple uses")

    pmap = producer.output_maps()[0]
    cmap = consumer.maps[operand]
    if None in pmap.results or None in cmap.results:
        return FusionRejection("map_mismatch", "broadcast dims block payload splicing")
    if len(consumer.domain) != len(producer.domain):
        return FusionRejection("map_mismatch",
                               "iteration domains have different rank (would recompute)")
    if len(set(cmap.results)) != len(consumer.domain):
        return FusionRejection("map_mismatch",
                               "consumer reads a projection of its domain (would recompute)")
    relabel = [0] * len(producer.domain)
    for j, p in enumerate(pmap.results):
        relabel[p] = cmap.results[j]
    for p, q in enumerate(relabel):
        pe, qe = producer.domain[p], consumer.domain[q]
        if isinstance(pe, int) and isinstance(qe, int) and pe != qe:
            return FusionRejection("map_mismatch", f"extent mismatch d{p}={pe} vs d{q}={qe}")
    return FusionCandidate(producer.name, consumer.name, operand, tuple(relabel))


_HOLE = -1


def old_splice(producer, consumer, cand) -> GenericOp:
    kept = []
    consumer_renumber = {}
    for i, (name, m) in enumerate(zip(consumer.inputs, consumer.input_maps())):
        if i == cand.operand:
            consumer_renumber[i] = _HOLE
        else:
            consumer_renumber[i] = len(kept)
            kept.append((name, m))

    prod_renumber = {}
    for i, (name, m) in enumerate(zip(producer.inputs, producer.input_maps())):
        relabeled = AffineIndexMap(
            tuple(None if r is None else cand.relabel[r] for r in m.results))
        idx = next((k for k, (n2, m2) in enumerate(kept) if n2 == name and m2 == relabeled), None)
        if idx is None:
            idx = len(kept)
            kept.append((name, relabeled))
        prod_renumber[i] = idx

    producer_expr = old_map_args(producer.payloads[0], prod_renumber)
    new_payloads = tuple(
        old_substitute_arg(old_map_args(p, consumer_renumber), _HOLE, producer_expr)
        for p in consumer.payloads)
    return replace(
        consumer,
        inputs=tuple(n for n, _ in kept),
        maps=tuple(m for _, m in kept) + consumer.output_maps(),
        payloads=new_payloads,
    )


def old_first_candidate(program) -> Optional[tuple]:
    generics = [(i, op) for i, op in enumerate(program.ops) if isinstance(op, GenericOp)]
    producer_of = {}
    for i, g in generics:
        for out in g.outputs:
            producer_of[out] = (i, g)
    for ci, consumer in generics:
        for oi, name in enumerate(consumer.inputs):
            hit = producer_of.get(name)
            if hit is None or hit[0] == ci:
                continue
            pi, producer = hit
            cand = old_fusion_legal(program, producer, consumer, oi)
            if isinstance(cand, fusion.FusionCandidate):
                return pi, ci, cand
    return None


def old_fuse_elementwise(program: KernelProgram) -> KernelProgram:
    current = program
    while True:
        hit = old_first_candidate(current)
        if hit is None:
            break
        pi, ci, cand = hit
        consumer = current.ops[ci]
        fused = old_splice(current.ops[pi], consumer, cand)
        tensor = consumer.inputs[cand.operand]
        ops = tuple(fused if op is consumer else op
                    for op in current.ops if op is not current.ops[pi])
        decls = tuple(d for d in current.decls if d.name != tensor)
        current = replace(current, decls=decls, ops=ops, stage="fused")
    return current


def assert_same_fusion(program: KernelProgram) -> None:
    want = ir.print_ir(old_fuse_elementwise(program))
    assert ir.print_ir(fuse_elementwise(program)) == want


# -- programs -----------------------------------------------------------------

N = 64


def ew(name, inputs, output, payload, domain=(N,), maps=None) -> GenericOp:
    rank = len(domain)
    maps = maps or tuple(AffineIndexMap.identity(rank) for _ in (*inputs, output))
    return GenericOp(name, domain, tuple(inputs), (output,), maps, ("parallel",) * rank,
                     (payload,))


def prog(decls, ops, name="dag") -> KernelProgram:
    return KernelProgram(name, tuple(decls), tuple(ops), "lowered")


def t(name, role="temp", shape=(N,)) -> TensorDecl:
    return TensorDecl(name, shape, role=role)


A0, A1 = Payload.arg(0), Payload.arg(1)


def add(a, b):
    return Payload.binary("add", a, b)


def mul(a, b):
    return Payload.binary("mul", a, b)


def c(v):
    return Payload.const(v)


def chain(n: int) -> KernelProgram:
    """expseries' shape: link k computes 1 + x * t_{k-1} * c_k, the last writes y."""
    ops = [ew("g0", ["x"], "t0", add(c(1.0), mul(A0, c(0.5))))]
    for k in range(1, n):
        out = "y" if k == n - 1 else f"t{k}"
        ops.append(ew(f"g{k}", ["x", f"t{k - 1}"], out,
                      add(c(1.0), mul(mul(A0, A1), c(1.0 / (k + 2))))))
    decls = [t("x", "input"), *(t(f"t{k}") for k in range(n - 1)), t("y", "output")]
    return prog(decls, ops, f"chain{n}")


def shared_input() -> KernelProgram:
    # the consumer already reads %x through the producer's map: one read of %x
    return prog([t("x", "input"), t("b", "input"), t("t"), t("y", "output")], [
        ew("p", ["x", "b"], "t", mul(A0, A1)),
        ew("c", ["b", "t", "x"], "y", add(mul(A1, Payload.arg(2)), A0)),
    ])


def producer_reads_twice() -> KernelProgram:
    return prog([t("x", "input"), t("t"), t("y", "output")], [
        ew("p", ["x", "x"], "t", mul(A0, A1)),
        ew("c", ["t"], "y", Payload.unary("exp", A0)),
    ])


def transposed() -> KernelProgram:
    r, k = 4, 8
    d01, d10 = AffineIndexMap((0, 1)), AffineIndexMap((1, 0))
    return prog([t("x", "input", (r, k)), t("w", "input", (k, r)), t("t", shape=(r, k)),
                 t("u", shape=(k, r)), t("y", "output", (k, r))], [
        # t[i, j] = x[i, j] * 2; u = transpose(t) + w; y = exp(u) * w
        ew("p", ["x"], "t", mul(A0, c(2.0)), (r, k), (d01, d01)),
        ew("q", ["t", "w"], "u", add(A0, A1), (k, r), (d10, d01, d01)),
        ew("s", ["w", "u"], "y", mul(Payload.unary("exp", A1), A0), (k, r), (d01, d01, d01)),
    ])


def temp_is_output() -> KernelProgram:
    return prog([t("x", "input"), t("z", "output"), t("y", "output")], [
        ew("p", ["x"], "z", Payload.unary("neg", A0)),
        ew("c", ["z"], "y", mul(A0, A0)),
    ])


def reduction_consumer() -> KernelProgram:
    r, k = 4, 8
    return prog([t("x", "input", (r, k)), t("t", shape=(r, k)), t("y", "output", (r,))], [
        ew("p", ["x"], "t", Payload.unary("exp", A0), (r, k)),
        GenericOp("s", (r, k), ("t",), ("y",), (AffineIndexMap((0, 1)), AffineIndexMap((0,))),
                  ("parallel", "reduction"), (A0,), (Reduction.sum(),)),
    ])


def reduction_producer() -> KernelProgram:
    r, k = 4, 8
    return prog([t("x", "input", (r, k)), t("m", shape=(r,)), t("y", "output", (r,))], [
        GenericOp("s", (r, k), ("x",), ("m",), (AffineIndexMap((0, 1)), AffineIndexMap((0,))),
                  ("parallel", "reduction"), (A0,), (Reduction.max(),)),
        ew("e", ["m"], "y", Payload.unary("neg", A0), (r,)),
    ])


def nested_use() -> KernelProgram:
    # %t is read again inside a loop, so it has two uses and stays
    loop = ForOp("i", 0, 1, 1, (InsertSliceOp("t", "z", (0,), (N,)),))
    return prog([t("x", "input"), t("t"), t("z", "output"), t("y", "output")], [
        ew("p", ["x"], "t", Payload.unary("neg", A0)),
        ew("c", ["t"], "y", mul(A0, c(3.0))),
        loop,
    ])


def consumer_reads_twice() -> KernelProgram:
    return prog([t("x", "input"), t("t"), t("y", "output")], [
        ew("p", ["x"], "t", Payload.unary("neg", A0)),
        ew("c", ["t", "t"], "y", mul(A0, A1)),
    ])


def diamond() -> KernelProgram:
    # x -> a -> (b, c) -> y: %a has two readers, %b and %c fuse into y
    return prog([t("x", "input"), t("a"), t("b"), t("c"), t("y", "output")], [
        ew("ga", ["x"], "a", Payload.unary("exp", A0)),
        ew("gb", ["a"], "b", mul(A0, c(2.0))),
        ew("gc", ["a", "x"], "c", add(A0, A1)),
        ew("gy", ["b", "c", "x"], "y", add(mul(A0, A1), Payload.arg(2))),
    ])


def consumer_before_producer() -> KernelProgram:
    return prog([t("x", "input"), t("t"), t("y", "output")], [
        ew("c", ["t"], "y", Payload.unary("neg", A0)),
        ew("p", ["x"], "t", mul(A0, c(2.0))),
    ])


def two_writers() -> KernelProgram:
    return prog([t("x", "input"), t("t"), t("y", "output")], [
        ew("p0", ["x"], "t", Payload.unary("neg", A0)),
        ew("p1", ["x"], "t", mul(A0, c(2.0))),
        ew("c", ["t", "x"], "y", add(A0, A1)),
    ])


HAND_BUILT = [shared_input, producer_reads_twice, transposed, temp_is_output,
              reduction_consumer, reduction_producer, nested_use, consumer_reads_twice,
              diamond, consumer_before_producer, two_writers]


# -- identical IR --------------------------------------------------------------


@pytest.mark.parametrize("kernel", ALL_KERNELS)
def test_kernels_fuse_as_before(kernel):
    assert_same_fusion(lower(kernel))


@pytest.mark.parametrize("kernel", ALL_KERNELS)
def test_fuse_after_tile_as_before(kernel):
    # tile leaves loops whose bodies read the top-level generics' results
    assert_same_fusion(tile_generic(lower(kernel)))


def test_random_programs_fuse_as_before():
    for seed in range(300):
        assert_same_fusion(oracles.gen_random_program(oracles.RandomProgramSpec(seed)))


def test_long_chain_fuses_as_before():
    program = chain(200)
    fused = fuse_elementwise(program)
    assert [op.name for op in fused.ops] == ["g199"]
    # the fused payload is about 600 nodes deep; printing it recurses that far
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))
    try:
        assert ir.print_ir(fused) == ir.print_ir(old_fuse_elementwise(program))
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("build", HAND_BUILT, ids=lambda b: b.__name__)
def test_hand_built_dags_fuse_as_before(build):
    assert_same_fusion(build())


def test_shared_input_is_read_once():
    (g,) = fuse_elementwise(shared_input()).ops
    assert g.inputs == ("b", "x")
    assert ir.print_payload(g.payloads[0]) == "add(mul(mul(a1, a0), a1), a0)"


def test_fusion_legal_reports_rejections():
    p, q = nested_use().ops[:2]
    assert fusion.fusion_legal(nested_use(), p, q, 0).reason == "multi_use"
    p, q = temp_is_output().ops
    assert "program output" in fusion.fusion_legal(temp_is_output(), p, q, 0).detail
    p, q = reduction_producer().ops
    assert fusion.fusion_legal(reduction_producer(), p, q, 0).reason == "producer_has_reduction"
    p, q = shared_input().ops
    assert fusion.fusion_legal(shared_input(), p, q, 1) == fusion.FusionCandidate(
        "p", "c", 1, (0,))


# -- payload sharing and the cost guard ------------------------------------------


def test_splice_shares_the_producer_payload():
    program = chain(3)
    g0, g1, _ = program.ops
    cand = fusion.fusion_legal(program, g0, g1, 1)
    fused = fusion._splice(g0, g1, cand)
    # the producer reads only %x, which the consumer reads as a0: no renumbering
    assert fused.payloads[0].args[1].args[0].args[1] is g0.payloads[0]


def fusion_counts(monkeypatch, n: int) -> tuple[int, int]:
    """(Payload nodes built, legality checks) while fusing `chain(n)`."""
    program = chain(n)
    counts = {"nodes": 0, "legal": 0}
    payload_init, legal = Payload.__init__, fusion._legal

    def counting_init(self, *args, **kwargs):
        counts["nodes"] += 1
        payload_init(self, *args, **kwargs)

    def counting_legal(*args):
        counts["legal"] += 1
        return legal(*args)

    with monkeypatch.context() as m:
        m.setattr(Payload, "__init__", counting_init)
        m.setattr(fusion, "_legal", counting_legal)
        fuse_elementwise(program)
    return counts["nodes"], counts["legal"]


def test_fusion_work_grows_linearly(monkeypatch):
    nodes50, legal50 = fusion_counts(monkeypatch, 50)
    nodes200, legal200 = fusion_counts(monkeypatch, 200)
    assert legal50 > 0 and nodes50 > 0
    # work per fusion stays flat from 49 fusions to 199 (quadratic work: 4x)
    assert nodes200 / 199 <= 1.1 * nodes50 / 49
    assert legal200 / 199 <= 1.1 * legal50 / 49
