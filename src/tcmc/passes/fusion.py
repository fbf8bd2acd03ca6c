"""Operator fusion: splice an all-parallel producer into its sole consumer.

Legality is deliberately narrow: the producer must be all-parallel, its
result must have exactly one use (and not be a program output), and the
consumer must read it through a map that is a permutation relabeling of the
producer's output map (identity, transpose). Broadcasting reads and
recomputation-based fusion are rejected; reduction producers are rejected.
The consumer itself may be a reduction, reading the produced value as a
plain input.

The pass walks the program once, into a use-count map: one count per read
of a tensor, anywhere in the program, nested ops included (a generic reads
its inputs, every other op its `source` and `dest`). Each splice updates
the map: the producer's and the consumer's reads leave it and the fused
generic's enter it.

Candidates are tried consumer-first: the top-level generics in program
order, each one's inputs in order. After a splice the scan resumes at the
fused consumer, not at the first op, and still finds the fusions a restart
would, in the same order. A splice changes only the consumer's inputs, and
it lowers only the use counts of tensors the producer read, because reads
of one tensor through one map merge into one. Every candidate before the
consumer was illegal, and none turns legal: the fused consumer reads each
such tensor, so an earlier generic that also reads it keeps it at two uses
or more.

A splice rebuilds only the consumer's payload and shares the producer's
(`Payload.substitute_args`). When the producer's args keep their numbers
in the fused generic, as along expseries' chain, each splice costs the
same however long the chain has grown; otherwise the producer's payload
is rewritten once per distinct node, rebuilding those above a renumbered arg.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Union

from ..ir import AffineIndexMap, GenericOp, KernelProgram, Op, Payload


@dataclass(frozen=True)
class FusionCandidate:
    producer: str             # generic op name
    consumer: str
    operand: int              # consumer input index being replaced
    relabel: tuple[int, ...]  # witness: producer dim p corresponds to consumer dim relabel[p]


@dataclass(frozen=True)
class FusionRejection:
    reason: str               # producer_has_reduction | map_mismatch | multi_use
    detail: str


def _count_uses(ops: tuple[Op, ...], uses: dict[str, int]) -> dict[str, int]:
    """Add one to `uses[t]` per read of tensor `t` in `ops`, bodies included."""
    for op in ops:
        if isinstance(op, GenericOp):
            for name in op.inputs:
                uses[name] = uses.get(name, 0) + 1
            continue
        for attr in ("source", "dest"):
            name = getattr(op, attr, None)
            if name is not None:
                uses[name] = uses.get(name, 0) + 1
        body = getattr(op, "body", None)
        if body is not None:
            _count_uses(body, uses)
    return uses


def _roles(program: KernelProgram) -> dict[str, str]:
    """Each tensor's role, as `program.decl` finds it (the first decl wins)."""
    roles: dict[str, str] = {}
    for d in program.decls:
        roles.setdefault(d.name, d.role)
    return roles


def fusion_legal(
    program: KernelProgram,
    producer: GenericOp,
    consumer: GenericOp,
    operand: int,
) -> Union[FusionCandidate, FusionRejection]:
    """Decide legality of fusing `producer` into `consumer` at input `operand`."""
    return _legal(_roles(program), _count_uses(program.ops, {}),
                  producer, consumer, operand)


def _legal(roles: Mapping[str, str], uses: Mapping[str, int], producer: GenericOp,
           consumer: GenericOp, operand: int) -> Union[FusionCandidate, FusionRejection]:
    tensor = consumer.inputs[operand]
    assert tensor in producer.outputs, "operand is not produced by this producer"

    if not producer.is_all_parallel():
        return FusionRejection("producer_has_reduction",
                               f"@{producer.name} has reduction iterators")
    if len(producer.outputs) != 1:
        return FusionRejection("map_mismatch", f"@{producer.name} has multiple outputs")
    if roles.get(tensor, "temp") != "temp":
        return FusionRejection("multi_use", f"%{tensor} is a program output")
    if uses.get(tensor, 0) != 1:
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
    # witness: producer dim p and consumer dim relabel[p] index the same output dim
    relabel = [0] * len(producer.domain)
    for j, p in enumerate(pmap.results):
        relabel[p] = cmap.results[j]
    for p, q in enumerate(relabel):
        pe, qe = producer.domain[p], consumer.domain[q]
        if isinstance(pe, int) and isinstance(qe, int) and pe != qe:
            return FusionRejection("map_mismatch", f"extent mismatch d{p}={pe} vs d{q}={qe}")
    return FusionCandidate(producer.name, consumer.name, operand, tuple(relabel))


def _splice(producer: GenericOp, consumer: GenericOp, cand: FusionCandidate) -> GenericOp:
    """`consumer` with `producer`'s payload in place of input `cand.operand`.

    The fused generic reads the consumer's other inputs, in order, then
    each producer input it does not already read through the same map.
    """
    operand = cand.operand
    kept = list(zip(consumer.inputs, consumer.maps))
    del kept[operand]
    # the consumer's inputs after `operand` move down one
    consumer_args = {i: Payload.arg(i - 1) for i in range(operand + 1, len(consumer.inputs))}

    first: dict[tuple[str, AffineIndexMap], int] = {}
    for k, key in enumerate(kept):
        first.setdefault(key, k)
    relabel = cand.relabel
    producer_args: dict[int, Payload] = {}
    for i, (name, m) in enumerate(zip(producer.inputs, producer.maps)):
        key = (name, AffineIndexMap(tuple([None if r is None else relabel[r] for r in m.results])))
        k = first.setdefault(key, len(kept))
        if k == len(kept):
            kept.append(key)
        if k != i:
            producer_args[i] = Payload.arg(k)

    consumer_args[operand] = producer.payloads[0].substitute_args(producer_args)
    return replace(
        consumer,
        inputs=tuple(n for n, _ in kept),
        maps=tuple(m for _, m in kept) + consumer.output_maps(),
        payloads=tuple(p.substitute_args(consumer_args) for p in consumer.payloads),
    )


def _candidate(ops: list[Optional[Op]], ci: int, writers: dict[str, list[int]],
               roles: Mapping[str, str],
               uses: Mapping[str, int]) -> Optional[tuple[int, FusionCandidate]]:
    """The first legal fusion into `ops[ci]`, by input order, and its producer's index."""
    consumer = ops[ci]
    if not isinstance(consumer, GenericOp):
        return None
    for oi, name in enumerate(consumer.inputs):
        written = writers.get(name)
        if not written or written[-1] == ci:  # the last writer is the producer
            continue
        cand = _legal(roles, uses, ops[written[-1]], consumer, oi)
        if isinstance(cand, FusionCandidate):
            return written[-1], cand
    return None


def fuse_elementwise(program: KernelProgram) -> KernelProgram:
    """Greedy fixed-point fusion; deterministic consumer-first order.

    Each fired fusion removes one generic and the materialized intermediate
    tensor decl. No-op when nothing is legal.
    """
    ops: list[Optional[Op]] = list(program.ops)  # a fused-away producer leaves None
    roles = _roles(program)
    uses = _count_uses(program.ops, {})
    writers: dict[str, list[int]] = {}  # tensor -> indices of the generics writing it
    for i, op in enumerate(ops):
        if isinstance(op, GenericOp):
            for out in op.outputs:
                writers.setdefault(out, []).append(i)
    removed: set[str] = set()
    ci = 0
    while ci < len(ops):
        hit = _candidate(ops, ci, writers, roles, uses)
        if hit is None:
            ci += 1
            continue
        pi, cand = hit
        producer, consumer = ops[pi], ops[ci]
        fused = _splice(producer, consumer, cand)
        for name in producer.inputs + consumer.inputs:
            uses[name] -= 1
        for name in fused.inputs:
            uses[name] += 1
        writers[producer.outputs[0]].remove(pi)
        ops[pi], ops[ci] = None, fused
        removed.add(consumer.inputs[cand.operand])
    if not removed:
        return program
    return replace(program, decls=tuple(d for d in program.decls if d.name not in removed),
                   ops=tuple(op for op in ops if op is not None), stage="fused")
