"""Double buffering: tiled loops into DMA ping-pong form, in one pass.

The pass finds tiled loops in normal form: a leading run of
`extract_slice ... @tcm` ops staging each input tile into TCM, then a
compute region with its write-backs into program tensors. It emits the
ping-pong flow with only the DMA that can overlap compute:

- full-size ping and pong buffers hoisted out of the loop, a memory-resident
  toggle that selects between them and flips every iteration, and one DMA
  tag per buffer;
- a guarded prologue (`db_prologue`) with one `dma_start` per input tile,
  read straight from the tile's source, that preloads tile 0 into the ping
  set;
- a loop body of two mutually exclusive sub-kernels, one per toggle value.
  Each starts a guarded prefetch (`db_prefetch`) of the next tile into the
  opposite set, in the same form as the prologue, waits on the current
  set's tags (data resident before compute), and computes on it. Its
  write-backs stay the `insert_slice`s of the compute region: a store the
  next op would wait on at once overlaps nothing;
- deallocs of every tag after the loop, then of the ping and pong buffers.

The `db_generic=<id>` annotation on the prologue and the loop ties them
together for the cost model and keeps the pass from firing twice.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Optional

from .. import ir
from ..ir import (
    AllocOp, CmpPred, DeallocOp, DmaStartOp, DmaWaitOp, Extent, ExtractSliceOp,
    ForOp, GenericOp, IfOp, InsertSliceOp, IVar, KernelProgram, Op, StoreToggleOp, TogglePred,
    ix_add, substitute_extent,
)
from .common import NameAllocator, PassError, const_uppers

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NormalFormLoop:
    """A single-buffered tiled loop the pass can double-buffer."""

    loop: ForOp
    stages: tuple[ExtractSliceOp, ...]  # the leading `extract_slice ... @tcm` run
    compute: tuple[Op, ...]  # remainder of the body, write-backs included


def recognize_normal_form(loop: ForOp) -> Optional[NormalFormLoop]:
    if "tiled_generic" not in loop.annotations:
        return None
    if ir.annotation_value(loop.annotations, "db_generic") is not None:
        return None
    body = loop.body
    n = 0
    while n < len(body) and isinstance(body[n], ExtractSliceOp) and body[n].space == "tcm":
        n += 1
    if n == 0:
        return None
    return NormalFormLoop(loop, body[:n], body[n:])


def _rename_ops(ops: tuple[Op, ...], mapping: dict[str, str]) -> tuple[Op, ...]:
    def rn(name: str) -> str:
        return mapping.get(name, name)

    def fn(op: Op) -> Optional[tuple[Op, ...]]:
        names = op.inputs + op.outputs if isinstance(op, GenericOp) else (
            getattr(op, "source", None), getattr(op, "dest", None))
        if not any(n in mapping for n in names):
            return None  # nothing to rename: keep the op as it is
        if isinstance(op, GenericOp):
            return (replace(op, inputs=tuple(rn(n) for n in op.inputs),
                            outputs=tuple(rn(n) for n in op.outputs)),)
        if isinstance(op, ExtractSliceOp):
            return (replace(op, source=rn(op.source)),)
        if isinstance(op, InsertSliceOp):
            return (replace(op, source=rn(op.source), dest=rn(op.dest)),)
        return None

    return ir.map_ops(ops, fn)


def _full_sizes(stage: ExtractSliceOp) -> tuple[int, ...]:
    sizes = const_uppers(stage.sizes)
    if sizes is None:
        shown = ", ".join(ir.print_extent(s) for s in stage.sizes)
        raise PassError(f"tile %{stage.result}: cannot bound sizes ({shown})")
    return sizes


def _preload_ops(nf: NormalFormLoop, dest_of: dict[str, str], tag_of: dict[str, str],
                 at: Extent) -> tuple[Op, ...]:
    """One dma_start per input tile, from its source, with the loop var at `at`."""
    ops: list[Op] = []
    m = {nf.loop.var: at}
    for t in nf.stages:
        sizes = tuple(substitute_extent(s, m) for s in t.sizes)
        dest = dest_of[t.result]
        ops.append(DmaStartOp(tag_of[dest], t.source,
                              tuple(substitute_extent(o, m) for o in t.offsets),
                              dest, tuple(0 for _ in sizes), sizes))
    return tuple(ops)


def double_buffer_loops(program: KernelProgram) -> KernelProgram:
    """Rewrite normal-form tiled loops into guarded ping-pong form with DMA."""
    names = NameAllocator(program)
    found = 0

    def expand(op: Op) -> Optional[tuple[Op, ...]]:
        nonlocal found
        nf = recognize_normal_form(op) if isinstance(op, ForOp) else None
        if nf is None:
            return None
        tag = f"db_generic={found}"
        found += 1
        out: list[Op] = []
        loop = nf.loop
        ping_of: dict[str, str] = {}
        pong_of: dict[str, str] = {}
        for t in nf.stages:
            full = _full_sizes(t)
            narrow = program.is_narrow(t.source)
            ping = ping_of[t.result] = names.fresh("ping")
            pong = pong_of[t.result] = names.fresh("pong")
            out.append(AllocOp(ping, full, "tcm", narrow=narrow))
            out.append(AllocOp(pong, full, "tcm", narrow=narrow))
        toggle = names.fresh("tog")
        out.append(StoreToggleOp(toggle, True))

        tag_of = {b: names.fresh("tag") for b in [*ping_of.values(), *pong_of.values()]}
        out.extend(AllocOp(t, (1,), "ddr", annotations=frozenset({"dma_tag"}))
                   for t in tag_of.values())
        out.append(IfOp(
            CmpPred("lt", loop.lb, loop.ub),
            _preload_ops(nf, ping_of, tag_of, loop.lb),
            annotations=frozenset({"db_prologue", tag}),
        ))

        def sub_kernel(cur: dict[str, str], nxt: dict[str, str], is_ping: bool) -> IfOp:
            nxt_at = ix_add(IVar(loop.var), loop.step)
            prefetch = IfOp(CmpPred("lt", nxt_at, loop.ub), _preload_ops(nf, nxt, tag_of, nxt_at),
                            annotations=frozenset({"db_prefetch"}))
            waits = tuple(DmaWaitOp(tag_of[b]) for b in cur.values())
            return IfOp(TogglePred(toggle, is_ping),
                        (prefetch, *waits, *_rename_ops(nf.compute, cur)))

        out.append(ForOp(
            loop.var, loop.lb, loop.ub, loop.step,
            (sub_kernel(ping_of, pong_of, True),
             sub_kernel(pong_of, ping_of, False),
             StoreToggleOp(toggle, None)),
            annotations=loop.annotations | {tag},
        ))
        out.extend(DeallocOp(t) for t in tag_of.values())
        for t in nf.stages:
            out.append(DeallocOp(ping_of[t.result]))
            out.append(DeallocOp(pong_of[t.result]))
        return tuple(out)

    ops = ir.map_ops(program.ops, expand)
    if found == 0:
        log.info("db: no normal-form tiled loop found; pass is a no-op")
        return program
    return program.with_ops(ops, stage="db-dma")
