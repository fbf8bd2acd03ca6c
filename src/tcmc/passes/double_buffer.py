"""Double buffering in two layered stages.

Stage 1 (structural) finds tiled loops in normal form: a prefix of
extract_slice -> alloc -> copy triplets staging each input tile into TCM, a
compute region, and write-backs into program tensors. It synthesizes the
ping-pong flow: full-size ping and pong buffers hoisted out of the loop, a
guarded prologue that preloads tile 0 into the ping set, and a rebuilt loop
body with two mutually exclusive sub-kernels (db_ping_kernel /
db_pong_kernel). Each sub-kernel prefetches the next tile into the opposite
buffer set, computes on the current one, and writes back; a memory-resident
toggle drives the ping/pong selection and flips every iteration. Annotations
(db_generic ids, db_prologue, db_prefetch) anchor Stage 2.

Stage 2 (DMA) refuses to guess: it recovers the structure purely from the
Stage-1 annotations, rewrites preload and prefetch copies into dma_start on
distinct ping/pong tags, inserts dma_wait for the current buffers right
after the prefetch block (data resident before compute), turns write-backs
into dma_start + immediate dma_wait on store tags, and deallocates all tags
after the kernel.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Optional

from .. import ir
from ..ir import (
    AllocOp, AsyncExecuteOp, CmpPred, CopyOp, DeallocOp, DmaStartOp, DmaWaitOp,
    Extent, ExtractSliceOp, ForallOp, ForOp, GenericOp, IfOp, InsertSliceOp,
    IVar, KernelProgram, Op, StoreToggleOp, TogglePred, ix_add, substitute_extent,
)
from .common import NameAllocator, PassError, const_uppers

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class _Triplet:
    extract: ExtractSliceOp
    alloc: AllocOp
    copy: CopyOp


@dataclass(frozen=True)
class NormalFormLoop:
    """A single-buffered tiled loop recognized by Stage 1."""

    loop: ForOp
    triplets: tuple[_Triplet, ...]
    compute: tuple[Op, ...]  # remainder of the body, write-backs included


def recognize_normal_form(loop: ForOp) -> Optional[NormalFormLoop]:
    if "tiled_generic" not in loop.annotations:
        return None
    if ir.annotation_value(loop.annotations, "db_generic") is not None:
        return None
    body = loop.body
    triplets: list[_Triplet] = []
    i = 0
    while i + 2 < len(body):
        a, b, c = body[i], body[i + 1], body[i + 2]
        if (isinstance(a, ExtractSliceOp) and isinstance(b, AllocOp) and isinstance(c, CopyOp)
                and c.source == a.result and c.dest == b.result and b.space == "tcm"):
            triplets.append(_Triplet(a, b, c))
            i += 3
        else:
            break
    if not triplets:
        return None
    tile_names = {t.alloc.result for t in triplets}
    compute = tuple(op for op in body[i:]
                    if not (isinstance(op, DeallocOp) and op.target in tile_names))
    return NormalFormLoop(loop, tuple(triplets), compute)


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
        if isinstance(op, (InsertSliceOp, CopyOp)):
            return (replace(op, source=rn(op.source), dest=rn(op.dest)),)
        return None

    return ir.map_ops(ops, fn)


def _subst_ops_var(ops: tuple[Op, ...], var: str, repl: Extent) -> tuple[Op, ...]:
    m = {var: repl}

    def se(e: Extent) -> Extent:
        return substitute_extent(e, m)

    out: list[Op] = []
    for op in ops:
        if isinstance(op, ExtractSliceOp):
            out.append(replace(op, offsets=tuple(se(o) for o in op.offsets),
                               sizes=tuple(se(s) for s in op.sizes)))
        elif isinstance(op, InsertSliceOp):
            out.append(replace(op, offsets=tuple(se(o) for o in op.offsets),
                               sizes=tuple(se(s) for s in op.sizes)))
        else:
            raise PassError("prologue/prefetch substitution sees only slice ops")
    return tuple(out)


def _full_sizes(alloc: AllocOp) -> tuple[int, ...]:
    sizes = const_uppers(alloc.sizes)
    if sizes is None:
        shown = ", ".join(ir.print_extent(s) for s in alloc.sizes)
        raise PassError(f"tile %{alloc.result}: cannot bound sizes ({shown})")
    return sizes


def _preload_ops(nf: NormalFormLoop, dest_of: dict[str, str], at: Extent,
                 names_map: dict[str, str]) -> tuple[Op, ...]:
    """extract + partial insert of each input tile, with the loop var at `at`."""
    ops: list[Op] = []
    var = nf.loop.var
    for t in nf.triplets:
        view = names_map[t.extract.result]
        ext = replace(t.extract, result=view)
        ins = InsertSliceOp(view, dest_of[t.alloc.result],
                            tuple(0 for _ in t.extract.sizes), t.extract.sizes)
        ext, ins = _subst_ops_var((ext, ins), var, at)
        ops.extend([ext, ins])
    return tuple(ops)


def db_structural(program: KernelProgram) -> KernelProgram:
    """Stage 1: rewrite normal-form tiled loops into guarded ping-pong form."""
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
        for t in nf.triplets:
            full = _full_sizes(t.alloc)
            ping = names.fresh("ping")
            pong = names.fresh("pong")
            ping_of[t.alloc.result] = ping
            pong_of[t.alloc.result] = pong
            out.append(AllocOp(ping, full, "tcm", narrow=t.alloc.narrow))
            out.append(AllocOp(pong, full, "tcm", narrow=t.alloc.narrow))
        toggle = names.fresh("tog")
        out.append(StoreToggleOp(toggle, True))

        view_names = {t.extract.result: names.fresh("pre") for t in nf.triplets}
        prologue = IfOp(
            CmpPred("lt", loop.lb, loop.ub),
            _preload_ops(nf, ping_of, loop.lb, view_names),
            annotations=frozenset({"db_prologue", tag}),
        )
        out.append(prologue)

        def sub_kernel(cur: dict[str, str], nxt: dict[str, str], which: str) -> IfOp:
            pf_names = {t.extract.result: names.fresh("pf") for t in nf.triplets}
            prefetch = IfOp(
                CmpPred("lt", ix_add(IVar(loop.var), loop.step), loop.ub),
                _preload_ops(nf, nxt, ix_add(IVar(loop.var), loop.step), pf_names),
                annotations=frozenset({"db_prefetch"}),
            )
            body = (prefetch,) + _rename_ops(nf.compute, cur)
            return IfOp(TogglePred(toggle, which == "ping"), body,
                        annotations=frozenset({f"db_{which}_kernel"}))

        new_loop = ForOp(
            loop.var, loop.lb, loop.ub, loop.step,
            (sub_kernel(ping_of, pong_of, "ping"),
             sub_kernel(pong_of, ping_of, "pong"),
             StoreToggleOp(toggle, None)),
            annotations=loop.annotations | {tag},
        )
        out.append(new_loop)
        for t in nf.triplets:
            out.append(DeallocOp(ping_of[t.alloc.result]))
            out.append(DeallocOp(pong_of[t.alloc.result]))
        return tuple(out)

    ops = ir.map_ops(program.ops, expand)
    if found == 0:
        log.info("db_structural: no normal-form tiled loop found; pass is a no-op")
        return program
    return program.with_ops(ops, stage="db-structural")


# ---------------------------------------------------------------------------
# Stage 2: DMA materialization
# ---------------------------------------------------------------------------


def _writeback(op: Op, program: KernelProgram) -> bool:
    # only cross-space stores become DMA; a TCM-resident dest needs none
    if not isinstance(op, InsertSliceOp):
        return False
    decl = program.decl(op.dest)
    return decl is not None and decl.space == "ddr"


def db_dma(program: KernelProgram) -> KernelProgram:
    """Stage 2: turn Stage-1 preload/prefetch copies into tagged DMA."""
    names = NameAllocator(program)
    rewrote = 0

    def handle_group(prologue: IfOp, loop: ForOp, out: list[Op]) -> None:
        nonlocal rewrote
        rewrote += 1
        ping_bufs = [o.dest for o in prologue.body if isinstance(o, InsertSliceOp)]
        ping_kernel = pong_kernel = None
        toggle_op = None
        for op in loop.body:
            if isinstance(op, IfOp) and "db_ping_kernel" in op.annotations:
                ping_kernel = op
            elif isinstance(op, IfOp) and "db_pong_kernel" in op.annotations:
                pong_kernel = op
            elif isinstance(op, StoreToggleOp):
                toggle_op = op
        if ping_kernel is None or pong_kernel is None or toggle_op is None:
            raise PassError("db annotations present but ping/pong structure unrecognizable")
        pf = ping_kernel.body[0]
        if not (isinstance(pf, IfOp) and "db_prefetch" in pf.annotations):
            raise PassError("db_ping_kernel does not start with a db_prefetch block")
        pong_bufs = [o.dest for o in pf.body if isinstance(o, InsertSliceOp)]

        load_tag = {}
        for b in ping_bufs + pong_bufs:
            load_tag[b] = names.fresh("tag")
            out.append(AllocOp(load_tag[b], (1,), "ddr", annotations=frozenset({"dma_tag"})))
        n_writebacks = sum(1 for o in ping_kernel.body[1:] if _writeback(o, program))
        store_tags: list[str] = []
        for _ in range(n_writebacks):
            t = names.fresh("stag")
            store_tags.append(t)
            out.append(AllocOp(t, (1,), "ddr", annotations=frozenset({"dma_tag"})))

        def to_dma_load(ops: tuple[Op, ...]) -> tuple[Op, ...]:
            new = []
            for o in ops:
                if isinstance(o, InsertSliceOp):
                    new.append(DmaStartOp(load_tag[o.dest], o.source,
                                          tuple(0 for _ in o.sizes), o.dest,
                                          o.offsets, o.sizes))
                else:
                    new.append(o)
            return tuple(new)

        def rewrite_kernel(kernel: IfOp, current: list[str]) -> IfOp:
            body = list(kernel.body)
            prefetch = body[0]
            assert isinstance(prefetch, IfOp) and "db_prefetch" in prefetch.annotations
            body[0] = replace(prefetch, body=to_dma_load(prefetch.body))
            waits = tuple(DmaWaitOp(load_tag[b]) for b in current)
            rest: list[Op] = []
            wb_index = 0
            for o in body[1:]:
                if _writeback(o, program):
                    t = store_tags[wb_index]
                    wb_index += 1
                    rest.append(DmaStartOp(t, o.source, tuple(0 for _ in o.sizes),
                                           o.dest, o.offsets, o.sizes))
                    rest.append(DmaWaitOp(t))
                else:
                    rest.append(o)
            return replace(kernel, body=(body[0],) + waits + tuple(rest))

        new_prologue = replace(prologue, body=to_dma_load(prologue.body))
        out.append(new_prologue)
        new_loop = replace(loop, body=(
            rewrite_kernel(ping_kernel, ping_bufs),
            rewrite_kernel(pong_kernel, pong_bufs),
            toggle_op,
        ))
        out.append(new_loop)
        for t in list(load_tag.values()) + store_tags:
            out.append(DeallocOp(t))

    def rebuild(ops: tuple[Op, ...]) -> tuple[Op, ...]:
        out: list[Op] = []
        pending: Optional[IfOp] = None
        for op in ops:
            if pending is not None:
                gid = ir.annotation_value(pending.annotations, "db_generic")
                if (isinstance(op, ForOp)
                        and ir.annotation_value(op.annotations, "db_generic") == gid):
                    handle_group(pending, op, out)
                    pending = None
                    continue
                raise PassError("db_prologue block not followed by its db loop")
            if isinstance(op, IfOp) and "db_prologue" in op.annotations:
                pending = op
                continue
            if isinstance(op, (ForOp, ForallOp, IfOp, AsyncExecuteOp)):
                out.append(replace(op, body=rebuild(op.body)))
            else:
                out.append(op)
        if pending is not None:
            raise PassError("db_prologue block not followed by its db loop")
        return tuple(out)

    ops = rebuild(program.ops)
    if rewrote == 0:
        raise PassError("db annotations absent: run db_structural (Stage 1) first")
    return program.with_ops(ops, stage="db-dma")
