"""Double buffering: tiled loops into two-slot DMA form, in one pass.

The pass finds tiled loops in normal form: a leading run of
`extract_slice ... @tcm` ops staging each input tile into TCM, then a
compute region with its write-backs into program tensors. It emits one
loop body that overlaps the next tile's DMA with compute, by modulo
variable expansion (one two-deep buffer indexed by the trip's slot):

- per staged input of full tile sizes `T`, one buffer `alloc f32[2*T0, T1,
  ...] @tcm` hoisted out of the loop, slot s at rows `[s*T0, (s+1)*T0)`,
  and one DMA tag. `T` is the largest tile the loop takes: each size's
  upper bound over the loop var's range where the loop's bounds are
  constant (a 5-row extent under 8-row tiles gives 5-row slots), else its
  constant bound;
- a guarded prologue (`db_prologue`) with one `dma_start` per input tile,
  read straight from the tile's source, that preloads tile 0 into slot 0;
- a loop body that waits on every tag (data resident before compute),
  takes each tile as a view `%<tile> = extract_slice %buf[slot*T0, 0,
  ...][T0, ...]` of the current slot under the stage's own name, starts a
  guarded prefetch (`db_prefetch`) of the next tile into slot `1 - slot`,
  in the same form as the prologue, and computes. Trip k (k = (i - lb) //
  step) runs in slot `k mod 2`, written `k - (k // 2) * 2`. The wait comes
  before the prefetch, so a buffer never holds two fills in flight, and
  write-backs stay the `insert_slice`s of the compute region: a store the
  next op would wait on at once overlaps nothing;
- deallocs of every tag after the loop, then of the buffers.

The `db_generic=<id>` annotation on the prologue and the loop ties them
together for the cost model and keeps the pass from firing twice.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

from .. import ir
from ..ir import (
    AllocOp, CmpPred, DeallocOp, DmaStartOp, DmaWaitOp, Extent, ExtractSliceOp, ForOp, IfOp,
    IVar, KernelProgram, Op, ix_add, ix_floordiv, ix_mul, ix_sub, substitute_extent,
)
from .common import NameAllocator, PassError, const_upper

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


def _full_sizes(stage: ExtractSliceOp, loop: ForOp) -> tuple[int, ...]:
    """The largest tile `stage` takes over `loop`'s trips: each size's
    `const_upper`, or, where the loop's bounds are constant and that bound
    is missing or exceeds the loop's extent, its upper bound over the range
    of the loop var, if lower. (A tile no larger than the extent is taken
    whole on the first trip, so only a tile past it can be cut.)"""
    extent = loop.ub - loop.lb if isinstance(loop.lb, int) and isinstance(loop.ub, int) else 0
    sizes = []
    for s in stage.sizes:
        bound = const_upper(s)
        if extent > 0 and (bound is None or bound > extent):
            upper = ir.extent_upper(s, {loop.var: (loop.lb, loop.ub - 1)})
            bound = upper if bound is None or (upper is not None and upper < bound) else bound
        if bound is None:
            shown = ", ".join(ir.print_extent(s) for s in stage.sizes)
            raise PassError(f"tile %{stage.result}: cannot bound sizes ({shown})")
        sizes.append(bound)
    return tuple(sizes)


def _slot_offsets(slot: Extent, full: tuple[int, ...]) -> tuple[Extent, ...]:
    """Where slot `slot` starts in a two-slot buffer of tiles of sizes `full`."""
    return (ix_mul(slot, full[0]),) + (0,) * (len(full) - 1)


def _preload_ops(nf: NormalFormLoop, bufs: dict[str, tuple[str, str, tuple[int, ...]]],
                 at: Extent, slot: Extent) -> tuple[Op, ...]:
    """One dma_start per input tile, from its source with the loop var at
    `at`, into slot `slot` of its buffer."""
    ops: list[Op] = []
    m = {nf.loop.var: at}
    for t in nf.stages:
        buf, tag, full = bufs[t.result]
        ops.append(DmaStartOp(tag, t.source, tuple(substitute_extent(o, m) for o in t.offsets),
                              buf, _slot_offsets(slot, full),
                              tuple(substitute_extent(s, m) for s in t.sizes)))
    return tuple(ops)


def double_buffer_loops(program: KernelProgram) -> KernelProgram:
    """Rewrite normal-form tiled loops into guarded two-slot form with DMA."""
    ops = double_buffer_ops(program.ops, NameAllocator(program), program.is_narrow)
    if ops is program.ops:
        log.info("db: no normal-form tiled loop found; pass is a no-op")
        return program
    return program.with_ops(ops, stage="db-dma")


def double_buffer_ops(ops: tuple[Op, ...], names, is_narrow: Callable[[str], bool]
                      ) -> tuple[Op, ...]:
    """`ops` with every normal-form tiled loop in two-slot form, its buffers
    and tags named by `names`; `is_narrow` tells which sources hold f16.
    `ops` itself when none is found."""
    found = 0

    def expand(op: Op) -> Optional[tuple[Op, ...]]:
        nonlocal found
        nf = recognize_normal_form(op) if isinstance(op, ForOp) else None
        if nf is None:
            return None
        gid = f"db_generic={found}"
        found += 1
        loop = nf.loop
        # per staged tile: its two-slot buffer, its DMA tag and its full sizes
        bufs = {t.result: (names.fresh("buf"), names.fresh("tag"), _full_sizes(t, loop))
                for t in nf.stages}
        out: list[Op] = []
        for t in nf.stages:
            buf, _, full = bufs[t.result]
            out.append(AllocOp(buf, (2 * full[0],) + full[1:], "tcm",
                               narrow=is_narrow(t.source)))
        tags = [tag for _, tag, _ in bufs.values()]
        out.extend(AllocOp(t, (1,), "ddr", annotations=frozenset({"dma_tag"})) for t in tags)
        out.append(IfOp(CmpPred("lt", loop.lb, loop.ub), _preload_ops(nf, bufs, loop.lb, 0),
                        annotations=frozenset({"db_prologue", gid})))

        trip = ix_floordiv(ix_sub(IVar(loop.var), loop.lb), loop.step)
        slot = ix_sub(trip, ix_mul(ix_floordiv(trip, 2), 2))
        nxt_at = ix_add(IVar(loop.var), loop.step)
        body: list[Op] = [DmaWaitOp(t) for t in tags]
        body.extend(ExtractSliceOp(t, buf, _slot_offsets(slot, full), full)
                    for t, (buf, _, full) in bufs.items())
        body.append(IfOp(CmpPred("lt", nxt_at, loop.ub),
                         _preload_ops(nf, bufs, nxt_at, ix_sub(1, slot)),
                         annotations=frozenset({"db_prefetch"})))
        out.append(ForOp(loop.var, loop.lb, loop.ub, loop.step, (*body, *nf.compute),
                         annotations=loop.annotations | {gid}))
        out.extend(DeallocOp(t) for t in tags)
        out.extend(DeallocOp(buf) for buf, _, _ in bufs.values())
        return tuple(out)

    return ir.map_ops(ops, expand)
