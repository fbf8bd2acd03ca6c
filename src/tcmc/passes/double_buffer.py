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

A loop whose body writes the source of a staged tile, through a view or
not, is left as it is: the prefetch of the next trip's tile would read
that source before this trip's write lands. In a loop db takes, a staged
input whose offsets and sizes do not name the loop var is invariant:
every trip would stage the same values. In a loop of constant bounds and
at most one trip every staged input is, since no trip stages a second
tile; so in a loop from `lb` to `lb + step`, as mt gives a context of
one trip. An invariant input gets a one-slot buffer `alloc f32[T] @tcm`,
filled by its `dma_start` in the prologue beside the other tiles; the
body waits on its tag on the first trip only (`if (%i < lb + step) {
dma_wait ... }`), takes the whole buffer as its view, and no prefetch
loads it again. A loop whose inputs are all invariant, a one-trip loop
among them, has no prefetch guard, and a one-trip loop waits on every
tag unguarded.

The `db_generic=<id>` annotation on the prologue and the loop ties them
together for the cost model and keeps the pass from firing twice.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

from .. import ir
from ..ir import (
    AllocOp, CmpPred, DeallocOp, DmaStartOp, DmaWaitOp, Extent, ExtractSliceOp, ForOp, GenericOp,
    IfOp, InsertSliceOp, IVar, KernelProgram, Op, ix_add, ix_floordiv, ix_mul, ix_sub,
    substitute_extent,
)
from .common import NameAllocator, PassError, const_upper, tile_bytes

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NormalFormLoop:
    """A single-buffered tiled loop the pass can double-buffer."""

    loop: ForOp
    stages: tuple[ExtractSliceOp, ...]  # the leading `extract_slice ... @tcm` run
    compute: tuple[Op, ...]  # remainder of the body, write-backs included
    invariant: frozenset[str]  # the stages no trip moves: one slot each (module docstring)


def written_buffers(ops: tuple[Op, ...]) -> set[str]:
    """Every buffer `ops` write, and the source of each view they write."""
    views: dict[str, str] = {}
    written: set[str] = set()
    stack = list(ops)
    while stack:
        op = stack.pop()
        stack.extend(getattr(op, "body", ()))
        if isinstance(op, ExtractSliceOp) and op.space is None:
            views[op.result] = op.source
        elif isinstance(op, GenericOp):
            written.update(op.outputs)
        elif isinstance(op, (InsertSliceOp, DmaStartOp)):
            written.add(op.dest)
    for name in list(written):
        while name in views:
            name = views[name]
            written.add(name)
    return written


def _one_trip(loop: ForOp) -> bool:
    """Whether `loop` has constant bounds and at most one trip, or runs from
    `lb` to `lb + step`."""
    bounds = (loop.lb, loop.ub, loop.step)
    if all(isinstance(e, int) for e in bounds):
        return len(range(*bounds)) <= 1
    return loop.ub == ix_add(loop.lb, loop.step)


def staged_run(body: tuple[Op, ...]) -> int:
    """The length of `body`'s leading run of staged `extract_slice ... @tcm` ops."""
    n = 0
    while n < len(body) and isinstance(body[n], ExtractSliceOp) and body[n].space == "tcm":
        n += 1
    return n


def recognize_normal_form(loop: ForOp) -> Optional[NormalFormLoop]:
    if "tiled_generic" not in loop.annotations:
        return None
    if ir.annotation_value(loop.annotations, "db_generic") is not None:
        return None
    body = loop.body
    n = staged_run(body)
    if n == 0:
        return None
    written = written_buffers(body)
    if any(t.source in written for t in body[:n]):
        return None  # a prefetch would read the source before this trip writes it
    one_trip = _one_trip(loop)  # no second trip to stage for
    invariant = frozenset(t.result for t in body[:n] if one_trip or not any(
        loop.var in ir._extent_vars(e) for e in t.offsets + t.sizes))
    return NormalFormLoop(loop, body[:n], body[n:], invariant)


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


def _preload_ops(var: str, stages: tuple[ExtractSliceOp, ...],
                 bufs: dict[str, tuple[str, str, tuple[int, ...]]],
                 at: Extent, slot: Extent) -> tuple[Op, ...]:
    """One dma_start per tile of `stages`, from its source with the loop var
    `var` at `at`, into slot `slot` of its buffer."""
    ops: list[Op] = []
    m = {var: at}
    for t in stages:
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
        # per staged tile: its buffer of one or two slots, its DMA tag and its full sizes
        bufs = {t.result: (names.fresh("buf"), names.fresh("tag"), _full_sizes(t, loop))
                for t in nf.stages}
        varying = tuple(t for t in nf.stages if t.result not in nf.invariant)
        out: list[Op] = []
        for t in nf.stages:
            buf, _, full = bufs[t.result]
            slots = 1 if t.result in nf.invariant else 2
            out.append(AllocOp(buf, (slots * full[0],) + full[1:], "tcm",
                               narrow=is_narrow(t.source)))
        tags = [tag for _, tag, _ in bufs.values()]
        out.extend(AllocOp(t, (1,), "ddr", annotations=frozenset({"dma_tag"})) for t in tags)
        out.append(IfOp(CmpPred("lt", loop.lb, loop.ub),
                        _preload_ops(loop.var, nf.stages, bufs, loop.lb, 0),
                        annotations=frozenset({"db_prologue", gid})))

        trip = ix_floordiv(ix_sub(IVar(loop.var), loop.lb), loop.step)
        slot = ix_sub(trip, ix_mul(ix_floordiv(trip, 2), 2))
        nxt_at = ix_add(IVar(loop.var), loop.step)
        body: list[Op] = [DmaWaitOp(bufs[t.result][1]) for t in varying]
        once = [DmaWaitOp(bufs[t][1]) for t in bufs if t in nf.invariant]
        if once and _one_trip(loop):
            body.extend(once)
        elif once:  # filled once, by the prologue: waited on the first trip only
            first = CmpPred("lt", IVar(loop.var), ix_add(loop.lb, loop.step))
            body.append(IfOp(first, tuple(once)))
        body.extend(ExtractSliceOp(t, buf, _slot_offsets(0 if t in nf.invariant else slot, full),
                                   full)
                    for t, (buf, _, full) in bufs.items())
        if varying:
            body.append(IfOp(CmpPred("lt", nxt_at, loop.ub),
                             _preload_ops(loop.var, varying, bufs, nxt_at, ix_sub(1, slot)),
                             annotations=frozenset({"db_prefetch"})))
        out.append(ForOp(loop.var, loop.lb, loop.ub, loop.step, (*body, *nf.compute),
                         annotations=loop.annotations | {gid}))
        out.extend(DeallocOp(t) for t in tags)
        out.extend(DeallocOp(buf) for buf, _, _ in bufs.values())
        return tuple(out)

    return ir.map_ops(ops, expand)


def tile_tcm_bytes(ops: tuple[Op, ...], is_narrow: Callable[[str], bool],
                   db: bool = False) -> Optional[int]:
    """The TCM bytes of every staged `extract_slice ... @tcm` and `alloc ...
    @tcm` in `ops`, at their upper bounds, with `db` each staged tile as
    many times as db gives it slots: twice, or once where it is invariant
    in its loop; None when one has no bound. `is_narrow` tells which
    sources hold f16."""
    twice: set[str] = set()
    for op, _ in ir.walk_ops(ops) if db else ():
        nf = recognize_normal_form(op) if isinstance(op, ForOp) else None
        if nf is not None:
            twice.update(t.result for t in nf.stages if t.result not in nf.invariant)
    total = 0
    for op, _ in ir.walk_ops(ops):
        if isinstance(op, ExtractSliceOp) and op.space == "tcm":
            b = tile_bytes(op.sizes, is_narrow(op.source))
            if b is not None and op.result in twice:
                b *= 2
        elif isinstance(op, AllocOp) and op.space == "tcm":
            b = tile_bytes(op.sizes, op.narrow)
        else:
            continue
        if b is None:
            return None
        total += b
    return total
