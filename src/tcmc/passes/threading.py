"""Two-stage multi-threading: virtual threads (forall), then fork-join async.

Stage 1 forks once around a whole tile loop where it can, and otherwise
partitions the inner generics of tiled loops across a fixed thread count,
block or block-cyclic, guarded by a pure point-count profitability
threshold. Thread bodies write disjoint ranges of every shared buffer, so
the emitted programs are race-free by construction (the structural scanner
in tcmc.oracles checks the intervals).

Hoisting (persistent threads). A top-level `for` annotated `tiled_generic`
and `all_parallel`, of t trips, forks once when all of these hold:

- its body holds a generic that the threshold would thread, so the
  threshold keeps its meaning;
- t is a constant of at least T, the thread count;
- T copies of the body's TCM tiles fit `tcm_bytes // 4`, the budget the
  default tile sizes give one context. The tiles are every staged
  `extract_slice ... @tcm` and `alloc ... @tcm` in the body, at their upper
  bounds.

The loop becomes `forall th { for %i over context th's t // T whole tiles
{ the body } }`. Under block the tiles of a context are contiguous; under
block-cyclic they are dealt round-robin, one tile at a time, and the chunk
C of `--dist cyclic:C`, a count of points of a generic's d0, applies only
where mt forks per generic. The loop keeps its annotations, so db gives
each context its own two-slot buffers and tags. The last t mod T tiles
follow in a second loop with the same bounds, step and body, in the
per-generic form. Only whole `all_parallel` iterations change context and
no fold changes order, so every output bit is kept. Forks drop from t to
at most 1 + t mod T, and each context does the work of its tiles.

A thread part `[offset, end)` whose operand footprint exceeds the compute
window (counted as the cost model counts it: every operand buffer whole)
runs as a loop of strips, `for %s = offset to end step S`, each split from
the tile's generic directly at `[%s, min(S, end - %s))`, so a strip adds
no second view level. For the part that starts at `offset = t * chunk`,
`end` is `min((t + 1) * chunk, n)`, its offset plus its size. In a
hoisted body the part of a generic the threshold would thread is its whole
tile, `[0, n)`. S is the largest power of two of indices whose footprint
fits the window, in whole vectors when the dim is vectorized and in whole
groups of row lanes; a part that fits, or whose strip would be one index,
runs whole. Every strip splits a parallel dim, so elementwise points and
each row's fold keep their order and every output bit is kept.

Stage 2 lowers each forall into the explicit pattern: create a group sized
to the thread count, spawn one async body per thread adding its token to
the group, then await the whole group before dependent work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .. import ir
from ..ir import (
    AddToGroupOp, AllocOp, AsyncExecuteOp, AsyncGroupOp, AwaitAllOp, CmpPred, Extent,
    ExtractSliceOp, ForallOp, ForOp, GenericOp, IfOp, IVar, KernelProgram, Op, ix_add,
    ix_floordiv, ix_min, ix_mul, ix_sub,
)
from .common import (
    BufInfo, NameAllocator, PassError, const_upper, const_uppers, split_generic, tile_bytes,
)


@dataclass(frozen=True)
class DistributionPolicy:
    kind: str = "block"  # "block" | "block_cyclic"
    num_threads: int = 4
    chunk: int = 1       # block_cyclic chunk size

    def __post_init__(self):
        if self.kind not in ("block", "block_cyclic"):
            raise PassError(f"unknown distribution kind {self.kind!r}")
        if self.num_threads < 1:
            raise PassError("num_threads must be >= 1")
        if self.chunk < 1:
            raise PassError("chunk must be >= 1")


@dataclass(frozen=True)
class ProfitabilityHeuristic:
    """Pure polytope-size test: parallelize when the domain is big enough."""

    min_domain_points: int = 32768

    def __post_init__(self):
        if self.min_domain_points < 1:
            raise PassError("min_domain_points must be >= 1")


def _strip_size(g: GenericOp, dim: int, part: int, align: int, info: BufInfo,
                window: int) -> Optional[int]:
    """The strip of `dim` that a thread part of up to `part` indices runs in,
    or None when the part runs whole.

    The footprint counts every operand buffer of the part whole, at its
    element width, as the cost model's window test does: an operand that
    reads `dim` per index, one that does not (a broadcast operand, an
    output `dim` is reduced out of) in full. A part that exceeds `window`
    runs in strips of the largest power of two of indices whose footprint
    fits, cut down to a multiple of `align`; none when that is one index,
    below `align`, or the whole part.
    """
    per_index = fixed = 0
    for name, m in zip(g.inputs + g.outputs, g.maps):
        shape = const_uppers(info.shapes.get(name, ()))
        if shape is None:
            return None
        elem = 2 if name in info.narrow else 4
        if dim in m.results:
            j = m.results.index(dim)
            per_index += elem * math.prod(shape[:j] + shape[j + 1:])
        else:
            fixed += elem * math.prod(shape)
    if per_index * part + fixed <= window or window - fixed < per_index:
        return None
    strip = 1 << (((window - fixed) // per_index).bit_length() - 1)
    strip -= strip % align
    return strip if max(2, align) <= strip < part else None


def _threadable(g: GenericOp, heuristic: ProfitabilityHeuristic) -> bool:
    """Whether mt threads `g` in a tile loop: a parallel d0, and a domain
    bounded and big enough."""
    if not (g.iterators and g.iterators[0] == "parallel"):
        return False
    uppers = const_uppers(g.domain)
    return uppers is not None and math.prod(uppers) >= heuristic.min_domain_points


def _align(g: GenericOp, dim: int) -> int:
    """The indices of `dim` a split keeps together: whole W-point vectors
    along a vectorized innermost dim, or whole groups of W row lanes."""
    width = ir.vector_width(g.annotations)
    return ir.row_lanes(g.annotations) or (
        width if (width and dim == len(g.domain) - 1) else 1)


def _run_range(g: GenericOp, offset: Extent, size: Extent, end: Optional[Extent],
               strip: Optional[int], names: NameAllocator, info: BufInfo,
               name: Optional[str]) -> tuple[Op, ...]:
    """`g` on d0's `[offset, offset + size)` as one part named `name`; with a
    `strip`, as a loop of strips `for %s = offset to end step strip`, each
    split from `g` directly (named after `%s` when `name` is None)."""
    s = None if strip is None else IVar(names.fresh("s"))

    def part_at(lo: Extent, sz: Extent) -> tuple[Op, ...]:
        head, sub, tail = split_generic(g, 0, lo, sz, names, info, "p", "q")
        return head + (replace(sub, name=name or f"{g.name}_{s.name}"),) + tail

    if s is None:
        return part_at(offset, size)
    return (ForOp(s.name, offset, end, strip, part_at(s, ix_min(strip, ix_sub(end, s)))),)


def _wrap_generic(g: GenericOp, policy: DistributionPolicy, names: NameAllocator,
                  info: BufInfo, window: int) -> Op:
    dim = 0  # distribute the outermost dim; callers ensure it is parallel
    n = g.domain[dim]
    tvar = names.fresh("th")
    threads = policy.num_threads

    width = ir.vector_width(g.annotations)
    align = width if (width and dim == len(g.domain) - 1) else 1

    def block_chunk(extent: Extent) -> Extent:
        # contiguous ranges of ceil(n/T); vectorized generics distribute whole
        # W-element groups so no thread ends up with a partial vector
        if align > 1:
            return ix_mul(
                ix_floordiv(ix_add(ix_floordiv(extent, align), threads - 1), threads), align)
        return ix_floordiv(ix_add(extent, threads - 1), threads)

    block = policy.kind == "block"
    n_upper = const_upper(n)  # callers ensure it is bounded
    chunk = block_chunk(n) if block else policy.chunk
    part = block_chunk(n_upper) if block else min(chunk, n_upper)  # the most a thread gets
    # strips of whole W-point vectors, or of whole groups of W row lanes,
    # so that no strip adds a group the part did not pay for
    strip = _strip_size(g, dim, part, _align(g, dim), info, window)

    # block: thread t takes chunk t; block-cyclic: it takes chunks t, t + T, ...
    cvar = tvar if block else names.fresh("c")
    offset = ix_mul(IVar(cvar), chunk)
    # a strip loop runs to the part's end, its offset + chunk clamped to n
    end = None if strip is None else ix_min(ix_mul(ix_add(IVar(cvar), 1), chunk), n)
    body = _run_range(g, offset, ix_min(chunk, ix_sub(n, offset)), end, strip, names, info,
                      f"{g.name}_{tvar}")
    if block:
        inner: Op = IfOp(CmpPred("lt", offset, n), body)
    else:
        inner = ForOp(cvar, IVar(tvar), ix_floordiv(ix_add(n, chunk - 1), chunk), threads, body)
    return ForallOp(tvar, threads, (inner,), annotations=frozenset({"virtual_threads"}))


def _tile_tcm_bytes(ops: tuple[Op, ...], info: BufInfo) -> Optional[int]:
    """The TCM bytes of every staged `extract_slice ... @tcm` and `alloc ...
    @tcm` in `ops`, at their upper bounds; None when one has no bound."""
    total = 0
    for op, _ in ir.walk_ops(ops):
        if isinstance(op, ExtractSliceOp) and op.space == "tcm":
            b = tile_bytes(op.sizes, op.source in info.narrow)
        elif isinstance(op, AllocOp) and op.space == "tcm":
            b = tile_bytes(op.sizes, op.narrow)
        else:
            continue
        if b is None:
            return None
        total += b
    return total


def _whole_trips(loop: ForOp) -> Optional[int]:
    """The trip count of a loop with constant bounds and step, else None."""
    if all(isinstance(e, int) for e in (loop.lb, loop.ub, loop.step)) and loop.step > 0:
        return len(range(loop.lb, loop.ub, loop.step))
    return None


def _hoisted_body(ops: tuple[Op, ...], heuristic: ProfitabilityHeuristic, window: int,
                  names: NameAllocator, info: BufInfo) -> tuple[Op, ...]:
    """A tile loop's body as one context runs it whole: each generic mt
    threads runs as window-sized strips where its tile exceeds the window."""
    def fn(op: Op) -> Optional[tuple[Op, ...]]:
        if isinstance(op, GenericOp):
            if not _threadable(op, heuristic):
                return None
            n = op.domain[0]
            strip = _strip_size(op, 0, const_upper(n), _align(op, 0), info, window)
            return None if strip is None else _run_range(op, 0, n, n, strip, names, info, None)
        info.learn(op)
        return None

    return ir.map_ops(ops, fn)


def _hoist(loop: ForOp, trips: int, policy: DistributionPolicy, heuristic, window: int,
           names: NameAllocator, info: BufInfo) -> Op:
    """`forall th { for %i over context th's whole tiles { body } }` over
    the first `threads * (trips // threads)` trips of `loop`."""
    threads = policy.num_threads
    share = trips // threads  # the tiles each context runs
    th = IVar(names.fresh("th"))
    step = loop.step
    if policy.kind == "block":  # contiguous shares
        lb = ix_add(loop.lb, ix_mul(th, share * step))
        ub = ix_add(loop.lb, ix_mul(ix_add(th, 1), share * step))
    else:  # tiles dealt round-robin, one at a time
        lb = ix_add(loop.lb, ix_mul(th, step))
        ub = loop.lb + threads * share * step
        step = threads * step
    body = _hoisted_body(loop.body, heuristic, window, names, info)
    inner = replace(loop, lb=lb, ub=ub, step=step, body=body)
    return ForallOp(th.name, threads, (inner,), annotations=frozenset({"virtual_threads"}))


def _hoistable(loop: ForOp, trips: Optional[int], threads: int,
               heuristic: ProfitabilityHeuristic, tcm_bytes: int, info: BufInfo) -> bool:
    """Whether mt forks once around `loop` (module docstring, "Hoisting")."""
    if "all_parallel" not in loop.annotations or trips is None or trips < threads:
        return False
    body_bytes = _tile_tcm_bytes(loop.body, info)
    return (body_bytes is not None and threads * body_bytes <= tcm_bytes // 4
            and any(isinstance(g, GenericOp) and _threadable(g, heuristic)
                    for g, _ in ir.walk_ops(loop.body)))


def _walk_tiled(ops: tuple[Op, ...], in_tiled: bool, policy, heuristic, window: int,
                tcm_bytes: int, names: NameAllocator, info: BufInfo) -> tuple[Op, ...]:
    def fn(op: Op) -> Optional[tuple[Op, ...]]:
        if isinstance(op, GenericOp):
            if in_tiled and _threadable(op, heuristic):
                return (_wrap_generic(op, policy, names, info, window),)
            return None
        info.learn(op)
        if not in_tiled and isinstance(op, ForOp) and "tiled_generic" in op.annotations:
            threads = policy.num_threads
            trips = _whole_trips(op)
            hoisted: tuple[Op, ...] = ()
            if _hoistable(op, trips, threads, heuristic, tcm_bytes, info):
                hoisted = (_hoist(op, trips, policy, heuristic, window, names, info),)
                if not trips % threads:
                    return hoisted
                # the last trips % threads tiles follow, forked per generic
                op = replace(op, lb=op.lb + (trips - trips % threads) * op.step)
            body = _walk_tiled(op.body, True, policy, heuristic, window, tcm_bytes, names, info)
            return (*hoisted, replace(op, body=body))
        return None

    return ir.map_ops(ops, fn)


def form_virtual_threads(
    program: KernelProgram,
    policy: DistributionPolicy = DistributionPolicy(),
    heuristic: ProfitabilityHeuristic = ProfitabilityHeuristic(),
    compute_window_bytes: int = 131072,
    tcm_bytes: int = 8 * 1024 * 1024,
) -> KernelProgram:
    """Fork once around each tile loop that qualifies (module docstring), and
    wrap the other profitable tiled inner generics in forall (virtual
    threads); a thread part or hoisted tile whose operands exceed
    `compute_window_bytes` runs as a loop of strips that fit it."""
    names = NameAllocator(program)
    info = BufInfo(program)
    ops = _walk_tiled(program.ops, False, policy, heuristic, compute_window_bytes, tcm_bytes,
                      names, info)
    return program.with_ops(ops, stage="virtual-threads")


def _lower_forall(op: ForallOp, names: NameAllocator) -> tuple[Op, ...]:
    for inner, _ in ir.walk_ops(op.body):
        if isinstance(inner, ForallOp):
            raise PassError("nested forall unsupported")
    group = names.fresh("grp")
    token = names.fresh("tok")
    spawn = ForOp(
        op.var, 0, op.threads, 1,
        (AsyncExecuteOp(token, op.body), AddToGroupOp(group, token)),
        annotations=op.annotations | {"async_threads"},
    )
    return (AsyncGroupOp(group, op.threads), spawn, AwaitAllOp(group))


def form_async_threads(program: KernelProgram) -> KernelProgram:
    """Rewrite every forall into the async fork-join pattern."""
    names = NameAllocator(program)
    ops = ir.map_ops(
        program.ops, lambda op: _lower_forall(op, names) if isinstance(op, ForallOp) else None)
    return program.with_ops(ops, stage="async-threads")
