"""Two-stage multi-threading: virtual threads (forall), then fork-join async.

Stage 1 partitions the inner generics of tiled loops across a fixed thread
count, block or block-cyclic, guarded by a pure point-count profitability
threshold. Thread bodies slice disjoint ranges of the distributed dim, so
the emitted programs are race-free by construction (the structural scanner
in tcmc.oracles checks the intervals).

A thread part `[offset, end)` whose operand footprint exceeds the compute
window (counted as the cost model counts it: every operand buffer whole)
runs as a loop of strips, `for %s = offset to end step S`, each split from
the tile's generic directly at `[%s, min(S, end - %s))`, so a strip adds
no second view level. For the part that starts at `offset = t * chunk`,
`end` is `min((t + 1) * chunk, n)`, its offset plus its size. S is the
largest power of two of indices whose footprint fits the window, in whole
vectors when the dim is vectorized and in whole groups of row lanes; a
part that fits, or whose strip would be one index, runs whole. Every
strip splits a parallel dim, so elementwise points and each row's fold
keep their order and every output bit is kept.

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
    AddToGroupOp, AsyncExecuteOp, AsyncGroupOp, AwaitAllOp, CmpPred, Extent, ForallOp, ForOp,
    GenericOp, IfOp, IVar, KernelProgram, Op, ix_add, ix_floordiv, ix_min, ix_mul, ix_sub,
)
from .common import BufInfo, NameAllocator, PassError, const_upper, const_uppers, split_generic


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
    strip = _strip_size(g, dim, part, ir.row_lanes(g.annotations) or align, info, window)

    def part_at(lo: Extent, size: Extent) -> tuple[Op, ...]:
        head, sub, tail = split_generic(g, dim, lo, size, names, info, "p", "q")
        return head + (replace(sub, name=f"{g.name}_{tvar}"),) + tail

    # block: thread t takes chunk t; block-cyclic: it takes chunks t, t + T, ...
    cvar = tvar if block else names.fresh("c")
    offset = ix_mul(IVar(cvar), chunk)
    if strip is None:
        body = part_at(offset, ix_min(chunk, ix_sub(n, offset)))
    else:  # window-sized strips of [offset, end), each split from `g` directly
        s = IVar(names.fresh("s"))
        end = ix_min(ix_mul(ix_add(IVar(cvar), 1), chunk), n)  # offset + chunk, clamped
        body = (ForOp(s.name, offset, end, strip, part_at(s, ix_min(strip, ix_sub(end, s)))),)
    if block:
        inner: Op = IfOp(CmpPred("lt", offset, n), body)
    else:
        inner = ForOp(cvar, IVar(tvar), ix_floordiv(ix_add(n, chunk - 1), chunk), threads, body)
    return ForallOp(tvar, threads, (inner,), annotations=frozenset({"virtual_threads"}))


def _walk_tiled(ops: tuple[Op, ...], in_tiled: bool, policy, heuristic, window: int,
                names: NameAllocator, info: BufInfo) -> tuple[Op, ...]:
    def fn(op: Op) -> Optional[tuple[Op, ...]]:
        if isinstance(op, GenericOp):
            if in_tiled and op.iterators and op.iterators[0] == "parallel":
                uppers = const_uppers(op.domain)
                if uppers is not None and math.prod(uppers) >= heuristic.min_domain_points:
                    return (_wrap_generic(op, policy, names, info, window),)
            return None
        info.learn(op)
        if not in_tiled and isinstance(op, ForOp) and "tiled_generic" in op.annotations:
            body = _walk_tiled(op.body, True, policy, heuristic, window, names, info)
            return (replace(op, body=body),)
        return None

    return ir.map_ops(ops, fn)


def form_virtual_threads(
    program: KernelProgram,
    policy: DistributionPolicy = DistributionPolicy(),
    heuristic: ProfitabilityHeuristic = ProfitabilityHeuristic(),
    compute_window_bytes: int = 131072,
) -> KernelProgram:
    """Wrap profitable tiled inner generics in forall (virtual threads); a
    thread part whose operands exceed `compute_window_bytes` runs as a loop
    of strips that fit it."""
    names = NameAllocator(program)
    info = BufInfo(program)
    ops = _walk_tiled(program.ops, False, policy, heuristic, compute_window_bytes, names, info)
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
