"""Two-stage multi-threading: virtual threads (forall), then fork-join async.

Stage 1 partitions the inner generics of tiled loops across a fixed thread
count, block or block-cyclic, guarded by a pure point-count profitability
threshold. Thread bodies slice disjoint ranges of the distributed dim, so
the emitted programs are race-free by construction (the structural scanner
in tcmc.oracles checks the intervals).

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
    AddToGroupOp, AsyncExecuteOp, AsyncGroupOp, AwaitAllOp, CmpPred, ForallOp, ForOp,
    GenericOp, IfOp, IVar, KernelProgram, Op, ix_add, ix_floordiv, ix_min, ix_mul, ix_sub,
)
from .common import BufInfo, NameAllocator, PassError, const_uppers, split_generic


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


def _wrap_generic(g: GenericOp, policy: DistributionPolicy, names: NameAllocator,
                  info: BufInfo) -> Op:
    dim = 0  # distribute the outermost dim; callers ensure it is parallel
    n = g.domain[dim]
    tvar = names.fresh("th")

    width = ir.vector_width(g.annotations)
    align = width if (width and dim == len(g.domain) - 1) else 1

    def body_at(offset, size) -> tuple[Op, ...]:
        head, sub, tail = split_generic(g, dim, offset, size, names, info, "p", "q")
        return head + (replace(sub, name=f"{g.name}_{tvar}"),) + tail

    threads = policy.num_threads
    if policy.kind == "block":
        # contiguous ranges of ceil(n/T); vectorized generics distribute whole
        # W-element groups so no thread ends up with a partial vector
        if align > 1:
            chunk = ix_mul(
                ix_floordiv(ix_add(ix_floordiv(n, align), threads - 1), threads), align)
        else:
            chunk = ix_floordiv(ix_add(n, threads - 1), threads)
        offset = ix_mul(IVar(tvar), chunk)
        size = ix_min(chunk, ix_sub(n, offset))
        guarded = IfOp(CmpPred("lt", offset, n), body_at(offset, size))
        return ForallOp(tvar, threads, (guarded,), annotations=frozenset({"virtual_threads"}))

    cvar = names.fresh("c")
    chunk = policy.chunk
    nchunks = ix_floordiv(ix_add(n, chunk - 1), chunk)
    offset = ix_mul(IVar(cvar), chunk)
    size = ix_min(chunk, ix_sub(n, offset))
    inner = ForOp(cvar, IVar(tvar), nchunks, threads, body_at(offset, size))
    return ForallOp(tvar, threads, (inner,), annotations=frozenset({"virtual_threads"}))


def _walk_tiled(ops: tuple[Op, ...], in_tiled: bool, policy, heuristic,
                names: NameAllocator, info: BufInfo) -> tuple[Op, ...]:
    def fn(op: Op) -> Optional[tuple[Op, ...]]:
        if isinstance(op, GenericOp):
            if in_tiled and op.iterators and op.iterators[0] == "parallel":
                uppers = const_uppers(op.domain)
                if uppers is not None and math.prod(uppers) >= heuristic.min_domain_points:
                    return (_wrap_generic(op, policy, names, info),)
            return None
        info.learn(op)
        if not in_tiled and isinstance(op, ForOp) and "tiled_generic" in op.annotations:
            return (replace(op, body=_walk_tiled(op.body, True, policy, heuristic, names, info)),)
        return None

    return ir.map_ops(ops, fn)


def form_virtual_threads(
    program: KernelProgram,
    policy: DistributionPolicy = DistributionPolicy(),
    heuristic: ProfitabilityHeuristic = ProfitabilityHeuristic(),
) -> KernelProgram:
    """Wrap profitable tiled inner generics in forall (virtual threads)."""
    names = NameAllocator(program)
    info = BufInfo(program)
    ops = _walk_tiled(program.ops, False, policy, heuristic, names, info)
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
