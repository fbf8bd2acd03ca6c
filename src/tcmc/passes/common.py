"""Shared pass plumbing.

- `PassError`: a pass rejected its input.
- `NameAllocator`: deterministic fresh names that never collide with the
  program's existing ones.
- `BufInfo`: the shape, memory space and element width of every buffer
  seen so far in a walk, for passes that slice operands; `overlay` for
  ops that are built only to be priced.
- `const_upper` / `const_uppers`: constant upper bounds of extents, as far
  as ints and `min` allow; `tile_bytes`: a buffer's bytes at those bounds;
  `resident_bytes`: the TCM the `@tcm` decls hold.
- `split_generic`: restrict one dim of a generic to an `[offset, offset +
  size)` range through views of its operands; vectorize and mt both split
  this way.
"""

from __future__ import annotations

import math
from collections import ChainMap
from dataclasses import fields, replace
from typing import Optional, Sequence, get_args

from .. import ir
from ..ir import AllocOp, Extent, ExtractSliceOp, GenericOp, KernelProgram, Op


class PassError(Exception):
    """A pass rejected its input (bad spec, missing precondition)."""


class NameAllocator:
    """Fresh SSA-style names that never collide with existing program names."""

    def __init__(self, program: KernelProgram):
        self.taken = {d.name for d in program.decls}
        self._collect(program.ops)
        self.counters: dict[str, int] = {}

    def _collect(self, ops: tuple[Op, ...]) -> None:
        for op in ops:
            for attr in _NAME_ATTRS[type(op)]:
                self.taken.add(getattr(op, attr))
            body = getattr(op, "body", None)
            if body is not None:
                self._collect(body)

    def mark(self) -> tuple[set[str], dict[str, int]]:
        """The names taken so far, for `reset`."""
        return set(self.taken), dict(self.counters)

    def reset(self, mark: tuple[set[str], dict[str, int]]) -> None:
        """Free every name taken since `mark`."""
        self.taken, self.counters = set(mark[0]), dict(mark[1])

    def fresh(self, prefix: str) -> str:
        n = self.counters.get(prefix, 0)
        while True:
            name = f"{prefix}{n}"
            n += 1
            if name not in self.taken:
                self.counters[prefix] = n
                self.taken.add(name)
                return name


# the attributes of each op type that name something: a buffer, a loop or
# thread var, a token or a group
_NAME_ATTRS: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls)
               if f.name in ("result", "var", "token", "group", "target"))
    for cls in get_args(Op)
}


class BufInfo:
    """Shape, space and narrowness (f16 storage) of the decls and of every
    buffer `learn` has seen."""

    def __init__(self, program: KernelProgram):
        self.shapes: dict[str, tuple[Extent, ...]] = {d.name: d.shape for d in program.decls}
        self.spaces: dict[str, str] = {d.name: d.space for d in program.decls}
        self.narrow: set[str] = {d.name for d in program.decls if d.dtype == "f16"}

    def overlay(self) -> "BufInfo":
        """A BufInfo that reads this one's buffers and keeps what it learns
        to itself."""
        view = object.__new__(BufInfo)
        view.shapes = ChainMap({}, self.shapes)
        view.spaces = ChainMap({}, self.spaces)
        view.narrow = set(self.narrow)
        return view

    def learn(self, op: Op) -> None:
        if isinstance(op, AllocOp):
            self.shapes[op.result] = op.sizes
            self.spaces[op.result] = op.space
            if op.narrow:
                self.narrow.add(op.result)
        elif isinstance(op, ExtractSliceOp):
            self.shapes[op.result] = op.sizes
            self.spaces[op.result] = op.space or self.spaces.get(op.source, "ddr")
            if op.source in self.narrow:
                self.narrow.add(op.result)


def const_upper(e: Extent) -> Optional[int]:
    """A constant upper bound of `e`: an int, or the least bounded side of a
    `min`; None for anything else."""
    if isinstance(e, int):
        return e
    if isinstance(e, ir.IBin) and e.op == "min":
        cands = [c for c in (const_upper(e.lhs), const_upper(e.rhs)) if c is not None]
        return min(cands) if cands else None
    return None


def const_uppers(extents: Sequence[Extent]) -> Optional[tuple[int, ...]]:
    """`const_upper` of every extent, or None if one has no bound."""
    uppers = tuple(const_upper(e) for e in extents)
    return None if None in uppers else uppers


def tile_bytes(sizes: Sequence[Extent], narrow: bool) -> Optional[int]:
    """Bytes of a buffer of `sizes` at their `const_upper` bounds, 2 an
    element for narrow storage; None when a size has no bound."""
    uppers = const_uppers(sizes)
    return None if uppers is None else (2 if narrow else 4) * math.prod(uppers)


def resident_bytes(program: KernelProgram) -> int:
    """The bytes of every tensor `program` declares `@tcm`."""
    return sum(tile_bytes(d.shape, d.dtype == "f16") for d in program.decls if d.space == "tcm")


def split_generic(g: GenericOp, dim: int, offset: Extent, size: Extent,
                  names: NameAllocator, info: BufInfo,
                  view_prefix: str) -> tuple[tuple[Op, ...], GenericOp]:
    """Restrict dim `dim` of `g` to `[offset, offset + size)`.

    Returns (head, generic). The head slices every operand, input or
    output, that reads `dim` into a fresh `view_prefix` view (an
    `extract_slice` with no space), in operand order, so each sub-output is
    written in place; an operand that does not read `dim` (an output whose
    dim is reduced, a broadcast input) is used whole. `generic` is `g` on
    the views with the narrowed domain; the caller names and annotates it.
    Every view is recorded in `info`.
    """
    head: list[Op] = []
    operands: list[str] = []
    for name, m in zip(g.inputs + g.outputs, g.maps):
        if dim not in m.used_dims():
            operands.append(name)
            continue
        shape = info.shapes.get(name, ())
        offs, szs = [0] * len(shape), list(shape)
        j = m.results.index(dim)
        offs[j], szs[j] = offset, size
        view = names.fresh(view_prefix)
        head.append(ExtractSliceOp(view, name, tuple(offs), tuple(szs)))
        info.learn(head[-1])
        operands.append(view)
    k = len(g.inputs)
    domain = g.domain[:dim] + (size,) + g.domain[dim + 1:]
    generic = replace(g, domain=domain, inputs=tuple(operands[:k]), outputs=tuple(operands[k:]))
    return tuple(head), generic
