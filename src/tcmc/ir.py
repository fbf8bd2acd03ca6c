"""Structured tensor IR: types, ops, control flow, verifier, deterministic printer.

Position in the stack:

    kernel DSL  ->  frontend lowering  ->  [this IR]  ->  passes  ->  interpreter / cost model

The IR is value-oriented and immutable: every node is a frozen dataclass,
programs are shared read-only, and passes build new programs instead of
mutating. Buffers are referenced by name; definitions are lexical (a name
defined in a block is visible to later ops in that block and to nested
blocks). Index arithmetic inside loops uses a small expression language
(`Extent`) so tile offsets and clamped remainder sizes stay symbolic.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Literal, Mapping, Optional, Union

import numpy as np

# ---------------------------------------------------------------------------
# Index expressions
# ---------------------------------------------------------------------------

# Static extents are plain ints; dynamic ones are IVar/IBin trees.


@dataclass(frozen=True, slots=True)
class IVar:
    name: str


def _derived():
    """A cache slot on an IBin, Payload, GenericOp or slice op: filled on
    first use, outside ==, hash and repr."""
    return field(init=False, compare=False, hash=False, repr=False)


@dataclass(frozen=True, slots=True)
class IBin:
    """Binary index expression.

    A node also caches four facts about itself, each derived on first use
    and set with object.__setattr__: `_eval`, a closure that evaluates it
    against an index dict; `_free`, the frozenset of variable names it
    mentions; `_bounds`, its last interval bound together with the ranges
    of `_free` that bound was computed for; and `_last`, its last value
    together with the values of `_free` it was computed from. Each memo is
    one tuple, replaced whole, so a concurrent reader sees an old pair or a
    new one, never half of each. Equality, hashing, repr and the printer
    see only `op`, `lhs` and `rhs`.
    """

    op: Literal["add", "sub", "mul", "floordiv", "min", "max"]
    lhs: "Extent"
    rhs: "Extent"
    _eval: Callable[[Mapping[str, int]], int] = _derived()
    _free: frozenset[str] = _derived()
    _bounds: tuple = _derived()
    _last: tuple = _derived()

    def __reduce__(self):  # pickle and copy the expression, never the caches
        return IBin, (self.op, self.lhs, self.rhs)


Extent = Union[int, IVar, IBin]


def ix_add(a: Extent, b: Extent) -> Extent:
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    if b == 0:
        return a
    if a == 0:
        return b
    return IBin("add", a, b)


def ix_sub(a: Extent, b: Extent) -> Extent:
    if isinstance(a, int) and isinstance(b, int):
        return a - b
    if b == 0:
        return a
    return IBin("sub", a, b)


def ix_mul(a: Extent, b: Extent) -> Extent:
    if isinstance(a, int) and isinstance(b, int):
        return a * b
    if a == 1:
        return b
    if b == 1:
        return a
    return IBin("mul", a, b)


def ix_floordiv(a: Extent, b: Extent) -> Extent:
    if isinstance(a, int) and isinstance(b, int):
        return a // b
    if b == 1:
        return a
    return IBin("floordiv", a, b)


def ix_min(a: Extent, b: Extent) -> Extent:
    if isinstance(a, int) and isinstance(b, int):
        return min(a, b)
    if a == b:
        return a
    return IBin("min", a, b)


def ix_max(a: Extent, b: Extent) -> Extent:
    if isinstance(a, int) and isinstance(b, int):
        return max(a, b)
    if a == b:
        return a
    return IBin("max", a, b)


_IBIN_FNS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "floordiv": operator.floordiv,
    "min": min,
    "max": max,
}

def _compile(e: Extent) -> Callable[[Mapping[str, int]], int]:
    """Closure evaluating any extent: a node's own, a var lookup or a constant."""
    if isinstance(e, IBin):
        return _evaluator(e)
    if isinstance(e, IVar):
        return operator.itemgetter(e.name)
    return lambda env: e


def _evaluator(e: IBin) -> Callable[[Mapping[str, int]], int]:
    """`e`'s closure; it returns `e`'s last value while its variables keep
    theirs, and otherwise evaluates the children and remembers the result."""
    fn = getattr(e, "_eval", None)
    if fn is None:
        f, a, b = _IBIN_FNS[e.op], _compile(e.lhs), _compile(e.rhs)
        names = tuple(_extent_vars(e))
        key_of = operator.itemgetter(*names) if names else lambda env: ()
        setattr_ = object.__setattr__
        setattr_(e, "_last", (_NO_KEY, None))

        def fn(env):
            try:
                key = key_of(env)
            except KeyError:  # evaluate, to raise for the first unbound var in order
                return f(a(env), b(env))
            last = e._last
            if last[0] == key:
                return last[1]
            value = f(a(env), b(env))
            setattr_(e, "_last", (key, value))
            return value

        setattr_(e, "_eval", fn)
    return fn


_NO_KEY = object()  # equal to no key: the memo before a first evaluation


def eval_extent(e: Extent, env: Mapping[str, int]) -> int:
    """Value of `e` under `env`; KeyError names the first unbound variable."""
    cls = e.__class__
    if cls is int:
        return e
    try:
        if cls is IBin:
            return (getattr(e, "_eval", None) or _evaluator(e))(env)
        if cls is not IVar and isinstance(e, int):
            return e
        return env[e.name]
    except KeyError as err:
        raise KeyError(f"unbound index variable {err.args[0]}") from None


_IX_CTORS = {"add": ix_add, "sub": ix_sub, "mul": ix_mul,
             "floordiv": ix_floordiv, "min": ix_min, "max": ix_max}


def substitute_extent(e: Extent, mapping: dict[str, Extent]) -> Extent:
    if isinstance(e, int):
        return e
    if isinstance(e, IVar):
        return mapping.get(e.name, e)
    return _IX_CTORS[e.op](substitute_extent(e.lhs, mapping), substitute_extent(e.rhs, mapping))


def replace_node(e: Extent, old: Extent, new: Extent) -> Extent:
    """`e` with every subexpression equal to `old` replaced by `new`, the
    nodes above it rebuilt by the `ix_*` constructors; `e` itself when
    `old` does not occur in it."""
    if not isinstance(e, IBin):
        return new if e == old else e
    if e is old or (isinstance(old, IBin) and e.op == old.op and e == old):
        return new
    lhs, rhs = replace_node(e.lhs, old, new), replace_node(e.rhs, old, new)
    return e if lhs is e.lhs and rhs is e.rhs else _IX_CTORS[e.op](lhs, rhs)


_NO_VARS: frozenset[str] = frozenset()


def _extent_vars(e: Extent) -> frozenset[str]:
    if isinstance(e, int):
        return _NO_VARS
    if isinstance(e, IVar):
        return frozenset((e.name,))
    free = getattr(e, "_free", None)
    if free is None:
        free = _extent_vars(e.lhs) | _extent_vars(e.rhs)
        object.__setattr__(e, "_free", free)
    return free


def extent_bounds(e: Extent, ranges: Mapping[str, tuple[int, int]]) -> Optional[tuple[int, int]]:
    """Inclusive interval bound of `e` given per-variable (lo, hi) ranges.

    Returns None when a variable has no known range. An IBin remembers its
    last result with the ranges of its free variables, so bounding it again
    under the same ranges is one dict lookup per free variable.
    """
    if isinstance(e, int):
        return (e, e)
    if isinstance(e, IVar):
        return ranges.get(e.name)
    key = tuple([ranges.get(v) for v in _extent_vars(e)])
    memo = getattr(e, "_bounds", None)
    if memo is not None and memo[0] == key:
        return memo[1]
    result = _ibin_bounds(e.op, extent_bounds(e.lhs, ranges), extent_bounds(e.rhs, ranges))
    object.__setattr__(e, "_bounds", (key, result))
    return result


def _ibin_bounds(op: str, lb: Optional[tuple[int, int]],
                 rb: Optional[tuple[int, int]]) -> Optional[tuple[int, int]]:
    if lb is None or rb is None:
        return None
    if op == "add":
        return (lb[0] + rb[0], lb[1] + rb[1])
    if op == "sub":
        return (lb[0] - rb[1], lb[1] - rb[0])
    if op == "mul":
        c = [a * b for a in lb for b in rb]
        return (min(c), max(c))
    if op == "floordiv":
        if rb[0] <= 0:
            return None
        c = [a // b for a in lb for b in rb]
        return (min(c), max(c))
    if op == "min":
        return (min(lb[0], rb[0]), min(lb[1], rb[1]))
    return (max(lb[0], rb[0]), max(lb[1], rb[1]))


def extent_upper(e: Extent, ranges: dict[str, tuple[int, int]] | None = None) -> Optional[int]:
    b = extent_bounds(e, ranges or {})
    return None if b is None else b[1]


def extent_divisible(e: Extent, w: int, divisible_vars: frozenset[str]) -> bool:
    """Conservatively decide whether `e` is always a multiple of `w`.

    `divisible_vars` names loop variables whose value is known to be a
    multiple of `w` (lower bound and step both divisible).
    """
    if w == 1:
        return True
    if isinstance(e, int):
        return e % w == 0
    if isinstance(e, IVar):
        return e.name in divisible_vars
    l = extent_divisible(e.lhs, w, divisible_vars)
    r = extent_divisible(e.rhs, w, divisible_vars)
    if e.op in ("add", "sub", "min", "max"):
        return l and r
    if e.op == "mul":
        return l or r
    return False


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

_CMP_FNS = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


@dataclass(frozen=True, slots=True)
class CmpPred:
    op: Literal["lt", "le", "eq", "ne", "gt", "ge"]
    lhs: Extent
    rhs: Extent


# ---------------------------------------------------------------------------
# Scalar payload expressions
# ---------------------------------------------------------------------------

PAYLOAD_BINARY = ("add", "sub", "mul", "div", "max2")
PAYLOAD_UNARY = ("neg", "exp", "tanh", "sqrt", "rsqrt",
                 "exp_approx", "tanh_approx", "rsqrt_fast")


@dataclass(frozen=True)
class Payload:
    """Scalar expression evaluated at each iteration-domain point.

    Leaves are `arg(i)` (the i-th input operand's element) and `const(v)`
    (an f32 immediate). The *_approx kinds carry a `param` (Taylor degree
    or Newton iteration count) and are produced by the math expansion pass.

    Rewrites share structure (`rewrite`), so one node may sit under several
    parents and a payload is a DAG. Every consumer walks it through
    `nodes()`, which lists each node once. A payload keeps `_nodes`, the
    tuple `nodes()` returns, and `_plan`, the straight-line form
    `numerics.eval_payload` runs, each derived on first use like an IBin's
    caches and, like them, outside `==`, `hash`, `repr` and pickling.

    `==` and `hash` are structural and blind to sharing, and `repr` is the
    printer's text; each visits every distinct node once, so a shared chain
    costs time linear in its length, not in its root-to-leaf paths.
    """

    kind: str
    args: tuple["Payload", ...] = ()
    value: Optional[float] = None
    index: Optional[int] = None
    param: Optional[int] = None
    _nodes: tuple["Payload", ...] = _derived()
    _plan: tuple = _derived()

    def __reduce__(self):  # pickle and copy the expression, never the memo
        return Payload, (self.kind, self.args, self.value, self.index, self.param)

    def _numbered(self, table: dict[tuple, int]) -> int:
        """The number `table` gives this payload's structure: nodes with equal
        fields over equally numbered children share a number."""
        num: dict[int, int] = {}
        for n in self.nodes():
            key = (n.kind, n.value, n.index, n.param, tuple([num[id(a)] for a in n.args]))
            num[id(n)] = table.setdefault(key, len(table))
        return num[id(self)]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Payload):
            return NotImplemented
        table: dict[tuple, int] = {}
        return self._numbered(table) == other._numbered(table)

    def __hash__(self) -> int:
        h: dict[int, int] = {}
        for n in self.nodes():
            h[id(n)] = hash((n.kind, n.value, n.index, n.param, tuple([h[id(a)] for a in n.args])))
        return h[id(self)]

    def __repr__(self) -> str:
        return print_payload(self)

    @staticmethod
    def arg(i: int) -> "Payload":
        return Payload("arg", index=i)

    @staticmethod
    def const(v: float) -> "Payload":
        return Payload("const", value=float(np.float32(v)))

    @staticmethod
    def unary(kind: str, a: "Payload", param: Optional[int] = None) -> "Payload":
        assert kind in PAYLOAD_UNARY, kind
        return Payload(kind, (a,), param=param)

    @staticmethod
    def binary(kind: str, a: "Payload", b: "Payload") -> "Payload":
        assert kind in PAYLOAD_BINARY, kind
        return Payload(kind, (a, b))

    def nodes(self) -> tuple["Payload", ...]:
        """Each distinct node under this one, itself last, children before parents.

        Distinct means by identity: a node that several parents read is
        listed once. The walk takes children right to left, so for a tree
        the reversed tuple is the pre-order (each node, then its children
        left to right). An explicit stack, so chains of any depth walk.
        """
        order = getattr(self, "_nodes", None)
        if order is None:
            out: list[Payload] = []
            seen: set[int] = set()
            stack: list[tuple[Payload, bool]] = [(self, False)]
            while stack:
                node, children_done = stack.pop()
                if children_done:
                    out.append(node)
                elif id(node) not in seen:
                    seen.add(id(node))
                    stack.append((node, True))
                    stack += [(a, False) for a in node.args]  # the last one is taken first
            order = tuple(out)
            object.__setattr__(self, "_nodes", order)
        return order

    def max_arg_index(self) -> int:
        """Largest `arg` index in the payload, or -1 when it reads no input."""
        return max([n.index for n in self.nodes() if n.kind == "arg"], default=-1)

    def rewrite(self, fn: Callable[["Payload", list["Payload"]], Optional["Payload"]]) -> "Payload":
        """This payload rebuilt bottom-up, each distinct node once.

        `fn(node, args)` gets each node with its children already rewritten
        and returns its replacement, or None to keep the node over `args`.
        A kept node whose children all stayed is returned as it is, so the
        result shares everything `fn` did not change, and a node that
        several parents read stays one node.
        """
        done: dict[int, Payload] = {}
        for node in self.nodes():
            args = [done[id(a)] for a in node.args]
            new = fn(node, args)
            if new is None:
                new = node if all(map(operator.is_, args, node.args)) else replace(node, args=tuple(args))
            done[id(node)] = new
        return done[id(self)]

    def substitute_args(self, table: Mapping[int, "Payload"]) -> "Payload":
        """Replace every `arg(i)` with `table[i]`; args not in `table` stay.
        An empty table walks nothing, so a fusion splice whose producer keeps
        its arg numbers costs the same however long the chain has grown."""
        if not table:
            return self
        return self.rewrite(lambda node, args: table.get(node.index) if node.kind == "arg" else None)


# ---------------------------------------------------------------------------
# Maps, decls, reductions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AffineIndexMap:
    """Projection/permutation map from the iteration domain into an operand.

    results[j] names the domain dimension indexing operand dimension j, or
    None for a broadcast dimension (the operand extent there must be 1 and
    index 0 is used).
    """

    results: tuple[Optional[int], ...]

    @staticmethod
    def identity(rank: int) -> "AffineIndexMap":
        return AffineIndexMap(tuple(range(rank)))

    @property
    def rank(self) -> int:
        return len(self.results)

    def used_dims(self) -> tuple[int, ...]:
        return tuple(r for r in self.results if r is not None)


@dataclass(frozen=True, slots=True)
class Reduction:
    """A combinator and the value its fold starts from.

    `init=None` is a carried fold (printed `init=out`): each output point's
    fold starts from that point's current value, so a reduction split into
    tiles continues from the previous tile's partial result.
    """

    kind: Literal["sum", "max"]
    init: Optional[float]

    @staticmethod
    def sum() -> "Reduction":
        return Reduction("sum", 0.0)

    @staticmethod
    def max() -> "Reduction":
        return Reduction("max", -math.inf)

    def carried(self) -> "Reduction":
        return Reduction(self.kind, None)


@dataclass(frozen=True, slots=True)
class TensorDecl:
    name: str
    shape: tuple[int, ...]
    dtype: Literal["f32", "f16"] = "f32"  # f16 is a narrow-storage flag; compute is f32
    space: Literal["ddr", "tcm"] = "ddr"
    role: Literal["input", "output", "temp"] = "temp"


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenericOp:
    """Structured op: iteration domain + per-operand maps + scalar payload.

    maps has one entry per operand, inputs first then outputs. payloads has
    one entry per output; for outputs over a domain with reduction dims the
    matching `reductions` entry gives the combinator and its init value, or
    `init=out` (the payload computes the per-point update that the
    combinator folds in ascending index order).

    `_plan` is the interpreter's execution plan for the op, derived on its
    first execution like an IBin's caches and, like them, outside `==`,
    `hash`, `repr` and pickling.
    """

    name: str
    domain: tuple[Extent, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    maps: tuple[AffineIndexMap, ...]
    iterators: tuple[Literal["parallel", "reduction"], ...]
    payloads: tuple[Payload, ...]
    reductions: tuple[Optional[Reduction], ...] = ()
    annotations: frozenset[str] = frozenset()
    _plan: object = _derived()

    def __post_init__(self):
        if not self.reductions:
            object.__setattr__(self, "reductions", (None,) * len(self.outputs))

    def __reduce__(self):  # pickle and copy the op, never the plan
        return GenericOp, (self.name, self.domain, self.inputs, self.outputs, self.maps,
                           self.iterators, self.payloads, self.reductions, self.annotations)

    def input_maps(self) -> tuple[AffineIndexMap, ...]:
        return self.maps[: len(self.inputs)]

    def output_maps(self) -> tuple[AffineIndexMap, ...]:
        return self.maps[len(self.inputs):]

    def reduction_dims(self) -> tuple[int, ...]:
        return tuple(i for i, it in enumerate(self.iterators) if it == "reduction")

    def blocked_lanes_exact(self) -> bool:
        """Whether W lanes that each fold one contiguous block of the innermost
        dim, combined in lane order, give the sequential fold's bits: the
        innermost dim is the only reduction dim and every reduction is a max
        (docs/ir_format.md, "Vectorized reductions")."""
        return (self.reduction_dims() == (len(self.domain) - 1,)
                and all(r is not None and r.kind == "max" for r in self.reductions))

    def takes_row_lanes(self) -> bool:
        """Whether the op has the `row_lanes(W)` form: lanes along a parallel
        d0, each folding its own row of an innermost reduction dim in the
        sequential order. Each lane writes its own output points, so every
        fold keeps its order and its bits (docs/ir_format.md, "Row lanes")."""
        return self.iterators[:1] == ("parallel",) and self.iterators[-1:] == ("reduction",)

    def is_all_parallel(self) -> bool:
        return all(it == "parallel" for it in self.iterators)


@dataclass(frozen=True)
class ForOp:
    var: str
    lb: Extent
    ub: Extent
    step: Extent
    body: tuple["Op", ...]
    annotations: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ForallOp:
    var: str
    threads: int
    body: tuple["Op", ...]
    annotations: frozenset[str] = frozenset()


@dataclass(frozen=True)
class IfOp:
    pred: CmpPred
    body: tuple["Op", ...]
    annotations: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ExtractSliceOp:
    """The region of `source` as a new buffer. With no `space` it lives in
    the source's space (a view); `space="tcm"` stages it into TCM.

    `_regions` is the interpreter's memo of the regions the op took, derived
    like a GenericOp's `_plan`: the stages of one compile share most slice
    ops, and each takes the same regions."""

    result: str
    source: str
    offsets: tuple[Extent, ...]
    sizes: tuple[Extent, ...]
    space: Optional[Literal["ddr", "tcm"]] = None
    annotations: frozenset[str] = frozenset()
    _regions: object = _derived()

    def __reduce__(self):  # pickle and copy the op, never the memo
        return ExtractSliceOp, (self.result, self.source, self.offsets, self.sizes, self.space,
                                self.annotations)


@dataclass(frozen=True)
class InsertSliceOp:
    """Writes `source` back into the region of `dest`; `_regions` as on
    ExtractSliceOp."""

    source: str
    dest: str
    offsets: tuple[Extent, ...]
    sizes: tuple[Extent, ...]
    annotations: frozenset[str] = frozenset()
    _regions: object = _derived()

    def __reduce__(self):  # pickle and copy the op, never the memo
        return InsertSliceOp, (self.source, self.dest, self.offsets, self.sizes, self.annotations)


@dataclass(frozen=True)
class AllocOp:
    """New storage of `sizes`; it reads as zeros, or as `fill` when one is given."""

    result: str
    sizes: tuple[Extent, ...]
    space: Literal["ddr", "tcm"] = "tcm"
    narrow: bool = False
    annotations: frozenset[str] = frozenset()
    fill: Optional[float] = None


@dataclass(frozen=True)
class DeallocOp:
    target: str
    annotations: frozenset[str] = frozenset()


@dataclass(frozen=True)
class DmaStartOp:
    """Non-blocking transfer; data becomes visible in dest only at dma_wait(tag)."""

    tag: str
    source: str
    src_offsets: tuple[Extent, ...]
    dest: str
    dst_offsets: tuple[Extent, ...]
    sizes: tuple[Extent, ...]
    annotations: frozenset[str] = frozenset()


@dataclass(frozen=True)
class DmaWaitOp:
    tag: str
    annotations: frozenset[str] = frozenset()


@dataclass(frozen=True)
class AsyncGroupOp:
    group: str
    size: Extent
    annotations: frozenset[str] = frozenset()


@dataclass(frozen=True)
class AsyncExecuteOp:
    token: str
    body: tuple["Op", ...]
    annotations: frozenset[str] = frozenset()


@dataclass(frozen=True)
class AddToGroupOp:
    group: str
    token: str
    annotations: frozenset[str] = frozenset()


@dataclass(frozen=True)
class AwaitAllOp:
    group: str
    annotations: frozenset[str] = frozenset()


Op = Union[
    GenericOp, ForOp, ForallOp, IfOp, ExtractSliceOp, InsertSliceOp, AllocOp,
    DeallocOp, DmaStartOp, DmaWaitOp, AsyncGroupOp, AsyncExecuteOp, AddToGroupOp,
    AwaitAllOp,
]

_BODY_OPS = (ForOp, ForallOp, IfOp, AsyncExecuteOp)


@dataclass(frozen=True)
class KernelProgram:
    name: str
    decls: tuple[TensorDecl, ...]
    ops: tuple[Op, ...]
    stage: str = "initial"

    def decl(self, name: str) -> Optional[TensorDecl]:
        for d in self.decls:
            if d.name == name:
                return d
        return None

    def is_narrow(self, name: str) -> bool:
        """Whether `name` is a tensor declared with f16 (narrow) storage."""
        d = self.decl(name)
        return d is not None and d.dtype == "f16"

    def inputs(self) -> tuple[TensorDecl, ...]:
        return tuple(d for d in self.decls if d.role == "input")

    def outputs(self) -> tuple[TensorDecl, ...]:
        return tuple(d for d in self.decls if d.role == "output")

    def with_ops(self, ops: tuple[Op, ...], stage: Optional[str] = None) -> "KernelProgram":
        return replace(self, ops=ops, stage=stage or self.stage)


def walk_ops(ops: tuple[Op, ...], path: str = "ops") -> Iterator[tuple[Op, str]]:
    for i, op in enumerate(ops):
        where = f"{path}[{i}]"
        yield op, where
        if isinstance(op, _BODY_OPS):
            yield from walk_ops(op.body, where + ".body")


def map_ops(ops: tuple[Op, ...], fn: Callable[[Op], Optional[tuple[Op, ...]]]) -> tuple[Op, ...]:
    """Rewrite `ops` in order, pre-order.

    `fn(op)` returns the ops that replace `op` (possibly none), or None to
    keep `op` and map its body, if it has one, the same way. The ops `fn`
    returns are not visited again. An op whose body maps to itself is kept
    as it is, and `ops` itself is returned when nothing in it changed.
    """
    out: list[Op] = []
    changed = False
    for op in ops:
        new = fn(op)
        if new is not None:
            out.extend(new)
            changed = True
            continue
        if isinstance(op, _BODY_OPS):
            body = map_ops(op.body, fn)
            if body is not op.body:
                op = replace(op, body=body)
                changed = True
        out.append(op)
    return tuple(out) if changed else ops


# the fields of each op type that hold extents, one or a tuple of them (a
# `CmpPred` for an `if`)
_EXTENT_FIELDS: dict[type, tuple[str, ...]] = {
    ForOp: ("lb", "ub", "step"), IfOp: ("pred",), GenericOp: ("domain",),
    ExtractSliceOp: ("offsets", "sizes"), InsertSliceOp: ("offsets", "sizes"),
    AllocOp: ("sizes",), DmaStartOp: ("src_offsets", "dst_offsets", "sizes"),
    AsyncGroupOp: ("size",),
}


def replace_extent(ops: tuple[Op, ...], old: Extent, new: Extent) -> tuple[Op, ...]:
    """`ops` with `old` replaced by `new` in every extent of every op, bodies
    included (`replace_node`)."""
    def swap(value):  # `value` itself when `old` does not occur in it
        if isinstance(value, tuple):
            swapped = tuple(swap(v) for v in value)
            return value if all(map(operator.is_, swapped, value)) else swapped
        if isinstance(value, CmpPred):
            lhs, rhs = swap(value.lhs), swap(value.rhs)
            return value if lhs is value.lhs and rhs is value.rhs else CmpPred(value.op, lhs, rhs)
        return replace_node(value, old, new)

    def fn(op: Op) -> Optional[tuple[Op, ...]]:
        changes = {}
        for f in _EXTENT_FIELDS.get(type(op), ()):
            value = getattr(op, f)
            swapped = swap(value)
            if swapped is not value:
                changes[f] = swapped
        if not changes:
            return None  # map_ops maps its body, if it has one
        if isinstance(op, _BODY_OPS):
            changes["body"] = replace_extent(op.body, old, new)
        return (replace(op, **changes),)

    return map_ops(ops, fn)


def count_ops(program: KernelProgram, predicate: Callable[[Op], bool]) -> int:
    return sum(1 for op, _ in walk_ops(program.ops) if predicate(op))


def annotation_value(annotations: frozenset[str], key: str) -> Optional[str]:
    """Value of a `key=value` annotation, or None."""
    prefix = key + "="
    for a in sorted(annotations):
        if a.startswith(prefix):
            return a[len(prefix):]
    return None


def _width(annotations: frozenset[str], key: str) -> Optional[int]:
    """W of a `key(W)` annotation, or None."""
    prefix = key + "("
    for a in annotations:
        if a.startswith(prefix) and a.endswith(")"):
            return int(a[len(prefix):-1])
    return None


def vector_width(annotations: frozenset[str]) -> Optional[int]:
    """Width W of a `vectorized(W)` annotation, or None."""
    return _width(annotations, "vectorized")


def row_lanes(annotations: frozenset[str]) -> Optional[int]:
    """Width W of a `row_lanes(W)` annotation, or None."""
    return _width(annotations, "row_lanes")


# ---------------------------------------------------------------------------
# Concrete execution
# ---------------------------------------------------------------------------


class ExecutionFault(Exception):
    """Invariant breach during execution (hazard, bad tag, out-of-bounds)."""


def trips(op: Union[ForOp, ForallOp], idx: Mapping[str, int]) -> range:
    """The values a `for` or `forall` binds its var to, in order.

    With `holds`, the one definition of concrete control flow: the
    interpreter, the cost model and the structural oracles each run a
    schedule through these two, so they agree on every trip and guard
    (docs/ir_format.md, "Concrete execution"). `idx` maps each index var in
    scope to its value.
    """
    if type(op) is ForallOp:
        return range(op.threads)
    lb = eval_extent(op.lb, idx)
    ub = eval_extent(op.ub, idx)
    step = eval_extent(op.step, idx)
    if step < 1:
        raise ExecutionFault(f"for %{op.var}: step {step} < 1")
    return range(lb, ub, step)


def holds(pred: CmpPred, idx: Mapping[str, int]) -> bool:
    """Whether an `if` guard holds under the index values `idx`."""
    return _CMP_FNS[pred.op](eval_extent(pred.lhs, idx), eval_extent(pred.rhs, idx))


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Violation:
    where: str
    rule: str
    message: str


@dataclass(frozen=True)
class VerifyReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "verify: ok"
        lines = [f"verify: {len(self.violations)} violation(s)"]
        lines += [f"  [{v.rule}] {v.where}: {v.message}" for v in self.violations]
        return "\n".join(lines)


class _Scope:
    """Lexical environment: buffer shapes and spaces, and the index vars in scope.

    `ivars` holds every index var visible here, the enclosing scopes' included.
    """

    def __init__(self, parent: Optional["_Scope"] = None, ivar: Optional[str] = None):
        self.parent = parent
        self.buffers: dict[str, tuple[Extent, ...]] = {}
        self.ivars: frozenset[str] = parent.ivars if parent is not None else _NO_VARS
        if ivar is not None:
            self.ivars = self.ivars | {ivar}
        self.spaces: dict[str, str] = {}

    def lookup(self, name: str) -> Optional[tuple[Extent, ...]]:
        s = self
        while s is not None:
            if name in s.buffers:
                return s.buffers[name]
            s = s.parent
        return None

    def space_of(self, name: str) -> Optional[str]:
        s = self
        while s is not None:
            if name in s.spaces:
                return s.spaces[name]
            s = s.parent
        return None

    def define(self, name: str, shape: tuple[Extent, ...], space: str) -> bool:
        if self.lookup(name) is not None:
            return False
        self.buffers[name] = shape
        self.spaces[name] = space
        return True


class _Block:
    """What the verifier tracks across one block: its allocs (name -> where)
    and deallocs, the token of an `async_execute` not yet added to a group,
    the groups it created with their await counts, and the TCM bytes its
    staged extracts hold until it ends."""

    __slots__ = ("allocs", "deallocs", "token", "groups", "staged_tcm")

    def __init__(self):
        self.allocs: dict[str, str] = {}
        self.deallocs: set[str] = set()
        self.token: Optional[str] = None
        self.groups: dict[str, int] = {}
        self.staged_tcm = 0


class _Verifier:
    def __init__(self, program: KernelProgram, tcm_bytes: Optional[int]):
        self.program = program
        self.tcm_bytes = tcm_bytes
        self.violations: list[Violation] = []
        self.live_tcm = 0
        self.max_live_tcm = 0
        self.tcm_counted: dict[str, int] = {}
        self.var_ranges: dict[str, tuple[int, int]] = {}

    def fail(self, where: str, rule: str, message: str) -> None:
        self.violations.append(Violation(where, rule, message))

    # -- helpers ------------------------------------------------------------

    def check_extents_defined(self, where: str, exts: tuple[Extent, ...], scope: _Scope) -> None:
        for e in exts:
            free = _extent_vars(e)
            if not free <= scope.ivars:
                for v in sorted(free - scope.ivars):
                    self.fail(where, "unbound-index", f"index variable %{v} not in scope")

    def buffer_bytes_upper(self, shape: tuple[Extent, ...]) -> Optional[int]:
        total = 4
        for e in shape:
            u = extent_upper(e, self.var_ranges)
            if u is None:
                return None
            total *= u
        return total

    def take_tcm(self, shape: tuple[Extent, ...], narrow: bool) -> int:
        """Count a TCM buffer of `shape` as live (half for narrow storage);
        returns the bytes counted, 0 when a dim has no bound."""
        b = self.buffer_bytes_upper(shape)
        if b is None:
            return 0
        if narrow:
            b //= 2
        self.live_tcm += b
        self.max_live_tcm = max(self.max_live_tcm, self.live_tcm)
        return b

    # -- generic ------------------------------------------------------------

    def check_generic(self, op: GenericOp, where: str, scope: _Scope, block: _Block) -> None:
        n_operands = len(op.inputs) + len(op.outputs)
        if len(op.maps) != n_operands:
            self.fail(where, "operand/map arity",
                      f"generic @{op.name} has {n_operands} operands but {len(op.maps)} maps")
            return
        if len(op.iterators) != len(op.domain):
            self.fail(where, "iterator arity",
                      f"generic @{op.name} has {len(op.domain)} domain dims but {len(op.iterators)} iterators")
            return
        if len(op.payloads) != len(op.outputs):
            self.fail(where, "payload arity",
                      f"generic @{op.name} needs one payload per output")
            return
        if len(op.reductions) != len(op.outputs):
            self.fail(where, "reduction arity",
                      f"generic @{op.name} needs one reduction slot per output")
            return
        for e in op.domain:
            if isinstance(e, int) and e < 1:
                self.fail(where, "domain extent", f"generic @{op.name} domain extent {e} < 1")
        self.check_extents_defined(where, op.domain, scope)

        red_dims = set(op.reduction_dims())
        par_dims = [d for d in range(len(op.domain)) if d not in red_dims]
        rank = len(op.domain)

        for oi, (name, m) in enumerate(zip(op.inputs + op.outputs, op.maps)):
            shape = scope.lookup(name)
            if shape is None:
                self.fail(where, "undefined-buffer", f"generic @{op.name} references undefined %{name}")
                continue
            if name in op.inputs and name in op.outputs:
                self.fail(where, "in-place", f"generic @{op.name} uses %{name} as both input and output")
            if m.rank != len(shape):
                self.fail(where, "map rank", f"generic @{op.name} map for %{name} has rank {m.rank}, operand rank {len(shape)}")
                continue
            seen: set[int] = set()
            for j, r in enumerate(m.results):
                if r is None:
                    ext = shape[j]
                    if isinstance(ext, int) and ext != 1:
                        self.fail(where, "broadcast extent",
                                  f"generic @{op.name}: broadcast dim {j} of %{name} has extent {ext} != 1")
                    continue
                if r < 0 or r >= rank:
                    self.fail(where, "map result", f"generic @{op.name}: map result d{r} out of range")
                    continue
                if r in seen:
                    self.fail(where, "map repeat", f"generic @{op.name}: domain dim d{r} repeats in map for %{name}")
                seen.add(r)
                de = op.domain[r]
                ext = shape[j]
                if isinstance(de, int) and isinstance(ext, int) and de > ext:
                    self.fail(where, "map bounds",
                              f"generic @{op.name}: domain d{r}={de} exceeds %{name} dim {j} extent {ext}")
            is_output = oi >= len(op.inputs)
            if is_output:
                used = set(m.used_dims())
                if used & red_dims:
                    self.fail(where, "reduction escapes",
                              f"generic @{op.name}: reduction dim appears in output map of %{name}")
                missing = [d for d in par_dims if d not in used]
                if missing:
                    self.fail(where, "output coverage",
                              f"generic @{op.name}: parallel dims {missing} missing from output map of %{name}")

        for pi, (payload, red) in enumerate(zip(op.payloads, op.reductions)):
            top = payload.max_arg_index()
            if top >= len(op.inputs):
                self.fail(where, "payload args",
                          f"generic @{op.name}: payload {pi} references arg{top}, "
                          f"only {len(op.inputs)} inputs")
            if red_dims and red is None:
                self.fail(where, "missing combinator",
                          f"generic @{op.name}: reduction domain but output {pi} has no combinator")
            if not red_dims and red is not None:
                self.fail(where, "spurious combinator",
                          f"generic @{op.name}: combinator on all-parallel output {pi}")
        if (op.iterators[-1:] == ("reduction",) and vector_width(op.annotations)
                and not op.blocked_lanes_exact()):
            self.fail(where, "vectorized reduction",
                      f"generic @{op.name}: vectorized along a reduction that is not "
                      f"a max over the innermost dim alone")
        if row_lanes(op.annotations) and (not op.takes_row_lanes()
                                          or vector_width(op.annotations)):
            self.fail(where, "row lanes",
                      f"generic @{op.name}: row lanes need a parallel d0, an innermost "
                      f"reduction dim and no vectorized(W)")

    # -- structured ops -----------------------------------------------------

    def check_slice(self, where: str, source: str, offsets, sizes, scope: _Scope) -> None:
        shape = scope.lookup(source)
        if shape is None:
            self.fail(where, "undefined-buffer", f"slice references undefined %{source}")
            return
        if len(offsets) != len(shape) or len(sizes) != len(shape):
            self.fail(where, "slice rank", f"slice of %{source}: rank mismatch")
            return
        self.check_extents_defined(where, tuple(offsets) + tuple(sizes), scope)
        for j, (o, s, ext) in enumerate(zip(offsets, sizes, shape)):
            if self.overflows(o, s, ext):
                self.fail(where, "slice bounds",
                          f"slice of %{source} dim {j}: offset+size exceeds extent")
            if isinstance(s, int) and s < 1:
                self.fail(where, "slice size", f"slice of %{source} dim {j}: size {s} < 1")

    def overflows(self, offset: Extent, size: Extent, extent: Extent) -> bool:
        """Definite overflow only: even the smallest corner is out of the extent."""
        ob = extent_bounds(offset, self.var_ranges)
        sb = extent_bounds(size, self.var_ranges)
        eb = extent_bounds(extent, self.var_ranges)
        return bool(ob and sb and eb and ob[0] + sb[0] > eb[1])

    def walk_block(self, ops: tuple[Op, ...], scope: _Scope, path: str) -> None:
        block = _Block()
        handlers = _VERIFY_HANDLERS
        for i, op in enumerate(ops):
            where = f"{path}[{i}]"
            kind = type(op)
            if block.token is not None and kind is not AddToGroupOp:
                self.fail(where, "token discipline",
                          f"token %{block.token} not added to a group immediately")
                block.token = None
            handler = handlers.get(kind)
            if handler is not None:
                handler(self, op, where, scope, block)

        self.live_tcm -= block.staged_tcm
        if block.token is not None:
            self.fail(path, "token discipline", f"token %{block.token} never added to a group")
        for name, w in block.allocs.items():
            if name not in block.deallocs:
                self.fail(w, "alloc pairing", f"alloc %{name} has no dealloc in its block")
        for g, awaited in block.groups.items():
            if awaited != 1:
                self.fail(path, "group discipline", f"group %{g} awaited {awaited} times (want 1)")

    # -- one handler per op type, dispatched by `walk_block` ------------------

    def check_for(self, op: ForOp, where: str, scope: _Scope, block: _Block) -> None:
        self.check_extents_defined(where, (op.lb, op.ub, op.step), scope)
        step = extent_bounds(op.step, self.var_ranges)
        if step is not None and step[1] < 1:  # definite only, like slice bounds
            self.fail(where, "loop step", f"for %{op.var}: step {print_extent(op.step)} < 1")
        lb = extent_bounds(op.lb, self.var_ranges)
        ub = extent_bounds(op.ub, self.var_ranges)
        copies = 1
        if "async_threads" in op.annotations and lb and ub and step and step[0] >= 1:
            # the spawned bodies all run until the await_all after the loop
            copies = max(1, -(-(ub[1] - lb[0]) // step[0]))
        self.walk_loop_body(op.var, (lb[0], max(lb[0], ub[1] - 1)) if lb and ub else None,
                            op.body, scope, where, copies)

    def check_forall(self, op: ForallOp, where: str, scope: _Scope, block: _Block) -> None:
        if op.threads < 1:
            self.fail(where, "thread count", f"forall threads {op.threads} < 1")
        self.walk_loop_body(op.var, (0, op.threads - 1), op.body, scope, where,
                            max(op.threads, 1))

    def walk_loop_body(self, var: str, rng: Optional[tuple[int, int]], body: tuple[Op, ...],
                       scope: _Scope, where: str, copies: int = 1) -> None:
        """Walk `body` with `var` in scope, ranging over `rng` (None: unknown).

        `copies` bodies run at once (threads), so the body's peak live TCM
        counts that many times.
        """
        saved = self.var_ranges.get(var)
        if rng is not None:
            self.var_ranges[var] = rng
        live, peak = self.live_tcm, self.max_live_tcm
        self.max_live_tcm = live
        self.walk_block(body, _Scope(scope, var), where + ".body")
        self.max_live_tcm = max(peak, live + copies * (self.max_live_tcm - live))
        if saved is not None:
            self.var_ranges[var] = saved
        else:
            self.var_ranges.pop(var, None)

    def check_if(self, op: IfOp, where: str, scope: _Scope, block: _Block) -> None:
        self.check_extents_defined(where, (op.pred.lhs, op.pred.rhs), scope)
        self.walk_block(op.body, _Scope(scope), where + ".body")

    def check_async_execute(self, op: AsyncExecuteOp, where: str, scope: _Scope,
                            block: _Block) -> None:
        self.walk_block(op.body, _Scope(scope), where + ".body")
        block.token = op.token

    def check_extract_slice(self, op: ExtractSliceOp, where: str, scope: _Scope,
                            block: _Block) -> None:
        self.check_slice(where, op.source, op.offsets, op.sizes, scope)
        space = op.space or scope.space_of(op.source) or "ddr"
        if not scope.define(op.result, tuple(op.sizes), space):
            self.fail(where, "redefinition", f"%{op.result} already defined")
        if op.space == "tcm":  # staged: live until the block ends
            block.staged_tcm += self.take_tcm(op.sizes, self.program.is_narrow(op.source))

    def check_insert_slice(self, op: InsertSliceOp, where: str, scope: _Scope,
                           block: _Block) -> None:
        if scope.lookup(op.source) is None:
            self.fail(where, "undefined-buffer", f"insert_slice source %{op.source} undefined")
        self.check_slice(where, op.dest, op.offsets, op.sizes, scope)

    def check_alloc(self, op: AllocOp, where: str, scope: _Scope, block: _Block) -> None:
        self.check_extents_defined(where, op.sizes, scope)
        if not scope.define(op.result, tuple(op.sizes), op.space):
            self.fail(where, "redefinition", f"%{op.result} already defined")
        block.allocs[op.result] = where
        if op.space == "tcm":
            self.tcm_counted[op.result] = self.take_tcm(op.sizes, op.narrow)

    def check_dealloc(self, op: DeallocOp, where: str, scope: _Scope, block: _Block) -> None:
        if op.target not in block.allocs:
            self.fail(where, "dealloc pairing",
                      f"dealloc %{op.target} without alloc in the same block")
        elif op.target in block.deallocs:
            self.fail(where, "double dealloc", f"%{op.target} deallocated twice")
        else:
            block.deallocs.add(op.target)
            self.live_tcm -= self.tcm_counted.pop(op.target, 0)

    def check_dma_start(self, op: DmaStartOp, where: str, scope: _Scope, block: _Block) -> None:
        for side, n, offsets in (("src", op.source, op.src_offsets),
                                 ("dst", op.dest, op.dst_offsets)):
            shape = scope.lookup(n)
            if shape is None:
                self.fail(where, "undefined-buffer", f"dma_start references undefined %{n}")
                continue
            if len(offsets) == len(op.sizes) == len(shape):
                for j, (o, s, ext) in enumerate(zip(offsets, op.sizes, shape)):
                    if self.overflows(o, s, ext):
                        self.fail(where, "slice bounds",
                                  f"dma_start {side} %{n} dim {j}: offset+size exceeds extent")
        self.check_dma_wait(op, where, scope, block)

    def check_dma_wait(self, op: Union[DmaStartOp, DmaWaitOp], where: str, scope: _Scope,
                       block: _Block) -> None:
        if scope.lookup(op.tag) is None:
            self.fail(where, "undefined-buffer", f"dma tag %{op.tag} undefined")

    def check_async_group(self, op: AsyncGroupOp, where: str, scope: _Scope,
                          block: _Block) -> None:
        block.groups[op.group] = 0

    def check_add_to_group(self, op: AddToGroupOp, where: str, scope: _Scope,
                           block: _Block) -> None:
        if block.token != op.token:
            self.fail(where, "token discipline",
                      f"add_to_group of %{op.token} does not follow its async_execute")
        block.token = None

    def check_await_all(self, op: AwaitAllOp, where: str, scope: _Scope, block: _Block) -> None:
        if op.group in block.groups:
            block.groups[op.group] += 1
        else:
            self.fail(where, "group scope", f"await_all on %{op.group}: group not created in this block")

    def run(self) -> VerifyReport:
        scope = _Scope()
        seen: set[str] = set()
        for d in self.program.decls:
            if d.name in seen:
                self.fail("decls", "duplicate decl", f"tensor %{d.name} declared twice")
            seen.add(d.name)
            if not d.shape or any(e < 1 for e in d.shape):
                self.fail("decls", "decl shape", f"tensor %{d.name} has invalid shape {d.shape}")
            scope.define(d.name, d.shape, d.space)
            if d.space == "tcm":
                self.take_tcm(d.shape, d.dtype == "f16")
        self.walk_block(self.program.ops, scope, "ops")
        if self.tcm_bytes is not None and self.max_live_tcm > self.tcm_bytes:
            self.fail("program", "tcm budget",
                      f"peak live TCM {self.max_live_tcm} bytes exceeds budget {self.tcm_bytes}")
        return VerifyReport(tuple(self.violations))


_VERIFY_HANDLERS: dict[type, Callable[..., None]] = {
    GenericOp: _Verifier.check_generic,
    ForOp: _Verifier.check_for,
    ForallOp: _Verifier.check_forall,
    IfOp: _Verifier.check_if,
    ExtractSliceOp: _Verifier.check_extract_slice,
    InsertSliceOp: _Verifier.check_insert_slice,
    AllocOp: _Verifier.check_alloc,
    DeallocOp: _Verifier.check_dealloc,
    DmaStartOp: _Verifier.check_dma_start,
    DmaWaitOp: _Verifier.check_dma_wait,
    AsyncGroupOp: _Verifier.check_async_group,
    AsyncExecuteOp: _Verifier.check_async_execute,
    AddToGroupOp: _Verifier.check_add_to_group,
    AwaitAllOp: _Verifier.check_await_all,
}


def verify(program: KernelProgram, *, tcm_bytes: Optional[int] = None) -> VerifyReport:
    """Structural verification; violations are data, not exceptions."""
    return _Verifier(program, tcm_bytes).run()


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def fmt_f32(v: float) -> str:
    f = np.float32(v)
    if np.isinf(f):
        return "inf" if f > 0 else "-inf"
    if np.isnan(f):
        return "nan"
    return np.format_float_positional(f, unique=True, trim="0")


def print_extent(e: Extent) -> str:
    if isinstance(e, int):
        return str(e)
    if isinstance(e, IVar):
        return "%" + e.name
    l, r = print_extent(e.lhs), print_extent(e.rhs)
    if e.op in ("min", "max"):
        return f"{e.op}({l}, {r})"
    sym = {"add": "+", "sub": "-", "mul": "*", "floordiv": "//"}[e.op]
    return f"({l} {sym} {r})"


def print_pred(p: CmpPred) -> str:
    sym = {"lt": "<", "le": "<=", "eq": "==", "ne": "!=", "gt": ">", "ge": ">="}[p.op]
    return f"{print_extent(p.lhs)} {sym} {print_extent(p.rhs)}"


def _payload_lines(p: Payload, first: int = 0) -> list[str]:
    """`p` as text lines: `%sK = <expr>` for each operation node that more
    than one parent reads, numbered from `first` in `nodes()` order, then
    the payload's expression. A tree is the expression alone."""
    reads = Counter([id(a) for node in p.nodes() for a in node.args])
    lines: list[str] = []
    text: dict[int, str] = {}  # what a reader prints for a node; read once, it is taken
    for node in p.nodes():
        if node.kind == "arg":
            s = f"a{node.index}"
        elif node.kind == "const":
            s = fmt_f32(node.value)
        else:
            args = ", ".join([text[id(a)] if reads[id(a)] > 1 else text.pop(id(a)) for a in node.args])
            s = f"{node.kind}({args})" if node.param is None else f"{node.kind}[{node.param}]({args})"
            if reads[id(node)] > 1:
                name = f"%s{first + len(lines)}"
                lines.append(f"{name} = {s}")
                s = name
        text[id(node)] = s
    lines.append(text[id(p)])
    return lines


def print_payload(p: Payload) -> str:
    return "\n".join(_payload_lines(p))


def _print_map(m: AffineIndexMap) -> str:
    return "(" + ", ".join("_" if r is None else f"d{r}" for r in m.results) + ")"


def _ann(annotations: frozenset[str]) -> str:
    if not annotations:
        return ""
    return " {" + ", ".join(sorted(annotations)) + "}"


def _exts(es) -> str:
    return "[" + ", ".join(print_extent(e) for e in es) + "]"


def _print_op(op: Op, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(op, GenericOp):
        head = (f"{pad}generic @{op.name} domain={_exts(op.domain)} "
                f"iters=[{', '.join(op.iterators)}]{_ann(op.annotations)}")
        out.append(head)
        ins = " ".join(f"%{n}: {_print_map(m)}" for n, m in zip(op.inputs, op.input_maps()))
        outs = " ".join(f"%{n}: {_print_map(m)}" for n, m in zip(op.outputs, op.output_maps()))
        out.append(f"{pad}    ins({ins}) outs({outs})")
        named = 0
        for payload, red in zip(op.payloads, op.reductions):
            *defs, expr = _payload_lines(payload, named)
            named += len(defs)
            out += [f"{pad}    {line}" for line in defs]
            if red is None:
                out.append(f"{pad}    yield {expr}")
            else:
                init = "out" if red.init is None else fmt_f32(red.init)
                out.append(f"{pad}    reduce {red.kind} init={init} of {expr}")
    elif isinstance(op, ForOp):
        out.append(f"{pad}for %{op.var} = {print_extent(op.lb)} to {print_extent(op.ub)} "
                   f"step {print_extent(op.step)}{_ann(op.annotations)} {{")
        for o in op.body:
            _print_op(o, out, indent + 1)
        out.append(pad + "}")
    elif isinstance(op, ForallOp):
        out.append(f"{pad}forall %{op.var} in {op.threads}{_ann(op.annotations)} {{")
        for o in op.body:
            _print_op(o, out, indent + 1)
        out.append(pad + "}")
    elif isinstance(op, IfOp):
        out.append(f"{pad}if ({print_pred(op.pred)}){_ann(op.annotations)} {{")
        for o in op.body:
            _print_op(o, out, indent + 1)
        out.append(pad + "}")
    elif isinstance(op, ExtractSliceOp):
        space = "" if op.space is None else f" @{op.space}"
        out.append(f"{pad}%{op.result} = extract_slice %{op.source}{_exts(op.offsets)}{_exts(op.sizes)}"
                   f"{space}{_ann(op.annotations)}")
    elif isinstance(op, InsertSliceOp):
        out.append(f"{pad}insert_slice %{op.source} -> %{op.dest}{_exts(op.offsets)}{_exts(op.sizes)}"
                   f"{_ann(op.annotations)}")
    elif isinstance(op, AllocOp):
        narrow = " narrow" if op.narrow else ""
        fill = "" if op.fill is None else f" fill={fmt_f32(op.fill)}"
        out.append(f"{pad}%{op.result} = alloc f32{_exts(op.sizes)} @{op.space}{narrow}{fill}"
                   f"{_ann(op.annotations)}")
    elif isinstance(op, DeallocOp):
        out.append(f"{pad}dealloc %{op.target}{_ann(op.annotations)}")
    elif isinstance(op, DmaStartOp):
        out.append(f"{pad}dma_start tag=%{op.tag} %{op.source}{_exts(op.src_offsets)} -> "
                   f"%{op.dest}{_exts(op.dst_offsets)} sizes={_exts(op.sizes)}{_ann(op.annotations)}")
    elif isinstance(op, DmaWaitOp):
        out.append(f"{pad}dma_wait tag=%{op.tag}{_ann(op.annotations)}")
    elif isinstance(op, AsyncGroupOp):
        out.append(f"{pad}%{op.group} = async_group size={print_extent(op.size)}{_ann(op.annotations)}")
    elif isinstance(op, AsyncExecuteOp):
        out.append(f"{pad}%{op.token} = async_execute{_ann(op.annotations)} {{")
        for o in op.body:
            _print_op(o, out, indent + 1)
        out.append(pad + "}")
    elif isinstance(op, AddToGroupOp):
        out.append(f"{pad}add_to_group %{op.group}, %{op.token}{_ann(op.annotations)}")
    elif isinstance(op, AwaitAllOp):
        out.append(f"{pad}await_all %{op.group}{_ann(op.annotations)}")
    else:  # pragma: no cover
        raise TypeError(f"unknown op {type(op)}")


def print_ir(program: KernelProgram) -> str:
    """Deterministic textual dump; byte-identical for equal programs."""
    out = [f"program @{program.name} stage={program.stage} {{"]
    for d in program.decls:
        dims = "x".join(str(e) for e in d.shape)
        out.append(f"  tensor %{d.name}: {d.dtype}[{dims}] @{d.space} role={d.role}")
    for op in program.ops:
        _print_op(op, out, 1)
    out.append("}")
    return "\n".join(out) + "\n"
