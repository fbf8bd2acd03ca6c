"""Analytic cycle cost model over staged programs.

The simulator walks a program's schedule concretely (loops iterate and
guards evaluate through `ir.trips` and `ir.holds`, as in the interpreter:
docs/ir_format.md, "Concrete execution") but accounts time analytically
instead of emulating instructions. It does each distinct piece of cost work
once per `simulate` call: a generic's payload cycles and vector width are
computed on its first visit, and a loop whose body is self-contained (see
`_LoopPlan`) walks its body once per iteration class, the iterations that
agree on the loop-var-dependent extents the cost reads, and replays the
cached sum for the others. The replay repeats the walk's float additions
in order, so the report is bit-identical to walking every iteration.
`FragmentPricer.price` likewise walks once each class of a forall's
threads that its caller knows to cost alike (mt's hoists). The rules:

- data movement (extract_slice / insert_slice across memory spaces,
  dma_start) costs latency + bytes/bandwidth; dma_wait itself is free;
- a generic costs points * payload-cycles, divided by W for `vectorized(W)`
  regions (doubled again for narrow/f16 data), and multiplied by the window
  miss factor when its operand footprint exceeds the per-context data window
  (the model of the single-thread locality cliff: splitting work across
  contexts shrinks per-context footprints); a `vectorized(W)` reduction adds
  the combine of its W lanes, (W - 1) combinator ops per output point and
  reduction, once per execution; a `row_lanes(W)` generic costs
  ceil(L/W') * (points / L) * payload-cycles * the window factor, for L
  rows (d0's extent) in groups of W' = W lanes (2W for narrow data, capped
  at the scalar charge), with no combine;
- a fork-join, a forall or the async pattern that `async` lowers it to,
  charges spawn cycles per thread (per async_execute) and packs the bodies
  greedily onto num_hvx_contexts contexts; the contexts share one DMA
  engine, so the join (the forall's end, or await_all) takes the larger of
  its busiest context and the bytes its bodies moved / bandwidth, then a
  barrier (`_Sim.join`). Both forms price alike, bit for bit, and
  `fork_join_floor` is the least any fork-join can cost;
- a double-buffered loop overlaps its prologue+prefetch transfers with its
  compute: loop time = max(prefetch transfer, compute side) + serial stores.
  Everything else serializes.

The report decomposes total cycles into compute, transfer, and overhead;
overlapped_cycles is the concurrency saving compute + transfer + overhead
- total, and m = transfer / (transfer + compute).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional

import numpy as np

from . import ir
from .ir import (
    AllocOp, AsyncExecuteOp, AsyncGroupOp, AddToGroupOp, AwaitAllOp, DeallocOp, DmaStartOp,
    ExecutionFault, ExtractSliceOp, ForallOp, ForOp, GenericOp, IBin, IfOp,
    InsertSliceOp, IVar, KernelProgram, Op,
)

DEFAULT_OP_CYCLES: dict[str, float] = {
    "arg": 0.0, "const": 0.0,
    "add": 1.0, "sub": 1.0, "mul": 1.0, "neg": 1.0, "max2": 1.0,
    "div": 4.0,
    "exp": 12.0, "tanh": 12.0, "sqrt": 6.0, "rsqrt": 6.0,
    "exp_approx": 6.0, "tanh_approx": 8.0, "rsqrt_fast": 3.0,
}


class MachineConfigError(ValueError):
    """A machine config with an unknown key or a value the model cannot use."""


@dataclass
class MachineConfig:
    dma_bandwidth_bytes_per_cycle: float = 64.0
    dma_latency_cycles: float = 512.0
    num_hvx_contexts: int = 4
    thread_spawn_cycles: float = 1750.0
    barrier_cycles: float = 1500.0
    tcm_bytes: int = 8 * 1024 * 1024
    compute_window_bytes: int = 131072
    window_miss_factor: float = 3.0
    scalar_op_cycles: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_OP_CYCLES))

    def __post_init__(self):
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "scalar_op_cycles"}
        values.update((f"op.{k}", v) for k, v in self.scalar_op_cycles.items())
        for name, v in values.items():
            if not (math.isfinite(v) and v >= 0):
                raise MachineConfigError(f"MachineConfig: {name} = {v} must be finite and >= 0")
        if self.dma_bandwidth_bytes_per_cycle <= 0 or self.num_hvx_contexts < 1:
            raise MachineConfigError("MachineConfig: bandwidth and contexts must be positive")
        if self.tcm_bytes < 1 or self.compute_window_bytes < 1 or self.window_miss_factor < 1:
            raise MachineConfigError("MachineConfig: capacities and miss factor must be >= 1")

    def op_cost(self, kind: str) -> float:
        return self.scalar_op_cycles.get(kind, 1.0)

    def dma_cycles(self, bytes_: float) -> float:
        """The cycles of one transfer of `bytes_` through the DMA engine."""
        return self.dma_latency_cycles + bytes_ / self.dma_bandwidth_bytes_per_cycle

    def to_text(self) -> str:
        lines = [
            f"dma_bandwidth_bytes_per_cycle = {self.dma_bandwidth_bytes_per_cycle:g}",
            f"dma_latency_cycles = {self.dma_latency_cycles:g}",
            f"num_hvx_contexts = {self.num_hvx_contexts}",
            f"thread_spawn_cycles = {self.thread_spawn_cycles:g}",
            f"barrier_cycles = {self.barrier_cycles:g}",
            f"tcm_bytes = {self.tcm_bytes}",
            f"compute_window_bytes = {self.compute_window_bytes}",
            f"window_miss_factor = {self.window_miss_factor:g}",
        ]
        for k in sorted(self.scalar_op_cycles):
            lines.append(f"op.{k} = {self.scalar_op_cycles[k]:g}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "MachineConfig":
        """Parse `key = value` lines: the scalar fields and `op.<kind>` costs."""
        types = {f.name: f.type for f in fields(MachineConfig) if f.name != "scalar_op_cycles"}
        values: dict[str, float] = {}
        ops = dict(DEFAULT_OP_CYCLES)
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise MachineConfigError(f"machine config line {lineno}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            kind = key[3:] if key.startswith("op.") else None
            if not kind and key not in types:
                raise MachineConfigError(f"machine config line {lineno}: unknown key {key!r}")
            try:
                num = int(val) if types.get(key) == "int" else float(val)
            except ValueError:
                raise MachineConfigError(
                    f"machine config line {lineno}: bad value {val!r} for {key}") from None
            if kind:
                ops[kind] = num
            else:
                values[key] = num
        return MachineConfig(**values, scalar_op_cycles=ops)


@dataclass(frozen=True)
class TimingReport:
    total_cycles: float
    compute_cycles: float
    transfer_cycles: float
    overlapped_cycles: float
    overhead_cycles: float

    @property
    def memory_fraction(self) -> float:
        denom = self.transfer_cycles + self.compute_cycles
        return self.transfer_cycles / denom if denom > 0 else 0.0


def ideal_overlap_speedup(m: float) -> float:
    """Perfect-overlap double-buffering speedup: 1 / max(m, 1 - m)."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"memory fraction m={m} outside [0, 1]")
    return 1.0 / max(m, 1.0 - m)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


class _Buf:
    __slots__ = ("shape", "space", "narrow", "bytes")

    def __init__(self, shape, space, narrow=False):
        self.shape = shape
        self.space = space
        self.narrow = narrow
        self.bytes = float(math.prod(shape) * (2 if narrow else 4))


def _values(extents, env) -> tuple[int, ...]:
    """Each of `extents` evaluated under `env`, a constant as it is."""
    return tuple([e if e.__class__ is int else ir.eval_extent(e, env) for e in extents])


@dataclass(slots=True)
class _Acc:
    time: float = 0.0
    compute: float = 0.0
    transfer: float = 0.0
    overhead: float = 0.0
    prefetch: float = 0.0  # transfer pooled for overlap inside a db loop
    moved: float = 0.0  # bytes through the DMA engine
    missed: float = 0.0  # the part of compute the window miss factor adds

    def add(self, other: "_Acc") -> None:
        self.time += other.time
        self.compute += other.compute
        self.transfer += other.transfer
        self.overhead += other.overhead
        self.prefetch += other.prefetch
        self.moved += other.moved
        self.missed += other.missed


@dataclass(slots=True)
class _LoopPlan:
    """Everything a balanced loop body's cost depends on that varies per iteration.

    Two iterations that agree on their key walk the body to the same _Acc.
    The key is the class id `class_ids` gives the values of the body's cost
    atoms. An atom is a maximal subexpression that mentions the loop var and
    no var of an inner loop around it, taken from the extents the walker
    reads (generic domains, inner loop bounds, slice/alloc/dma sizes, guard
    sides); a guard with no inner var is one boolean atom. Offsets are never
    read, so they are left out.
    """

    extents: tuple[ir.Extent, ...]
    preds: tuple[ir.CmpPred, ...]

    def class_ids(self, env, var: str, trips: range) -> Iterator[Optional[int]]:
        """Each trip's iteration class, or None for no key.

        Every atom and guard is evaluated over a block of up to `_BLOCK`
        trips at once, in the enclosing env, as an exact int64 array; where
        a bound on some node's magnitude reaches 2**62 (int64 might
        overflow), as Python ints instead. A loop of at most `_SHORT` trips
        is keyed one trip at a time in Python ints, through the memoized
        `ir` evaluators, which costs less than building the arrays. Trips
        that agree on all of them get the same id. A trip where a floordiv
        divisor is 0 gets None and is walked: the walk may never reach that
        atom. An unbound var, or a divisor of 0 that does not depend on
        `var`, leaves every trip without a key.
        """
        if not self.extents and not self.preds:
            return itertools.repeat(0, len(trips))  # nothing to evaluate: one class
        index: dict[tuple, int] = {}
        if len(trips) <= _SHORT:
            return self._trip_ids(env, var, trips, index)
        return itertools.chain.from_iterable(
            self._block_ids(env, var, trips[start:start + _BLOCK], start, index)
            for start in range(0, len(trips), _BLOCK))

    def _trip_ids(self, env, var: str, trips: range,
                  index: dict[tuple, int]) -> list[Optional[int]]:
        """`class_ids` for a short loop, evaluated trip by trip."""
        env = dict(env)
        ids: list[Optional[int]] = []
        for k, i in enumerate(trips):
            env[var] = i
            try:
                key = tuple([ir.eval_extent(e, env) for e in self.extents]
                            + [ir.holds(p, env) for p in self.preds])
            except (KeyError, ArithmeticError):  # as in the arrays: no key
                ids.append(None)
                continue
            ids.append(index.setdefault(key, k))
        return ids

    def _block_ids(self, env, var: str, block: range, start: int,
                   index: dict[tuple, int]) -> list[Optional[int]]:
        """`class_ids` for the trips of `block`, the first of which is trip `start`."""
        try:
            try:
                columns, zero = self._columns(env, var, block, np.int64)
            except _Inexact:
                columns, zero = self._columns(env, var, block, object)
        except (KeyError, ArithmeticError):
            return [None] * len(block)
        ids: list[Optional[int]] = [index.setdefault(r, start + k)
                                    for k, r in enumerate(zip(*columns))]
        for k in zero:
            ids[k] = None
        return ids

    def _columns(self, env, var: str, trips: range, dtype) -> tuple[list[list], list[int]]:
        """The values of each atom and guard over `trips`, and the trips with a zero divisor."""
        bound = max(abs(trips[0]), abs(trips[-1]))
        limit = _INT64_EXACT if dtype is np.int64 else math.inf
        if bound >= limit:
            raise _Inexact
        env = {**env, var: (np.arange(trips.start, trips.stop, trips.step, dtype=dtype), bound)}
        zeros: list[np.ndarray] = []
        columns = [_range_eval(e, env, limit, zeros)[0] for e in self.extents]
        for p in self.preds:
            columns.append(ir._CMP_FNS[p.op](_range_eval(p.lhs, env, limit, zeros)[0],
                                             _range_eval(p.rhs, env, limit, zeros)[0]))
        zero = np.flatnonzero(np.logical_or.reduce(zeros)).tolist() if zeros else []
        return [c.tolist() for c in columns], zero


def _scan_loop(loop: ForOp) -> Optional[_LoopPlan]:
    """The `_LoopPlan` of `loop` from one scan of its body, or None when the body is unbalanced.

    A balanced body keeps its effects on groups, tokens and prologue pools
    inside it. Every group it awaits or adds to, it created first; every
    token it adds, it issued first; and it leaves neither open. It holds no
    `db_prologue` guard and no nested `db_generic` loop, which feed and
    drain the prologue pools across loop boundaries. (A group or token of
    the same name that is live when the loop starts is consumed by the
    first, walked, iteration either way.) An `async_threads` spawn loop adds
    every token to a group made before it, so it is unbalanced unscanned.
    """
    if "async_threads" in loop.annotations:
        return None
    var = loop.var
    extents: dict[ir.Extent, None] = {}
    preds: dict[ir.CmpPred, None] = {}
    groups: set[str] = set()
    tokens: set[str] = set()

    def atoms(e: ir.Extent, inner: frozenset[str]) -> None:
        if isinstance(e, int):
            return
        names = ir._extent_vars(e)
        if var not in names:
            return
        if not names & inner:
            extents[e] = None
        elif isinstance(e, IBin):
            atoms(e.lhs, inner)
            atoms(e.rhs, inner)

    def scan(ops, inner: frozenset[str]) -> bool:
        """Collect the atoms of `ops`, whose loops bind `inner`; False if unbalanced."""
        for op in ops:
            kind = type(op)
            exts: tuple = ()
            if kind is GenericOp:
                exts = op.domain
            elif kind is ForOp:
                if ir.annotation_value(op.annotations, "db_generic") is not None:
                    return False
                exts = (op.lb, op.ub, op.step)
            elif kind in (ExtractSliceOp, AllocOp, InsertSliceOp, DmaStartOp):
                exts = op.sizes
            elif kind is IfOp:
                if "db_prologue" in op.annotations:
                    return False
                pred = op.pred
                names = ir._extent_vars(pred.lhs) | ir._extent_vars(pred.rhs)
                if names & inner:
                    exts = (pred.lhs, pred.rhs)
                elif var in names:
                    preds[pred] = None
            elif kind is AsyncGroupOp:
                groups.add(op.group)
            elif kind is AsyncExecuteOp:
                tokens.add(op.token)
            elif kind is AddToGroupOp:
                if op.group not in groups or op.token not in tokens:
                    return False
                tokens.remove(op.token)
            elif kind is AwaitAllOp:
                if op.group not in groups:
                    return False
                groups.remove(op.group)
            for e in exts:
                atoms(e, inner)
            if kind is ForOp or kind is ForallOp:
                if not scan(op.body, inner | {op.var}):
                    return False
            elif (kind is IfOp or kind is AsyncExecuteOp) and not scan(op.body, inner):
                return False
        return True

    if not scan(loop.body, frozenset()) or groups or tokens:
        return None
    return _LoopPlan(tuple(extents), tuple(preds))


_INT64_EXACT = 1 << 62
_BLOCK = 1 << 16  # trips keyed per numpy pass, which bounds the arrays' memory
# loops up to this many trips are keyed in Python ints; it stays below 5, so
# that test_atoms_past_two_to_the_62_keep_exact_keys's 5 trips reach numpy
_SHORT = 4

_RANGE_FNS = {
    "add": np.add, "sub": np.subtract, "mul": np.multiply,
    "floordiv": np.floor_divide, "min": np.minimum, "max": np.maximum,
}


class _Inexact(Exception):
    """A node's magnitude bound reaches 2**62, where int64 arithmetic might overflow."""


def _range_eval(e: ir.Extent, env, limit: float, zeros: list):
    """`e` over a trip range, and a bound on its magnitude.

    `env` maps a name to an int, or the loop var to (array of its values,
    magnitude bound). A node that mixes in an array raises _Inexact when
    its operands' or its own bound reaches `limit`. Where an array divisor
    is 0 its mask goes to `zeros` and the trip divides by 1 instead. Nodes
    without arrays are Python ints and raise as usual, a divisor of 0
    included.
    """
    if isinstance(e, int):
        return e, abs(e)
    if isinstance(e, IVar):
        v = env[e.name]
        return v if isinstance(v, tuple) else (v, abs(v))
    a, a_bound = _range_eval(e.lhs, env, limit, zeros)
    b, b_bound = _range_eval(e.rhs, env, limit, zeros)
    if isinstance(a, int) and isinstance(b, int):
        v = ir._IBIN_FNS[e.op](a, b)
        return v, abs(v)
    if e.op in ("add", "sub"):
        bound = a_bound + b_bound
    elif e.op == "mul":
        bound = a_bound * b_bound
    elif e.op == "floordiv":
        bound = a_bound  # |a // b| <= |a| for every nonzero int b
        if isinstance(b, int):
            if b == 0:
                raise ZeroDivisionError("integer division by zero")
        elif (mask := b == 0).any():
            zeros.append(mask)
            b = np.where(mask, 1, b)
    else:
        bound = max(a_bound, b_bound)
    if max(a_bound, b_bound, bound) >= limit:
        raise _Inexact
    return _RANGE_FNS[e.op](a, b), bound


class _Sim:
    def __init__(self, program: KernelProgram, config: MachineConfig):
        self.program = program
        self.cfg = config
        self.groups: dict[str, list[_Acc]] = {}  # each group's bodies, in the order added
        self.pending_token: dict[str, _Acc] = {}
        self.prologue_pool: dict[str, float] = {}
        # per-op invariants, keyed by id() while holding the op alive:
        # GenericOp -> (op, payload cycles, lane width, lane-combine cycles per
        # output point, whether the lanes run along rows); ForOp -> (op,
        # _LoopPlan | None)
        self.generic_info: dict[int, tuple[GenericOp, float, int, float, bool]] = {}
        self.loop_plans: dict[int, tuple[ForOp, Optional[_LoopPlan]]] = {}
        # forall -> (forall, each thread's class): the threads of one class
        # walk the body to the same cost, so one walk serves them all
        self.thread_classes: dict[int, tuple[ForallOp, tuple]] = {}
        # each op type's walker; an op of a type not here is free (dma_wait:
        # blocking is folded into the db loop's max())
        self.walkers = {
            GenericOp: self.walk_generic, ForOp: self.walk_for, ForallOp: self.walk_forall,
            IfOp: self.walk_if, ExtractSliceOp: self.walk_extract_slice,
            AllocOp: self.walk_alloc, DeallocOp: self.walk_dealloc,
            InsertSliceOp: self.walk_insert_slice, DmaStartOp: self.walk_dma_start,
            AsyncGroupOp: self.walk_async_group, AsyncExecuteOp: self.walk_async_execute,
            AddToGroupOp: self.walk_add_to_group, AwaitAllOp: self.walk_await_all,
        }

    # -- environment -------------------------------------------------------

    def transfer_cost(self, bytes_: float) -> float:
        return self.cfg.dma_cycles(bytes_)

    def slice_bytes(self, sizes, env, narrow: bool) -> float:
        n = 1
        for s in sizes:
            n *= ir.eval_extent(s, env)
        return float(n * (2 if narrow else 4))

    def generic_cost(self, op: GenericOp, env, buffers) -> tuple[float, float]:
        """(cycles, the part of them the window miss factor adds) of `op`."""
        info = self.generic_info.get(id(op))
        if info is None:
            cost = red_cost = 0.0
            for payload, red in zip(op.payloads, op.reductions):
                for node in reversed(payload.nodes()):  # a tree's pre-order
                    cost += self.cfg.op_cost(node.kind)
                if red is not None:
                    c = self.cfg.op_cost("add" if red.kind == "sum" else "max2")
                    cost += c
                    red_cost += c
            lanes = ir.row_lanes(op.annotations)
            width = lanes or ir.vector_width(op.annotations) or 1
            # W lanes along a reduced innermost dim are combined once per output point
            combine = (width - 1) * red_cost if op.iterators[-1:] == ("reduction",) else 0.0
            info = self.generic_info[id(op)] = (op, cost, width, combine, lanes is not None)
        _, cost, width, combine, along_rows = info
        points = out_points = 1
        for e, it in zip(op.domain, op.iterators):
            ext = ir.eval_extent(e, env)
            points *= ext
            if it == "parallel":
                out_points *= ext
        narrow = any(buffers[n].narrow for n in op.inputs + op.outputs if n in buffers)
        if narrow:
            width *= 2
        footprint = sum(buffers[n].bytes for n in op.inputs + op.outputs if n in buffers)
        factor = self.cfg.window_miss_factor if footprint > self.cfg.compute_window_bytes else 1.0
        if along_rows:  # one row per lane, each its own output: no combine
            height = ir.eval_extent(op.domain[0], env)
            groups = -(-height // width)  # the last one's spare lanes masked off
            if narrow:
                groups = min(groups, height / 2)  # one row: no more than the scalar charge
            work = groups * (points // max(height, 1)) * cost
            return work * factor, work * (factor - 1.0)
        work = points * cost
        return work * factor / width + out_points * combine, work * (factor - 1.0) / width

    # -- walk ----------------------------------------------------------------

    def run(self) -> TimingReport:
        buffers = {d.name: _Buf(d.shape, d.space, d.dtype == "f16") for d in self.program.decls}
        acc = self.walk_block(self.program.ops, {}, buffers, in_prefetch=False)
        total = acc.time
        overlapped = acc.compute + acc.transfer + acc.overhead - total
        return TimingReport(total, acc.compute, acc.transfer, overlapped, acc.overhead)

    def walk_block(self, ops, env, buffers, in_prefetch: bool) -> _Acc:
        acc = _Acc()
        walkers = self.walkers
        for op in ops:
            walk = walkers.get(type(op))
            if walk is not None:  # remaining ops are free
                walk(op, env, buffers, acc, in_prefetch)
        return acc

    def _move(self, acc: _Acc, bytes_: float, in_prefetch: bool) -> None:
        c = self.transfer_cost(bytes_)
        acc.transfer += c
        acc.moved += bytes_
        if in_prefetch:
            acc.prefetch += c
        else:
            acc.time += c

    def walk_generic(self, op: GenericOp, env, buffers, acc: _Acc, in_prefetch: bool) -> None:
        c, missed = self.generic_cost(op, env, buffers)
        acc.compute += c
        acc.time += c
        acc.missed += missed

    def walk_for(self, op: ForOp, env, buffers, acc: _Acc, in_prefetch: bool) -> None:
        gid = ir.annotation_value(op.annotations, "db_generic")
        body_acc = self.walk_trips(op, ir.trips(op, env), env, buffers, in_prefetch)
        if gid is not None:
            # double-buffered loop: prologue + prefetch transfers overlap
            # the compute side; stores and overheads already in .time
            pool = body_acc.prefetch + self.prologue_pool.pop(gid, 0.0)
            acc.compute += body_acc.compute
            acc.transfer += body_acc.transfer
            acc.overhead += body_acc.overhead
            acc.moved += body_acc.moved
            acc.missed += body_acc.missed
            acc.time += max(pool, body_acc.time)
        else:
            acc.add(body_acc)

    def walk_forall(self, op: ForallOp, env, buffers, acc: _Acc, in_prefetch: bool) -> None:
        # a spawn per thread, summed as the lowered spawn loop sums its trips
        classes = self.thread_classes.get(id(op), (None, None))[1]
        walked: dict = {}
        spawns = 0.0
        bodies = []
        for t in ir.trips(op, env):
            body = None if classes is None else walked.get(classes[t])
            if body is None:
                body = self.walk_block(op.body, {**env, op.var: t}, dict(buffers), in_prefetch)
                if classes is not None:
                    walked[classes[t]] = body
            bodies.append(body)
            spawns += self.cfg.thread_spawn_cycles
        acc.time += spawns
        acc.overhead += spawns
        self.join(bodies, acc)

    def walk_if(self, op: IfOp, env, buffers, acc: _Acc, in_prefetch: bool) -> None:
        if not ir.holds(op.pred, env):
            return
        prologue = "db_prologue" in op.annotations
        prefetching = in_prefetch or prologue or "db_prefetch" in op.annotations
        inner = self.walk_block(op.body, env, dict(buffers), prefetching)
        if prologue:
            gid = ir.annotation_value(op.annotations, "db_generic")
            self.prologue_pool[gid] = self.prologue_pool.get(gid, 0.0) + inner.prefetch
            inner.prefetch = 0.0
        acc.add(inner)

    def walk_extract_slice(self, op: ExtractSliceOp, env, buffers, acc: _Acc,
                           in_prefetch: bool) -> None:
        src = buffers[op.source]
        tile = buffers[op.result] = _Buf(_values(op.sizes, env), op.space or src.space,
                                         src.narrow)
        if tile.space != src.space:
            self._move(acc, tile.bytes, in_prefetch)

    def walk_alloc(self, op: AllocOp, env, buffers, acc: _Acc, in_prefetch: bool) -> None:
        buffers[op.result] = _Buf(_values(op.sizes, env), op.space, op.narrow)

    def walk_dealloc(self, op: DeallocOp, env, buffers, acc: _Acc, in_prefetch: bool) -> None:
        buffers.pop(op.target, None)

    def walk_insert_slice(self, op: InsertSliceOp, env, buffers, acc: _Acc,
                          in_prefetch: bool) -> None:
        src, dst = buffers[op.source], buffers[op.dest]
        if src.space != dst.space:
            self._move(acc, self.slice_bytes(op.sizes, env, src.narrow), in_prefetch)

    def walk_dma_start(self, op: DmaStartOp, env, buffers, acc: _Acc, in_prefetch: bool) -> None:
        src = buffers[op.source]
        self._move(acc, self.slice_bytes(op.sizes, env, src.narrow), in_prefetch)

    def walk_async_group(self, op: AsyncGroupOp, env, buffers, acc: _Acc,
                         in_prefetch: bool) -> None:
        self.groups[op.group] = []

    def walk_async_execute(self, op: AsyncExecuteOp, env, buffers, acc: _Acc,
                           in_prefetch: bool) -> None:
        body = self.walk_block(op.body, dict(env), dict(buffers), in_prefetch)
        self.pending_token[op.token] = body
        acc.time += self.cfg.thread_spawn_cycles
        acc.overhead += self.cfg.thread_spawn_cycles

    def walk_add_to_group(self, op: AddToGroupOp, env, buffers, acc: _Acc,
                          in_prefetch: bool) -> None:
        group = self.groups.get(op.group)
        if group is None:
            raise ExecutionFault(f"add_to_group: unknown group %{op.group}")
        body = self.pending_token.pop(op.token, None)
        if body is None:
            raise ExecutionFault(f"add_to_group: token %{op.token} not issued")
        group.append(body)

    def walk_await_all(self, op: AwaitAllOp, env, buffers, acc: _Acc, in_prefetch: bool) -> None:
        group = self.groups.pop(op.group, None)
        if group is None:
            raise ExecutionFault(f"await_all on unknown group %{op.group}")
        self.join(group, acc)

    def join(self, bodies: list[_Acc], acc: _Acc) -> None:
        """Charge `acc` the join of a fork whose spawns it holds: `bodies`
        packed greedily onto the contexts, the larger of the busiest context
        and every byte through the one DMA engine, then the barrier."""
        cfg = self.cfg
        free = [0.0] * cfg.num_hvx_contexts
        moved = 0.0
        for body in bodies:
            k = min(range(len(free)), key=lambda i: (free[i], i))
            free[k] += body.time
            acc.compute += body.compute
            acc.transfer += body.transfer
            acc.overhead += body.overhead
            acc.prefetch += body.prefetch
            acc.missed += body.missed
            moved += body.moved
        acc.moved += moved
        # the contexts share one DMA engine: their bytes take turns on it
        busiest = max(max(free), moved / cfg.dma_bandwidth_bytes_per_cycle)
        acc.time += busiest + cfg.barrier_cycles
        acc.overhead += cfg.barrier_cycles

    def walk_trips(self, op: ForOp, trips: range, env, buffers, in_prefetch: bool) -> _Acc:
        """The body's _Acc summed over `trips` in order, each iteration class walked once."""
        # below 3 trips replay saves at most one body walk, no more than the
        # body scan and the entry's fixed numpy key cost
        plan = self.loop_plan(op) if len(trips) >= 3 else None
        body_acc = _Acc()
        child_env = dict(env)

        def walk(i: int) -> _Acc:
            child_env[op.var] = i
            return self.walk_block(op.body, child_env, dict(buffers), in_prefetch)

        if plan is None:
            for i in trips:
                body_acc.add(walk(i))
        else:
            seen: dict[int, _Acc] = {}
            for i, cid in zip(trips, plan.class_ids(env, op.var, trips)):
                if cid is None:
                    body_acc.add(walk(i))
                    continue
                hit = seen.get(cid)
                if hit is None:
                    hit = seen[cid] = walk(i)
                body_acc.add(hit)
        return body_acc

    def loop_plan(self, op: ForOp) -> Optional[_LoopPlan]:
        entry = self.loop_plans.get(id(op))
        if entry is None:
            plan = _scan_loop(op)
            entry = self.loop_plans[id(op)] = (op, plan)
        return entry[1]


def simulate(program: KernelProgram, config: MachineConfig) -> TimingReport:
    """Deterministic analytic timing of a staged program's schedule."""
    return _Sim(program, config).run()


class FragmentPricer:
    """Prices fragments of a program on one machine, each walked alone as
    `simulate` walks a program, with one simulator for every call, so a
    generic's payload cycles and a loop's plan are derived once however
    many fragments share the op."""

    def __init__(self, config: MachineConfig):
        self.sim = _Sim(None, config)

    def price(self, ops: tuple[Op, ...], buffers, env,
              thread_classes: Optional[tuple] = None) -> tuple[float, float, float, float]:
        """(cycles, compute cycles, bytes through the DMA engine, the part of
        the compute cycles the window miss factor adds) of `ops` on their
        own.

        `buffers` maps each buffer the ops use but do not create to its
        (shape, space, narrow); `env` binds the loop vars around the ops,
        and the shapes are evaluated in it. `thread_classes`, for `ops` a
        single forall, gives each of its threads a class, where the caller
        knows that the threads of one class cost the same: one walk of the
        body then serves a class.
        """
        bufs = {name: _Buf(tuple(ir.eval_extent(s, env) for s in shape), space, narrow)
                for name, (shape, space, narrow) in buffers.items()}
        if thread_classes is not None:
            (forall,) = ops
            self.sim.thread_classes[id(forall)] = (forall, thread_classes)
        try:
            acc = self.sim.walk_block(ops, dict(env), bufs, in_prefetch=False)
        finally:
            self.sim.thread_classes.clear()
        return acc.time, acc.compute, acc.moved, acc.missed


def fork_join_floor(config: MachineConfig, threads: int, compute: float = 0.0,
                    moved: float = 0.0) -> float:
    """The least cycles a fork-join of `threads` threads can take whose bodies
    compute `compute` cycles in all and move `moved` bytes: a spawn per
    thread and the barrier, around the larger of a 1/`threads` share of the
    compute and every byte through the one DMA engine."""
    busiest = max(compute / threads, moved / config.dma_bandwidth_bytes_per_cycle)
    return threads * config.thread_spawn_cycles + config.barrier_cycles + busiest


def zero_overhead_config(bandwidth: float = 4.0) -> MachineConfig:
    """Config for overlap-law studies: no latency, spawn, barrier, or window penalty."""
    return MachineConfig(
        dma_bandwidth_bytes_per_cycle=bandwidth,
        dma_latency_cycles=0.0,
        thread_spawn_cycles=0.0,
        barrier_cycles=0.0,
        compute_window_bytes=1 << 60,
        window_miss_factor=1.0,
    )


# ---------------------------------------------------------------------------
# Synthetic overlap probe (memory fraction m directly controllable)
# ---------------------------------------------------------------------------


def overlap_probe(m: float, n_tiles: int = 8, tile_elems: int = 1024,
                  ) -> tuple[KernelProgram, MachineConfig]:
    """Single-buffered normal-form loop whose simulated m equals `m`.

    Transfer per tile is tile bytes / bandwidth; compute is one mul per point
    (zero at m = 1). At m = 0 the input is TCM-resident and there is nothing
    to overlap, so the db pass is a no-op by construction.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"m={m} outside [0, 1]")
    total = n_tiles * tile_elems
    repeats = 0 if m >= 1.0 else 1
    payload = ir.Payload.arg(0)
    for _ in range(repeats):
        payload = ir.Payload.binary("mul", payload, ir.Payload.arg(0))
    compute_per_tile = float(repeats * tile_elems)
    if m <= 0.0:
        bandwidth = 4.0  # irrelevant: no transfers exist
    elif m >= 1.0:
        bandwidth = 4.0  # transfer = tile bytes / 4 per tile, compute = 0
    else:
        transfer_per_tile = compute_per_tile * m / (1.0 - m)
        bandwidth = tile_elems * 4.0 / transfer_per_tile
    cfg = zero_overhead_config(bandwidth)

    x_space = "tcm" if m <= 0.0 else "ddr"
    decls = (
        ir.TensorDecl("x", (total,), "f32", x_space, "input"),
        ir.TensorDecl("out", (total,), "f32", "tcm", "output"),
    )
    i = ir.IVar("i")
    sizes = (tile_elems,)
    offsets = (i,)
    body = (
        # at m = 0 the tile is a view of the TCM-resident input; else it is staged
        ExtractSliceOp("s", "x", offsets, sizes, None if m <= 0.0 else "tcm"),
        AllocOp("o", sizes, "tcm"),
        GenericOp("probe", (tile_elems,), ("s",), ("o",),
                  (ir.AffineIndexMap.identity(1), ir.AffineIndexMap.identity(1)),
                  ("parallel",), (payload,)),
        InsertSliceOp("o", "out", offsets, sizes),
        DeallocOp("o"),
    )
    loop = ForOp("i", 0, total, tile_elems, body,
                 annotations=frozenset({"tiled_generic", "all_parallel"}))
    program = KernelProgram("overlap_probe", decls, (loop,), stage="tiled")
    return program, cfg


# ---------------------------------------------------------------------------
# Sweep axes and CSV columns of `pipeline.bench`
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("kernel", "size", "passes", "cycles", "compute", "transfer",
               "overhead", "m", "speedup")

PASS_LADDERS: dict[str, tuple[str, ...]] = {
    "scalar": ("fuse", "tile"),
    "vec": ("fuse", "tile", "vectorize"),
    "vec_db": ("fuse", "tile", "vectorize", "db"),
    "vec_mt": ("fuse", "tile", "vectorize", "mt", "async"),
    "vec_mt_db": ("fuse", "tile", "vectorize", "mt", "async", "db"),
}

SIZE_SWEEP = (8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576)
