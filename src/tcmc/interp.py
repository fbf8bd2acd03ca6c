"""Reference interpreter: executes a program at any pipeline stage.

This is the oracle behind every preservation test, so the execution rules
are deliberately rigid:

- generic ops evaluate their payload over the whole iteration domain in f32;
  reductions fold strictly left to right in ascending index order
  (numerics.ordered_fold: a row-by-row `np.add.reduce` across 16 or more
  independent output lanes, an order-free `np.maximum.reduce` whose result
  has one bit pattern unless it is ±0 or NaN, and a sequential `accumulate`
  otherwise). A carried fold (`init=out`) starts each output point from its
  current value, so a reduction that `tile` splits into sequential tiles
  folds in the same fp order at every pipeline stage. Only the sign and
  payload bits of a NaN folded from two NaNs are left unspecified (see
  ordered_fold), and those too match across stages;
- DMA data becomes visible in the destination only at dma_wait; reading a
  buffer with an in-flight fill, waiting on an idle tag, or starting a tag
  twice is a hard ExecutionFault;
- forall and async bodies run sequentially in issue order, each to
  completion before the next op; await_all only checks group discipline;
- loop trips and guards follow `ir.trips` and `ir.holds`, the one
  definition the cost model and the oracles share (docs/ir_format.md,
  "Concrete execution"); control flow keeps no state of its own.

Tensor storage: `alloc` storage reads as zeros, or as its `fill` value. An
`extract_slice` that names a space (`@tcm`, how `tile` stages an input tile)
and the `dma_start` snapshot copy their region at the op into storage of
their own. An `extract_slice` without a space is a view: it reads its
source's region in place (how vectorize, mt and a db slot narrow an
operand), keeps the source's space, and its storage is never given back.
The other arrays, the copies of the inputs and the root temporaries come from
one per-thread buffer pool that outlives each `interpret` call, so the
allocator does not hand large arrays back to the OS for the next buffer to
fault in again. Output arrays returned to the caller never come from it.
Storage goes back to the pool only from a binding that is going away:

- at `dealloc`;
- the buffers still bound when a `for`/`forall` iteration, an `if` body or
  an `async_execute` body ends;
- a snapshot, at its `dma_wait`;
- the non-output root buffers, when `interpret` returns.

A buffer with a DMA fill in flight is never given back, and nothing is
given back when an ExecutionFault is raised. The pool keeps free arrays in
lists keyed by element count and retains at most POOL_RETAIN_BYTES of them;
an array that would exceed that is dropped.

Execution dispatches each op through a table keyed by its exact type. Each
scope carries one flat dict of the index vars in scope, which extents
evaluate against directly (see ir.IBin for their compiled closures). A
generic op keeps its execution plan (`_GenericPlan`: compiled domain,
operand maps, reduction axes, output placement) on the op itself, built on
its first execution and reused by later iterations and by every stage that
shares the op. An identity-mapped operand whose shape is the domain is read
as it is; any other is read through a view with extent 1 on the domain dims
its map skips, which the payload's ufuncs broadcast.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from . import ir
from .ir import ExecutionFault
from .numerics import F32, eval_payload, ordered_fold


# Most bytes of free storage the buffer pool retains, per thread. A larger
# bound saved no more page faults on the verify workloads and raised peak RSS.
POOL_RETAIN_BYTES = 4 * 1024 * 1024


class _BufferPool:
    """Free f32 arrays in lists keyed by element count.

    `retained` counts the bytes of the free arrays, which stays within
    POOL_RETAIN_BYTES. Each thread has its own pool (`_pool`).
    """

    def __init__(self):
        self.free: dict[int, list[np.ndarray]] = {}
        self.retained = 0

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous f32 array of `shape`; its contents are unspecified."""
        arrays = self.free.get(math.prod(shape))
        if not arrays:
            return self._new(shape)
        arr = arrays.pop()
        self.retained -= arr.nbytes
        return arr if arr.shape == shape else arr.reshape(shape)

    def zeros(self, shape: tuple[int, ...]) -> np.ndarray:
        arr = self.take(shape)
        arr.fill(0)
        return arr

    def copy_of(self, region: np.ndarray) -> np.ndarray:
        arr = self.take(region.shape)
        arr[...] = region
        return arr

    def give(self, arr: np.ndarray) -> None:
        """Take back `arr`, an array from `take` that nothing reads again."""
        nbytes = arr.nbytes
        if self.retained + nbytes <= POOL_RETAIN_BYTES:
            self.retained += nbytes
            arrays = self.free.get(arr.size)
            if arrays is None:
                self.free[arr.size] = [arr]
            else:
                arrays.append(arr)

    def give_all(self, buffers: Mapping[str, "_Buffer"]) -> None:
        """Give back the storage of `buffers`, except views and those with a fill in flight."""
        for buf in buffers.values():
            if buf.pending_tag is None and not buf.view:
                self.give(buf.data)

    @staticmethod
    def _new(shape: tuple[int, ...]) -> np.ndarray:
        return np.empty(shape, dtype=np.float32)


_LOCAL = threading.local()


def _pool() -> _BufferPool:
    """This thread's buffer pool, made on first use."""
    pool = getattr(_LOCAL, "pool", None)
    if pool is None:
        pool = _LOCAL.pool = _BufferPool()
    return pool


@dataclass(frozen=True)
class TensorValue:
    """Row-major f32 tensor: shape plus flat data."""

    shape: tuple[int, ...]
    data: np.ndarray  # 1-D float32, length == prod(shape)

    def __post_init__(self):
        n = int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1
        if self.data.ndim != 1 or self.data.dtype != np.float32 or len(self.data) != n:
            raise ValueError(f"TensorValue: flat f32 data of length {n} required")

    @staticmethod
    def from_array(arr: np.ndarray) -> "TensorValue":
        a = np.ascontiguousarray(arr, dtype=np.float32)
        return TensorValue(tuple(a.shape), a.reshape(-1))

    def to_array(self) -> np.ndarray:
        return self.data.reshape(self.shape)


class _Buffer:
    __slots__ = ("data", "space", "pending_tag", "view")

    def __init__(self, data: np.ndarray, space: str, view: bool = False):
        self.data = data
        self.space = space
        self.pending_tag: Optional[str] = None
        self.view = view  # `data` is a region of another buffer's storage


class _Env:
    """Lexical binding scope; physical arrays are shared across scopes.

    `idx` maps every index var in scope to its value, the enclosing scopes'
    included, so an extent evaluates against it directly.
    """

    __slots__ = ("parent", "buffers", "idx")

    def __init__(self, parent: Optional["_Env"], idx: dict[str, int]):
        self.parent = parent
        self.buffers: dict[str, _Buffer] = {}
        self.idx = idx

    def lookup(self, name: str) -> _Buffer:
        env = self
        while env is not None:
            b = env.buffers.get(name)
            if b is not None:
                return b
            env = env.parent
        raise ExecutionFault(f"undefined buffer %{name}")

    def unbind(self, name: str) -> None:
        env = self
        while env is not None:
            if name in env.buffers:
                del env.buffers[name]
                return
            env = env.parent
        raise ExecutionFault(f"dealloc of undefined buffer %{name}")


@dataclass
class _Pending:
    dest: _Buffer
    region: tuple[slice, ...]
    data: np.ndarray
    tag_name: str


class ExecEnv:
    """Machine-wide execution state: DMA ledger, tokens, groups."""

    def __init__(self):
        self.dma: dict[int, _Pending] = {}
        self.tokens: set[str] = set()  # issued, not yet added to a group
        self.groups: set[str] = set()  # created, not yet awaited


def _read(buf: _Buffer, name: str) -> np.ndarray:
    if buf.pending_tag is not None:
        raise ExecutionFault(
            f"read of %{name} before dma_wait(tag=%{buf.pending_tag}) completed its fill")
    return buf.data


def _region(buf: _Buffer, offsets, sizes, idx, what: str, name: str) -> tuple[slice, ...]:
    """Slices of `buf` for one slice op; faults name it as `<what> %<name>`."""
    shape = buf.data.shape
    if len(offsets) != len(shape) or len(sizes) != len(shape):
        raise ExecutionFault(f"{what} %{name}: slice rank mismatch")
    sl = []
    for d, (o, s) in enumerate(zip(offsets, sizes)):
        ov = o if o.__class__ is int else ir.eval_extent(o, idx)
        sv = s if s.__class__ is int else ir.eval_extent(s, idx)
        if ov < 0 or sv < 1 or ov + sv > shape[d]:
            raise ExecutionFault(f"{what} %{name}: out-of-bounds slice dim {d}: "
                                 f"offset {ov} size {sv} extent {shape[d]}")
        sl.append(slice(ov, ov + sv))
    return tuple(sl)


def _op_region(op: Union[ir.ExtractSliceOp, ir.InsertSliceOp], buf: _Buffer, idx, what: str,
               name: str) -> tuple[slice, ...]:
    """`_region` of the slice op `op` on `buf`, from the op's memo where it
    took that region before: keyed by the values of the vars its offsets
    and sizes name, and by `buf`'s shape, which `_region` checks."""
    memo = getattr(op, "_regions", None)
    if memo is None:
        names = sorted(set().union(*map(ir._extent_vars, op.offsets + op.sizes)))
        memo = (operator.itemgetter(*names) if names else (lambda idx: ()), {})
        object.__setattr__(op, "_regions", memo)
    values_of, regions = memo
    try:
        key = (values_of(idx), buf.data.shape)
    except KeyError:  # `_region` names the unbound var
        return _region(buf, op.offsets, op.sizes, idx, what, name)
    region = regions.get(key)
    if region is None:
        region = regions[key] = _region(buf, op.offsets, op.sizes, idx, what, name)
    return region


def _gather(arr: np.ndarray, m: ir.AffineIndexMap, domain: tuple[int, ...], name: str) -> np.ndarray:
    """A view of `arr` through `m` with one axis per domain dim, in domain
    order: extent 1 on each dim `m` does not read, which the payload's
    ufuncs broadcast."""
    idx = []
    present: list[int] = []
    for j, r in enumerate(m.results):
        if r is None:
            if arr.shape[j] != 1:
                raise ExecutionFault(f"broadcast dim {j} of %{name} has extent {arr.shape[j]} != 1")
            idx.append(0)
        else:
            if domain[r] > arr.shape[j]:
                raise ExecutionFault(
                    f"%{name} dim {j} extent {arr.shape[j]} < domain d{r}={domain[r]}")
            idx.append(slice(0, domain[r]))
            present.append(r)
    sub = arr[tuple(idx)]
    order = sorted(range(len(present)), key=lambda k: present[k])
    return sub.transpose(order).reshape([domain[d] if d in present else 1
                                         for d in range(len(domain))])


class _Interp:
    """Executes ops in order; `run_block` dispatches each op by its exact type."""

    def __init__(self, program: ir.KernelProgram, state: ExecEnv, pool: _BufferPool):
        self.program = program
        self.state = state
        self.pool = pool

    def run_block(self, ops, env: _Env) -> None:
        handlers = _HANDLERS
        for op in ops:
            handler = handlers.get(type(op))
            if handler is None:  # pragma: no cover
                raise TypeError(f"unknown op {type(op)}")
            handler(self, op, env)

    # -- control flow -----------------------------------------------------------

    def run_loop(self, op: Union[ir.ForOp, ir.ForallOp], env: _Env) -> None:
        # one index dict serves every iteration: bodies run to completion in order
        idx = dict(env.idx)
        var, body = op.var, op.body
        for i in ir.trips(op, env.idx):
            idx[var] = i
            self._run_scope(body, _Env(env, idx))

    def _run_scope(self, body, scope: _Env) -> None:
        self.run_block(body, scope)
        if scope.buffers:
            self.pool.give_all(scope.buffers)

    def run_if(self, op: ir.IfOp, env: _Env) -> None:
        if ir.holds(op.pred, env.idx):
            self._run_scope(op.body, _Env(env, env.idx))

    # -- buffers ------------------------------------------------------------------

    def run_extract_slice(self, op: ir.ExtractSliceOp, env: _Env) -> None:
        src = env.lookup(op.source)
        region = _op_region(op, src, env.idx, "extract_slice", op.source)
        data = _read(src, op.source)[region]
        if op.space is None:  # a view: the region read in place
            env.buffers[op.result] = _Buffer(data, src.space, view=True)
        else:
            env.buffers[op.result] = _Buffer(self.pool.copy_of(data), op.space)

    def run_insert_slice(self, op: ir.InsertSliceOp, env: _Env) -> None:
        src = env.lookup(op.source)
        dst = env.lookup(op.dest)
        if dst.pending_tag is not None:
            raise ExecutionFault(
                f"insert_slice into %{op.dest} while dma tag=%{dst.pending_tag} is in flight")
        region = _op_region(op, dst, env.idx, "insert_slice", op.dest)
        dst.data[region] = _read(src, op.source)

    def run_alloc(self, op: ir.AllocOp, env: _Env) -> None:
        idx = env.idx
        shape = tuple(ir.eval_extent(s, idx) for s in op.sizes)
        if any(s < 1 for s in shape):
            raise ExecutionFault(f"alloc %{op.result}: non-positive extent {shape}")
        if op.fill is None:
            data = self.pool.zeros(shape)
        else:
            data = self.pool.take(shape)
            data.fill(op.fill)
        env.buffers[op.result] = _Buffer(data, op.space)

    def run_dealloc(self, op: ir.DeallocOp, env: _Env) -> None:
        buf = env.lookup(op.target)
        if buf.pending_tag is not None:
            raise ExecutionFault(
                f"dealloc %{op.target} while dma tag=%{buf.pending_tag} is in flight")
        env.unbind(op.target)
        if not buf.view:
            self.pool.give(buf.data)

    # -- DMA ----------------------------------------------------------------------

    def run_dma_start(self, op: ir.DmaStartOp, env: _Env) -> None:
        idx = env.idx
        tag = env.lookup(op.tag)
        src = env.lookup(op.source)
        dst = env.lookup(op.dest)
        src_off = op.src_offsets or (0,) * src.data.ndim
        dst_off = op.dst_offsets or (0,) * dst.data.ndim
        src_region = _region(src, src_off, op.sizes, idx, "dma_start src", op.source)
        dst_region = _region(dst, dst_off, op.sizes, idx, "dma_start dst", op.dest)
        if id(tag) in self.state.dma:
            raise ExecutionFault(f"dma_start on tag %{op.tag} already in flight (start/start)")
        if dst.pending_tag is not None:
            raise ExecutionFault(
                f"dma_start into %{op.dest} while tag=%{dst.pending_tag} is in flight")
        snapshot = self.pool.copy_of(_read(src, op.source)[src_region])
        self.state.dma[id(tag)] = _Pending(dst, dst_region, snapshot, op.tag)
        dst.pending_tag = op.tag

    def run_dma_wait(self, op: ir.DmaWaitOp, env: _Env) -> None:
        tag = env.lookup(op.tag)
        pending = self.state.dma.pop(id(tag), None)
        if pending is None:
            raise ExecutionFault(f"dma_wait on idle tag %{op.tag} (no dma_start in flight)")
        pending.dest.data[pending.region] = pending.data
        pending.dest.pending_tag = None
        self.pool.give(pending.data)

    # -- async threads ----------------------------------------------------------

    def run_async_group(self, op: ir.AsyncGroupOp, env: _Env) -> None:
        self.state.groups.add(op.group)

    def run_async_execute(self, op: ir.AsyncExecuteOp, env: _Env) -> None:
        self._run_scope(op.body, _Env(env, env.idx))
        self.state.tokens.add(op.token)

    def run_add_to_group(self, op: ir.AddToGroupOp, env: _Env) -> None:
        if op.group not in self.state.groups:
            raise ExecutionFault(f"add_to_group: unknown group %{op.group}")
        if op.token not in self.state.tokens:
            raise ExecutionFault(f"add_to_group: token %{op.token} not issued")
        self.state.tokens.remove(op.token)

    def run_await_all(self, op: ir.AwaitAllOp, env: _Env) -> None:
        if op.group not in self.state.groups:
            raise ExecutionFault(f"await_all on unknown group %{op.group}")
        self.state.groups.remove(op.group)

    # -- compute ------------------------------------------------------------------

    def run_generic(self, op: ir.GenericOp, env: _Env) -> None:
        plan = getattr(op, "_plan", None)
        if plan is None:  # first execution: keep the plan on the op
            plan = _GenericPlan(op)
            object.__setattr__(op, "_plan", plan)
        idx = env.idx
        try:
            domain = plan.domain(idx)
        except KeyError:  # eval_extent names the unbound variable
            domain = tuple(ir.eval_extent(e, idx) for e in op.domain)
        if any(d < 1 for d in domain):
            raise ExecutionFault(f"generic @{op.name}: empty domain {domain}")
        views = []
        for name, m, identity in plan.inputs:
            arr = _read(env.lookup(name), name)
            views.append(arr if identity and arr.shape == domain else _gather(arr, m, domain, name))
        red_axes = plan.red_axes
        for name, results, payload, red, perm, reshape in plan.outputs:
            out = env.lookup(name)
            if out.pending_tag is not None:
                raise ExecutionFault(
                    f"generic @{op.name} writes %{name} while dma tag=%{out.pending_tag} in flight")
            vals = eval_payload(payload, views)
            if np.shape(vals) != domain:  # it reads no operand that spans the domain
                vals = np.broadcast_to(vals, domain)
            extents = [1 if r is None else domain[r] for r in results]
            region = tuple([slice(0, e) for e in extents])
            if red_axes:
                init = red.init
                if init is None:  # carried: each point folds on from its current value
                    init = out.data[region].reshape([domain[r] for r in results if r is not None])
                    if perm is not None:
                        init = init.transpose(np.argsort(perm))
                vals = ordered_fold(vals, red_axes, red.kind, init)
            # vals axes are the parallel dims in ascending order
            if perm is not None:
                vals = vals.transpose(perm)
            if reshape:
                vals = vals.reshape(extents)
            out.data[region] = vals


class _GenericPlan:
    """What executing one GenericOp needs beyond the index values in scope.

    `domain` evaluates the iteration domain against an index dict. Each
    input is (name, map, whether the map is the identity): an identity-mapped
    operand whose shape is the domain is read as it is, and any other goes
    through `_gather`. Each output is (name, map results, payload,
    reduction, placement permutation or None when the parallel dims are
    already in map order, whether its broadcast dims need a reshape).
    """

    __slots__ = ("domain", "inputs", "red_axes", "outputs")

    def __init__(self, op: ir.GenericOp):
        if all(isinstance(e, int) for e in op.domain):
            static = tuple(op.domain)
            self.domain = lambda idx: static
        else:
            fns = [ir._compile(e) for e in op.domain]
            self.domain = lambda idx: tuple([f(idx) for f in fns])
        identity = tuple(range(len(op.domain)))
        self.inputs = tuple((name, m, m.results == identity)
                            for name, m in zip(op.inputs, op.input_maps()))
        self.red_axes = op.reduction_dims()
        par_dims = [d for d in identity if d not in self.red_axes]
        outputs = []
        for name, m, payload, red in zip(op.outputs, op.output_maps(), op.payloads,
                                         op.reductions):
            perm = [par_dims.index(r) for r in m.results if r is not None]
            # numpy's assignment broadcasts leading unit dims, not later ones
            reshape = any(r is None for r in m.results[len(m.results) - len(perm):])
            outputs.append((name, m.results, payload, red,
                            None if perm == list(range(len(par_dims))) else tuple(perm),
                            reshape))
        self.outputs = tuple(outputs)


# Handlers are plain methods looked up per op; the numerics they call
# (eval_payload, ordered_fold) stay module globals resolved at call time.
_HANDLERS = {
    ir.GenericOp: _Interp.run_generic,
    ir.ForOp: _Interp.run_loop,
    ir.ForallOp: _Interp.run_loop,
    ir.IfOp: _Interp.run_if,
    ir.ExtractSliceOp: _Interp.run_extract_slice,
    ir.InsertSliceOp: _Interp.run_insert_slice,
    ir.AllocOp: _Interp.run_alloc,
    ir.DeallocOp: _Interp.run_dealloc,
    ir.DmaStartOp: _Interp.run_dma_start,
    ir.DmaWaitOp: _Interp.run_dma_wait,
    ir.AsyncGroupOp: _Interp.run_async_group,
    ir.AsyncExecuteOp: _Interp.run_async_execute,
    ir.AddToGroupOp: _Interp.run_add_to_group,
    ir.AwaitAllOp: _Interp.run_await_all,
}


def interpret(
    program: ir.KernelProgram,
    inputs: Mapping[str, Union[np.ndarray, TensorValue]],
) -> dict[str, np.ndarray]:
    """Execute `program` on named inputs; returns its named outputs.

    Deterministic: two interpretations of the same (program, inputs) are
    bit-identical.
    """
    state = ExecEnv()
    pool = _pool()
    root = _Env(None, {})
    for d in program.decls:
        if d.role == "input":
            if d.name not in inputs:
                raise ValueError(f"missing input tensor %{d.name}")
            raw = inputs[d.name]
            arr = raw.to_array() if isinstance(raw, TensorValue) else np.asarray(raw)
            if tuple(arr.shape) != d.shape:
                raise ValueError(f"input %{d.name}: shape {tuple(arr.shape)} != declared {d.shape}")
            data = pool.take(d.shape)
            data[...] = arr
        elif d.role == "output":
            data = np.zeros(d.shape, dtype=np.float32)
        else:
            data = pool.zeros(d.shape)
        root.buffers[d.name] = _Buffer(data, d.space)
    _Interp(program, state, pool).run_block(program.ops, root)
    if state.dma:
        tags = sorted(p.tag_name for p in state.dma.values())
        raise ExecutionFault(f"program ended with un-waited dma tags: {tags}")
    outputs = {d.name: root.buffers.pop(d.name).data for d in program.outputs()}
    pool.give_all(root.buffers)
    return outputs


# ---------------------------------------------------------------------------
# Output comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompareReport:
    ok: bool
    mode: str
    worst_name: Optional[str] = None
    worst_index: Optional[tuple[int, ...]] = None
    got: Optional[float] = None
    want: Optional[float] = None
    rel_err: Optional[float] = None

    def __str__(self) -> str:
        if self.ok:
            return f"compare({self.mode}): pass"
        head = f"compare({self.mode}): FAIL worst %{self.worst_name}{list(self.worst_index)}"
        if self.rel_err is None:  # bitexact: the bit patterns are the evidence
            return (f"{head} got {self.got!r} ({_bits(self.got)}) "
                    f"want {self.want!r} ({_bits(self.want)})")
        return f"{head} got {self.got!r} want {self.want!r} rel_err {self.rel_err:.3e}"


def _bits(v: float) -> str:
    return f"0x{int(np.float32(v).view(np.uint32)):08x}"


def compare_outputs(
    a: Mapping[str, np.ndarray],
    b: Mapping[str, np.ndarray],
    mode: Union[str, tuple[str, float]] = "bitexact",
) -> CompareReport:
    """Compare named tensors bit-exactly or within an elementwise reltol.

    Under reltol an element passes if its bits are equal, or both values are
    NaN, or both are finite with |x - y| / max(|x|, |y|) <= tol. Any other
    pair (NaN or inf against a finite value, +inf against -inf) fails with
    rel_err inf and is reported as the worst offender.
    """
    if sorted(a) != sorted(b):
        raise ValueError(f"compare_outputs: name sets differ: {sorted(a)} vs {sorted(b)}")
    if isinstance(mode, tuple):
        kind, tol = mode
    else:
        kind, tol = mode, 0.0
    if kind not in ("bitexact", "reltol"):
        raise ValueError(f"compare_outputs: unknown mode {mode!r}")
    worst = None
    for name in sorted(a):
        x = np.asarray(a[name], dtype=np.float32)
        y = np.asarray(b[name], dtype=np.float32)
        if x.shape != y.shape:
            raise ValueError(f"compare_outputs: %{name} shape {x.shape} vs {y.shape}")
        if kind == "bitexact":
            same = x.view(np.uint32) == y.view(np.uint32)
            if not same.all():
                pos = np.unravel_index(int(np.argmin(same)), x.shape)
                return CompareReport(False, "bitexact", name, tuple(int(i) for i in pos),
                                     float(x[pos]), float(y[pos]), None)
        else:
            denom = np.abs(x)
            np.maximum(denom, np.abs(y), out=denom)
            np.maximum(denom, np.float32(1e-30), out=denom)
            # |x - y| / denom in f64, each step in place
            rel = x.astype(np.float64)
            with np.errstate(invalid="ignore"):
                np.subtract(rel, y, out=rel)
                np.abs(rel, out=rel)
                np.divide(rel, denom, out=rel)
            # rel is NaN exactly where x or y is NaN or inf
            odd = np.isnan(rel)
            if odd.any():
                matched = (x.view(np.uint32) == y.view(np.uint32)) | (np.isnan(x) & np.isnan(y))
                rel = np.where(odd, np.where(matched, 0.0, np.inf), rel)
            # no NaN is left, so the first maximum is the peak
            at = int(np.argmax(rel)) if rel.size else 0
            peak = float(rel.flat[at]) if rel.size else 0.0
            if worst is None or peak > worst[0]:
                pos = np.unravel_index(at, x.shape)
                worst = (peak, name, tuple(int(i) for i in pos), float(x[pos]), float(y[pos]))
            if peak > tol:
                return CompareReport(False, f"reltol({tol:g})", worst[1], worst[2],
                                     worst[3], worst[4], worst[0])
    if kind == "reltol" and worst is not None:
        return CompareReport(True, f"reltol({tol:g})", worst[1], worst[2], worst[3], worst[4], worst[0])
    return CompareReport(True, kind)
