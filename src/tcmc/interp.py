"""Reference interpreter: executes a program at any pipeline stage.

This is the oracle behind every preservation test, so the execution rules
are deliberately rigid:

- generic ops evaluate their payload over the whole iteration domain in f32;
  reductions fold strictly left to right in ascending index order
  (numerics.ordered_fold, one vectorized sequential accumulate), which is the
  same fp order at every pipeline stage because passes never split reduction
  dimensions. Only the sign and payload bits of a NaN folded from two NaNs
  are left unspecified (see ordered_fold), and those too match across stages;
- DMA data becomes visible in the destination only at dma_wait; reading a
  buffer with an in-flight fill, waiting on an idle tag, or starting a tag
  twice is a hard ExecutionFault;
- async bodies run sequentially in issue order by default. The threaded mode
  runs forall/async bodies on real threads; it is only legal because pass
  output guarantees disjoint writes, and differential tests check it against
  sequential mode.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from . import ir
from .numerics import F32, eval_payload, ordered_fold


class ExecutionFault(Exception):
    """Invariant breach during execution (hazard, bad tag, out-of-bounds)."""


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
    __slots__ = ("data", "space", "pending_tag")

    def __init__(self, data: np.ndarray, space: str):
        self.data = data
        self.space = space
        self.pending_tag: Optional[str] = None


class _Env:
    """Lexical binding scope; physical arrays are shared across scopes."""

    __slots__ = ("parent", "buffers", "ivals")

    def __init__(self, parent: Optional["_Env"] = None):
        self.parent = parent
        self.buffers: dict[str, _Buffer] = {}
        self.ivals: dict[str, int] = {}

    def lookup(self, name: str) -> _Buffer:
        env = self
        while env is not None:
            b = env.buffers.get(name)
            if b is not None:
                return b
            env = env.parent
        raise ExecutionFault(f"undefined buffer %{name}")

    def ival(self, name: str) -> int:
        env = self
        while env is not None:
            if name in env.ivals:
                return env.ivals[name]
            env = env.parent
        raise ExecutionFault(f"unbound index variable %{name}")

    def unbind(self, name: str) -> None:
        env = self
        while env is not None:
            if name in env.buffers:
                del env.buffers[name]
                return
            env = env.parent
        raise ExecutionFault(f"dealloc of undefined buffer %{name}")

    def index_env(self) -> dict[str, int]:
        out: dict[str, int] = {}
        chain = []
        env = self
        while env is not None:
            chain.append(env)
            env = env.parent
        for env in reversed(chain):
            out.update(env.ivals)
        return out


@dataclass
class _Pending:
    dest: _Buffer
    region: tuple[slice, ...]
    data: np.ndarray
    tag_name: str


class ExecEnv:
    """Machine-wide execution state: DMA ledger, toggles, tokens, groups."""

    def __init__(self, threaded: bool = False, trace: Optional[list] = None):
        self.threaded = threaded
        self.trace = trace
        self.dma: dict[int, _Pending] = {}
        self.toggles: dict[str, bool] = {}
        self.tokens: dict[str, object] = {}
        self.groups: dict[str, list] = {}
        self.pool: Optional[ThreadPoolExecutor] = None
        self.dma_starts = 0
        self.dma_waits = 0

    def emit(self, event: tuple) -> None:
        if self.trace is not None:
            self.trace.append(event)


def _read(buf: _Buffer, what: str) -> np.ndarray:
    if buf.pending_tag is not None:
        raise ExecutionFault(
            f"read of {what} before dma_wait(tag=%{buf.pending_tag}) completed its fill")
    return buf.data


def _region(buf: _Buffer, offsets, sizes, env_idx, what: str) -> tuple[slice, ...]:
    shape = buf.data.shape
    if len(offsets) != len(shape) or len(sizes) != len(shape):
        raise ExecutionFault(f"{what}: slice rank mismatch")
    sl = []
    for d, (o, s) in enumerate(zip(offsets, sizes)):
        ov = ir.eval_extent(o, env_idx)
        sv = ir.eval_extent(s, env_idx)
        if ov < 0 or sv < 1 or ov + sv > shape[d]:
            raise ExecutionFault(
                f"{what}: out-of-bounds slice dim {d}: offset {ov} size {sv} extent {shape[d]}")
        sl.append(slice(ov, ov + sv))
    return tuple(sl)


def _gather(arr: np.ndarray, m: ir.AffineIndexMap, domain: tuple[int, ...], name: str) -> np.ndarray:
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
    sub = sub.transpose(order)
    for d in range(len(domain)):
        if d not in present:
            sub = np.expand_dims(sub, d)
    return np.broadcast_to(sub, domain)


class _Interp:
    def __init__(self, program: ir.KernelProgram, state: ExecEnv):
        self.program = program
        self.state = state

    # -- op dispatch ---------------------------------------------------------

    def run_block(self, ops, env: _Env) -> None:
        for op in ops:
            self.run_op(op, env)

    def run_op(self, op: ir.Op, env: _Env) -> None:
        if isinstance(op, ir.GenericOp):
            self.run_generic(op, env)
        elif isinstance(op, ir.ForOp):
            idx = env.index_env()
            lb = ir.eval_extent(op.lb, idx)
            ub = ir.eval_extent(op.ub, idx)
            step = ir.eval_extent(op.step, idx)
            if step < 1:
                raise ExecutionFault(f"for %{op.var}: step {step} < 1")
            for i in range(lb, ub, step):
                child = _Env(env)
                child.ivals[op.var] = i
                self.run_block(op.body, child)
        elif isinstance(op, ir.ForallOp):
            if self.state.threaded:
                self._run_parallel([(t, op.body) for t in range(op.threads)], op.var, env)
            else:
                for t in range(op.threads):
                    child = _Env(env)
                    child.ivals[op.var] = t
                    self.run_block(op.body, child)
        elif isinstance(op, ir.IfOp):
            if self.eval_pred(op.pred, env):
                self.state.emit(("if", tuple(sorted(op.annotations))))
                self.run_block(op.body, _Env(env))
        elif isinstance(op, ir.ExtractSliceOp):
            src = env.lookup(op.source)
            region = _region(src, op.offsets, op.sizes, env.index_env(), f"extract_slice %{op.source}")
            data = _read(src, f"%{op.source}")[region].copy()
            env.buffers[op.result] = _Buffer(data, src.space)
        elif isinstance(op, ir.InsertSliceOp):
            src = env.lookup(op.source)
            dst = env.lookup(op.dest)
            if dst.pending_tag is not None:
                raise ExecutionFault(
                    f"insert_slice into %{op.dest} while dma tag=%{dst.pending_tag} is in flight")
            region = _region(dst, op.offsets, op.sizes, env.index_env(), f"insert_slice %{op.dest}")
            dst.data[region] = _read(src, f"%{op.source}")
        elif isinstance(op, ir.CopyOp):
            src = env.lookup(op.source)
            dst = env.lookup(op.dest)
            if dst.pending_tag is not None:
                raise ExecutionFault(
                    f"copy into %{op.dest} while dma tag=%{dst.pending_tag} is in flight")
            if src.data.shape != dst.data.shape:
                raise ExecutionFault(f"copy %{op.source}->%{op.dest}: shape mismatch")
            dst.data[...] = _read(src, f"%{op.source}")
        elif isinstance(op, ir.AllocOp):
            idx = env.index_env()
            shape = tuple(ir.eval_extent(s, idx) for s in op.sizes)
            if any(s < 1 for s in shape):
                raise ExecutionFault(f"alloc %{op.result}: non-positive extent {shape}")
            env.buffers[op.result] = _Buffer(np.zeros(shape, dtype=np.float32), op.space)
        elif isinstance(op, ir.DeallocOp):
            buf = env.lookup(op.target)
            if buf.pending_tag is not None:
                raise ExecutionFault(
                    f"dealloc %{op.target} while dma tag=%{buf.pending_tag} is in flight")
            env.unbind(op.target)
        elif isinstance(op, ir.DmaStartOp):
            self.run_dma_start(op, env)
        elif isinstance(op, ir.DmaWaitOp):
            tag = env.lookup(op.tag)
            pending = self.state.dma.pop(id(tag), None)
            if pending is None:
                raise ExecutionFault(f"dma_wait on idle tag %{op.tag} (no dma_start in flight)")
            pending.dest.data[pending.region] = pending.data
            pending.dest.pending_tag = None
            self.state.dma_waits += 1
        elif isinstance(op, ir.AsyncGroupOp):
            self.state.groups[op.group] = []
        elif isinstance(op, ir.AsyncExecuteOp):
            child = _Env(env)
            if self.state.threaded:
                self.state.tokens[op.token] = ("deferred", op.body, child)
            else:
                self.run_block(op.body, child)
                self.state.tokens[op.token] = ("done", None, None)
        elif isinstance(op, ir.AddToGroupOp):
            if op.group not in self.state.groups:
                raise ExecutionFault(f"add_to_group: unknown group %{op.group}")
            tok = self.state.tokens.pop(op.token, None)
            if tok is None:
                raise ExecutionFault(f"add_to_group: token %{op.token} not issued")
            self.state.groups[op.group].append(tok)
        elif isinstance(op, ir.AwaitAllOp):
            members = self.state.groups.pop(op.group, None)
            if members is None:
                raise ExecutionFault(f"await_all on unknown group %{op.group}")
            deferred = [(body, env_) for kind, body, env_ in members if kind == "deferred"]
            if deferred:
                self._join(deferred)
        elif isinstance(op, ir.StoreToggleOp):
            if op.value is None:
                if op.cell not in self.state.toggles:
                    raise ExecutionFault(f"store_toggle flip of unset cell %{op.cell}")
                self.state.toggles[op.cell] = not self.state.toggles[op.cell]
            else:
                self.state.toggles[op.cell] = op.value
            self.state.emit(("toggle", op.cell, self.state.toggles[op.cell]))
        else:  # pragma: no cover
            raise TypeError(f"unknown op {type(op)}")

    # -- pieces ---------------------------------------------------------------

    def eval_pred(self, pred: ir.Pred, env: _Env) -> bool:
        if isinstance(pred, ir.CmpPred):
            idx = env.index_env()
            return ir._CMP_FNS[pred.op](ir.eval_extent(pred.lhs, idx), ir.eval_extent(pred.rhs, idx))
        if pred.cell not in self.state.toggles:
            raise ExecutionFault(f"toggle %{pred.cell} read before any store")
        return self.state.toggles[pred.cell] == pred.value

    def run_dma_start(self, op: ir.DmaStartOp, env: _Env) -> None:
        idx = env.index_env()
        tag = env.lookup(op.tag)
        src = env.lookup(op.source)
        dst = env.lookup(op.dest)
        src_off = op.src_offsets or (0,) * src.data.ndim
        dst_off = op.dst_offsets or (0,) * dst.data.ndim
        src_region = _region(src, src_off, op.sizes, idx, f"dma_start src %{op.source}")
        dst_region = _region(dst, dst_off, op.sizes, idx, f"dma_start dst %{op.dest}")
        if id(tag) in self.state.dma:
            raise ExecutionFault(f"dma_start on tag %{op.tag} already in flight (start/start)")
        if dst.pending_tag is not None:
            raise ExecutionFault(
                f"dma_start into %{op.dest} while tag=%{dst.pending_tag} is in flight")
        snapshot = _read(src, f"%{op.source}")[src_region].copy()
        self.state.dma[id(tag)] = _Pending(dst, dst_region, snapshot, op.tag)
        dst.pending_tag = op.tag
        self.state.dma_starts += 1

    def run_generic(self, op: ir.GenericOp, env: _Env) -> None:
        idx = env.index_env()
        domain = tuple(ir.eval_extent(e, idx) for e in op.domain)
        if any(d < 1 for d in domain):
            raise ExecutionFault(f"generic @{op.name}: empty domain {domain}")
        views = []
        for name, m in zip(op.inputs, op.input_maps()):
            buf = env.lookup(name)
            views.append(_gather(_read(buf, f"%{name}"), m, domain, name))
        red_axes = op.reduction_dims()
        par_dims = [d for d in range(len(domain)) if d not in red_axes]
        for name, m, payload, red in zip(op.outputs, op.output_maps(), op.payloads, op.reductions):
            out = env.lookup(name)
            if out.pending_tag is not None:
                raise ExecutionFault(
                    f"generic @{op.name} writes %{name} while dma tag=%{out.pending_tag} in flight")
            vals = eval_payload(payload, views)
            if np.ndim(vals) == 0:
                vals = np.broadcast_to(np.float32(vals), domain)
            if red_axes:
                vals = ordered_fold(vals, red_axes, red.kind, red.init)
            # vals axes now correspond to parallel dims in ascending order
            idx_out = []
            perm = []
            for j, r in enumerate(m.results):
                if r is None:
                    idx_out.append(slice(0, 1))
                else:
                    idx_out.append(slice(0, domain[r]))
                    perm.append(par_dims.index(r))
            placed = vals.transpose(perm)
            for j, r in enumerate(m.results):
                if r is None:
                    placed = np.expand_dims(placed, j)
            out.data[tuple(idx_out)] = placed

    # -- threading -------------------------------------------------------------

    def _pool(self) -> ThreadPoolExecutor:
        if self.state.pool is None:
            self.state.pool = ThreadPoolExecutor(max_workers=8)
        return self.state.pool

    def _run_parallel(self, bodies, var: str, env: _Env) -> None:
        def run_one(t_body):
            t, body = t_body
            child = _Env(env)
            child.ivals[var] = t
            self.run_block(body, child)

        list(self._pool().map(run_one, bodies))

    def _join(self, deferred) -> None:
        def run_one(item):
            body, env_ = item
            self.run_block(body, env_)

        list(self._pool().map(run_one, deferred))


def interpret(
    program: ir.KernelProgram,
    inputs: Mapping[str, Union[np.ndarray, TensorValue]],
    *,
    threaded: bool = False,
    trace: Optional[list] = None,
) -> dict[str, np.ndarray]:
    """Execute `program` on named inputs; returns its named outputs.

    Deterministic: two interpretations of the same (program, inputs) are
    bit-identical, in either execution mode.
    """
    state = ExecEnv(threaded=threaded, trace=trace)
    root = _Env()
    for d in program.decls:
        if d.role == "input":
            if d.name not in inputs:
                raise ValueError(f"missing input tensor %{d.name}")
            raw = inputs[d.name]
            arr = raw.to_array() if isinstance(raw, TensorValue) else np.asarray(raw)
            if tuple(arr.shape) != d.shape:
                raise ValueError(f"input %{d.name}: shape {tuple(arr.shape)} != declared {d.shape}")
            data = np.ascontiguousarray(arr, dtype=np.float32).copy()
        else:
            data = np.zeros(d.shape, dtype=np.float32)
        root.buffers[d.name] = _Buffer(data, d.space)
    try:
        _Interp(program, state).run_block(program.ops, root)
        if state.dma:
            tags = sorted(p.tag_name for p in state.dma.values())
            raise ExecutionFault(f"program ended with un-waited dma tags: {tags}")
    finally:
        if state.pool is not None:
            state.pool.shutdown(wait=True)
    return {d.name: root.buffers[d.name].data for d in program.decls if d.role == "output"}


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
            denom = np.maximum(np.maximum(np.abs(x), np.abs(y)), np.float32(1e-30))
            with np.errstate(invalid="ignore"):
                rel = np.abs(x.astype(np.float64) - y.astype(np.float64)) / denom
            # rel is NaN exactly where x or y is NaN or inf
            odd = np.isnan(rel)
            if odd.any():
                matched = (x.view(np.uint32) == y.view(np.uint32)) | (np.isnan(x) & np.isnan(y))
                rel = np.where(odd, np.where(matched, 0.0, np.inf), rel)
            peak = float(rel.max()) if rel.size else 0.0
            if worst is None or peak > worst[0]:
                pos = np.unravel_index(int(np.argmax(rel)), x.shape)
                worst = (peak, name, tuple(int(i) for i in pos), float(x[pos]), float(y[pos]))
            if peak > tol:
                return CompareReport(False, f"reltol({tol:g})", worst[1], worst[2],
                                     worst[3], worst[4], worst[0])
    if kind == "reltol" and worst is not None:
        return CompareReport(True, f"reltol({tol:g})", worst[1], worst[2], worst[3], worst[4], worst[0])
    return CompareReport(True, kind)
