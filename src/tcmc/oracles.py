"""Independent oracles and generators backing the differential test suite.

Everything here deliberately avoids the interpreter's code paths: formula
oracles evaluate the kernels' definitions in float64 (numpy reductions,
pairwise order) and round once at the end; the structural walkers re-derive
tile and thread slice geometry straight from the IR, and share with the
interpreter only the IR's own definition of loop trips and guards
(`ir.trips`, `ir.holds`). Pipeline-vs-oracle comparisons therefore use a
reltol (1e-6), while pipeline-vs-pipeline comparisons stay bit-exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import ir
from .ir import (
    AffineIndexMap, AllocOp, AsyncExecuteOp, DmaWaitOp, ExtractSliceOp, ForallOp, ForOp,
    GenericOp, IfOp, InsertSliceOp, KernelProgram, Op, Payload, Reduction, TensorDecl,
)

# ---------------------------------------------------------------------------
# Formula oracles (float64, rounded once)
# ---------------------------------------------------------------------------

GELU_CUBIC = 0.044715
GELU_SQRT_2_OVER_PI = 0.7978845608028654
RMSNORM_EPSILON = 1e-6
EXPSERIES_TERMS = 20


def _softmax(x: np.ndarray) -> np.ndarray:
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(GELU_SQRT_2_OVER_PI * (x + GELU_CUBIC * x ** 3)))


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def _rmsnorm(x: np.ndarray, g: np.ndarray, eps: float) -> np.ndarray:
    rms = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    return (x / rms) * g


def _expseries(x: np.ndarray) -> np.ndarray:
    t = 1.0 + x * (1.0 / EXPSERIES_TERMS)
    for k in range(EXPSERIES_TERMS - 1, 1, -1):
        t = 1.0 + x * t * (1.0 / k)
    return 1.0 + x * t


def oracle_eval(kernel_name: str, inputs: Mapping[str, np.ndarray],
                eps: float = RMSNORM_EPSILON) -> dict[str, np.ndarray]:
    """Double-precision evaluation of a shipped kernel's defining formula."""
    f64 = {k: np.asarray(v, dtype=np.float64) for k, v in inputs.items()}
    if kernel_name == "softmax":
        out = _softmax(f64["x"])
    elif kernel_name == "gelu":
        out = _gelu(f64["x"])
    elif kernel_name == "silu":
        out = _silu(f64["x"])
    elif kernel_name == "rmsnorm":
        out = _rmsnorm(f64["x"], f64["g"], eps)
    elif kernel_name == "expseries":
        out = _expseries(f64["x"])
    elif kernel_name == "vecadd2d":
        out = f64["a"] + f64["b"]
    else:
        raise KeyError(f"unknown kernel {kernel_name!r}")
    return {"y": out.astype(np.float32)}


# ---------------------------------------------------------------------------
# Random program generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomProgramSpec:
    seed: int
    min_len: int = 1
    max_len: int = 5
    shapes: tuple[tuple[int, ...], ...] = ((16,), (8, 16), (127, 513))
    reduction_prob: float = 0.3


_EW_UNARY = ("neg", "tanh", "exp")
_EW_BINARY = ("add", "sub", "mul", "max2")


def gen_random_program(spec: RandomProgramSpec) -> KernelProgram:
    """Seed-deterministic elementwise/reduction chain; always verifies."""
    rng = random.Random(spec.seed)
    shape = spec.shapes[rng.randrange(len(spec.shapes))]
    length = rng.randint(spec.min_len, spec.max_len)
    decls = [TensorDecl("in0", shape, "f32", "ddr", "input")]
    ops: list[Op] = []
    cur, cur_shape = "in0", shape
    n_in, n_tmp = 1, 0
    for k in range(length):
        last = k == length - 1
        rank = len(cur_shape)
        out_name = "out" if last else f"tmp{n_tmp}"
        reduce_now = rank >= 1 and rng.random() < spec.reduction_prob and cur_shape[-1] > 1
        if reduce_now:
            axis = rank - 1
            out_shape = cur_shape[:axis] or (1,)
            kind = rng.choice(("sum", "max"))
            out_map = AffineIndexMap(tuple(range(axis)) or (None,))
            ops.append(GenericOp(
                name=f"r{k}", domain=cur_shape, inputs=(cur,), outputs=(out_name,),
                maps=(AffineIndexMap.identity(rank), out_map),
                iterators=("parallel",) * axis + ("reduction",),
                payloads=(Payload.arg(0),),
                reductions=(Reduction.sum() if kind == "sum" else Reduction.max(),),
            ))
            cur_shape = out_shape
        else:
            choice = rng.random()
            if choice < 0.4:
                payload = Payload.unary(rng.choice(_EW_UNARY), Payload.arg(0))
                inputs = (cur,)
            elif choice < 0.7:
                payload = Payload.binary(rng.choice(_EW_BINARY), Payload.arg(0),
                                         Payload.const(rng.uniform(-1.0, 1.0)))
                inputs = (cur,)
            else:
                extra = f"in{n_in}"
                n_in += 1
                decls.append(TensorDecl(extra, cur_shape, "f32", "ddr", "input"))
                payload = Payload.binary(rng.choice(_EW_BINARY), Payload.arg(0), Payload.arg(1))
                inputs = (cur, extra)
            rank = len(cur_shape)
            ops.append(GenericOp(
                name=f"e{k}", domain=cur_shape, inputs=inputs, outputs=(out_name,),
                maps=tuple(AffineIndexMap.identity(rank) for _ in inputs)
                + (AffineIndexMap.identity(rank),),
                iterators=("parallel",) * rank,
                payloads=(payload,),
            ))
        decls.append(TensorDecl(out_name, cur_shape, "f32", "ddr",
                                "output" if last else "temp"))
        if not last:
            cur = out_name
            n_tmp += 1
    program = KernelProgram(f"random_{spec.seed}", tuple(decls), tuple(ops), "lowered")
    report = ir.verify(program)
    assert report.ok, f"generator produced invalid program:\n{report}"
    return program


def random_inputs_for(program: KernelProgram, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {d.name: rng.uniform(-1.0, 1.0, size=d.shape).astype(np.float32)
            for d in program.inputs()}


# ---------------------------------------------------------------------------
# Structural walkers (geometry oracles)
# ---------------------------------------------------------------------------


def tile_partition(extent: int, tile: int) -> list[tuple[int, int]]:
    """Reference (offset, size) partition: min(t, n - o) clamping."""
    return [(o, min(tile, extent - o)) for o in range(0, extent, tile)]


def _walk_schedule(program: KernelProgram) -> tuple[dict, dict]:
    """Run `program`'s control flow concretely and record its slice geometry.

    Loops and guards go through `ir.trips` and `ir.holds`, so the walk
    enters exactly the bodies the schedule runs. Returns the results of
    `enumerate_tiles` and `thread_write_intervals`.
    """
    tiles: dict[str, list] = {}
    threads: dict[str, list[list[list]]] = {}
    # each buffer as (root buffer, offsets in the root, sizes): a view's
    # offsets compose along its chain of views; any other buffer is its own root
    region = {d.name: (d.name, (0,) * len(d.shape), d.shape) for d in program.decls}

    def at(exts, env) -> tuple[int, ...]:
        return tuple(ir.eval_extent(e, env) for e in exts)

    def within(name, offsets, sizes) -> tuple:
        """The region of buffer `name` at `offsets` of `sizes`, in its root."""
        root, base, _ = region[name]
        return root, tuple(b + o for b, o in zip(base, offsets)), sizes

    def write(sink, local, where) -> None:
        if sink is not None and where[0] not in local:
            sink.append(where)

    def walk(ops, env, sink, local) -> None:
        """`sink` collects the writes of the enclosing forall thread, if any,
        except to the buffers in `local`, which that thread allocated."""
        for op in ops:
            if isinstance(op, AllocOp):
                local.add(op.result)
                sizes = at(op.sizes, env)
                region[op.result] = (op.result, (0,) * len(sizes), sizes)
            elif isinstance(op, ExtractSliceOp):
                sizes = at(op.sizes, env)
                if op.space is None:
                    region[op.result] = within(op.source, at(op.offsets, env), sizes)
                else:  # staged: a new buffer
                    region[op.result] = (op.result, (0,) * len(sizes), sizes)
            elif isinstance(op, GenericOp):
                for name in op.outputs:
                    write(sink, local, region[name])
            elif isinstance(op, InsertSliceOp):
                write(sink, local, within(op.dest, at(op.offsets, env), at(op.sizes, env)))
            elif isinstance(op, ForOp):
                first = None
                if "tiled_generic" in op.annotations:
                    rec = tiles.setdefault(op.var, [])
                    first = next((o for o in op.body
                                  if isinstance(o, ExtractSliceOp) and o.space == "tcm"), None)
                for i in ir.trips(op, env):
                    inner = {**env, op.var: i}
                    if first is not None:
                        rec.append((at(first.offsets, inner), at(first.sizes, inner)))
                    walk(op.body, inner, sink, local)
            elif isinstance(op, ForallOp):
                bodies: list[list] = []
                for t in ir.trips(op, env):
                    bodies.append([])
                    walk(op.body, {**env, op.var: t}, bodies[-1], set())
                threads.setdefault(op.var, []).append(bodies)
                if sink is not None:
                    sink.extend(w for body in bodies for w in body)
            elif isinstance(op, IfOp):
                if ir.holds(op.pred, env):
                    walk(op.body, env, sink, local)
            elif isinstance(op, AsyncExecuteOp):
                walk(op.body, env, sink, local)

    walk(program.ops, {}, None, set())
    return tiles, threads


def enumerate_tiles(program: KernelProgram) -> dict[str, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Per tiled loop (keyed by loop var), the evaluated (offsets, sizes) of
    its first staged tile (`extract_slice ... @tcm` at the top of its body)
    at every iteration. A loop that stages no tile, a double-buffered one
    among them, records none."""
    return _walk_schedule(program)[0]


def thread_write_intervals(program: KernelProgram) -> dict[str, list[list[list]]]:
    """Write regions of forall thread bodies, one entry per forall execution.

    Keyed by the forall var; each execution is a list of per-thread bodies,
    each body a list of (dest, offsets, sizes), one per `insert_slice` and
    per output of a generic. A write through a view is a region of the
    view's root buffer, at the offsets the chain of views adds up to. The
    intervals let tests check the race-freedom contract: distinct thread
    bodies must write pairwise disjoint regions of every shared buffer. A
    write into a buffer the same thread body allocated is left out: each
    body has its own, even where the bodies name it alike (a hoisted tile
    loop's `%o` tiles).
    """
    return _walk_schedule(program)[1]


def regions_disjoint(bodies: list[list[tuple[str, tuple[int, ...], tuple[int, ...]]]]) -> bool:
    """True when no two thread bodies write overlapping regions of a buffer."""
    for i in range(len(bodies)):
        for j in range(i + 1, len(bodies)):
            for dest_a, off_a, sz_a in bodies[i]:
                for dest_b, off_b, sz_b in bodies[j]:
                    if dest_a != dest_b:
                        continue
                    overlap = all(
                        off_a[d] < off_b[d] + sz_b[d] and off_b[d] < off_a[d] + sz_a[d]
                        for d in range(len(off_a)))
                    if overlap:
                        return False
    return True


def remove_first_wait(program: KernelProgram) -> KernelProgram:
    """Mutation fixture: drop the first dma_wait so the hazard checker fires."""
    removed = False

    def drop_first_wait(op):
        nonlocal removed
        if isinstance(op, DmaWaitOp) and not removed:
            removed = True
            return ()
        return None

    ops = ir.map_ops(program.ops, drop_first_wait)
    if not removed:
        raise ValueError("program has no dma_wait to remove")
    return program.with_ops(ops, stage=program.stage + "-mutated")
