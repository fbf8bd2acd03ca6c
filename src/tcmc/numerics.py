"""Shared f32 primitives: payload evaluation and order-fixed reductions.

Every scalar operation here is an IEEE-754 single-precision elementwise op
(or a fixed composition of them), so evaluating over a whole array, a slice,
or one element at a time produces bit-identical values per element. That
property is what lets structural passes re-partition work while the
interpreter contract stays bit-exact; tests/test_interp.py pins it.

Reductions fold strictly left to right in ascending index order
(`ordered_fold`). Along the fast axis `np.add.reduce` (and so `np.sum`)
sums pairwise, which is order-different, so a sum runs either as the
ufunc's `accumulate` along the reduced axis or as `np.add.reduce` down the
slow axis of a (reduced, lanes) array, where numpy adds one row at a time.
A max runs as `np.maximum.reduce` in any order, whose result has one bit
pattern except where it is ±0 or NaN; those calls take `accumulate`.
tests/test_numerics.py checks every path against a plain Python loop and
guards the row-by-row numpy behaviour. The float64 test oracles may sum
pairwise.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import mathlib
from .ir import Payload

F32 = np.float32


def _rsqrt_exact(x):
    # two correctly-rounded ops; the exact-mode definition of rsqrt
    return np.divide(F32(1.0), np.sqrt(x))


_UNARY = {
    "neg": np.negative,
    "exp": np.exp,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "rsqrt": _rsqrt_exact,
}

_BINARY = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "max2": np.maximum,
}


def apply_unary(kind: str, x, param=None):
    if kind == "exp_approx":
        return mathlib.exp_approx(x, degree=param or mathlib.EXP_DEGREE)
    if kind == "tanh_approx":
        return mathlib.tanh_approx(x, degree=param or mathlib.EXP_DEGREE)
    if kind == "rsqrt_fast":
        return mathlib.inv_sqrt_fast(x, iters=param or mathlib.RSQRT_ITERS)
    return _UNARY[kind](x)


def apply_binary(kind: str, a, b):
    return _BINARY[kind](a, b)


def eval_payload(p: Payload, args: Sequence[np.ndarray]):
    """Evaluate a payload over f32 arrays (vectorized, f32 throughout),
    each node of `p.nodes()` once: a node that several parents read is not
    recomputed, and each value is dropped by the last node that reads it."""
    plan = getattr(p, "_plan", None)
    if plan is None:  # first evaluation: keep the straight-line form on the payload
        plan = _straight_line(p)
        object.__setattr__(p, "_plan", plan)
    init, arg_slots, steps = plan
    vals = init.copy()
    for k, i in arg_slots:
        vals[k] = args[i]
    for k, kind, param, operands, drops in steps:
        if len(operands) == 1:
            v = apply_unary(kind, vals[operands[0]], param)
        else:
            v = apply_binary(kind, vals[operands[0]], vals[operands[1]])
        for s in drops:
            vals[s] = None
        vals[k] = v
    return vals[-1]


def _straight_line(p: Payload) -> tuple:
    """`p` as straight-line code, one value slot per node of `p.nodes()`:
    (the slots' initial values, each const's f32 in place; (slot, i) per
    `arg(i)`; one step (slot, kind, param, operand slots, slots it drops)
    per operation node)."""
    nodes = p.nodes()
    slot: dict[int, int] = {}
    init, arg_slots, steps = [], [], []
    for k, n in enumerate(nodes):
        slot[id(n)] = k
        if n.args:
            init.append(None)
            steps.append((k, n.kind, n.param, tuple([slot[id(a)] for a in n.args]), []))
        elif n.kind == "arg":
            init.append(None)
            arg_slots.append((k, n.index))
        else:
            init.append(F32(n.value))
    dropped: set[int] = set()
    for step in reversed(steps):  # the first reader met from the end is the last
        for s in step[3]:
            if s not in dropped and nodes[s].args:
                dropped.add(s)
                step[4].append(s)
    return init, arg_slots, steps


_COMBINE = {"sum": np.add, "max": np.maximum}

# Fewest output lanes a sum folds row by row (see ordered_fold). Below about
# 12 lanes at 513 reduced elements the per-row ufunc calls cost more than
# the serial accumulate they replace.
_SUM_LANES = 16


def ordered_fold(values: np.ndarray, axes: Sequence[int], kind: str, init) -> np.ndarray:
    """Fold `values` over `axes` in ascending index order, starting from init.

    `init` is one start value for every output point, or an array of the
    output's shape that gives each point its own (a carried fold, which
    continues a fold split along the reduced axes). Per output point the
    reduced coordinates are visited lexicographically, and the result is
    ((init op x0) op x1) op ... in f32, which fixes the fp accumulation
    order. `init` is combined first, so a -0.0 first element summed from
    init 0.0 folds to +0.0.

    Three paths give that result, picked from the shape and the values:

    - A sum over at least _SUM_LANES output points (lanes) lays the reduced
      elements out as the rows of a C-contiguous (K, lanes) array and calls
      `np.add.reduce(rows, axis=0, initial=init)`. Along an axis that is not
      the fast one, numpy adds one row at a time into an accumulator that
      starts at `initial`; it sums pairwise only along the fast axis. So
      every lane still adds in index order, from `init` even when that is
      -0.0. A per-lane init is the first row instead, added to `initial`
      -0.0, which leaves every value as it is. tests/test_numerics.py
      guards this numpy behaviour.
    - A max takes `np.maximum.reduce` per lane, in whatever order numpy
      picks, and then the max with each lane's init. A maximum that is
      neither zero nor NaN has one bit pattern whatever the order, so the
      call falls back to the path below when any lane's result is ±0 or NaN.
    - Every other fold, a 1-D sum among them, runs the ufunc's `accumulate`
      along a buffer seeded with init, which combines element k with the
      running result of elements 0..k-1, one f32 op at a time.

    NaN contract: every non-NaN result is bit-identical to that sequential
    loop, and a result is NaN exactly where the loop's is. Where two NaNs
    meet (say `inf + -inf` followed by an input NaN), which one propagates is
    left unspecified by IEEE 754 and numpy's SIMD operand order decides it,
    so the sign and payload bits of such a NaN may differ from the loop's.
    Every pipeline stage uses this same fold, so stage-vs-stage bit-exact
    verification is unaffected.
    """
    axes = tuple(axes)
    keep = [d for d in range(values.ndim) if d not in axes]
    par_shape = tuple(values.shape[d] for d in keep)
    lanes = math.prod(par_shape)
    per_lane = np.ndim(init) > 0
    if kind == "sum" and lanes >= _SUM_LANES:
        rows = np.transpose(values, list(axes) + keep).reshape(-1, lanes)
        if per_lane:
            rows, init = np.concatenate([np.reshape(init, (1, lanes)), rows]), -0.0
        total = np.add.reduce(np.ascontiguousarray(rows), axis=0, initial=F32(init))
        return total.reshape(par_shape)
    flat = np.transpose(values, keep + list(axes)).reshape(par_shape + (-1,))
    if kind == "max":
        top = np.maximum.reduce(flat, axis=-1, initial=F32(-np.inf if per_lane else init),
                                keepdims=True)
        if per_lane:
            top = np.maximum(np.reshape(init, top.shape), top)
        if np.minimum.reduce(np.abs(top), axis=None) > 0:  # no lane is ±0 or NaN
            return top.reshape(par_shape)
    buf = np.empty(par_shape + (flat.shape[-1] + 1,), dtype=np.float32)
    buf[..., 0] = init
    buf[..., 1:] = flat
    _COMBINE[kind].accumulate(buf, axis=-1, out=buf)
    return buf[..., -1].copy()
