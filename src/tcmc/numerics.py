"""Shared f32 primitives: payload evaluation and order-fixed reductions.

Every scalar operation here is an IEEE-754 single-precision elementwise op
(or a fixed composition of them), so evaluating over a whole array, a slice,
or one element at a time produces bit-identical values per element. That
property is what lets structural passes re-partition work while the
interpreter contract stays bit-exact; tests/test_interp.py pins it.

Reductions fold strictly left to right in ascending index order. They are
built on the ufunc's `accumulate`, which combines element k with the running
result of elements 0..k-1, one f32 op at a time. `ufunc.reduce` (and so
`np.sum`) is never used on the interpreter path: it sums pairwise, which is
faster but order-different (the float64 test oracles may use it).
tests/test_numerics.py checks the fold against a plain Python loop.
"""

from __future__ import annotations

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
        return mathlib.exp_approx(x, degree=param or 6)
    if kind == "tanh_approx":
        return mathlib.tanh_approx(x, degree=param or 6)
    if kind == "rsqrt_fast":
        return mathlib.inv_sqrt_fast(x, iters=param or 1)
    return _UNARY[kind](x)


def apply_binary(kind: str, a, b):
    return _BINARY[kind](a, b)


def eval_payload(p: Payload, args: Sequence[np.ndarray]):
    """Evaluate a payload tree over f32 arrays (vectorized, f32 throughout)."""
    if p.kind == "arg":
        return args[p.index]
    if p.kind == "const":
        return F32(p.value)
    if len(p.args) == 1:
        return apply_unary(p.kind, eval_payload(p.args[0], args), p.param)
    return apply_binary(p.kind, eval_payload(p.args[0], args), eval_payload(p.args[1], args))


_COMBINE = {"sum": np.add, "max": np.maximum}


def ordered_fold(values: np.ndarray, axes: Sequence[int], kind: str, init: float) -> np.ndarray:
    """Fold `values` over `axes` in ascending index order, starting from init.

    Per output point the reduced coordinates are visited lexicographically,
    and the result is ((init op x0) op x1) op ... in f32, which fixes the fp
    accumulation order. `init` is combined first, so a -0.0 first element
    summed from init 0.0 folds to +0.0.

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
    moved = np.transpose(values, keep + list(axes))
    par_shape = moved.shape[: len(keep)]
    flat = moved.reshape(par_shape + (-1,))
    buf = np.empty(par_shape + (flat.shape[-1] + 1,), dtype=np.float32)
    buf[..., 0] = F32(init)
    buf[..., 1:] = flat
    _COMBINE[kind].accumulate(buf, axis=-1, out=buf)
    return buf[..., -1].copy()
