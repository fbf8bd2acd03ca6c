"""Fast f32 approximations of transcendentals and the payload rewrite pass.

exp uses range reduction e^x = e^eps * 2^n with n = rint(x / ln 2), a
Cody-Waite two-constant reduction for eps, a Horner-evaluated Taylor
polynomial for e^eps, and ldexp for the 2^n scaling. rsqrt is the bit-level
initial guess refined by Newton-Raphson steps. tanh is built on the exp
approximation via tanh(x) = 1 - 2/(e^{2x} + 1), with an expm1-style path
near zero (where the subtraction e^{2x} - 1 would lose relative accuracy)
and hard saturation to +/-1 beyond |x| > 10.

All ops are IEEE f32 elementwise, so results are deterministic and identical
for scalar and array calls.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from .ir import GenericOp, KernelProgram, Payload, map_ops

_F32 = np.float32

# Cody-Waite split of ln 2: LN2_HI is exactly representable with trailing
# zero bits, so n * LN2_HI is exact for |n| <= 256.
_LN2_HI = _F32(0.693359375)
_LN2_LO = _F32(-2.12194440e-4)
_INV_LN2 = _F32(1.4426950408889634)

# Beyond these, eps would leave the reduced range; f32 exp is inf/0 anyway.
_EXP_OVER = _F32(89.0)
_EXP_UNDER = _F32(-105.0)

# The Taylor degree of exp_approx and tanh_approx and the Newton steps of
# inv_sqrt_fast that the math expansion writes into each payload's `param`.
EXP_DEGREE = 6
RSQRT_ITERS = 2

_EXP_COEFS = {d: tuple(_F32(1.0 / math.factorial(k)) for k in range(d + 1)) for d in range(2, 13)}


def _as_f32_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float32)
    return arr, np.ndim(x) == 0


def _exp_core(x: np.ndarray, degree: int) -> np.ndarray:
    coefs = _EXP_COEFS[degree]
    n = np.rint(x * _INV_LN2)
    n = np.clip(n, -151.0, 129.0)
    eps = (x - n * _LN2_HI) - n * _LN2_LO
    poly = np.full_like(eps, coefs[degree])
    for k in range(degree - 1, -1, -1):
        poly = poly * eps + coefs[k]
    with np.errstate(over="ignore"):
        out = np.ldexp(poly, n.astype(np.int32))
    return np.where(x > _EXP_OVER, _F32(np.inf), np.where(x < _EXP_UNDER, _F32(0.0), out))


def exp_approx(x, degree: int = EXP_DEGREE):
    """Approximate e^x; relative error <= 1e-6 on [-10, 10] at degree 6."""
    if degree < 2:
        raise ValueError("exp_approx: degree must be >= 2")
    arr, scalar = _as_f32_array(x)
    out = _exp_core(arr, degree)
    return _F32(out[()]) if scalar else out


def _expm1_core(x: np.ndarray, degree: int) -> np.ndarray:
    # e^x - 1 for |x| <= ln2/2, computed without the cancelling +1.
    coefs = _EXP_COEFS[degree]
    inner = np.full_like(x, coefs[degree])
    for k in range(degree - 1, 0, -1):
        inner = inner * x + coefs[k]
    return x * inner


def inv_sqrt_fast(x, iters: int = RSQRT_ITERS):
    """Bit-trick 1/sqrt(x) with `iters` Newton refinements.

    Relative error <= 2e-3 at one iteration, <= 5e-6 at two, over
    [2^-20, 2^20]. Raises on x <= 0.
    """
    if iters < 1:
        raise ValueError("inv_sqrt_fast: iters must be >= 1")
    arr, scalar = _as_f32_array(x)
    if np.any(arr <= 0.0):
        raise ValueError("inv_sqrt_fast: domain error, x must be > 0")
    i = arr.view(np.int32)
    y = (np.int32(0x5F3759DF) - (i >> 1)).view(np.float32)
    half_x = _F32(0.5) * arr
    for _ in range(iters):
        y = y * (_F32(1.5) - half_x * y * y)
    return _F32(y[()]) if scalar else y


_TANH_SMALL = _F32(0.17)  # inside the n == 0 band of the exp reduction
_TANH_SAT = _F32(10.0)


def tanh_approx(x, degree: int = EXP_DEGREE):
    """Approximate tanh; relative error <= 1e-5 on [-5, 5], saturates beyond |x| > 10."""
    arr, scalar = _as_f32_array(x)
    t2 = _F32(2.0) * arr
    with np.errstate(invalid="ignore"):
        big = _exp_core(np.where(np.abs(arr) > _TANH_SAT, _F32(0.0), t2), degree)
        via_exp = _F32(1.0) - _F32(2.0) / (big + _F32(1.0))
    u = _expm1_core(t2, degree)
    near = u / (u + _F32(2.0))
    out = np.where(np.abs(arr) <= _TANH_SMALL, near, via_exp)
    out = np.where(arr > _TANH_SAT, _F32(1.0), out)
    out = np.where(arr < -_TANH_SAT, _F32(-1.0), out)
    return _F32(out[()]) if scalar else out


# ---------------------------------------------------------------------------
# Payload expansion pass
# ---------------------------------------------------------------------------


# exact kind -> (approximated kind, the param the expansion writes)
_APPROX_OF = {
    "exp": ("exp_approx", EXP_DEGREE),
    "tanh": ("tanh_approx", EXP_DEGREE),
    "rsqrt": ("rsqrt_fast", RSQRT_ITERS),
}


def _approximate(node: Payload, args: list[Payload]) -> Optional[Payload]:
    """For `Payload.rewrite`: an exact transcendental node as its
    approximation over `args`, None (kept) for any other node."""
    approx = _APPROX_OF.get(node.kind)
    return None if approx is None else Payload(approx[0], tuple(args), param=approx[1])


def expand_math_ops(program: KernelProgram) -> KernelProgram:
    """Rewrite exp/tanh/rsqrt payload nodes to their approximated evaluators."""

    def rewrite(op):
        if isinstance(op, GenericOp):
            return (replace(op, payloads=tuple(p.rewrite(_approximate) for p in op.payloads)),)
        return None

    return replace(program, ops=map_ops(program.ops, rewrite), stage="math-approx")
