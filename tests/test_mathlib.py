"""mathlib: the documented accuracy of each approximation against float64 on a
dense grid, and the payload rewrite of the math expansion."""

import numpy as np
import pytest

from tcmc import mathlib
from tcmc.ir import Payload, print_payload
from tcmc.mathlib import _approximate, exp_approx, inv_sqrt_fast, tanh_approx

GRID = 400001


def max_rel_err(got, want):
    got = np.asarray(got, np.float64)
    assert np.array_equal(got == 0, want == 0)  # tanh(0) == 0 exactly
    nz = want != 0
    return float(np.max(np.abs(got[nz] - want[nz]) / np.abs(want[nz])))


def test_exp_approx_within_1e_6_on_minus_10_to_10():
    x = np.linspace(-10, 10, GRID, dtype=np.float32)
    assert max_rel_err(exp_approx(x), np.exp(x.astype(np.float64))) <= 1e-6


def test_tanh_approx_within_1e_5_on_minus_5_to_5():
    x = np.linspace(-5, 5, GRID, dtype=np.float32)
    assert max_rel_err(tanh_approx(x), np.tanh(x.astype(np.float64))) <= 1e-5


@pytest.mark.parametrize("iters, bound", [(1, 2e-3), (2, 5e-6)])
def test_inv_sqrt_fast_bound_on_2_pow_minus_20_to_20(iters, bound):
    x = np.geomspace(2.0 ** -20, 2.0 ** 20, GRID).astype(np.float32)
    want = 1.0 / np.sqrt(x.astype(np.float64))
    assert max_rel_err(inv_sqrt_fast(x, iters=iters), want) <= bound


def test_tanh_approx_saturates_beyond_10():
    x = np.array([10.5, 40.0, -10.5, -40.0], np.float32)
    assert tanh_approx(x).tolist() == [1.0, 1.0, -1.0, -1.0]


def _rewrite_recursive(p):
    """The math expansion as one recursive call per path, for small trees."""
    args = tuple(_rewrite_recursive(a) for a in p.args)
    if p.kind == "exp":
        return Payload("exp_approx", args, param=mathlib.EXP_DEGREE)
    if p.kind == "tanh":
        return Payload("tanh_approx", args, param=mathlib.EXP_DEGREE)
    if p.kind == "rsqrt":
        return Payload("rsqrt_fast", args, param=mathlib.RSQRT_ITERS)
    return Payload(p.kind, args, p.value, p.index, p.param) if args != p.args else p


def test_rewrite_matches_the_recursive_definition():
    a, b = Payload.arg(0), Payload.arg(1)
    p = Payload.binary("add", Payload.unary("exp", Payload.binary("mul", a, Payload.const(2.0))),
                       Payload.binary("div", Payload.unary("tanh", b),
                                      Payload.unary("rsqrt", Payload.unary("sqrt", a))))
    got = p.rewrite(_approximate)
    assert got == _rewrite_recursive(p)
    assert print_payload(got) == ("add(exp_approx[6](mul(a0, 2.0)), "
                                  f"div(tanh_approx[6](a1), rsqrt_fast[{mathlib.RSQRT_ITERS}](sqrt(a0))))")


def test_rewrite_keeps_untouched_nodes():
    a = Payload.arg(0)
    kept = Payload.binary("mul", a, Payload.const(0.5))
    p = Payload.binary("add", kept, Payload.unary("exp", a))
    got = p.rewrite(_approximate)
    assert got.args[0] is kept and got.args[1].args[0] is a
    assert kept.rewrite(_approximate) is kept


def test_rewrite_keeps_shared_nodes_shared():
    # t{k} = exp(t{k-1}) * exp(t{k-1}) with one node per exp, as fusion shares
    # them: 2^20 root-to-leaf paths, 40 operation nodes
    t = Payload.arg(0)
    for _ in range(20):
        e = Payload.unary("exp", t)
        t = Payload.binary("mul", e, e)
    got = t.rewrite(_approximate)
    for _ in range(20):
        left, right = got.args
        assert left is right and left.kind == "exp_approx"
        got = left.args[0]
    assert got.kind == "arg"


def test_rewrite_survives_a_chain_deeper_than_the_recursion_limit():
    t = Payload.arg(0)
    for _ in range(5000):
        t = Payload.binary("add", Payload.const(1.0), Payload.unary("exp", t))
    got = t.rewrite(_approximate)
    for _ in range(5000):
        assert got.kind == "add" and got.args[1].kind == "exp_approx"
        got = got.args[1].args[0]
    assert got.kind == "arg"
