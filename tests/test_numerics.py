"""numerics.ordered_fold against the sequential Python loop it replaces, the
numpy behaviour its lane path relies on, and eval_payload on payloads that
share nodes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmc import numerics
from tcmc.ir import Payload
from tcmc.numerics import F32, _COMBINE, eval_payload, ordered_fold

SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e38, -1e38, 1e-45)


def _ordered_fold_loop(values, axes, kind, init):
    """Reference: one f32 combine per reduced element, in ascending order."""
    axes = tuple(axes)
    keep = [d for d in range(values.ndim) if d not in axes]
    moved = np.transpose(values, keep + list(axes))
    par_shape = moved.shape[: len(keep)]
    flat = moved.reshape(par_shape + (-1,))
    fn = _COMBINE[kind]
    acc = np.full(par_shape, F32(init), dtype=np.float32)
    for k in range(flat.shape[-1]):
        acc = fn(acc, flat[..., k])
    return acc


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == np.float32 and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    # IEEE 754 leaves unspecified which NaN survives where two meet, so only
    # non-NaN results are compared bit for bit.
    np.testing.assert_array_equal(got.view(np.uint32)[~nan], want.view(np.uint32)[~nan])


def assert_matches_loop(values, axes, kind, init):
    with np.errstate(invalid="ignore", over="ignore"):  # inf + -inf, sums past f32 max
        got = ordered_fold(values, axes, kind, init)
        want = np.asarray(_ordered_fold_loop(values, axes, kind, init))
    assert_same_bits(got, want)
    return got


@st.composite
def fold_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    order = draw(st.permutations(range(len(shape))))
    axes = order[: draw(st.integers(1, len(shape)))]
    n = int(np.prod(shape))
    elem = st.sampled_from(SPECIALS) | st.floats(-1e3, 1e3, width=32)
    values = np.array(draw(st.lists(elem, min_size=n, max_size=n)), np.float32).reshape(shape)
    kind = draw(st.sampled_from(("sum", "max")))
    init = draw(st.sampled_from((0.0, -0.0, -np.inf, 1.0)))
    return values, axes, kind, init


@settings(max_examples=200, deadline=None)
@given(fold_cases())
def test_fold_matches_sequential_loop(case):
    values, axes, kind, init = case
    got = assert_matches_loop(values, axes, kind, init)
    keep = [d for d in range(values.ndim) if d not in axes]
    assert got.shape == tuple(values.shape[d] for d in keep)


@st.composite
def lane_cases(draw):
    """Folds of a (K, lanes) or (lanes, K) array, around the lane-path cutoff."""
    lanes = draw(st.sampled_from((15, 16, 17, 64)))
    k = draw(st.sampled_from((1, 2, 7, 513)))
    axis = draw(st.sampled_from((0, 1)))  # where the reduced axis sits
    kind = draw(st.sampled_from(("sum", "max")))
    init = draw(st.sampled_from((0.0, -0.0, -np.inf, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = F32(draw(st.sampled_from((1.0, 1e3, 1e30))))
    rows = rng.standard_normal((lanes, k)).astype(np.float32) * scale
    special = rng.random((lanes, k)) < draw(st.sampled_from((0.0, 0.01, 0.3)))
    rows[special] = rng.choice(np.array(SPECIALS, np.float32), size=int(special.sum()))
    for lane in rng.choice(lanes, size=draw(st.integers(0, 3)), replace=False):
        pattern = draw(st.sampled_from(("all -0.0", "max is ±0", "NaN")))
        if pattern == "all -0.0":
            rows[lane] = -0.0
        elif pattern == "max is ±0":
            rows[lane] = -np.abs(rows[lane])
            zeros = rng.integers(k, size=rng.integers(1, k + 1))
            rows[lane, zeros] = rng.choice(np.array([0.0, -0.0], np.float32), size=len(zeros))
        else:
            rows[lane, rng.integers(k)] = np.nan
    values = rows if axis == 1 else np.ascontiguousarray(rows.T)
    return values, (axis,), kind, init


@settings(max_examples=200, deadline=None)
@given(lane_cases())
def test_lane_folds_match_sequential_loop(case):
    assert_matches_loop(*case)


@st.composite
def split_cases(draw):
    """Short folds of a 1-D array (lanes 0) or of a (K, lanes) array, rich in
    -0.0, ±inf and NaN, on both sides of the lane-path cutoff."""
    lanes = draw(st.sampled_from((0, 1, 15, 16)))
    k = draw(st.integers(2, 12))
    elem = st.sampled_from((0.0, -0.0, np.inf, -np.inf, np.nan)) | st.floats(-1e3, 1e3, width=32)
    n = k * max(lanes, 1)
    values = np.array(draw(st.lists(elem, min_size=n, max_size=n)), np.float32)
    values = values.reshape((k, lanes) if lanes else (k,))
    kind = draw(st.sampled_from(("sum", "max")))
    init = draw(st.sampled_from((0.0, -0.0, -np.inf, 1.0)))
    return values, kind, init


@settings(max_examples=80, deadline=None)
@given(split_cases())
def test_a_fold_split_anywhere_continues_from_the_first_part(case):
    # how `tile` runs a reduction: each tile folds on from the last one's
    # result, passed as a per-lane init (0-d for a 1-D fold)
    values, kind, init = case
    with np.errstate(invalid="ignore", over="ignore"):
        whole = ordered_fold(values, (0,), kind, init)
        assert_same_bits(whole, _ordered_fold_loop(values, (0,), kind, init))
        for cut in range(1, values.shape[0]):
            head = ordered_fold(values[:cut], (0,), kind, init)
            split = ordered_fold(values[cut:], (0,), kind, head)
            assert_same_bits(split, whole)
            assert_same_bits(split, _ordered_fold_loop(values[cut:], (0,), kind, head))


@pytest.mark.parametrize("kind", ["sum", "max"])
@pytest.mark.parametrize("lanes", [15, 16, 64])
def test_per_lane_init_folds_each_lane_from_its_own_start(kind, lanes):
    rng = np.random.default_rng(lanes)
    values = (rng.standard_normal((513, lanes)) * 1e3).astype(np.float32)
    init = rng.standard_normal(lanes).astype(np.float32)
    init[:4] = (-0.0, 0.0, np.inf, -np.inf)
    got = assert_matches_loop(values, (0,), kind, init)
    lane_by_lane = [ordered_fold(values[:, j], (0,), kind, init[j]) for j in range(lanes)]
    assert_same_bits(got, np.array(lane_by_lane))


def _lane_max(values, width, init, blocked=True):
    """How a `vectorized(W)` max over the last axis of `values` runs: its
    main part, the largest multiple of W, goes to W lanes that each fold one
    contiguous block (or, with blocked=False, every W-th element) from -inf,
    combined in lane order from `init`; the epilogue then folds the rest on
    from that result. An extent below W folds sequentially, as `vectorize`
    leaves it."""
    n = values.shape[-1]
    main = n // width * width
    acc = np.broadcast_to(np.asarray(init, np.float32), values.shape[:-1])
    if main:
        head = values[..., :main]
        lanes = (head.reshape(head.shape[:-1] + (width, main // width)) if blocked
                 else np.stack([head[..., k::width] for k in range(width)], axis=-2))
        for k in range(width):
            acc = np.maximum(acc, _ordered_fold_loop(lanes[..., k, :], (lanes.ndim - 2,),
                                                     "max", -np.inf))
    return _ordered_fold_loop(np.concatenate([acc[..., None], values[..., main:]], axis=-1),
                              (values.ndim - 1,), "max", -np.inf)


@st.composite
def lane_max_cases(draw):
    """Rows of a max over their last axis, rich in ±0 ties, ±inf and NaN,
    each row folding on from its own (carried) init."""
    width = draw(st.sampled_from((1, 2, 3, 32)))
    n = draw(st.integers(1, 3 * width + 5))
    rows = draw(st.integers(1, 3))
    elem = (st.sampled_from((0.0, -0.0, np.inf, -np.inf, np.nan))
            | st.floats(-1e3, 1e3, width=32))
    values = np.array(draw(st.lists(elem, min_size=rows * n, max_size=rows * n)),
                      np.float32).reshape(rows, n)
    init = np.array(draw(st.lists(st.sampled_from((-np.inf, 0.0, -0.0, 1.0, np.nan)),
                                  min_size=rows, max_size=rows)), np.float32)
    return values, width, init


@settings(max_examples=300, deadline=None)
@given(lane_max_cases())
def test_blocked_lanes_of_a_max_are_the_sequential_fold(case):
    values, width, init = case
    assert_same_bits(_lane_max(values, width, init), ordered_fold(values, (1,), "max", init))


@pytest.mark.parametrize("width", [2, 3, 32])
def test_blocked_lanes_keep_the_last_of_equal_zeros_anywhere(width):
    # every position of the one +0.0 among -0.0s, and of the one -0.0 among +0.0s
    n = 3 * width + 2
    for zero, other in ((0.0, -0.0), (-0.0, 0.0)):
        values = np.full((n, n), other, np.float32)
        np.fill_diagonal(values, zero)
        assert_same_bits(_lane_max(values, width, -np.inf),
                         ordered_fold(values, (1,), "max", -np.inf))


def test_strided_lanes_are_not_the_sequential_fold():
    # the last maximal element wins a max fold; with strided lanes the last
    # lane holding a maximum wins instead
    values = np.array([-np.inf, -0.0, 0.0, -np.inf], np.float32)
    want = ordered_fold(values, (0,), "max", -np.inf)
    assert want.view(np.uint32) == 0  # +0.0, the last zero
    assert_same_bits(_lane_max(values, 2, -np.inf), want)
    assert _lane_max(values, 2, -np.inf, blocked=False).view(np.uint32) == 0x80000000
    rng = np.random.default_rng(0)
    draws = rng.choice(np.array([0.0, -0.0, -np.inf], np.float32), (300, 64))
    strided = _lane_max(draws, 32, -np.inf, blocked=False).view(np.uint32)
    blocked = _lane_max(draws, 32, -np.inf).view(np.uint32)
    want = ordered_fold(draws, (1,), "max", -np.inf).view(np.uint32)
    assert (blocked == want).all() and (strided != want).any()


@pytest.mark.parametrize("lanes", [15, 16, 64])
@pytest.mark.parametrize("axis", [0, 1])
def test_negative_zero_lanes_keep_a_negative_zero_init(lanes, axis):
    values = np.full((lanes, 7) if axis == 1 else (7, lanes), -0.0, np.float32)
    got = assert_matches_loop(values, (axis,), "sum", -0.0)
    assert (got.view(np.uint32) == 0x80000000).all()  # -0.0 + -0.0 == -0.0


def test_max_over_signed_zeros_folds_in_order():
    # which of two equal zeros maximum.reduce keeps depends on its own order,
    # so such lanes take the sequential path
    rng = np.random.default_rng(0)
    values = np.where(rng.random((16, 16)) < 0.5, F32(0.0), F32(-0.0))
    assert_matches_loop(values, (1,), "max", -np.inf)


@pytest.mark.parametrize("lanes", [2, 16, 127])
def test_numpy_reduces_a_slow_axis_row_by_row(lanes):
    # ordered_fold's lane path relies on this: np.add.reduce along axis 0 of
    # a C-contiguous (K, P) f32 array adds one row at a time into an
    # accumulator that starts at `initial`. If a numpy upgrade sums such an
    # axis pairwise, this fails instead of the oracle moving silently.
    column = np.tile(np.array([1e8, 1.0, -1e8, 1.0], np.float32), 256)
    rows = np.repeat(column[:, None], lanes, axis=1)
    assert rows.flags.c_contiguous
    want = _ordered_fold_loop(rows.T, (1,), "sum", 0.0)
    got = np.add.reduce(rows, axis=0, initial=F32(0.0))
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    # the data tells the orders apart: eight strided partial sums, as a
    # pairwise sum unrolls them, give other bits
    partials = [_ordered_fold_loop(column[j::8], (0,), "sum", 0.0) for j in range(8)]
    assert _ordered_fold_loop(np.array(partials), (0,), "sum", 0.0) != want[0]
    zeros = np.full((7, lanes), -0.0, np.float32)
    got = np.add.reduce(zeros, axis=0, initial=F32(-0.0))
    assert (got.view(np.uint32) == 0x80000000).all()
    # a per-lane init is the first row, after `initial` -0.0, which adds
    # nothing: the fold of [+0.0, -0.0] must stay +0.0
    signed = np.array([[0.0] * lanes, [-0.0] * lanes], np.float32)
    got = np.add.reduce(signed, axis=0, initial=F32(-0.0))
    assert (got.view(np.uint32) == 0).all()


@pytest.mark.parametrize("shape,axes", [
    ((1 << 20,), (0,)),   # long 1-D sum: ordered, not pairwise
    ((127, 513), (1,)),   # row sums
    ((513, 127), (0,)),   # column sums
])
def test_fold_large_sums_bitexact(shape, axes):
    values = (np.random.default_rng(0).standard_normal(shape) * 2.0).astype(np.float32)
    assert_matches_loop(values, axes, "sum", 0.0)


def test_negative_zero_first_element_folds_from_init():
    got = ordered_fold(np.array([-0.0, -0.0], np.float32), (0,), "sum", 0.0)
    assert got.view(np.uint32) == 0  # +0.0 + -0.0 == +0.0


def test_fold_over_every_axis_is_0d():
    values = np.arange(6, dtype=np.float32).reshape(2, 3)
    got = assert_matches_loop(values, (1, 0), "sum", 0.0)
    assert got.shape == () and got == F32(15.0)


def test_eval_payload_evaluates_each_shared_node_once(monkeypatch):
    # t{k} = t{k-1} * t{k-1} + 0.25, as fusion builds it: both operands of
    # each mul are one node, so the tree has 2^31 paths but 62 operations
    t = Payload.arg(0)
    for _ in range(31):
        t = Payload.binary("add", Payload.binary("mul", t, t), Payload.const(0.25))
    calls = []
    apply_binary = numerics.apply_binary

    def counting(kind, a, b):
        calls.append(kind)
        return apply_binary(kind, a, b)

    monkeypatch.setattr(numerics, "apply_binary", counting)
    x = np.linspace(-0.5, 0.5, 65, dtype=np.float32)  # stays within [0, 0.5]
    got = eval_payload(t, [x])
    want = x
    for _ in range(31):
        want = want * want + F32(0.25)
    assert len(calls) == 62
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
