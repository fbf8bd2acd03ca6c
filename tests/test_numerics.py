"""numerics.ordered_fold against the sequential Python loop it replaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcmc.numerics import F32, _COMBINE, ordered_fold

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


def assert_matches_loop(values, axes, kind, init):
    with np.errstate(invalid="ignore"):  # inf + -inf
        got = ordered_fold(values, axes, kind, init)
        want = np.asarray(_ordered_fold_loop(values, axes, kind, init))
    assert got.dtype == np.float32 and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    # IEEE 754 leaves unspecified which NaN survives where two meet, so only
    # non-NaN results are compared bit for bit.
    np.testing.assert_array_equal(got.view(np.uint32)[~nan], want.view(np.uint32)[~nan])
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
