import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwmconv.tensor import _finite, _pad, accumulate, check_finite, mse


def test_pad_zero_is_identity():
    d = np.arange(4, dtype=np.float64).reshape(1, 1, 2, 2)
    out = _pad(d, (0, 0, 0, 0))
    np.testing.assert_array_equal(out, d)


def test_pad_single_value_centered():
    d = np.full((1, 1, 1, 1), 5.0, dtype=np.float64)
    out = _pad(d, (1, 1, 1, 1))
    expected = np.zeros((3, 3))
    expected[1, 1] = 5.0
    np.testing.assert_array_equal(out[0, 0], expected)


def test_pad_random_interior_matches_input():
    rng = np.random.default_rng(1)
    d = rng.standard_normal((1, 1, 14, 14))
    out = _pad(d, (1, 1, 1, 1))
    assert out.shape == (1, 1, 16, 16)
    # element-wise oracle: explicit index arithmetic
    for i in range(16):
        for j in range(16):
            want = d[0, 0, i - 1, j - 1] if 1 <= i <= 14 and 1 <= j <= 14 else 0.0
            assert out[0, 0, i, j] == want


@pytest.mark.parametrize("pad,padded", [
    ((10**20, 0, 0, 0), f"1x2x{10**20 + 2}x2"),   # a dimension beyond numpy's index type
    ((0, 0, 10**18, 0), f"1x2x2x{10**18 + 2}"),   # a byte count beyond it
], ids=["dimension", "bytes"])
def test_pad_beyond_numpys_size_limit_is_a_memory_error(pad, padded):
    """numpy refuses these shapes before allocating anything."""
    d = np.zeros((1, 2, 2, 2), dtype=np.float32)
    with pytest.raises(MemoryError, match=rf"^padded input {padded} is too large for an array$"):
        _pad(d, pad)


@given(top=st.integers(0, 3), bottom=st.integers(0, 3),
       left=st.integers(0, 3), right=st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_pad_then_slice_interior_roundtrips(top, bottom, left, right):
    rng = np.random.default_rng(7)
    d = rng.standard_normal((2, 1, 5, 6))
    padded = _pad(d, (top, bottom, left, right))
    back = padded[:, :, top:top + 5, left:left + 6]
    np.testing.assert_array_equal(back, d)


def test_accumulate_zero_and_negation():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 2, 3, 3))
    np.testing.assert_array_equal(accumulate(x, np.zeros_like(x)), x)
    np.testing.assert_array_equal(accumulate(x, -x), np.zeros_like(x))


def test_accumulate_matches_scalar_loop():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2, 3, 4))
    b = rng.standard_normal((2, 2, 3, 4))
    got = accumulate(a, b)
    for idx in np.ndindex(a.shape):
        assert got[idx] == a[idx] + b[idx]


def test_accumulate_left_fold_is_bit_reproducible():
    rng = np.random.default_rng(4)
    parts = [rng.standard_normal((1, 1, 4, 4)).astype(np.float32) for _ in range(5)]

    def fold():
        acc = parts[0]
        for p in parts[1:]:
            acc = accumulate(acc, p)
        return acc.tobytes()

    assert fold() == fold()


def test_mse_trivial_values():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 1, 4, 4))
    assert mse(x, x) == 0.0
    assert mse(x + 1.0, x) == pytest.approx(1.0, rel=1e-15)


def test_mse_matches_two_pass_scalar_loop():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
    ref = rng.standard_normal((2, 3, 5, 5))
    total = 0.0
    for idx in np.ndindex(ref.shape):
        diff = float(x[idx]) - ref[idx]
        total += diff * diff
    assert mse(x, ref) == pytest.approx(total / ref.size, rel=1e-14)


def test_mse_requires_binary64_reference():
    x = np.zeros((1, 1, 2, 2), dtype=np.float32)
    with pytest.raises(TypeError):
        mse(x, x)
    with pytest.raises(ValueError):
        mse(x, np.zeros((1, 1, 2, 3), dtype=np.float64))


# finite values whose squares overflow the scan's dot product
HUGE = {np.float32: (1e20, 3e38), np.float64: (1e160,)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("value", [None, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(0,), (1,), (3, 0, 5), (257,), (2, 3, 11, 11)])
def test_finite_agrees_with_isfinite_all(dtype, value, shape):
    rng = np.random.default_rng(8)
    for scale in ("normal", "huge"):
        for layout in ("contiguous", "view"):  # a view takes every other last-axis element
            whole = (*shape[:-1], 2 * shape[-1]) if layout == "view" else shape
            x = rng.standard_normal(whole)
            if scale == "huge":
                x = np.sign(x) * rng.choice(HUGE[dtype], size=whole)
            x = x.astype(dtype)
            if layout == "view":
                x = x[..., ::2]
                assert x.size <= 1 or not x.flags.c_contiguous
            if value is not None and x.size:
                x[np.unravel_index(x.size // 2, x.shape)] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert _finite(x) is bool(np.isfinite(x).all()), (scale, layout)


def test_exact_arrays_pass_every_finite_check():
    # Fractions hold no NaN or Inf, so the exact mode needs no dtype guard
    x = np.array([F(1, 3), F(-2, 7)], dtype=object).reshape(1, 1, 1, 2)
    assert _finite(x) is True
    assert check_finite(x, "exact") is x
    padded = _pad(x, (0, 0, 1, 0))
    assert padded.dtype == object and padded.tolist() == [[[[0, F(1, 3), F(-2, 7)]]]]
