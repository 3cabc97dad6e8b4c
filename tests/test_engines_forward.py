import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from dwmconv.convspec import ConvSpec
from dwmconv.decompose import plan_decomposition
from dwmconv.engines import convolve, direct_conv2d, dwm_backward, dwm_conv2d, winograd_conv2d
from dwmconv.flops import flops_dwm, flops_winograd_classic
from dwmconv.tensor import pad_input
from dwmconv.transforms import cook_toom, get_transform

from reference import oracle_conv


def test_direct_identity_kernel():
    rng = np.random.default_rng(0)
    d = rng.standard_normal((1, 1, 5, 5))
    w = np.ones((1, 1, 1, 1))
    y = direct_conv2d(d, w, ConvSpec(kernel=(1, 1)))
    np.testing.assert_array_equal(y, d)


def test_direct_all_ones_kernel_counts_window_overlap():
    d = np.ones((1, 1, 5, 5))
    w = np.ones((1, 1, 3, 3))
    y = direct_conv2d(d, w, ConvSpec(kernel=(3, 3), pad=(1, 1, 1, 1)))
    assert y.shape == (1, 1, 5, 5)
    assert y[0, 0, 2, 2] == 9.0
    for corner in ((0, 0), (0, 4), (4, 0), (4, 4)):
        assert y[0, 0][corner] == 4.0


def test_direct_matches_oracle_exactly_on_random_small_configs():
    rng = np.random.default_rng(1)
    for trial in range(200):
        r_h, r_w = rng.integers(1, 5, size=2)
        s_h, s_w = rng.integers(1, 3, size=2)
        pad = tuple(int(p) for p in rng.integers(0, 2, size=4))
        h = int(rng.integers(r_h + s_h, r_h + 5))
        w = int(rng.integers(r_w + s_w, r_w + 5))
        n, c, f = (int(x) for x in rng.integers(1, 3, size=3))
        spec = ConvSpec(kernel=(int(r_h), int(r_w)), stride=(int(s_h), int(s_w)), pad=pad)
        d = rng.standard_normal((n, c, h, w))
        g = rng.standard_normal((f, c, r_h, r_w))
        # same accumulation order on both sides, so equality is exact
        np.testing.assert_array_equal(direct_conv2d(d, g, spec), oracle_conv(d, g, spec))


def test_direct_5x5_stride2_matches_oracle_exactly():
    rng = np.random.default_rng(42)
    spec = ConvSpec(kernel=(5, 5), stride=(2, 2))
    d = rng.standard_normal((2, 3, 8, 8))
    g = rng.standard_normal((4, 3, 5, 5))
    np.testing.assert_array_equal(direct_conv2d(d, g, spec), oracle_conv(d, g, spec))


def test_winograd_1d_delta_filter_passes_signal_through():
    # row axis is a pass-through F(2,1), column axis F(2,3)
    d = np.arange(4, dtype=np.float64).reshape(1, 1, 1, 4) + 1.0
    g = np.array([1.0, 0.0, 0.0]).reshape(1, 1, 1, 3)
    y = winograd_conv2d(d, g, cook_toom(2, 1, []), get_transform(3))
    np.testing.assert_allclose(y, [[[[1.0, 2.0]]]], atol=1e-14)


def test_winograd_1d_box_filter():
    d = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 4)
    g = np.ones((1, 1, 1, 3))
    y = winograd_conv2d(d, g, cook_toom(2, 1, []), get_transform(3))
    np.testing.assert_allclose(y, [[[[6.0, 9.0]]]], atol=1e-14)


def test_winograd_single_tile_matches_direct():
    rng = np.random.default_rng(2)
    d = rng.standard_normal((1, 1, 4, 4))
    g = rng.standard_normal((1, 1, 3, 3))
    y = winograd_conv2d(d, g, get_transform(3))
    want = direct_conv2d(d, g, ConvSpec(kernel=(3, 3)))
    assert np.max(np.abs(y - want)) <= 1e-13


def test_winograd_multi_tile_multichannel_matches_oracle():
    rng = np.random.default_rng(3)
    spec = ConvSpec(kernel=(3, 3))
    d = rng.standard_normal((2, 3, 10, 12))
    g = rng.standard_normal((4, 3, 3, 3))
    y = winograd_conv2d(d, g, get_transform(3))
    np.testing.assert_allclose(y, oracle_conv(d, g, spec), atol=1e-12)


def test_winograd_truncates_odd_output_extent():
    rng = np.random.default_rng(4)
    d = rng.standard_normal((1, 2, 7, 9))  # outputs 5 x 7, both odd
    g = rng.standard_normal((2, 2, 3, 3))
    y = winograd_conv2d(d, g, get_transform(3))
    assert y.shape == (1, 2, 5, 7)
    np.testing.assert_allclose(y, oracle_conv(d, g, ConvSpec(kernel=(3, 3))), atol=1e-12)


def test_winograd_stride_guard_points_to_dwm():
    rng = np.random.default_rng(5)
    d = rng.standard_normal((1, 1, 8, 8))
    g = rng.standard_normal((1, 1, 3, 3))
    with pytest.raises(ValueError, match="dwm"):
        convolve(d, g, ConvSpec(kernel=(3, 3), stride=(2, 2)), algo="winograd")


def test_dwm_degenerate_3x3_is_bit_identical_to_winograd():
    rng = np.random.default_rng(6)
    spec = ConvSpec(kernel=(3, 3), pad=(1, 1, 1, 1))
    for dtype in (np.float32, np.float64):
        d = rng.standard_normal((2, 3, 14, 14)).astype(dtype)
        g = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
        via_dwm = dwm_conv2d(d, g, spec)
        via_winograd = winograd_conv2d(pad_input(d, spec.pad), g, get_transform(3))
        assert via_dwm.tobytes() == via_winograd.tobytes()


def test_dwm_5x5_stride1_close_to_direct():
    rng = np.random.default_rng(7)
    spec = ConvSpec(kernel=(5, 5))
    d = rng.standard_normal((1, 1, 18, 18))
    g = rng.standard_normal((1, 1, 5, 5))
    y = dwm_conv2d(d, g, spec)
    assert np.max(np.abs(y - direct_conv2d(d, g, spec))) <= 1e-12


def test_dwm_5x5_stride2_on_7x7_matches_direct():
    rng = np.random.default_rng(8)
    spec = ConvSpec(kernel=(5, 5), stride=(2, 2))
    d = rng.standard_normal((1, 2, 7, 7))
    g = rng.standard_normal((2, 2, 5, 5))
    y = dwm_conv2d(d, g, spec)
    assert y.shape == (1, 2, 2, 2)
    np.testing.assert_allclose(y, direct_conv2d(d, g, spec), atol=1e-12)


def test_dwm_matches_oracle_for_every_kernel_and_stride():
    # full grid, tiny tensors: kernel 1..11, stride 1..3
    for r in range(1, 12):
        for s in range(1, 4):
            rng = np.random.default_rng(31 * r + s)
            spec = ConvSpec(kernel=(r, r), stride=(s, s), pad=(1, 1, 1, 1))
            h = r + 2 * s + 3
            d = rng.standard_normal((1, 2, h, h))
            g = rng.standard_normal((1, 2, r, r))
            got = dwm_conv2d(d, g, spec)
            want = oracle_conv(d, g, spec)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-10, (r, s)


@pytest.mark.parametrize("r,s", [(1, 1), (3, 1), (5, 1), (7, 2), (9, 2), (11, 4)])
def test_dwm_matches_oracle_across_kernels_and_strides(r, s):
    rng = np.random.default_rng(100 + r + s)
    pad = (r // 3,) * 4
    spec = ConvSpec(kernel=(r, r), stride=(s, s), pad=pad)
    h = max(16, r + s)
    d = rng.standard_normal((2, 3, h, h))
    g = rng.standard_normal((2, 3, r, r))
    y = dwm_conv2d(d, g, spec)
    want = oracle_conv(d, g, spec)
    assert y.shape == want.shape
    assert np.max(np.abs(y - want)) <= 1e-10


def test_dwm_exact_rational_mode_equals_direct():
    # the decomposition rearranges the arithmetic but never approximates
    data = np.array([[[[F(3 * i - 2 * j, 7) for j in range(9)] for i in range(9)]]],
                    dtype=object)
    weights = np.array([[[[F((2 * i + j) % 5 - 2, 3) for j in range(5)] for i in range(5)]]],
                       dtype=object)
    spec = ConvSpec(kernel=(5, 5), stride=(2, 2))
    exact_direct = direct_conv2d(data, weights, spec)
    exact_dwm = dwm_conv2d(data, weights, spec)
    assert (exact_direct == exact_dwm).all()


def test_dwm_exact_rational_mode_equals_oracle_on_batched_strided_geometry():
    # multiples of 1/4 keep every product and sum of the binary64 oracle exact;
    # batch 2 and C != F make a swapped batch, channel or filter axis show
    spec = ConvSpec(kernel=(5, 4), stride=(2, 3), pad=(1, 2, 0, 3))
    rng = np.random.default_rng(11)
    d = rng.integers(-8, 9, (2, 3, 10, 13)) / 4
    w = rng.integers(-8, 9, (2, 3, 5, 4)) / 4
    exact = np.vectorize(F, otypes=[object])
    y = dwm_conv2d(exact(d), exact(w), spec)
    assert y.dtype == np.dtype(object)
    assert y.tolist() == exact(oracle_conv(d, w, spec)).tolist()


def test_dwm_linearity_exact_in_rational_mode():
    a, b = F(2, 3), F(-5, 7)
    d1 = np.array([[[[F(i + j, 4) for j in range(7)] for i in range(7)]]], dtype=object)
    d2 = np.array([[[[F(i - j, 5) for j in range(7)] for i in range(7)]]], dtype=object)
    weights = np.array([[[[F(i * j - 1, 2) for j in range(5)] for i in range(5)]]], dtype=object)
    spec = ConvSpec(kernel=(5, 5), stride=(2, 2))
    combined = dwm_conv2d(a * d1 + b * d2, weights, spec)
    separate = a * dwm_conv2d(d1, weights, spec) + b * dwm_conv2d(d2, weights, spec)
    assert (combined == separate).all()


def test_convolve_instrumented_count_matches_flop_model():
    rng = np.random.default_rng(9)
    d = rng.standard_normal((1, 2, 15, 15))

    spec = ConvSpec(kernel=(5, 5), stride=(2, 2), pad=(2, 2, 2, 2))
    g = rng.standard_normal((3, 2, 5, 5))
    out = convolve(d, g, spec, algo="dwm")
    oh_ow = out.y.shape[2:]
    assert out.flops == flops_dwm(plan_decomposition(spec), oh_ow)

    spec_w = ConvSpec(kernel=(3, 3), pad=(1, 1, 1, 1))
    g3 = rng.standard_normal((3, 2, 3, 3))
    out_w = convolve(d, g3, spec_w, algo="winograd")
    assert out_w.flops == flops_winograd_classic(spec_w, out_w.y.shape[2:])

    out_d = convolve(d, g3, spec_w, algo="direct")
    assert out_d.flops == out_d.y.shape[2] * out_d.y.shape[3] * 9

    # >= 4 taps: the data and kernel transforms cost multiplies, and the count includes them
    d_big = rng.standard_normal((1, 2, 29, 33))
    spec_11 = ConvSpec(kernel=(11, 11))
    g11 = rng.standard_normal((3, 2, 11, 11))
    out_11 = convolve(d_big, g11, spec_11, algo="winograd")
    assert out_11.y.shape[2:] == (19, 23)
    assert out_11.flops == flops_winograd_classic(
        spec_11, (19, 23), get_transform(11), get_transform(11)) == 249_704


def test_engine_rejects_channel_mismatch():
    d = np.zeros((1, 2, 8, 8))
    g = np.zeros((1, 3, 3, 3))
    with pytest.raises(ValueError, match="channel"):
        dwm_conv2d(d, g, ConvSpec(kernel=(3, 3)))


def test_engine_rejects_nonfinite():
    d = np.full((1, 1, 8, 8), 1e308)
    g = np.full((1, 1, 3, 3), 1e308)
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        direct_conv2d(d, g, ConvSpec(kernel=(3, 3)))


SPEC_PAD1 = ConvSpec(kernel=(3, 3), pad=(1, 1, 1, 1))
NAMED_INPUT_ENGINES = {
    "direct_conv2d": lambda d, w, dy, **kw: direct_conv2d(d, w, SPEC_PAD1, **kw),
    "dwm_conv2d": lambda d, w, dy, **kw: dwm_conv2d(d, w, SPEC_PAD1, **kw),
    "convolve-direct": lambda d, w, dy, **kw: convolve(d, w, SPEC_PAD1, algo="direct", **kw),
    "convolve-winograd": lambda d, w, dy, **kw: convolve(d, w, SPEC_PAD1, algo="winograd",
                                                         **kw),
    "convolve-dwm": lambda d, w, dy, **kw: convolve(d, w, SPEC_PAD1, algo="dwm", **kw),
    "dwm_backward": lambda d, w, dy, **kw: dwm_backward(dy, plan_decomposition(SPEC_PAD1),
                                                        d, w, **kw),
}
NAMED_INPUTS = [
    *((engine, arg) for engine in NAMED_INPUT_ENGINES for arg in ("data", "weights")),
    ("dwm_backward", "grad_out"),
]


def _named_inputs(arg, value):
    inputs = {"data": np.ones((1, 2, 6, 6)), "weights": np.ones((2, 2, 3, 3)),
              "grad_out": np.ones((1, 2, 6, 6))}
    inputs[arg][0, 1, 2, 2] = value
    return inputs["data"], inputs["weights"], inputs["grad_out"]


@pytest.mark.parametrize("engine,arg", NAMED_INPUTS)
def test_nonfinite_input_is_named_before_padding(engine, arg):
    inputs = _named_inputs(arg, np.inf if arg == "weights" else np.nan)
    with pytest.raises(ValueError, match=f"^{arg} contains NaN or Inf"):
        NAMED_INPUT_ENGINES[engine](*inputs)


@pytest.mark.parametrize("engine,arg", NAMED_INPUTS)
def test_input_beyond_float32_is_named_by_the_cast(engine, arg):
    inputs = _named_inputs(arg, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{arg} does not fit in float32$"):
            NAMED_INPUT_ENGINES[engine](*inputs, precision=np.float32)


def _f32(shape, value):
    return np.full(shape, value, dtype=np.float32)


SPEC_5 = ConvSpec(kernel=(5, 5))
SPEC_11S4 = ConvSpec(kernel=(11, 11), stride=(4, 4))
ONE_TAP = np.zeros((1, 1, 11, 11), dtype=np.float32)
ONE_TAP[0, 0, 0, 1] = 10  # only part 1 of the 11x11 stride-4 plan sees it
OVERFLOW_CASES = {
    # the first part of the 5x5 plan already overflows: it is named, not the aggregation
    "dwm_conv2d": (lambda: dwm_conv2d(_f32((1, 1, 9, 9), 3e38), _f32((1, 1, 5, 5), 10), SPEC_5),
                   r"dwm_conv2d part 0 \(kernel rows 0,1,2; cols 0,1,2\)"),
    "dwm_conv2d-strided": (lambda: dwm_conv2d(_f32((1, 1, 11, 11), 5e37), ONE_TAP, SPEC_11S4),
                           r"dwm_conv2d part 1 \(kernel rows 0,4,8; cols 1,5,9\)"),
    "dwm_backward-weights": (lambda: dwm_backward(
        _f32((1, 1, 5, 5), 1), plan_decomposition(SPEC_5), _f32((1, 1, 9, 9), 3e38),
        _f32((1, 1, 5, 5), 10)),
        r"dwm_backward part 0 \(kernel rows 0,1,2; cols 0,1,2\) weight gradient"),
    "dwm_backward-data": (lambda: dwm_backward(
        _f32((1, 1, 5, 5), 3e38), plan_decomposition(SPEC_5), _f32((1, 1, 9, 9), 1),
        _f32((1, 1, 5, 5), 10)),
        r"dwm_backward part 0 \(kernel rows 0,1,2; cols 0,1,2\) data gradient"),
    "direct_conv2d": (lambda: direct_conv2d(_f32((1, 1, 9, 9), 3e38), _f32((1, 1, 5, 5), 10),
                                            SPEC_5), "direct_conv2d"),
}


@pytest.mark.parametrize("case", OVERFLOW_CASES)
def test_float32_overflow_names_the_part_and_warns_nothing(case):
    run, name = OVERFLOW_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=f"^{name} produced non-finite values$"):
            run()


def test_float32_overflow_of_finite_parts_is_named_by_the_aggregation():
    # a 1x4 kernel is a 3-tap part plus a 1-tap part; each part output is finite
    d = np.ones((1, 1, 1, 4), dtype=np.float32)
    w = np.array([[[[6e37, 6e37, 6e37, 2e38]]]], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="^accumulate produced non-finite values$"):
            dwm_conv2d(d, w, ConvSpec(kernel=(1, 4)))
