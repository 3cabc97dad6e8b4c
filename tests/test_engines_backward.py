from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwmconv.convspec import ConvSpec
from dwmconv.decompose import plan_decomposition
from dwmconv.engines import dwm_backward, dwm_conv2d

from reference import finite_difference, oracle_conv, oracle_grads

# 3x3 stride 1 is a one-part plan: dwm_backward runs the plain F(2,3) gradients
PLAN3 = plan_decomposition(ConvSpec(kernel=(3, 3)))


def test_zero_grad_out_gives_zero_gradients():
    dy = np.zeros((1, 2, 4, 4))
    g = np.ones((2, 1, 3, 3))
    d = np.ones((1, 1, 6, 6))
    gd, gw = dwm_backward(dy, PLAN3, d, g)
    np.testing.assert_array_equal(gd, np.zeros((1, 1, 6, 6)))
    np.testing.assert_array_equal(gw, np.zeros((2, 1, 3, 3)))

    spec = ConvSpec(kernel=(5, 5), stride=(2, 2))
    plan = plan_decomposition(spec)
    d = np.ones((1, 1, 9, 9))
    w = np.ones((1, 1, 5, 5))
    oh, ow = spec.out_dims(9, 9)
    gd, gw = dwm_backward(np.zeros((1, 1, oh, ow)), plan, d, w)
    np.testing.assert_array_equal(gd, np.zeros_like(d))
    np.testing.assert_array_equal(gw, np.zeros_like(w))


def test_delta_filter_grad_data_places_grad_at_taps():
    # single tile, g = delta at (0,0): d gradient is dY placed at the taps
    dy = np.zeros((1, 1, 2, 2))
    dy[0, 0, 0, 0] = 1.0
    g = np.zeros((1, 1, 3, 3))
    g[0, 0, 0, 0] = 1.0
    gd, _ = dwm_backward(dy, PLAN3, np.zeros((1, 1, 4, 4)), g)
    expected = np.zeros((1, 1, 4, 4))
    expected[0, 0, 0, 0] = 1.0
    np.testing.assert_allclose(gd, expected, atol=1e-14)


def test_ones_single_tile_grad_weight_counts_windows():
    # every 3x3 tap is covered by all four 2x2 output positions
    dy = np.ones((1, 1, 2, 2))
    d = np.ones((1, 1, 4, 4))
    _, gw = dwm_backward(dy, PLAN3, d, np.zeros((1, 1, 3, 3)))
    np.testing.assert_allclose(gw, np.full((1, 1, 3, 3), 4.0), atol=1e-13)


def test_winograd_grads_match_oracle_analytic():
    rng = np.random.default_rng(20)
    spec = ConvSpec(kernel=(3, 3))
    d = rng.standard_normal((2, 3, 8, 10))
    w = rng.standard_normal((2, 3, 3, 3))
    oh, ow = spec.out_dims(8, 10)
    dy = rng.standard_normal((2, 2, oh, ow))
    want_d, want_w = oracle_grads(d, w, spec, dy)
    got_d, got_w = dwm_backward(dy, PLAN3, d, w)
    assert np.max(np.abs(got_d - want_d)) <= 1e-10
    assert np.max(np.abs(got_w - want_w)) <= 1e-10


@pytest.mark.parametrize("kernel,stride,pad", [
    ((3, 3), (1, 1), (1, 1, 1, 1)),
    ((5, 5), (1, 1), (2, 2, 2, 2)),
    ((5, 5), (2, 2), (1, 1, 1, 1)),
    ((7, 7), (2, 2), (3, 3, 3, 3)),
])
def test_dwm_backward_matches_oracle_analytic(kernel, stride, pad):
    rng = np.random.default_rng(sum(kernel) + sum(stride))
    spec = ConvSpec(kernel=kernel, stride=stride, pad=pad)
    d = rng.standard_normal((2, 2, 12, 12))
    w = rng.standard_normal((2, 2, *kernel))
    oh, ow = spec.out_dims(12, 12)
    dy = rng.standard_normal((2, 2, oh, ow))
    gd, gw = dwm_backward(dy, plan_decomposition(spec), d, w)
    want_d, want_w = oracle_grads(d, w, spec, dy)
    assert np.max(np.abs(gd - want_d)) <= 1e-10
    assert np.max(np.abs(gw - want_w)) <= 1e-10


@given(kernel=st.tuples(st.integers(1, 7), st.integers(1, 7)),
       stride=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       pad=st.tuples(*[st.integers(0, 2)] * 4),
       extra=st.tuples(st.integers(0, 8), st.integers(0, 8)),
       dims=st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3)),
       seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_dwm_forward_and_backward_match_oracle_on_any_geometry(kernel, stride, pad, extra,
                                                               dims, seed):
    # rectangular kernels, unequal strides (also stride > taps) and asymmetric pads;
    # batch, channels and filters drawn independently, so a swapped axis shows
    spec = ConvSpec(kernel=kernel, stride=stride, pad=pad)
    n, c, f = dims
    top, bottom, left, right = pad
    h = max(1, kernel[0] - top - bottom + extra[0])
    wd = max(1, kernel[1] - left - right + extra[1])
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, c, h, wd))
    w = rng.standard_normal((f, c, *kernel))
    oh, ow = spec.out_dims(h, wd)
    dy = rng.standard_normal((n, f, oh, ow))
    y = dwm_conv2d(d, w, spec)
    want_y = oracle_conv(d, w, spec)
    assert y.shape == want_y.shape
    assert np.max(np.abs(y - want_y)) <= 1e-10
    gd, gw = dwm_backward(dy, plan_decomposition(spec), d, w)
    want_d, want_w = oracle_grads(d, w, spec, dy)
    assert np.max(np.abs(gd - want_d)) <= 1e-10
    assert np.max(np.abs(gw - want_w)) <= 1e-10


def test_dwm_backward_exact_rational_mode_equals_oracle():
    # multiples of 1/4 keep every product and sum of the binary64 oracle exact
    spec = ConvSpec(kernel=(5, 4), stride=(2, 3), pad=(1, 2, 0, 3))
    rng = np.random.default_rng(7)
    d = rng.integers(-8, 9, (2, 2, 10, 13)) / 4
    w = rng.integers(-8, 9, (3, 2, 5, 4)) / 4
    oh, ow = spec.out_dims(10, 13)  # 5x5: odd extents leave partial tiles
    dy = rng.integers(-8, 9, (2, 3, oh, ow)) / 4
    exact = np.vectorize(Fraction, otypes=[object])
    gd, gw = dwm_backward(exact(dy), plan_decomposition(spec), exact(d), exact(w))
    want_d, want_w = oracle_grads(d, w, spec, dy)
    assert gd.dtype == gw.dtype == np.dtype(object)
    assert gd.tolist() == exact(want_d).tolist()
    assert gw.tolist() == exact(want_w).tolist()


def test_oracle_analytic_agrees_with_finite_differences():
    # self-consistency of the reference module
    rng = np.random.default_rng(22)
    spec = ConvSpec(kernel=(3, 3), pad=(1, 1, 1, 1))
    d = rng.standard_normal((1, 2, 6, 6))
    w = rng.standard_normal((2, 2, 3, 3))
    oh, ow = spec.out_dims(6, 6)
    dy = rng.standard_normal((1, 2, oh, ow))
    want_d, want_w = oracle_grads(d, w, spec, dy)
    coords_d = [(0, 0, 1, 1), (0, 1, 3, 2), (0, 0, 5, 5)]
    coords_w = [(0, 0, 0, 0), (1, 1, 2, 2), (0, 1, 1, 0)]
    fd_d, fd_w = finite_difference(d, w, spec, dy, coords_d, coords_w)
    for idx, fd in zip(coords_d, fd_d):
        assert abs(fd - want_d[idx]) <= 1e-6 * max(1.0, abs(want_d[idx]))
    for idx, fd in zip(coords_w, fd_w):
        assert abs(fd - want_w[idx]) <= 1e-6 * max(1.0, abs(want_w[idx]))


def test_dwm_backward_matches_finite_differences():
    rng = np.random.default_rng(23)
    spec = ConvSpec(kernel=(5, 5), stride=(2, 2), pad=(1, 1, 1, 1))
    d = rng.standard_normal((1, 2, 9, 9))
    w = rng.standard_normal((2, 2, 5, 5))
    oh, ow = spec.out_dims(9, 9)
    dy = rng.standard_normal((1, 2, oh, ow))
    gd, gw = dwm_backward(dy, plan_decomposition(spec), d, w)
    coords_d = [tuple(int(rng.integers(0, s)) for s in d.shape) for _ in range(8)]
    coords_w = [tuple(int(rng.integers(0, s)) for s in w.shape) for _ in range(8)]
    fd_d, fd_w = finite_difference(d, w, spec, dy, coords_d, coords_w)
    for idx, fd in zip(coords_d, fd_d):
        assert abs(fd - gd[idx]) <= 1e-6 * max(1.0, abs(gd[idx]))
    for idx, fd in zip(coords_w, fd_w):
        assert abs(fd - gw[idx]) <= 1e-6 * max(1.0, abs(gw[idx]))


def test_dwm_backward_rejects_bad_grad_shape():
    spec = ConvSpec(kernel=(3, 3))
    plan = plan_decomposition(spec)
    d = np.zeros((1, 1, 8, 8))
    w = np.zeros((1, 1, 3, 3))
    with pytest.raises(ValueError, match="grad_out"):
        dwm_backward(np.zeros((1, 1, 2, 2)), plan, d, w)


def _embedded(x):
    """x's values as a strided slice of a larger array."""
    big = np.full(tuple(2 * s + 1 for s in x.shape), x.flat[0], dtype=x.dtype)
    view = big[1::2, 1::2, 1::2, 1::2]
    view[...] = x
    return view


LAYOUTS = {
    "slice": _embedded,
    "fortran": np.asfortranarray,
    "reversed": lambda x: np.flip(np.flip(x).copy()),  # negative strides on every axis
}
# strided kernel rows with stride-1 columns, and the other way round: the
# parts' kernel sub-blocks are views with either kind of column step
LAYOUT_SPECS = (ConvSpec(kernel=(5, 4), stride=(2, 1), pad=(1, 2, 0, 1)),
                ConvSpec(kernel=(4, 5), stride=(1, 3), pad=(0, 1, 2, 2)))


def _dwm_results(spec, data, weights, grad_out):
    return (dwm_conv2d(data, weights, spec),
            *dwm_backward(grad_out, plan_decomposition(spec), data, weights))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("arg", ["data", "weights", "grad_out"])
@pytest.mark.parametrize("exact", [False, True], ids=["binary32", "fraction"])
def test_input_strides_do_not_change_any_bit(exact, arg, layout):
    rng = np.random.default_rng(11)
    for spec in LAYOUT_SPECS:
        oh, ow = spec.out_dims(9, 8)  # odd extents leave partial tiles
        shapes = {"data": (2, 3, 9, 8), "weights": (2, 3, *spec.kernel),
                  "grad_out": (2, 2, oh, ow)}
        draw = {k: rng.integers(-8, 9, s) / 4 for k, s in shapes.items()}
        if exact:
            args = {k: np.vectorize(Fraction, otypes=[object])(v) for k, v in draw.items()}
        else:
            args = {k: v.astype(np.float32) for k, v in draw.items()}
        want = _dwm_results(spec, **args)
        strided = dict(args, **{arg: LAYOUTS[layout](args[arg])})
        assert not strided[arg].flags.c_contiguous
        held = {k: v.copy() for k, v in strided.items()}
        owner = strided[arg] if strided[arg].base is None else strided[arg].base
        owner_held = owner.copy()
        got = _dwm_results(spec, **strided)
        for w, g in zip(want, got):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            if exact:
                assert g.tolist() == w.tolist()
            else:
                assert g.tobytes() == w.tobytes()
        for k, v in strided.items():  # no input, nor the array it views, is written
            assert held[k].tolist() == v.tolist()
        assert owner.tolist() == owner_held.tolist()
