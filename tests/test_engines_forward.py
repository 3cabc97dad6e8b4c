import re
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from dwmconv.convspec import ConvSpec
from dwmconv.decompose import plan_classic, plan_decomposition
from dwmconv import engines, tensor
from dwmconv.engines import (_aligned_empty, _axes2, _tap_major, _untile, convolve,
                             direct_conv2d, dwm_backward, dwm_conv2d, gemm_conv2d,
                             winograd_conv2d)
from dwmconv.flops import flops_direct, flops_dwm, flops_winograd_classic
from dwmconv.transforms import (cook_toom, get_baseline_transform, get_transform,
                                to_exact_arrays, to_float)

from reference import oracle_conv, oracle_conv_f32


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


def _random_geometries(rng, count):
    """(spec, N, C, F, H, W) with kernels up to 5x5 and strides up to 6, so
    that some strides exceed the kernel (some input rows and columns are
    never read)."""
    for _ in range(count):
        r_h, r_w = (int(v) for v in rng.integers(1, 6, size=2))
        s_h, s_w = (int(v) for v in rng.integers(1, 7, size=2))
        pad = tuple(int(p) for p in rng.integers(0, 3, size=4))
        h = r_h + int(rng.integers(0, 2 * s_h + 2))
        w = r_w + int(rng.integers(0, 2 * s_w + 2))
        n, c, f = (int(v) for v in rng.integers(1, 4, size=3))
        yield ConvSpec(kernel=(r_h, r_w), stride=(s_h, s_w), pad=pad), min(n, 2), c, f, h, w


def test_direct_binary32_matches_float32_oracle_bit_for_bit():
    rng = np.random.default_rng(21)
    covered = set()
    for spec, n, c, f, h, w in _random_geometries(rng, 100):
        d = rng.standard_normal((n, c, h, w)).astype(np.float32)
        g = rng.standard_normal((f, c, *spec.kernel)).astype(np.float32)
        y = direct_conv2d(d, g, spec)
        assert y.dtype == np.float32
        # same products and adds in the same order, each rounded to binary32
        assert y.tobytes() == oracle_conv_f32(d, g, spec).tobytes(), spec
        (s_h, s_w), (r_h, r_w) = spec.stride, spec.kernel
        covered |= {name for name, hit in (("stride > kernel", s_h > r_h or s_w > r_w),
                                           ("s_h != s_w", s_h != s_w), ("batch 2", n == 2),
                                           ("padding", any(spec.pad))) if hit}
    assert covered == {"stride > kernel", "s_h != s_w", "batch 2", "padding"}


def test_direct_binary32_cast_matches_float32_oracle():
    # float64 inputs with precision=binary32: cast once, then the binary32 order
    rng = np.random.default_rng(22)
    spec = ConvSpec(kernel=(4, 3), stride=(3, 2), pad=(1, 2, 2, 0))
    d = rng.standard_normal((2, 3, 11, 9))
    g = rng.standard_normal((3, 3, 4, 3))
    y = direct_conv2d(d, g, spec, precision="binary32")
    assert y.tobytes() == oracle_conv_f32(d.astype(np.float32), g.astype(np.float32),
                                          spec).tobytes()


@pytest.mark.parametrize("kernel,stride,pad", [
    ((2, 3), (3, 4), (1, 0, 2, 1)),   # stride beyond the kernel on both axes
    ((3, 5), (2, 1), (0, 1, 2, 2)),   # s_h != s_w
    ((5, 2), (1, 3), (2, 2, 0, 0)),
    ((1, 1), (2, 2), (0, 0, 0, 0)),
], ids=["2x3s3,4", "3x5s2,1", "5x2s1,3", "1x1s2,2"])
def test_direct_exact_mode_equals_oracle_on_strided_geometries(kernel, stride, pad):
    # multiples of 1/4 keep every product and sum of the binary64 oracle exact
    spec = ConvSpec(kernel=kernel, stride=stride, pad=pad)
    rng = np.random.default_rng(sum(kernel) + 7 * sum(stride))
    d = rng.integers(-8, 9, (2, 2, 9, 10)) / 4
    w = rng.integers(-8, 9, (3, 2, *kernel)) / 4
    exact = np.vectorize(F, otypes=[object])
    y = direct_conv2d(exact(d), exact(w), spec)
    assert y.dtype == np.dtype(object)
    assert y.tolist() == exact(oracle_conv(d, w, spec)).tolist()


@pytest.mark.parametrize("shape", [(0,), (3, 0, 5), (1,), (7, 13), (2, 3, 5, 17)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_aligned_empty_starts_on_a_cache_line(dtype, shape):
    bufs = [_aligned_empty(shape, dtype) for _ in range(8)]  # assorted heap offsets
    for i, a in enumerate(bufs):
        assert (a.shape, a.dtype) == (shape, np.dtype(dtype))
        assert a.ctypes.data % 64 == 0
        assert a.flags.c_contiguous and a.flags.writeable
        a[...] = i
    assert all((a == i).all() for i, a in enumerate(bufs))  # no two buffers overlap


def test_aligned_empty_is_a_plain_array_for_objects():
    a = _aligned_empty((2, 3), object)
    assert a.dtype == np.dtype(object) and a.base is None and a.shape == (2, 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_direct_bits_do_not_depend_on_buffer_alignment(monkeypatch, dtype):
    # a strided geometry with F = 5, so that no row of ow*F elements is a
    # whole number of cache lines
    spec = ConvSpec(kernel=(4, 3), stride=(2, 3), pad=(1, 2, 0, 1))
    rng = np.random.default_rng(31)
    d = rng.standard_normal((2, 3, 13, 14)).astype(dtype)
    w = rng.standard_normal((5, 3, 4, 3)).astype(dtype)
    want = direct_conv2d(d, w, spec)
    calls = []

    def misaligned(shape, dtype):
        """np.empty(shape, dtype) starting 16 bytes past a 64-byte boundary."""
        dt = np.dtype(dtype)
        raw = np.empty(dt.itemsize * int(np.prod(shape)) + 64, dtype=np.uint8)
        calls.append(shape)
        return np.ndarray(shape, dt, buffer=raw, offset=(16 - raw.ctypes.data) % 64)

    monkeypatch.setattr(engines, "_aligned_empty", misaligned)
    got = direct_conv2d(d, w, spec)
    assert len(calls) == 4  # running sum, product, data and weight buffers
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


_SAME_3X3 = ConvSpec(kernel=(3, 3), pad=(1, 1, 1, 1))
_STRIDED_5X4 = ConvSpec(kernel=(5, 4), stride=(2, 3), pad=(1, 2, 0, 3))


@pytest.mark.parametrize("dims", [(0, 3, 4), (2, 0, 4), (2, 3, 0)], ids=["N0", "C0", "F0"])
@pytest.mark.parametrize("engine,spec", [
    (gemm_conv2d, _SAME_3X3), (gemm_conv2d, _STRIDED_5X4), (winograd_conv2d, _SAME_3X3),
    (dwm_conv2d, _SAME_3X3), (dwm_conv2d, _STRIDED_5X4),
], ids=lambda v: v.__name__ if callable(v) else "x".join(map(str, v.kernel + v.stride)))
def test_empty_extents_give_what_direct_gives(engine, spec, dims):
    n, c, f = dims
    rng = np.random.default_rng(23)
    d = rng.standard_normal((n, c, 9, 10)).astype(np.float32)
    w = rng.standard_normal((f, c, *spec.kernel)).astype(np.float32)
    want = direct_conv2d(d, w, spec)
    assert want.shape == (n, f, *spec.out_dims(9, 10)) and not want.any()
    y = engine(d, w, spec)
    assert y.dtype == want.dtype and y.shape == want.shape
    assert y.tobytes() == want.tobytes()


def test_winograd_1d_delta_filter_passes_signal_through():
    # row axis is a pass-through F(2,1), column axis F(2,3)
    d = np.arange(4, dtype=np.float64).reshape(1, 1, 1, 4) + 1.0
    g = np.array([1.0, 0.0, 0.0]).reshape(1, 1, 1, 3)
    spec = ConvSpec(kernel=(1, 3))
    y = winograd_conv2d(d, g, spec, plan_classic(spec, get_transform))
    np.testing.assert_allclose(y, [[[[1.0, 2.0]]]], atol=1e-14)


def test_winograd_1d_box_filter():
    d = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 4)
    g = np.ones((1, 1, 1, 3))
    spec = ConvSpec(kernel=(1, 3))
    y = winograd_conv2d(d, g, spec, plan_classic(spec, get_transform))
    np.testing.assert_allclose(y, [[[[6.0, 9.0]]]], atol=1e-14)


def test_winograd_single_tile_matches_direct():
    rng = np.random.default_rng(2)
    d = rng.standard_normal((1, 1, 4, 4))
    g = rng.standard_normal((1, 1, 3, 3))
    spec = ConvSpec(kernel=(3, 3))
    y = winograd_conv2d(d, g, spec, plan_classic(spec, get_transform))
    want = direct_conv2d(d, g, spec)
    assert np.max(np.abs(y - want)) <= 1e-13


def test_winograd_multi_tile_multichannel_matches_oracle():
    rng = np.random.default_rng(3)
    spec = ConvSpec(kernel=(3, 3))
    d = rng.standard_normal((2, 3, 10, 12))
    g = rng.standard_normal((4, 3, 3, 3))
    y = winograd_conv2d(d, g, spec, plan_classic(spec, get_transform))
    np.testing.assert_allclose(y, oracle_conv(d, g, spec), atol=1e-12)


def test_winograd_truncates_odd_output_extent():
    rng = np.random.default_rng(4)
    d = rng.standard_normal((1, 2, 7, 9))  # outputs 5 x 7, both odd
    g = rng.standard_normal((2, 2, 3, 3))
    spec = ConvSpec(kernel=(3, 3))
    y = winograd_conv2d(d, g, spec, plan_classic(spec, get_transform))
    assert y.shape == (1, 2, 5, 7)
    np.testing.assert_allclose(y, oracle_conv(d, g, spec), atol=1e-12)


def test_winograd_stride_guard_points_to_dwm():
    rng = np.random.default_rng(5)
    d = rng.standard_normal((1, 1, 8, 8))
    g = rng.standard_normal((1, 1, 3, 3))
    with pytest.raises(ValueError, match="dwm"):
        convolve(d, g, ConvSpec(kernel=(3, 3), stride=(2, 2)), algo="winograd")


def _one_shot_axes2(mat_r, mat_c, x):
    """The two matrix stages of ``_axes2`` over the whole operand."""
    a, b, *rest = x.shape
    p, q = mat_r.shape[0], mat_c.shape[0]
    rows = np.matmul(mat_r, x.reshape(a, -1)).reshape(p, b, -1)
    return np.matmul(mat_c, rows).reshape(p, q, *rest)


# The engines' three transform-domain GEMMs, each followed by ``_axes2``:
# the matrix of that detransform, and whether a or b is a transposed view.
PRODUCT_PATTERNS = {
    "plain": (lambda nt: nt.a_t, False, False),           # forward, At
    "a-transposed": (lambda nt: nt.b_t.T, True, False),   # signal gradient, B of Ut
    "b-transposed": (lambda nt: nt.g.T, False, True),     # weight gradient, Gt of Vt
}


def _draw(rng, shape, exact):
    """Quarter-integer Fractions, or integers plus normal noise."""
    x = rng.integers(-8, 9, size=shape)
    if exact:
        return np.vectorize(lambda v: F(int(v), 4), otypes=[object])(x)
    return x + rng.standard_normal(x.shape)


def _transform_operands(rng, dt):
    """(ts_r, ts_c, mat_r, mat_c, x) for ``_axes2``, of default F(2, 1..3)
    and baseline F(2, <=7) transforms: every matrix the engines hand it on
    contiguous operands and strided kernel sub-blocks, then every
    transform-domain product np.matmul(a, b) the engines detransform, a or
    b transposed as there, including m*n == 1 (a one-element product per
    window point)."""
    exact = dt == object
    numeric = to_exact_arrays if exact else (lambda ts: to_float(ts, dt))
    pick = lambda: (get_baseline_transform(int(rng.integers(1, 8))) if rng.random() < 0.4
                    else get_transform(int(rng.integers(1, 4))))
    cast = (lambda x: x) if exact else (lambda x: x.astype(dt))
    matrices = [lambda nt: nt.g, lambda nt: nt.b_t, lambda nt: nt.a_t, lambda nt: nt.a_t.T]
    for trial in range(8 if exact else 30):
        ts_r, ts_c = pick(), pick()
        matrix = matrices[trial % 4]
        mat_r, mat_c = matrix(numeric(ts_r)), matrix(numeric(ts_c))
        rest = ((1, trial + 1) if trial < 4  # one block: a block is at least 4 wide
                else tuple(int(v) for v in rng.integers(1, 6 if exact else 40, size=2)))
        shape = (mat_r.shape[1], mat_c.shape[1], *rest)
        x = cast(_draw(rng, (2 * shape[0], 2 * shape[1], *rest), exact))
        x = x[1::2, ::2] if trial % 2 else np.ascontiguousarray(x[:shape[0], :shape[1]])
        yield ts_r, ts_c, mat_r, mat_c, x
    for matrix, a_t, b_t in PRODUCT_PATTERNS.values():
        sizes = [(get_transform(3), get_transform(3), 1, k, 1) for k in (1, 5, 64)]
        for _ in range(2 if exact else 5):
            sizes.append((pick(), pick(),
                           *(int(v) for v in rng.integers(1, 3 if exact else 40, size=3))))
        for ts_r, ts_c, m, k, n in sizes:
            def operand(rows, cols, transposed):
                lead = (ts_r.alpha, ts_c.alpha)
                x = cast(_draw(rng, lead + ((cols, rows) if transposed else (rows, cols)), exact))
                return x.transpose(0, 1, 3, 2) if transposed else x
            x = np.matmul(operand(m, k, a_t), operand(k, n, b_t))
            yield ts_r, ts_c, matrix(numeric(ts_r)), matrix(numeric(ts_c)), x
    # kernel transforms with G of F(2, 1), one column, on operands holding
    # -0.0 and +0.0 (as Python floats in the object type), in one block and
    # in several: matmul's float sums start from +0.0, its object sums from
    # the first product
    one, three = get_transform(1), get_transform(3)
    for ts_r, ts_c in ((one, one), (one, three), (three, one)):
        for rest in ((1, 3), (3, 5)):
            x = rng.standard_normal((ts_r.r, ts_c.r, *rest))
            x.reshape(-1)[::3] = -0.0
            x.reshape(-1)[1::5] = 0.0
            yield ts_r, ts_c, numeric(ts_r).g, numeric(ts_c).g, x.astype(dt)


@pytest.mark.parametrize("into_out", [False, True], ids=["new", "out"])
@pytest.mark.parametrize("dt", [np.float32, np.float64, object],
                         ids=["binary32", "binary64", "fraction"])
def test_blocked_transform_has_the_one_shot_bits(monkeypatch, dt, into_out):
    """_axes2 over blocks of the trailing axes equals the one-shot formula
    byte for byte, with the block bytes cut so that small operands span one
    to many blocks, on every operand kind of ``_transform_operands``."""
    block_bytes = 64  # blocks of the least width, 4, on every operand here
    monkeypatch.setattr("dwmconv.engines._STAGE_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(14)
    spanned = set()
    for ts_r, ts_c, mat_r, mat_c, x in _transform_operands(rng, dt):
        want = _one_shot_axes2(mat_r, mat_c, x)
        if into_out:  # into a slice of a larger tap-major array, as the backward does
            whole = np.zeros((want.shape[0] + 1, *want.shape[1:]), dtype=want.dtype)
            got = _axes2(mat_r, mat_c, x, out=whole[1:])
            assert np.shares_memory(got, whole)
        else:
            got = _axes2(mat_r, mat_c, x)
        label = (ts_r.r, ts_r.points, ts_c.r, ts_c.points, x.shape)
        assert got.dtype == want.dtype and got.shape == want.shape, label
        if dt == object:  # repr tells -0.0 from 0.0, and a Fraction from a float
            assert list(map(repr, got.flat)) == list(map(repr, want.flat)), label
        else:
            assert got.tobytes() == want.tobytes(), label
        spanned.add(min(-(-x[0, 0].size // _stage_width(mat_r, mat_c, x, block_bytes)), 2))
    assert spanned == {1, 2}  # one block, and several


def _stage_width(mat_r, mat_c, x, block_bytes=1 << 20):
    """Columns per block of ``_axes2``: its input (a, b), rows (p, b) and
    output (p, q) within ``block_bytes``, at least 4."""
    (p, a), (q, b) = mat_r.shape, mat_c.shape
    itemsize = np.result_type(mat_r, mat_c, x).itemsize
    return max(4, block_bytes // ((a * b + p * b + p * q) * itemsize))


@pytest.mark.parametrize("dt", [np.float32, np.float64], ids=["binary32", "binary64"])
@pytest.mark.parametrize("stage,shape", [
    ("detransform", (4, 4, 64, 784)),      # At m A of F(2, 3), 64 filters of 28x28 tiles
    ("kernel", (3, 3, 384, 256)),          # G g Gt of F(2, 3), AlexNet conv4's weights
    ("detransform-fits", (4, 4, 8, 100)),  # whole working set 175 kB in binary64
], ids=["detransform", "kernel", "detransform-fits"])
def test_transform_blocks_bound_the_whole_working_set(monkeypatch, dt, stage, shape):
    """_axes2 runs ceil(t / width) blocks of two matrix stages each, the
    width set by a 1 MB budget over the block's input, rows and output;
    an operand whose whole working set fits runs in one shot."""
    nt = to_float(get_transform(3), dt)
    mat = nt.g if stage == "kernel" else nt.a_t
    x = np.random.default_rng(28).standard_normal(shape).astype(dt)
    calls = []

    def counted(mat, x, out=None):
        calls.append(x.shape)
        return np.matmul(mat, x, out=out)

    monkeypatch.setattr(engines, "_matmul", counted)
    got = _axes2(mat, mat, x)
    t = x[0, 0].size
    blocks = -(-t // _stage_width(mat, mat, x))
    assert len(calls) == 2 * blocks
    assert (blocks == 1) == (stage == "detransform-fits")
    assert got.tobytes() == _one_shot_axes2(mat, mat, x).tobytes()


@pytest.mark.parametrize("engine", [gemm_conv2d, dwm_conv2d])
def test_stage_budget_leaves_every_engine_bit(monkeypatch, engine):
    """The transform blocks' budget at its least value moves no bit of
    ``dwm_conv2d``, and none of ``gemm_conv2d``, whose im2col blocks keep
    their own budget."""
    rng = np.random.default_rng(29)
    d = rng.standard_normal((2, 8, 12, 12)).astype(np.float32)
    w = rng.standard_normal((4, 8, 5, 5)).astype(np.float32)
    spec = ConvSpec(kernel=(5, 5), pad=(2, 2, 2, 2))
    want = engine(d, w, spec)
    monkeypatch.setattr(engines, "_STAGE_BLOCK_BYTES", 1)
    assert engine(d, w, spec).tobytes() == want.tobytes()


TAP_MAJOR_CASES = {
    # 256 channels: a binary32 filter is 9 kB at 3x3 and 49 kB at 7x7
    "3x3-256": lambda rng: rng.standard_normal((256, 256, 3, 3)).astype(np.float32),
    "7x7-256": lambda rng: rng.standard_normal((256, 256, 7, 7)).astype(np.float32),
    "binary64": lambda rng: rng.standard_normal((64, 32, 5, 5)),
    "view": lambda rng: rng.standard_normal((12, 9, 5, 6)).astype(np.float32)[::2, 1:8, :, ::-1],
    # F*C = 7300 rows against a step of 7281: the last block is partial
    "partial-block": lambda rng: rng.standard_normal((100, 73, 3, 3)).astype(np.float32),
    "no-filters": lambda rng: np.zeros((0, 4, 3, 3), dtype=np.float32),
    "no-channels": lambda rng: np.zeros((4, 0, 3, 3), dtype=np.float32),
    # one 257x257 binary32 row is larger than a block: the step clamps to 1
    "row-beyond-block": lambda rng: rng.standard_normal((2, 1, 257, 257)).astype(np.float32),
}


@pytest.mark.parametrize("case", TAP_MAJOR_CASES)
def test_tap_major_is_the_contiguous_transpose(case):
    w = TAP_MAJOR_CASES[case](np.random.default_rng(16))
    want = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    got = _tap_major(w, w.dtype)
    assert got.flags.c_contiguous and got.dtype == w.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("oh,ow", [(4, 6), (5, 7), (5, 6), (4, 7), (1, 1), (0, 3)])
def test_untile_is_the_cropped_transpose_of_the_tiles(n, oh, ow):
    th, tw = -(-oh // 2), -(-ow // 2)
    tiles = np.arange(2 * 2 * 3 * n * th * tw, dtype=np.float32).reshape(2, 2, 3, n * th * tw)
    grid = tiles.reshape(2, 2, 3, n, th, tw).transpose(3, 2, 4, 0, 5, 1)
    want = np.ascontiguousarray(grid.reshape(n, 3, 2 * th, 2 * tw)[:, :, :oh, :ow])
    got = _untile(tiles, n, oh, ow)
    assert got.flags.c_contiguous and got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_dwm_degenerate_3x3_is_bit_identical_to_winograd():
    rng = np.random.default_rng(6)
    spec = ConvSpec(kernel=(3, 3), pad=(1, 1, 1, 1))
    for dtype in (np.float32, np.float64):
        d = rng.standard_normal((2, 3, 14, 14)).astype(dtype)
        g = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
        via_dwm = dwm_conv2d(d, g, spec)
        via_winograd = winograd_conv2d(d, g, spec, plan_classic(spec, get_transform))
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


@pytest.mark.parametrize("engine", [dwm_conv2d, gemm_conv2d, direct_conv2d],
                         ids=lambda e: e.__name__)
def test_exact_mode_equals_oracle_on_batched_strided_geometry(engine):
    # multiples of 1/4 keep every product and sum of the binary64 oracle exact;
    # batch 2 and C != F make a swapped batch, channel or filter axis show
    spec = ConvSpec(kernel=(5, 4), stride=(2, 3), pad=(1, 2, 0, 3))
    rng = np.random.default_rng(11)
    d = rng.integers(-8, 9, (2, 3, 10, 13)) / 4
    w = rng.integers(-8, 9, (2, 3, 5, 4)) / 4
    exact = np.vectorize(F, otypes=[object])
    y = engine(exact(d), exact(w), spec)
    assert y.dtype == np.dtype(object)
    assert y.tolist() == exact(oracle_conv(d, w, spec)).tolist()


@pytest.mark.parametrize("r", [3, 7, 11])
def test_gemm_binary64_agrees_with_direct_to_rounding(r):
    # the paper14 shapes with fewer channels; only the summation order differs
    spec = ConvSpec(kernel=(r, r), pad=((r - 1) // 2, r // 2) * 2)
    rng = np.random.default_rng(r)
    d = rng.standard_normal((1, 32, 14, 14))
    w = rng.standard_normal((16, 32, r, r))
    y = gemm_conv2d(d, w, spec)
    assert y.shape == (1, 16, 14, 14) and y.dtype == np.float64
    assert np.mean((y - direct_conv2d(d, w, spec)) ** 2) <= 1e-24


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
    assert out_11.flops == flops_dwm(
        plan_classic(spec_11, get_transform), (19, 23)) == 249_704


@pytest.mark.parametrize("algo,build", [("direct", None), ("gemm", None),
                                        ("winograd", plan_classic), ("dwm", plan_decomposition)])
def test_convolve_reports_the_plan_that_ran(algo, build):
    rng = np.random.default_rng(11)
    spec = ConvSpec(kernel=(5, 3), pad=(2, 2, 1, 1))
    d = rng.standard_normal((1, 2, 9, 8))
    g = rng.standard_normal((3, 2, 5, 3))
    out = convolve(d, g, spec, algo=algo)
    if build is None:
        assert out.plan is None
        assert out.flops == flops_direct(spec, out.y.shape[2:])
    else:
        assert out.plan == build(spec)
        assert out.flops == flops_dwm(out.plan, out.y.shape[2:])


@pytest.mark.parametrize("algo,builder,engine", [
    ("winograd", "plan_classic", winograd_conv2d), ("dwm", "plan_decomposition", dwm_conv2d)])
def test_convolve_builds_its_plan_once(monkeypatch, algo, builder, engine):
    rng = np.random.default_rng(12)
    spec = ConvSpec(kernel=(5, 3), pad=(2, 2, 1, 1))
    d = rng.standard_normal((1, 2, 9, 8))
    g = rng.standard_normal((3, 2, 5, 3))
    build, calls = getattr(engines, builder), []
    monkeypatch.setattr(engines, builder, lambda *args: calls.append(args) or build(*args))
    y = convolve(d, g, spec, algo=algo).y
    assert len(calls) == 1
    assert y.tobytes() == engine(d, g, spec).tobytes()


def test_convolve_gemm_is_gemm_conv2d_with_the_direct_count():
    rng = np.random.default_rng(10)
    spec = ConvSpec(kernel=(5, 3), stride=(2, 1), pad=(2, 1, 0, 1))
    d = rng.standard_normal((2, 3, 13, 11))
    g = rng.standard_normal((4, 3, 5, 3))
    for precision in (None, "binary32"):
        out = convolve(d, g, spec, algo="gemm", precision=precision)
        assert out.y.tobytes() == gemm_conv2d(d, g, spec, precision=precision).tobytes()
        assert out.flops == convolve(d, g, spec, algo="direct", precision=precision).flops
    with pytest.raises(ValueError, match="expected direct, gemm, winograd or dwm$"):
        convolve(d, g, spec, algo="im2col")


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
    "gemm_conv2d": lambda d, w, dy, **kw: gemm_conv2d(d, w, SPEC_PAD1, **kw),
    "winograd_conv2d": lambda d, w, dy, **kw: winograd_conv2d(d, w, SPEC_PAD1, **kw),
    "dwm_conv2d": lambda d, w, dy, **kw: dwm_conv2d(d, w, SPEC_PAD1, **kw),
    "convolve-direct": lambda d, w, dy, **kw: convolve(d, w, SPEC_PAD1, algo="direct", **kw),
    "convolve-gemm": lambda d, w, dy, **kw: convolve(d, w, SPEC_PAD1, algo="gemm", **kw),
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


@pytest.mark.parametrize("engine,arg", NAMED_INPUTS)
def test_nan_beside_a_value_beyond_float32_is_named_as_nan(engine, arg):
    # the cast turns 1e300 into Inf too; the message names what the caller passed
    inputs = _named_inputs(arg, np.nan)
    inputs[("data", "weights", "grad_out").index(arg)][0, 0, 0, 0] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{arg} contains NaN or Inf$"):
            NAMED_INPUT_ENGINES[engine](*inputs, precision=np.float32)


def test_inputs_are_checked_data_first():
    # data beyond binary32 is named before a NaN in the weights
    d, w, _ = _named_inputs("data", 1e300)
    w[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="^data does not fit in float32$"):
        dwm_conv2d(d, w, SPEC_PAD1, precision=np.float32)


@pytest.mark.parametrize("precision", [None, np.float32], ids=["own", "binary32"])
@pytest.mark.parametrize("engine", NAMED_INPUT_ENGINES)
def test_nan_data_is_named_before_inf_weights(engine, precision):
    d, w, dy = _named_inputs("data", np.nan)
    w[1, 0, 2, 1] = np.inf
    with pytest.raises(ValueError, match="^data contains NaN or Inf$"):
        NAMED_INPUT_ENGINES[engine](d, w, dy, precision=precision)


@pytest.mark.parametrize("precision", [None, np.float32], ids=["own", "binary32"])
@pytest.mark.parametrize("grad_out", ["nan"])
def test_nan_weights_are_named_before_a_bad_grad_out(grad_out, precision):
    d, w, dy = _named_inputs("weights", np.nan)
    dy[0, 1, 2, 2] = np.nan
    with pytest.raises(ValueError, match="^weights contains NaN or Inf$"):
        NAMED_INPUT_ENGINES["dwm_backward"](d, w, dy, precision=precision)


@pytest.mark.parametrize("precision", [None, np.float32], ids=["own", "binary32"])
@pytest.mark.parametrize("arg", ["data", "weights", "grad_out"])
def test_grad_out_shape_is_checked_before_any_value(monkeypatch, arg, precision):
    # shapes first, as in every engine: a NaN or Inf in any input waits
    # for the grad_out shape, and no weights are copied before it
    d, w, _ = _named_inputs(arg, np.nan if arg == "data" else np.inf)
    dy = np.full((1, 2, 6, 5), np.nan if arg == "grad_out" else 1.0)
    copies = []
    monkeypatch.setattr(engines, "_tap_major", lambda *a: copies.append(a) or _tap_major(*a))
    message = re.escape("grad_out shape (1, 2, 6, 5) != (1, 2, 6, 6)")
    with pytest.raises(ValueError, match=f"^{message}$"):
        NAMED_INPUT_ENGINES["dwm_backward"](d, w, dy, precision=precision)
    with pytest.raises(TypeError, match="^grad_out must be a numpy array, got list$"):
        NAMED_INPUT_ENGINES["dwm_backward"](d, w, dy.tolist(), precision=precision)
    assert copies == []


# (100, 73, 3, 3) binary32 weights: F*C = 7300 rows of 9 taps, against a
# tap-major block step of 7281 rows, so the second block is 19 rows
BLOCK_FAULT_AT = {"first": (0, 0, 0, 0), "last-block": (99, 63, 1, 2)}
BLOCK_ENGINES = ("dwm_conv2d", "dwm_backward")


def _block_inputs(dtype=np.float32):
    return (np.ones((1, 73, 6, 6), dtype=dtype), np.ones((100, 73, 3, 3), dtype=dtype),
            np.ones((1, 100, 6, 6), dtype=dtype))


@pytest.mark.parametrize("where", BLOCK_FAULT_AT)
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("engine", BLOCK_ENGINES)
def test_every_block_of_the_tap_major_copy_is_checked(engine, value, where):
    step = engines._TAP_BLOCK_BYTES // (9 * 4)  # rows per block
    f, c = BLOCK_FAULT_AT[where][:2]
    assert step == 7281 and (f * 73 + c >= step) == (where == "last-block")
    d, w, dy = _block_inputs()
    w[BLOCK_FAULT_AT[where]] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^weights contains NaN or Inf$"):
            NAMED_INPUT_ENGINES[engine](d, w, dy)


@pytest.mark.parametrize("engine", BLOCK_ENGINES)
def test_binary64_weights_beyond_binary32_are_named_in_the_last_block(engine):
    d, w, dy = _block_inputs(np.float64)
    w[BLOCK_FAULT_AT["last-block"]] = 1e39
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^weights does not fit in float32$"):
            NAMED_INPUT_ENGINES[engine](d, w, dy, precision=np.float32)


@pytest.mark.parametrize("first", ["too-large", "nan"])
@pytest.mark.parametrize("engine", ("direct_conv2d", "gemm_conv2d", *BLOCK_ENGINES))
def test_faults_in_two_blocks_are_named_as_the_cast_meets_them(engine, first):
    # a value beyond binary32 in the first tap-major block, a NaN in the
    # last, or the two swapped: the Winograd engines cast and check block by
    # block, so they name the first block's fault; gemm_conv2d casts the
    # whole array, and both faults fall in direct_conv2d's first tile, so
    # they name the NaN in either order
    d, w, dy = _block_inputs(np.float64)
    faults = (1e39, np.nan) if first == "too-large" else (np.nan, 1e39)
    w[BLOCK_FAULT_AT["first"]], w[BLOCK_FAULT_AT["last-block"]] = faults
    fault = ("does not fit in float32" if engine in BLOCK_ENGINES and first == "too-large"
             else "contains NaN or Inf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^weights {fault}$"):
            NAMED_INPUT_ENGINES[engine](d, w, dy, precision=np.float32)


@pytest.mark.parametrize("first", ["too-large", "nan"])
def test_direct_names_the_fault_of_the_first_weight_tile_that_fails(first):
    # the (F, C*r_h*r_w) = (100, 657) view of the weights is cast in tiles of
    # 655 binary32 columns, so tap (72, 2, 2), column 656, is in the second
    d, w, dy = _block_inputs(np.float64)
    assert engines._TAP_BLOCK_BYTES // (100 * 4) == 655
    faults = (1e39, np.nan) if first == "too-large" else (np.nan, 1e39)
    w[0, 0, 0, 0], w[99, 72, 2, 2] = faults
    fault = "does not fit in float32" if first == "too-large" else "contains NaN or Inf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^weights {fault}$"):
            NAMED_INPUT_ENGINES["direct_conv2d"](d, w, dy, precision=np.float32)


@pytest.mark.parametrize("engine", ("winograd_conv2d", *BLOCK_ENGINES))
def test_exact_mode_names_nan_in_float_weights(engine):
    d, w, dy = _named_inputs("weights", np.nan)
    d, dy = (np.vectorize(F, otypes=[object])(x.astype(int)) for x in (d, dy))
    with pytest.raises(ValueError, match="^weights contains NaN or Inf$"):
        NAMED_INPUT_ENGINES[engine](d, w, dy)


ENTRY_MISUSE = {
    "channels": ((1, 2, 6, 6), (2, 3, 3, 3), "channel mismatch: data has 2, weights have 3"),
    "taps": ((1, 2, 6, 6), (2, 2, 5, 5), "weights taps (5, 5) do not match kernel (3, 3)"),
    "3d-data": ((2, 6, 6), (2, 2, 3, 3), "data must have 4 axes (N,C,H,W), got shape (2, 6, 6)"),
}


@pytest.mark.parametrize("misuse", ENTRY_MISUSE)
@pytest.mark.parametrize("engine", NAMED_INPUT_ENGINES)
def test_every_entry_checks_its_inputs_with_one_message(engine, misuse):
    data_shape, weights_shape, message = ENTRY_MISUSE[misuse]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NAMED_INPUT_ENGINES[engine](np.ones(data_shape), np.ones(weights_shape),
                                    np.ones((1, 2, 6, 6)))


@pytest.mark.parametrize("spec,message", [
    (ConvSpec(kernel=(3, 3), stride=(2, 2), pad=(1, 1, 1, 1)), "stride-1 only"),
    (ConvSpec(kernel=(14, 3)), "at most 13 taps per axis"),
], ids=["stride2", "14taps"])
def test_winograd_rejects_what_it_cannot_run(spec, message):
    d, w = np.ones((1, 2, 16, 16)), np.ones((2, 2, *spec.kernel))
    with pytest.raises(ValueError, match=message):
        winograd_conv2d(d, w, spec)


M_IS_NOT_2 = r"^engine produces 2x2 output tiles; transforms must have m == 2$"


@pytest.mark.parametrize("family,message", [
    (lambda r: get_transform(5), r"^transform tap counts must match the axis counts$"),
    (lambda r: cook_toom(3, r), M_IS_NOT_2),
    (lambda r: cook_toom(4, r), M_IS_NOT_2),
], ids=["r5", "m3", "m4"])
def test_plan_classic_rejects_transforms_it_cannot_use(family, message):
    with pytest.raises(ValueError, match=message):
        plan_classic(SPEC_PAD1, family)


@pytest.mark.parametrize("engine", [winograd_conv2d, dwm_conv2d], ids=lambda f: f.__name__)
def test_winograd_engines_refuse_a_plan_for_another_spec(engine):
    d, w = np.ones((1, 2, 8, 8)), np.ones((2, 2, 3, 3))
    with pytest.raises(ValueError, match="^plan was built for a different ConvSpec$"):
        engine(d, w, SPEC_PAD1, plan_classic(ConvSpec(kernel=(3, 3))))


@pytest.mark.parametrize("data,error,message", [
    ([[1.0]], TypeError, "^data must be a numpy array, got list$"),
    (np.ones((1, 2, 8, 8), dtype=np.int32), TypeError,
     "^data must be float32 or float64, got int32$"),
])
def test_dwm_conv2d_refuses_data_that_is_not_a_float_array(data, error, message):
    with pytest.raises(error, match=message):
        dwm_conv2d(data, np.ones((2, 2, 3, 3)), SPEC_PAD1)


def test_dwm_conv2d_refuses_an_integer_precision():
    with pytest.raises(ValueError, match="^unsupported precision "):
        dwm_conv2d(np.ones((1, 2, 8, 8)), np.ones((2, 2, 3, 3)), SPEC_PAD1, precision=np.int32)


PLAN_ENTRIES = {
    "winograd_conv2d": lambda d, w, plan: winograd_conv2d(d, w, SPEC_PAD1, plan),
    "dwm_conv2d": lambda d, w, plan: dwm_conv2d(d, w, SPEC_PAD1, plan),
    "dwm_backward": lambda d, w, plan: dwm_backward(np.ones((1, 2, 8, 8)), plan, d, w),
}


@pytest.mark.parametrize("entry", PLAN_ENTRIES)
def test_a_plan_that_is_no_plan_is_refused_by_name(entry):
    # a TransformSet where the plan goes: the call form before plans, (d, w, spec, ts)
    d, w = np.ones((1, 2, 8, 8)), np.ones((2, 2, 3, 3))
    message = "^plan must be a DecompositionPlan, got TransformSet$"
    with pytest.raises(TypeError, match=message):
        PLAN_ENTRIES[entry](d, w, get_transform(3))


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
    "gemm_conv2d": (lambda: gemm_conv2d(_f32((1, 1, 9, 9), 3e38), _f32((1, 1, 5, 5), 10),
                                        SPEC_5), "gemm_conv2d"),
    # a one-part plan: the engine is named, not its only part
    "winograd_conv2d": (lambda: winograd_conv2d(_f32((1, 1, 9, 9), 3e38),
                                                _f32((1, 1, 5, 5), 10), SPEC_5),
                        "winograd_conv2d"),
    # convolve runs the Winograd body itself, under the public engine's name
    "convolve-winograd": (lambda: convolve(_f32((1, 1, 9, 9), 3e38), _f32((1, 1, 5, 5), 10),
                                           SPEC_5, algo="winograd"), "winograd_conv2d"),
    "convolve-dwm": (lambda: convolve(_f32((1, 1, 9, 9), 3e38), _f32((1, 1, 5, 5), 10),
                                      SPEC_5, algo="dwm"),
                     r"dwm_conv2d part 0 \(kernel rows 0,1,2; cols 0,1,2\)"),
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


@pytest.mark.parametrize("axis", [2, 3])
def test_float32_overflow_in_cropped_tile_entries_raises_nothing(axis):
    # 5 samples and 3 taps give 3 outputs, so the second 2-output tile has one
    # entry past the edge: 2 * 3e38 overflows there, and the crop drops it
    shape = [1, 1, 1, 1]
    shape[axis] = 5
    d = np.zeros(shape, dtype=np.float32)
    d.reshape(-1)[4] = 3e38
    shape[axis] = 3
    w = np.array([0, 2, 0], dtype=np.float32).reshape(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = dwm_conv2d(d, w, ConvSpec(kernel=tuple(shape[2:])))
    np.testing.assert_array_equal(y, np.zeros((1, 1, *shape[2:]), dtype=np.float32))


@pytest.fixture
def to_float_calls(monkeypatch):
    """The transform sets the engines convert, one per call of ``to_float``:
    two per plan part for each run of the part loop."""
    calls, to_float_ = [], engines.to_float
    monkeypatch.setattr(engines, "to_float", lambda ts, dt: calls.append(ts) or to_float_(ts, dt))
    return calls


@pytest.mark.parametrize("entry", ["dwm_conv2d", "dwm_backward"])
@pytest.mark.parametrize("spec", [ConvSpec(kernel=(5, 5), pad=(2, 2, 2, 2)), SPEC_11S4],
                         ids=["5x5", "11x11s4"])
def test_a_successful_call_scans_each_input_block_and_result_once(monkeypatch, to_float_calls,
                                                                  entry, spec):
    """One NaN/Inf scan per data input (data, and grad_out), one per block of
    the tap-major weight copy and one per result (the forward's untiled sum;
    the backward's padded data gradient and tap-major weight gradient), each
    of a contiguous array; none of a partial sum (``check_finite`` or
    ``accumulate``), and no part runs twice."""
    scans, finite = [], engines._finite
    monkeypatch.setattr(engines, "_finite", lambda x: scans.append(x.flags.c_contiguous)
                        or finite(x))
    tensor_scans, tensor_finite = [], tensor._finite
    monkeypatch.setattr(tensor, "_finite", lambda x: tensor_scans.append(x.shape)
                        or tensor_finite(x))
    r_h, r_w = spec.kernel
    monkeypatch.setattr(engines, "_TAP_BLOCK_BYTES", 5 * r_h * r_w * 4)  # 5 of 12 rows a block
    rng = np.random.default_rng(30)
    d = rng.standard_normal((2, 3, 19, 19)).astype(np.float32)
    w = rng.standard_normal((4, 3, r_h, r_w)).astype(np.float32)
    plan = plan_decomposition(spec)
    if entry == "dwm_conv2d":
        dwm_conv2d(d, w, spec, plan)
        want = 1 + 3 + 1
    else:
        dy = rng.standard_normal((2, 4, *spec.out_dims(19, 19))).astype(np.float32)
        dwm_backward(dy, plan, d, w)
        want = 2 + 3 + 2
    assert scans == [True] * want
    assert tensor_scans == []
    assert len(to_float_calls) == 2 * len(plan.parts)


@pytest.mark.parametrize("axis", [2, 3])
def test_float32_overflow_in_cropped_entries_of_a_multi_part_plan_raises_nothing(
        to_float_calls, axis):
    # as in the one-part case, 2 * 3e38 overflows in the entry past the
    # edge of part 0's last tile; the untile crops it before the result
    # scan, so the unchecked pass returns and no rerun runs
    shape = [1, 1, 1, 1]
    shape[axis] = 7
    d = np.zeros(shape, dtype=np.float32)
    d.reshape(-1)[4] = 3e38
    shape[axis] = 5
    w = np.array([0, 2, 0, 0, 0], dtype=np.float32).reshape(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = dwm_conv2d(d, w, ConvSpec(kernel=tuple(shape[2:])))
    np.testing.assert_array_equal(y, np.zeros((1, 1, *(3 if a == axis else 1 for a in (2, 3))),
                                              dtype=np.float32))
    assert len(to_float_calls) == 2 * 2  # two parts, run once


def test_overflow_only_in_the_padding_of_a_part_data_gradient_names_the_part():
    # padded column 1 (left padding) receives dY[0] * w[1] = 4e38 from part
    # 0; every transform-domain value stays finite (at most 2e38), and the
    # unpadded data gradient is zero
    spec = ConvSpec(kernel=(1, 5), pad=(0, 0, 2, 2))
    dy = np.zeros((1, 1, 1, 6), dtype=np.float32)
    dy[..., 0] = 2e38
    w = np.array([0, 2, 0, 0, 0], dtype=np.float32).reshape(1, 1, 1, 5)
    d = np.zeros((1, 1, 1, 6), dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=r"^dwm_backward part 0 \(kernel rows 0; "
                           r"cols 0,1,2\) data gradient produced non-finite values$"):
            dwm_backward(dy, plan_decomposition(spec), d, w)


def test_finite_parts_overflowing_only_in_the_padding_return_the_gradients(to_float_calls):
    # padded column 8 (right padding) sums dY[6] * w[2] from part 0 and
    # dY[5] * w[3] from part 1, 2e38 each; no unpadded element overflows
    spec = ConvSpec(kernel=(1, 4), pad=(0, 0, 2, 2))
    dy = np.zeros((1, 1, 1, 7), dtype=np.float32)
    dy[..., 5:] = 2e38
    w = np.array([0, 0, 1, 1], dtype=np.float32).reshape(1, 1, 1, 4)
    d = np.zeros((1, 1, 1, 6), dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad_d, grad_w = dwm_backward(dy, plan_decomposition(spec), d, w)
    want = np.zeros_like(d)
    want[..., 5] = dy[..., 5] * w[..., 2]  # unpadded column 5 is padded column 7
    assert grad_d.tobytes() == want.tobytes()
    assert grad_w.tobytes() == np.zeros_like(w).tobytes()
    assert len(to_float_calls) == 2 * 2 * 2  # two parts, run twice


def test_a_part_fault_ahead_of_a_partial_sum_overflow_names_the_part(to_float_calls):
    # parts 0 (6e37 x 3) and 2 (2e38) are finite but their sum is not; part
    # 1's output overflows, and it comes first in plan order
    d = np.ones((1, 1, 1, 7), dtype=np.float32)
    w = np.array([6e37, 6e37, 6e37, 3e38, 3e38, 3e38, 2e38], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=r"^dwm_conv2d part 1 \(kernel rows 0; "
                           r"cols 3,4,5\) produced non-finite values$"):
            dwm_conv2d(d, w.reshape(1, 1, 1, 7), ConvSpec(kernel=(1, 7)))
    assert len(to_float_calls) == 2 * 3 + 2 * 2  # all three parts, then the rerun's 0 and 1


@pytest.mark.parametrize("entry", ["dwm_conv2d", "dwm_backward"])
@pytest.mark.parametrize("dt", [np.float32, np.float64], ids=["binary32", "binary64"])
@pytest.mark.parametrize("spec,parts", [
    (ConvSpec(kernel=(3, 3)), 1),
    (ConvSpec(kernel=(5, 5), pad=(2, 2, 2, 2)), 4),
    (SPEC_11S4, 16),
], ids=["3x3", "5x5-same", "11x11s4"])
def test_a_forced_rerun_returns_the_same_bytes(monkeypatch, to_float_calls, entry, dt, spec,
                                               parts):
    """The first result scan is made to fail, so the checked rerun runs and
    returns: its results are those of a call that returns from the first
    pass, byte for byte.  19x19 data give odd outputs (17, 19 and 3), so
    the forward's rerun crops each part."""
    plan = plan_decomposition(spec)
    assert len(plan.parts) == parts
    rng = np.random.default_rng(31)
    d = rng.standard_normal((2, 3, 19, 19)).astype(dt)
    w = rng.standard_normal((4, 3, *spec.kernel)).astype(dt)
    dy = rng.standard_normal((2, 4, *spec.out_dims(19, 19))).astype(dt)
    if entry == "dwm_conv2d":
        run = lambda: (dwm_conv2d(d, w, spec, plan),)
    else:
        run = lambda: dwm_backward(dy, plan, d, w)
    want = run()
    to_float_calls.clear()
    forced, finite = [], engines._finite

    def scan(x):  # fails the first scan after the part loop has begun
        if to_float_calls and not forced:
            forced.append(x.shape)
            return False
        return finite(x)

    monkeypatch.setattr(engines, "_finite", scan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run()
    assert forced
    assert len(to_float_calls) == 4 * parts  # two per part, two passes
    for g, e in zip(got, want, strict=True):
        assert (g.shape, g.dtype) == (e.shape, e.dtype)
        assert g.flags.c_contiguous and g.tobytes() == e.tobytes()


WIDE_11X11 = ConvSpec(kernel=(11, 11))
MEMORY_CASES = {
    "direct_conv2d": (lambda d, w, dy: direct_conv2d(d, w, WIDE_11X11, precision="binary32"),
                      None),
    "winograd_conv2d": (lambda d, w, dy: winograd_conv2d(d, w, WIDE_11X11, precision="binary32"),
                        plan_classic(WIDE_11X11)),
    "dwm_conv2d": (lambda d, w, dy: dwm_conv2d(d, w, WIDE_11X11, precision="binary32"),
                   plan_decomposition(WIDE_11X11)),
    "dwm_backward": (lambda d, w, dy: dwm_backward(dy, plan_decomposition(WIDE_11X11), d, w,
                                                   precision="binary32"),
                     plan_decomposition(WIDE_11X11)),
}


@pytest.mark.parametrize("engine,channels", [
    *(pytest.param(engine, 64, id=engine) for engine in MEMORY_CASES),
    *(pytest.param(engine, 128, id=f"{engine}-128")
      for engine in ("direct_conv2d", "winograd_conv2d", "dwm_conv2d")),
])
def test_binary32_weights_live_once_beside_the_kernel_transform(engine, channels):
    """On float64 inputs computed in binary32, a Winograd engine holds the
    tap-major copy of the weights and the largest part's kernel transform
    U, but neither a binary32 cast of the whole weights beside them nor U's
    half-transformed rows at full size: the traced peak of the call stays
    below those two plus 2 MB (C->C channels, 11x11 taps, 14x14 input).
    ``direct_conv2d`` holds its filters-last copy of the weights and its
    four working buffers, and no whole cast either.

    At 64 channels the whole cast (1.98 MB) would fit in the 2 MB slack;
    at 128 (7.9 MB) it would not.  ``dwm_backward`` runs at 64 only: it
    ends holding two weight copies, the tap-major gradient and its
    transposed return."""
    fn, plan = MEMORY_CASES[engine]
    rng = np.random.default_rng(15)
    d = rng.standard_normal((1, channels, 14, 14))
    w = rng.standard_normal((channels, channels, 11, 11))
    dy = rng.standard_normal((1, channels, 4, 4))
    weights_copy = w.size * 4
    if plan is None:  # data (1, 14, 14, F), sum and product (1, 4, 4F), weight rows (11, 4, F)
        beside = (14 * 14 + 2 * 4 * 4 + 11 * 4) * channels * 4
    else:  # the largest part's U
        points = max(ts_r.alpha * ts_c.alpha for ts_r, ts_c in map(plan.transforms, plan.parts))
        beside = points * channels * channels * 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(d, w, dy)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < weights_copy + beside + (2 << 20), (peak, weights_copy, beside)
