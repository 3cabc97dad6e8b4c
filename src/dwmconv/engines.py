"""Convolution engines: direct (sequential and im2col GEMM), tiled Winograd
F(2, r), and decomposed Winograd; ``convolve`` runs one of them by name.

All engines compute cross-correlation (no kernel flip) over N,C,H,W data
with F,C,r_h,r_w weights.  Every Winograd stage reads and writes the
layout of the transform-domain GEMM (Lavin & Gray, arXiv:1509.09308):
(lr, lc, K, N*TH*TW), window point first, then channel or filter, then
every tile of the batch.

Precision and bit order: every engine runs in the element type of its
tensors, so the binary32 path rounds after each matrix stage; object-dtype
arrays of ``fractions.Fraction`` run the same code exactly (test mode).
A transformed element is a row sum of at most four products, each exact
because F(2, <=3) entries are 0, +-1 or +-1/2, then a column sum, both in
ascending order; a layout that keeps that order keeps the bits, while one
Kronecker product (nine products in one sum) would not.  Every matrix
product sums the same values in the same order as per-part gathers would
(only the operands' layout and the calls' grouping and widths differ,
never a call's M or K), and the aggregation adds are elementwise, in plan
order.  Reductions use fixed orders (ascending channel/tap loops, plan
order, row-major tiles, ascending channel blocks around BLAS), so results
are reproducible run to run.
"""

from dataclasses import dataclass

import numpy as np

from .convspec import ConvSpec
from .decompose import (DecompositionPlan, input_region_for_part, plan_classic,
                        plan_decomposition)
from .flops import flops_direct, flops_dwm
from .tensor import accumulate, check_finite, pad_input, require_tensor4, slice_strided
from .transforms import (NumericTransformSet, TransformSet, precision_dtype, to_exact_arrays,
                         to_float)

_OBJECT = np.dtype(object)


@dataclass(frozen=True)
class ConvOutput:
    """Convolution result, the FLOP model's multiplication count for it, and
    the plan that ran (None for the two direct engines).

    ``flops`` is normalized per channel, per filter and per image, as
    everywhere in ``dwmconv.flops``.
    """

    y: np.ndarray
    flops: int
    plan: DecompositionPlan | None


def _numeric_for(ts: TransformSet, dtype) -> NumericTransformSet:
    if np.dtype(dtype) == _OBJECT:
        return to_exact_arrays(ts)
    return to_float(ts, np.dtype(dtype))


def _cast(x: np.ndarray, dt, name: str) -> np.ndarray:
    """``x`` in element type ``dt``, checked by one NaN/Inf scan: of the
    result, or of ``x`` when ``dt`` is the exact object type.  Only when
    that scan fails is ``x`` scanned again, to tell a NaN or Inf it holds
    from a value beyond ``dt``'s range."""
    if x.dtype == dt:
        y = x
    else:
        with np.errstate(over="ignore"):
            y = x.astype(dt)
    scanned = x if y.dtype == _OBJECT else y
    if scanned.dtype != _OBJECT and not np.isfinite(scanned).all():
        if scanned is x or (x.dtype != _OBJECT and not np.isfinite(x).all()):
            raise ValueError(f"{name} contains NaN or Inf")
        raise ValueError(f"{name} does not fit in {y.dtype}")
    return y


def _checked_inputs(data: np.ndarray, weights: np.ndarray, spec: ConvSpec, precision,
                    default_dtype=None):
    """The prologue every engine shares: check data and weights against
    ``spec``, resolve the element type (from ``precision``, else
    ``default_dtype``, else data's), cast data, then weights, to it with
    one NaN/Inf check each (``_cast``), pad.

    Returns (padded data, weights, output extents).
    """
    require_tensor4(data, "data")
    require_tensor4(weights, "weights")
    if data.shape[1] != weights.shape[1]:
        raise ValueError(
            f"channel mismatch: data has {data.shape[1]}, weights have {weights.shape[1]}")
    if tuple(weights.shape[2:]) != spec.kernel:
        raise ValueError(f"weights taps {weights.shape[2:]} do not match kernel {spec.kernel}")
    out_dims = spec.out_dims(data.shape[2], data.shape[3])
    if precision is not None:
        dt = precision_dtype(precision)
    else:
        dt = data.dtype if default_dtype is None else default_dtype
    d = _cast(data, dt, "data")
    w = _cast(weights, dt, "weights")
    return pad_input(d, spec.pad), w, out_dims


# Operand bytes per block of a matrix stage: im2col columns per channel
# block in ``gemm_conv2d``, half-transformed rows per block in ``_axes2``.
# im2col blocks of 4 MB raised the peak RSS of a one-seed 14x14 accuracy
# sweep by 5 MB over the sequential reference's; at 1 MB it stays within
# 2 MB, for about 10 % more BLAS time at 11x11.
_GEMM_BLOCK_BYTES = 1 << 20


def _axes2(mat_r: np.ndarray, mat_c: np.ndarray, x: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """mat_r over axis 0 of x, then mat_c over axis 1: (a, b, ...) -> (p, q, ...).

    With ``out``, the result is written there; its axes after the first two
    must merge into one without a copy (as in any slice of the first two
    axes of a contiguous array), so that the reshape below is a view.

    The axes after the first two are taken in blocks whose half-transformed
    (p, b, block) rows stay within ``_GEMM_BLOCK_BYTES``; an operand that
    fits in one block runs in one shot.  Every BLAS call keeps the one-shot
    form's M and K, so each element is summed in the same order.  A block
    is at least 2 wide: numpy would run a 1-wide one as a gemv, whose order
    differs.
    """
    a, b, *rest = x.shape
    p, q = mat_r.shape[0], mat_c.shape[0]
    x3 = x.reshape(a, b, -1)
    t = x3.shape[2]
    dt = np.result_type(mat_r, mat_c, x)
    width = max(4, _GEMM_BLOCK_BYTES // (p * b * dt.itemsize))
    blocks = -(-t // width)
    # One shot, rows before the result: allocating the result first left the
    # accuracy sweep's peak RSS 10 MB higher in 3 of 12 runs (glibc heap layout).
    if blocks <= 1:
        rows = np.matmul(mat_r, x.reshape(a, -1)).reshape(p, b, -1)
        if out is None:
            return np.matmul(mat_c, rows).reshape(p, q, *rest)
        np.matmul(mat_c, rows, out=out.reshape(p, q, -1))
        return out
    if out is None:
        out = np.empty((p, q, *rest), dtype=dt)
    y = out.reshape(p, q, -1)
    buf = np.empty((p, b, -(-t // blocks)), dtype=dt)
    for k in range(blocks):  # t1 - t0 >= 2, as t / blocks > width / 2 >= 2
        t0, t1 = k * t // blocks, (k + 1) * t // blocks
        rows = buf[:, :, :t1 - t0]
        np.matmul(mat_r, x3[:, :, t0:t1].transpose(1, 0, 2), out=rows.transpose(1, 0, 2))
        np.matmul(mat_c, rows, out=y[:, :, t0:t1])
    return out


def _taps(x: np.ndarray, lr: int, lc: int, th: int, tw: int) -> np.ndarray:
    """(N, K, H, W) -> (lr, lc, K, N*TH*TW): tap (i, j) of every window
    advancing 2x2 over x, one strided slice copy per tap; taps past x's
    edge are zero."""
    n, k = x.shape[:2]
    xt = x.transpose(1, 0, 2, 3)
    out = np.zeros((lr, lc, k, n, th, tw), dtype=x.dtype)
    for i in range(lr):
        for j in range(lc):
            tap = xt[:, :, i:i + 2 * th:2, j:j + 2 * tw:2]
            out[i, j, :, :, :tap.shape[2], :tap.shape[3]] = tap
    return out.reshape(lr, lc, k, n * th * tw)


def _data_transform(signal: np.ndarray, nt_r: NumericTransformSet,
                    nt_c: NumericTransformSet, th: int, tw: int) -> np.ndarray:
    """Bt d B over the 2x2-advancing (r+1)-wide windows of the signal
    zero-padded to whole tiles: (lr, lc, C, N*TH*TW)."""
    return _axes2(nt_r.b_t, nt_c.b_t, _taps(signal, nt_r.r + 1, nt_c.r + 1, th, tw))


# Bytes of weights per block of the tap-major copy: a block that fits in
# L1 is read once while its transpose is written.
_TAP_BLOCK_BYTES = 32 << 10


def _tap_major(w: np.ndarray) -> np.ndarray:
    """(F, C, r_h, r_w) weights -> contiguous tap-major (r_h, r_w, F, C).

    Where a 32 kB block holds at least one whole filter, the (F*C, r_h*r_w)
    view of contiguous weights is copied transposed one block of rows at a
    time: 256->256 3x3 binary32 weights then take about 35 % less time than
    one filter at a time, and AlexNet conv1 (3 channels) about 85 % less.
    Larger filters are copied one at a time, which for 7x7 and more at 256
    channels is faster than blocks of rows (1.2-1.5x at 9x9 and 11x11) and
    than one transposed copy of the whole tensor (2.7x at 11x11).
    """
    f, c, r_h, r_w = w.shape
    wt = np.empty((r_h, r_w, f, c), dtype=w.dtype)
    step = _TAP_BLOCK_BYTES // (r_h * r_w * w.itemsize)
    if step < max(c, 1) or not w.flags.c_contiguous:
        for fi in range(f):
            wt[:, :, fi] = w[fi].transpose(1, 2, 0)
        return wt
    src, dst = w.reshape(f * c, r_h * r_w), wt.reshape(r_h * r_w, f * c)
    for i in range(0, f * c, step):
        dst[:, i:i + step] = src[i:i + step].T
    return wt


def _part_loop(plan: DecompositionPlan, dt, out_dims: tuple[int, int]):
    """Walk the plan once: per part, its index and the part itself, its
    numeric row and column transforms, its kernel sub-block as a pair of
    slices of the tap-major weights, and its padded-input region as
    ``slice_strided`` (origin, step, count) arguments."""
    for index, part in enumerate(plan.parts):
        (ro, rs, rc), (co, cs, cc) = input_region_for_part(plan, part, out_dims)
        ksel = tuple(slice(a.origin, a.origin + a.step * a.count, a.step)
                     for a in (part.row, part.col))
        yield (index, part, _numeric_for(part.transform_rows, dt),
               _numeric_for(part.transform_cols, dt), ksel, ((ro, co), (rs, cs), (rc, cc)))


def _check_part(x: np.ndarray, engine: str, plan: DecompositionPlan, index: int,
                result: str = "") -> None:
    """check_finite on one part's result, naming the part by index and
    kernel taps when the plan has more than one; the label is formatted
    only when the check fails."""
    if x.dtype != _OBJECT and not np.isfinite(x).all():
        if len(plan.parts) > 1:
            part = plan.parts[index]
            taps = [",".join(str(a.origin + a.step * t) for t in range(a.count))
                    for a in (part.row, part.col)]
            engine = f"{engine} part {index} (kernel rows {taps[0]}; cols {taps[1]})"
        check_finite(x, engine + result)


# Alignment, in bytes, of the direct engine's working buffers: one cache
# line, so that no AVX-512 load or store of the tap loop straddles two.
_ALIGN = 64


def _aligned_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Uninitialised ``np.empty(shape, dtype)`` whose data starts on an
    ``_ALIGN``-byte boundary, as a view of an over-allocated byte buffer
    (numpy starts its own at 16-byte offsets).  Object arrays hold
    pointers, not raw bytes, so they come from a plain ``np.empty``."""
    dt = np.dtype(dtype)
    if dt == _OBJECT:
        return np.empty(shape, dtype=dt)
    raw = np.empty(dt.itemsize * int(np.prod(shape)) + _ALIGN, dtype=np.uint8)
    return np.ndarray(shape, dt, buffer=raw, offset=-raw.ctypes.data % _ALIGN)


def direct_conv2d(data: np.ndarray, weights: np.ndarray, spec: ConvSpec,
                  precision=None) -> np.ndarray:
    """Plain strided correlation; the in-package baseline for everything else.

    Each output element accumulates in a fixed order: channel ascending,
    then kernel row, then kernel column, one product and one add per tap
    in the element type.  The layout is chosen so that both ufuncs of a
    tap run over whole output rows of ow*F contiguous elements:

    * the running sum (and one product buffer) is (N, oh, ow*F), filters
      last;
    * per input channel, the padded channel image is copied, repeated over
      the filters, into one buffer per column phase q = kx mod s_w,
      (N, H_pad, ceil(W_pad / s_w), F), so that the window of tap (ky, kx)
      is a view whose rows are ow*F contiguous elements;
    * the weights are copied once per call to filters-last (C, r_h, r_w, F)
      order, and the cast is dropped; per (channel, kernel row) one buffer
      is filled from that copy with the row's weights repeated over ow,
      (r_w, ow, F).  Filling it from the (F, C, r_h, r_w) weights instead
      gathers each value ow times at a stride of C*r_h*r_w elements.

    These four buffers (running sum, product, data, weights) start on
    64-byte boundaries (``_aligned_empty``): at 11x11 256->256 a tap's
    multiply then takes about half the time.  Neither the layout nor the
    alignment changes any operation or its order.  The data buffer holds
    about N*H_pad*W_pad*F elements: 590 kB for the 11x11 256->256 14x14
    sweep shape in binary32, 13 MB for AlexNet conv1 (224x224, 64 filters);
    the filters-last copy is as large as the weights, and for a call with
    a cast it exists beside the cast until that is dropped.
    """
    dpad, w, out_dims = _checked_inputs(data, weights, spec, precision)
    n, c, h_pad, w_pad = dpad.shape
    f = w.shape[0]
    oh, ow = out_dims
    r_h, r_w = spec.kernel
    s_h, s_w = spec.stride
    dt = dpad.dtype
    wl = np.ascontiguousarray(w.transpose(1, 2, 3, 0))  # (C, r_h, r_w, F)
    del w  # the cast weights, if a cast made them: only the filters-last copy is read
    phases = min(s_w, r_w)  # a stride beyond the kernel leaves column phases unused
    xb = _aligned_empty((phases, n, h_pad, -(-w_pad // s_w), f), dt)
    y = _aligned_empty((n, oh, ow * f), dt)
    y[...] = 0
    prod = _aligned_empty(y.shape, dt)
    wb = _aligned_empty((r_w, ow, f), dt)
    with np.errstate(over="ignore", invalid="ignore"):  # reported once, below
        for ci in range(c):
            for q in range(phases):
                cols = dpad[:, ci, :, q::s_w]
                xb[q, :, :, :cols.shape[2]] = cols[..., None]
            for ky in range(r_h):
                wb[...] = wl[ci, ky, :, None]
                rows = xb[:, :, ky:ky + s_h * oh:s_h]
                for kx in range(r_w):
                    k0 = kx // s_w
                    win = rows[kx % s_w, :, :, k0:k0 + ow].reshape(n, oh, ow * f)  # a view
                    np.multiply(win, wb[kx].reshape(-1), out=prod)
                    np.add(y, prod, out=y)
    y = y.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
    return check_finite(np.ascontiguousarray(y), "direct_conv2d")


def gemm_conv2d(data: np.ndarray, weights: np.ndarray, spec: ConvSpec,
                precision=None) -> np.ndarray:
    """Strided correlation lowered to matrix products (im2col + BLAS).

    Input channels are taken in ascending blocks whose im2col columns,
    (channel, kernel row, kernel column) by (N, oh, ow), stay within about
    1 MB; each block is one matmul against its weights viewed as
    (F, block*r_h*r_w), and the block results are summed in ascending
    order.  The summation order within a block is BLAS's, so results agree
    with direct_conv2d up to rounding (exactly, in the object-dtype mode).
    """
    dpad, w, out_dims = _checked_inputs(data, weights, spec, precision)
    n, c = dpad.shape[:2]
    f = w.shape[0]
    oh, ow = out_dims
    r_h, r_w = spec.kernel
    s_h, s_w = spec.stride
    dt = dpad.dtype
    xt = dpad.transpose(1, 0, 2, 3)
    block = max(1, _GEMM_BLOCK_BYTES // max(1, r_h * r_w * n * oh * ow * dt.itemsize))
    y = None
    with np.errstate(over="ignore", invalid="ignore"):  # reported once, below
        for c0 in range(0, c, block):
            c1 = min(c, c0 + block)
            cols = np.empty((c1 - c0, r_h, r_w, n, oh, ow), dtype=dt)
            for ky in range(r_h):
                for kx in range(r_w):
                    cols[:, ky, kx] = xt[c0:c1, :, ky:ky + s_h * oh:s_h, kx:kx + s_w * ow:s_w]
            k = (c1 - c0) * r_h * r_w
            part = np.matmul(w[:, c0:c1].reshape(f, k), cols.reshape(k, n * oh * ow))
            y = part if y is None else np.add(y, part, out=y)
    if y is None:  # no input channels: the empty sum
        y = np.zeros((f, n * oh * ow), dtype=dt)
    y = y.reshape(f, n, oh, ow).transpose(1, 0, 2, 3)
    return check_finite(np.ascontiguousarray(y), "gemm_conv2d")


def _tile_dims(oh: int, ow: int) -> tuple[int, int]:
    """Tiles per axis, TH x TW, of an oh x ow output cut into 2x2 tiles."""
    return -(-oh // 2), -(-ow // 2)


def _zero_cropped(tiles: np.ndarray, n: int, oh: int, ow: int) -> None:
    """Zero, in place, the entries of (2, 2, F, N*TH*TW) tiles that
    ``_untile`` crops off an odd oh or ow."""
    th, tw = _tile_dims(oh, ow)
    grid = tiles.reshape(2, 2, tiles.shape[2], n, th, tw)
    if oh % 2:
        grid[1, :, :, :, th - 1] = 0
    if ow % 2:
        grid[:, 1, :, :, :, tw - 1] = 0


def _untile(tiles: np.ndarray, n: int, oh: int, ow: int) -> np.ndarray:
    """(2, 2, F, N*TH*TW) tiles -> (N, F, oh, ow), cropping odd extents."""
    th, tw = _tile_dims(oh, ow)
    f = tiles.shape[2]
    y = tiles.reshape(2, 2, f, n, th, tw).transpose(3, 2, 4, 0, 5, 1)
    return np.ascontiguousarray(y.reshape(n, f, 2 * th, 2 * tw)[:, :, :oh, :ow])


def winograd_conv2d(data: np.ndarray, weights: np.ndarray, spec: ConvSpec,
                    ts_rows: TransformSet | None = None, ts_cols: TransformSet | None = None,
                    precision=None) -> np.ndarray:
    """Classic tiled Winograd correlation: one F(2, r) per axis, stride 1 only.

    The row and column transforms default to ``get_transform`` of each
    axis's taps.  Strided convolutions and kernels beyond the point
    sequence are out of this engine's reach; dwm_conv2d runs them.
    """
    return _dwm(data, weights, plan_classic(spec, ts_rows, ts_cols), precision,
                "winograd_conv2d")


def dwm_conv2d(data: np.ndarray, weights: np.ndarray, spec: ConvSpec,
               plan: DecompositionPlan | None = None, precision=None) -> np.ndarray:
    """Decomposed Winograd convolution for any kernel size and stride.

    Pads the input once and copies the weights once to tap-major order;
    each plan part then runs tiled Winograd at stride 1 on a view of its
    kernel sub-block and its strided input slice.  The parts' tiles are
    summed in plan order in the tile layout, and the sum is untiled and
    cropped once.  Equals direct_conv2d up to float rounding (exactly, in
    the object-dtype test mode).
    """
    if plan is None:
        plan = plan_decomposition(spec)
    elif plan.spec != spec:
        raise ValueError("plan was built for a different ConvSpec")
    return _dwm(data, weights, plan, precision, "dwm_conv2d")


def _dwm(data: np.ndarray, weights: np.ndarray, plan: DecompositionPlan, precision,
         engine: str) -> np.ndarray:
    """The Winograd forward body: the checked prologue, then ``plan`` (built
    for the inputs' ConvSpec); overflow messages name ``engine``.

    Each part is a tiled F(2, r) correlation of its stride-1 input slice,
    in the GEMM's tile layout (2, 2, F, N*TH*TW); windows past the slice's
    edge read zeros, and ``_untile`` crops what they feed.
    """
    dpad, w, out_dims = _checked_inputs(data, weights, plan.spec, precision)
    n = dpad.shape[0]
    oh, ow = out_dims
    th, tw = _tile_dims(oh, ow)
    wt = _tap_major(w)
    del w  # the cast weights, if a cast made them: only the tap-major copy is read

    acc = None
    with np.errstate(over="ignore", invalid="ignore"):  # reported per part, below
        for index, _, nt_r, nt_c, ksel, isel in _part_loop(plan, dpad.dtype, out_dims):
            v = _data_transform(slice_strided(dpad, *isel), nt_r, nt_c, th, tw)  # (lr,lc,C,NTT)
            u = _axes2(nt_r.g, nt_c.g, wt[ksel])                       # G g Gt: (lr,lc,F,C)
            m = np.matmul(u, v)                                        # (lr,lc,F,NTT)
            # u and v are freed before the detransform allocates, m before
            # the next part's transforms: with either kept alive longer, one
            # process running two one-seed accuracy sweeps peaked at 221 MB
            # RSS instead of 198 (glibc heap layout; 1 CPU, one BLAS thread).
            del u, v
            tiles = _axes2(nt_r.a_t, nt_c.a_t, m)                      # At m A: (2,2,F,NTT)
            del m
            _zero_cropped(tiles, n, oh, ow)  # so that what the crop drops raises nothing
            _check_part(tiles, engine, plan, index)
            acc = tiles if acc is None else accumulate(acc, tiles)
    return _untile(acc, n, oh, ow)


def _winograd_backward(dm: np.ndarray, signal: np.ndarray, wt: np.ndarray,
                       nt_r: NumericTransformSet, nt_c: NumericTransformSet,
                       oh: int, ow: int):
    """Signal and weight gradients of one part's tiled F(2, r) forward in
    ``_dwm``, given A dY At.

    ``dm`` is A dY At per tile, (lr, lc, F, N*TH*TW); ``wt`` the part's
    tap-major weights (r_r, r_c, F, C), which the weight gradient then
    overwrites.  Signal gradient: B[(A dY At) . (G g Gt)]Bt per tile,
    summed over filters in the transform domain, then scatter-added into
    the overlapping input windows one tap (i, j) at a time with i and j
    descending, so each element receives its tile contributions in
    row-major tile order.  Weight gradient: Gt[(A dY At) . (Bt d B)]G,
    accumulated over tiles and batch in the transform domain.
    """
    n, c = signal.shape[:2]
    p_r, p_c = nt_r.r, nt_c.r
    lr, lc = p_r + 1, p_c + 1
    th, tw = _tile_dims(oh, ow)

    u = _axes2(nt_r.g, nt_c.g, wt)                                    # G g Gt: (lr,lc,F,C)
    m = np.matmul(u.transpose(0, 1, 3, 2), dm)                        # (lr,lc,C,NTT)
    del u  # as in _dwm: freed before the detransform allocates
    dwin = _axes2(nt_r.b_t.T, nt_c.b_t.T, m).reshape(lr, lc, c, n, th, tw)  # B m Bt
    del m
    dsig = np.zeros((c, n, 2 * th + p_r - 1, 2 * tw + p_c - 1), dtype=dm.dtype)
    for i in reversed(range(lr)):
        for j in reversed(range(lc)):
            dsig[:, :, i:i + 2 * th:2, j:j + 2 * tw:2] += dwin[i, j]
    del dwin  # peak memory: free it before the weight gradient's own

    v = _data_transform(signal, nt_r, nt_c, th, tw)                   # (lr,lc,C,NTT)
    m = np.matmul(dm, v.transpose(0, 1, 3, 2))                        # (lr,lc,F,C)
    del v  # as in _dwm: freed before the detransform
    dg = _axes2(nt_r.g.T, nt_c.g.T, m, out=wt)                        # Gt m G
    dsig = dsig.transpose(1, 0, 2, 3)[:, :, :oh + p_r - 1, :ow + p_c - 1]
    return dsig, dg


def dwm_backward(grad_out: np.ndarray, plan: DecompositionPlan, data: np.ndarray,
                 weights: np.ndarray, precision=None) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of dwm_conv2d w.r.t. data and weights.

    Aggregation is a plain sum, so every part receives the whole ``grad_out``
    unchanged; no per-part outputs need to be stored.  The taps of
    ``grad_out`` are built once per call, and A dY At once per distinct
    (row, col) transform pair.  Per-part data gradients scatter back
    through each part's strided input slice and sum.  The parts' kernel
    sub-blocks partition the tap-major copy of the weights, and each part
    overwrites its sub-block with its weight gradient once its kernel
    transform has read it, so the copy ends as the whole weight gradient
    and is transposed back once.  Weights stay in the spatial domain;
    nothing Winograd-transformed persists between calls.
    """
    spec = plan.spec
    require_tensor4(grad_out, "grad_out")
    dpad, w, (oh, ow) = _checked_inputs(data, weights, spec, precision, grad_out.dtype)
    dt = dpad.dtype
    want = (data.shape[0], weights.shape[0], oh, ow)
    if grad_out.shape != want:
        raise ValueError(f"grad_out shape {grad_out.shape} != {want}")
    dy = _taps(_cast(grad_out, dt, "grad_out"), 2, 2, *_tile_dims(oh, ow))  # (2,2,F,NTT)
    wt = _tap_major(w)
    del w  # as in _dwm
    grad_pad = np.zeros_like(dpad)
    dms = {}  # A dY At per (row, col) transform pair, until its last part
    pair = lambda part: (id(part.transform_rows), id(part.transform_cols))
    last = {pair(part): index for index, part in enumerate(plan.parts)}

    with np.errstate(over="ignore", invalid="ignore"):  # reported per part, below
        for index, part, nt_r, nt_c, ksel, isel in _part_loop(plan, dt, (oh, ow)):
            key = pair(part)
            if key not in dms:
                dms[key] = _axes2(nt_r.a_t.T, nt_c.a_t.T, dy)       # (lr,lc,F,NTT)
            dm = dms.pop(key) if last[key] == index else dms[key]
            g_sig, g_w = _winograd_backward(dm, slice_strided(dpad, *isel), wt[ksel],
                                            nt_r, nt_c, oh, ow)
            del dm
            _check_part(g_sig, "dwm_backward", plan, index, " data gradient")
            _check_part(g_w, "dwm_backward", plan, index, " weight gradient")
            slice_strided(grad_pad, *isel)[...] += g_sig

    top, _, left, _ = spec.pad
    h, wd = data.shape[2], data.shape[3]
    grad_d = np.ascontiguousarray(grad_pad[:, :, top:top + h, left:left + wd])
    return check_finite(grad_d, "dwm_backward"), np.ascontiguousarray(wt.transpose(2, 3, 0, 1))


def convolve(data: np.ndarray, weights: np.ndarray, spec: ConvSpec,
             algo: str = "direct", precision=None) -> ConvOutput:
    """Run one convolution by name ("direct", "gemm", "winograd", "dwm")
    through its public engine.  The output carries the plan that ran,
    ``plan_classic`` for "winograd" and ``plan_decomposition`` for "dwm",
    and the FLOP-model count of what ran: ``flops_dwm`` of that plan, or
    ``flops_direct`` for the two direct engines, which run no plan."""
    if algo in ("direct", "gemm"):
        engine = direct_conv2d if algo == "direct" else gemm_conv2d
        y = engine(data, weights, spec, precision=precision)
        return ConvOutput(y=y, flops=flops_direct(spec, y.shape[2:]), plan=None)
    if algo == "winograd":
        plan = plan_classic(spec)
        y = winograd_conv2d(data, weights, spec, precision=precision)
    elif algo == "dwm":
        plan = plan_decomposition(spec)
        y = dwm_conv2d(data, weights, spec, plan, precision)
    else:
        raise ValueError(f"unknown algorithm {algo!r}; expected direct, gemm, winograd or dwm")
    return ConvOutput(y=y, flops=flops_dwm(plan, y.shape[2:]), plan=plan)
