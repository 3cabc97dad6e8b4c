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
from .tensor import _finite, _pad, accumulate, check_finite, require_tensor4
from .transforms import NumericTransformSet, precision_dtype, to_exact_arrays, to_float

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


def _cast(x: np.ndarray, dt, name: str) -> np.ndarray:
    """``x`` in element type ``dt`` (``x`` itself if it has that type),
    checked by one NaN/Inf scan: of the result, or of ``x`` when ``dt`` is
    the exact object type.  Only when that scan fails is ``x`` scanned
    again, to tell a NaN or Inf it holds from a value beyond ``dt``'s
    range.  Every input of every engine is cast and checked here: whole,
    or one block at a time by ``_tap_major`` and ``direct_conv2d``."""
    with np.errstate(over="ignore"):
        y = x.astype(dt, copy=False)
    scanned = x if y.dtype == _OBJECT else y
    if not _finite(scanned):
        if scanned is x or not _finite(x):
            raise ValueError(f"{name} contains NaN or Inf")
        raise ValueError(f"{name} does not fit in {y.dtype}")
    return y


def _checked_inputs(data: np.ndarray, weights: np.ndarray, spec: ConvSpec, precision,
                    grad_out: np.ndarray | None = None):
    """The prologue every engine shares: check data and weights against
    ``spec``, and ``grad_out`` (when given) against the output they make,
    all before any cast; resolve the element type (from ``precision``, else
    ``grad_out``'s, else data's), cast data to it with one NaN/Inf check
    (``_cast``), pad without scanning again (``tensor._pad``).  The caller
    casts the weights next, also through ``_cast``, so that a fault in
    data is named first: ``gemm_conv2d`` whole, the other engines one
    block at a time inside their transposed copy (``direct_conv2d``'s
    filters-last one, ``_tap_major``).

    Returns (padded data, element type, output extents).
    """
    require_tensor4(data, "data")
    require_tensor4(weights, "weights")
    if data.shape[1] != weights.shape[1]:
        raise ValueError(
            f"channel mismatch: data has {data.shape[1]}, weights have {weights.shape[1]}")
    if tuple(weights.shape[2:]) != spec.kernel:
        raise ValueError(f"weights taps {weights.shape[2:]} do not match kernel {spec.kernel}")
    out_dims = spec.out_dims(data.shape[2], data.shape[3])
    if grad_out is not None:
        require_tensor4(grad_out, "grad_out")
        want = (data.shape[0], weights.shape[0], *out_dims)
        if grad_out.shape != want:
            raise ValueError(f"grad_out shape {grad_out.shape} != {want}")
    if precision is not None:
        dt = precision_dtype(precision)
    else:
        dt = (data if grad_out is None else grad_out).dtype
    return _pad(_cast(data, dt, "data"), spec.pad), dt, out_dims


# im2col column bytes per channel block in ``gemm_conv2d``; the blocks fix
# that engine's bits.  Blocks of 4 MB raised the peak RSS of a one-seed
# 14x14 accuracy sweep by 5 MB over the sequential reference's; at 1 MB it
# stays within 2 MB, for about 10 % more BLAS time at 11x11.
_GEMM_BLOCK_BYTES = 1 << 20

# Bytes of one block's whole working set in ``_axes2``: its input, its
# half-transformed rows and its output.  1 MB is half of a 2 MB L2 cache,
# which leaves room for BLAS's packed panels.  Counting the rows alone at
# the same budget let a block reach about 3 MB; bounding all of it cut the
# transform stages of an AlexNet training step by 1 to 2 ms, from 23 to
# 28 ms (binary32, one BLAS thread on a 2-vCPU Xeon, 2 MB of L2 per core).
_STAGE_BLOCK_BYTES = 1 << 20


def _axes2(mat_r: np.ndarray, mat_c: np.ndarray, x: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """mat_r over axis 0 of x, then mat_c over axis 1: (a, b, ...) -> (p, q, ...).

    With ``out``, the result is written there; its axes after the first two
    must merge into one without a copy (as in any slice of the first two
    axes of a contiguous array), so that the reshape below is a view.

    The axes after the first two are taken in blocks whose whole working
    set, input (a, b, block), half-transformed rows (p, b, block) and output
    (p, q, block), stays within ``_STAGE_BLOCK_BYTES``, half of a 2 MB L2
    cache; an operand whose whole working set fits runs in one shot.  Every
    BLAS call keeps the one-shot form's M and K, so each element is summed
    in the same order.  A block is at least 2 wide: numpy would run a
    1-wide one as a gemv, whose order differs.
    """
    a, b, *rest = x.shape
    p, q = mat_r.shape[0], mat_c.shape[0]
    x3 = x.reshape(a, b, -1)
    t = x3.shape[2]
    dt = np.result_type(mat_r, mat_c, x)
    width = max(4, _STAGE_BLOCK_BYTES // ((a * b + p * b + p * q) * dt.itemsize))
    blocks = -(-t // width)
    # One shot, rows before the result: allocating the result first left the
    # accuracy sweep's peak RSS 10 MB higher in 3 of 12 runs (glibc heap layout).
    if blocks <= 1:
        rows = _matmul(mat_r, x.reshape(a, -1)).reshape(p, b, -1)
        if out is None:
            return _matmul(mat_c, rows).reshape(p, q, *rest)
        _matmul(mat_c, rows, out=out.reshape(p, q, -1))
        return out
    if out is None:
        out = np.empty((p, q, *rest), dtype=dt)
    y = out.reshape(p, q, -1)
    buf = np.empty((p, b, -(-t // blocks)), dtype=dt)
    for k in range(blocks):  # t1 - t0 >= 2, as t / blocks > width / 2 >= 2
        t0, t1 = k * t // blocks, (k + 1) * t // blocks
        rows = buf[:, :, :t1 - t0]
        _matmul(mat_r, x3[:, :, t0:t1].transpose(1, 0, 2), out=rows.transpose(1, 0, 2))
        _matmul(mat_c, rows, out=y[:, :, t0:t1])
    return out


def _matmul(mat: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.matmul(mat, x, out=out)``, bit for bit.  A one-column ``mat`` (G
    of F(2, 1)) runs as the broadcast multiply it equals: numpy runs the
    matmul of a (p, 1) by a (1, n) operand without BLAS, about ten times
    slower.  A float product then gets ``+ 0``, as matmul's float sums
    start from zero (so -0.0 ends as +0.0); its object sums start from the
    first product."""
    if mat.shape[1] != 1:
        return np.matmul(mat, x, out=out)
    y = np.multiply(mat, x, out=out)
    return y if y.dtype == _OBJECT else np.add(y, 0, out=y)


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


# Bytes of weights per block of the tap-major copy: medians of 31 copies, ms,
# 256->256 binary32, 1 CPU ("old": per filter over 32 kB, else 32 kB blocks):
#   block              old  32 kB 128 kB 256 kB 512 kB   1 MB
#   11x11             16.9   24.5   17.4   12.9   13.7   20.9
#   sum 3x3 to 11x11  27.8   37.2   27.5   23.6   24.6   32.4
# With each block scanned before its copy, medians of 31, 64 kB to 1 MB:
#   sum 3x3 to 11x11  64 kB 32.8, 128 kB 23.9, 256 kB 22.1, 512 kB 22.4, 1 MB 23.1
# ``direct_conv2d`` casts its filters-last copy in tiles of the same size.
_TAP_BLOCK_BYTES = 256 << 10


def _tap_major(weights: np.ndarray, dt) -> np.ndarray:
    """(F, C, r_h, r_w) weights -> contiguous tap-major (r_h, r_w, F, C) in
    element type ``dt``: the (F*C, r_h*r_w) view of the weights, which
    ``reshape`` copies if it must, cast, checked and copied transposed one
    block of rows (at least one row) at a time, so no cast of the whole
    array exists beside the copy.

    ``_cast`` scans each block for NaN/Inf just before its copy: the
    scan's sequential read brings the block into cache for the copy's
    strided reads, so at 11x11 256->256 binary32 scan and copy together
    took less time than the copy alone (1 CPU).  The first block that
    fails raises, naming the fault ``_cast`` finds in that block (a NaN or
    Inf, or a value beyond ``dt``'s range)."""
    f, c, r_h, r_w = weights.shape
    wt = np.empty((r_h, r_w, f, c), dtype=dt)
    step = max(1, _TAP_BLOCK_BYTES // (r_h * r_w * wt.itemsize))
    src, dst = weights.reshape(f * c, r_h * r_w), wt.reshape(r_h * r_w, f * c)
    for i in range(0, f * c, step):
        dst[:, i:i + step] = _cast(src[i:i + step], dt, "weights").T
    return wt


def _part_loop(plan: DecompositionPlan, dt, out_dims: tuple[int, int]):
    """Walk the plan once: per part, its index and the part itself, its
    numeric row and column transforms (``plan.transforms``), and its
    kernel sub-block and its padded-input region, each as the (rows, cols)
    slices of the spatial axes that index it.  A built plan is checked, so
    neither leaves its array (``input_region_for_part``).  Transforms are
    exact in the object type, else rounded to ``dt`` (``to_float``)."""
    numeric = to_exact_arrays if dt == _OBJECT else lambda ts: to_float(ts, dt)
    for index, part in enumerate(plan.parts):
        ksel = tuple(slice(run.start, run.stop, run.step) for run in part)
        yield (index, part, *map(numeric, plan.transforms(part)), ksel,
               input_region_for_part(part, out_dims))


def _check_part(x: np.ndarray, engine: str, plan: DecompositionPlan, index: int,
                result: str = "") -> None:
    """check_finite on one part's result, naming the part (index and kernel
    taps) if the plan has several; the label is formatted only on failure."""
    if not _finite(x):
        if len(plan.parts) > 1:
            engine = f"{engine} part {index} ({plan.parts[index].label})"
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
    in the element type.  Every buffer keeps the filters last:

    * the running sum (and one product buffer) is (N, oh, ow, F);
    * per input channel, the padded channel image is copied, repeated over
      the filters, into one (N, H_pad, W_pad, F) buffer; the window of tap
      (ky, kx) is a strided view of it, whose rows are ow*F contiguous
      elements at column stride 1 and ow runs of F beyond;
    * the weights are copied once per call to filters-last (C, r_h, r_w, F)
      order; per (channel, kernel row) one buffer is filled from that copy
      with the row's weights repeated over ow, (r_w, ow, F).  Filling it
      from the (F, C, r_h, r_w) weights instead gathers each value ow
      times at a stride of C*r_h*r_w elements.

    These four buffers (running sum, product, data, weights) start on
    64-byte boundaries (``_aligned_empty``): at 11x11 256->256 a tap's
    multiply then takes about half the time.  Neither the layout nor the
    alignment changes any operation or its order.  The data buffer holds
    N*H_pad*W_pad*F elements: 590 kB for the 11x11 256->256 14x14
    sweep shape in binary32, 13 MB for AlexNet conv1 (224x224, 64 filters).
    The filters-last copy is as large as the weights in the element type.
    It is built from column tiles of at most 256 kB of the (F, C*r_h*r_w)
    weights, each cast and checked (``_cast``) and then copied transposed,
    so no cast of the whole weights exists beside it; the first tile that
    fails raises, naming its own fault.
    """
    dpad, dt, out_dims = _checked_inputs(data, weights, spec, precision)
    f, c, r_h, r_w = weights.shape
    n, _, h_pad, w_pad = dpad.shape
    oh, ow = out_dims
    s_h, s_w = spec.stride
    wl = np.empty((c, r_h, r_w, f), dtype=dt)
    step = max(1, _TAP_BLOCK_BYTES // max(1, f * wl.itemsize))  # columns per tile
    src, dst = weights.reshape(f, c * r_h * r_w), wl.reshape(c * r_h * r_w, f)
    for i in range(0, c * r_h * r_w, step):
        dst[i:i + step] = _cast(src[:, i:i + step], dt, "weights").T
    xb = _aligned_empty((n, h_pad, w_pad, f), dt)
    y = _aligned_empty((n, oh, ow, f), dt)
    y[...] = 0
    prod = _aligned_empty(y.shape, dt)
    wb = _aligned_empty((r_w, ow, f), dt)
    # every tap's window and weight row, built once as views that follow the
    # in-place refills below, so the tap loop runs only its multiply and add
    taps = [[(xb[:, ky:ky + s_h * oh:s_h, kx:kx + s_w * ow:s_w], wb[kx])
             for kx in range(r_w)] for ky in range(r_h)]
    with np.errstate(over="ignore", invalid="ignore"):  # reported once, below
        for ci in range(c):
            xb[...] = dpad[:, ci, :, :, None]
            for ky in range(r_h):
                wb[...] = wl[ci, ky, :, None]
                for win, w_row in taps[ky]:
                    np.multiply(win, w_row, prod)
                    np.add(y, prod, y)
    return check_finite(np.ascontiguousarray(y.transpose(0, 3, 1, 2)), "direct_conv2d")


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
    dpad, dt, out_dims = _checked_inputs(data, weights, spec, precision)
    w = _cast(weights, dt, "weights")
    n, c = dpad.shape[:2]
    f = w.shape[0]
    oh, ow = out_dims
    r_h, r_w = spec.kernel
    s_h, s_w = spec.stride
    # (C, r_h, r_w, N, oh, ow): element (ci, ky, kx, ni, oy, ox) is padded
    # data (ni, ci, oy*s_h + ky, ox*s_w + kx), a view
    windows = np.lib.stride_tricks.sliding_window_view(dpad, (r_h, r_w), axis=(2, 3))
    windows = windows[:, :, ::s_h, ::s_w].transpose(1, 4, 5, 0, 2, 3)
    block = max(1, _GEMM_BLOCK_BYTES // max(1, r_h * r_w * n * oh * ow * dt.itemsize))
    y = None
    with np.errstate(over="ignore", invalid="ignore"):  # reported once, below
        for c0 in range(0, c, block):
            c1 = min(c, c0 + block)
            cols = np.ascontiguousarray(windows[c0:c1])
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


def _untile(tiles: np.ndarray, n: int, oh: int, ow: int) -> np.ndarray:
    """(2, 2, F, N*TH*TW) tiles -> (N, F, oh, ow), cropping odd extents:
    the only place a Winograd forward drops the outputs of windows past the
    edge.

    Tile entry (i, j) holds the outputs of rows i::2 and columns j::2, so
    the result is four slice copies, one per tile phase, whose inner loops
    run along whole tile rows (a copy through the 6-axis transpose of the
    tiles runs loops two elements long); an odd extent drops the last tile
    row or column of its phase 1."""
    th, tw = _tile_dims(oh, ow)
    f = tiles.shape[2]
    grid = tiles.reshape(2, 2, f, n, th, tw)
    y = np.empty((n, f, oh, ow), dtype=tiles.dtype)
    for i in range(2):
        for j in range(2):
            phase = grid[i, j, :, :, :(oh + 1 - i) // 2, :(ow + 1 - j) // 2]
            y[:, :, i::2, j::2] = phase.transpose(1, 0, 2, 3)
    return y


def winograd_conv2d(data: np.ndarray, weights: np.ndarray, spec: ConvSpec,
                    plan: DecompositionPlan | None = None, precision=None) -> np.ndarray:
    """Classic tiled Winograd correlation: one F(2, r) per axis, stride 1 only.

    ``plan`` defaults to ``plan_classic(spec)``, the one part that covers
    the whole kernel under ``get_transform``; ``plan_classic(spec,
    transform)`` gives it another transform family.
    Strided convolutions and kernels beyond the point sequence are out of
    this engine's reach (``plan_classic`` refuses them); dwm_conv2d runs
    them.
    """
    return _dwm(data, weights, spec, plan_classic(spec) if plan is None else plan, precision,
                "winograd_conv2d")


def dwm_conv2d(data: np.ndarray, weights: np.ndarray, spec: ConvSpec,
               plan: DecompositionPlan | None = None, precision=None) -> np.ndarray:
    """Decomposed Winograd convolution for any kernel size and stride.

    ``plan`` defaults to ``plan_decomposition(spec)``.  Pads the input once
    and copies the weights once to tap-major order; each plan part then
    runs tiled Winograd at stride 1 on a view of its kernel sub-block and
    its strided input slice.  The parts' tiles are summed in plan order in
    the tile layout, and the sum is untiled and cropped once.  Equals
    direct_conv2d up to float rounding (exactly, in the object-dtype test
    mode).
    """
    return _dwm(data, weights, spec, plan_decomposition(spec) if plan is None else plan,
                precision, "dwm_conv2d")


def _check_plan(plan, spec: ConvSpec | None = None) -> None:
    """Refuse a ``plan`` that is not a DecompositionPlan, or one built for
    another ConvSpec than ``spec`` (when given)."""
    if not isinstance(plan, DecompositionPlan):
        raise TypeError(f"plan must be a DecompositionPlan, got {type(plan).__name__}")
    if spec is not None and plan.spec != spec:
        raise ValueError("plan was built for a different ConvSpec")


def _dwm(data: np.ndarray, weights: np.ndarray, spec: ConvSpec, plan: DecompositionPlan,
         precision, engine: str) -> np.ndarray:
    """The Winograd forward body of both public engines: the checked
    prologue, then ``plan``, which must have been built for ``spec``;
    overflow messages name ``engine``.

    Each part is a tiled F(2, r) correlation of its stride-1 input slice,
    in the GEMM's tile layout (2, 2, F, N*TH*TW); windows past the slice's
    edge read zeros, and ``_untile`` crops what they feed.  Each part's
    tiles go straight from the detransform into ``accumulate``, unchecked,
    and the untiled result is scanned for NaN/Inf once: a non-finite
    partial sum stays non-finite in every later sum, so that scan sees
    every fault outside the cropped entries.  Only when it fails does the
    loop run again, ``checked``, as in ``dwm_backward``: each part is
    untiled, scanned and summed untiled, and each partial sum is scanned,
    so the message names the part, or else the aggregation, that
    overflowed first, and a non-finite value only in cropped entries
    raises nothing.  Either pass adds the same elements in the same order,
    so a rerun that returns returns the same bytes.
    """
    _check_plan(plan, spec)
    dpad, dt, out_dims = _checked_inputs(data, weights, spec, precision)
    wt = _tap_major(weights, dt)
    n = dpad.shape[0]
    oh, ow = out_dims
    th, tw = _tile_dims(oh, ow)

    for checked in (False, True):
        acc = None
        with np.errstate(over="ignore", invalid="ignore"):  # reported by the scans
            for index, _, nt_r, nt_c, ksel, (rows, cols) in _part_loop(plan, dt, out_dims):
                v = _data_transform(dpad[:, :, rows, cols], nt_r, nt_c, th, tw)
                u = _axes2(nt_r.g, nt_c.g, wt[ksel])               # G g Gt: (lr,lc,F,C)
                m = np.matmul(u, v)                                # (lr,lc,F,NTT)
                # u and v are freed before the detransform allocates, m
                # before the next part's transforms: with either kept
                # alive longer, one process running two one-seed accuracy
                # sweeps peaked at 221 MB RSS instead of 198 (glibc heap
                # layout; 1 CPU, one BLAS thread).
                del u, v
                tiles = _axes2(nt_r.a_t, nt_c.a_t, m)              # At m A: (2,2,F,NTT)
                del m
                if checked:
                    tiles = _untile(tiles, n, oh, ow)
                    _check_part(tiles, engine, plan, index)
                acc = tiles if acc is None else accumulate(acc, tiles)
                if checked:  # names a sum of finite parts that overflows
                    check_finite(acc, "accumulate")
        y = acc if checked else _untile(acc, n, oh, ow)
        if checked or _finite(y):
            return y


def dwm_backward(grad_out: np.ndarray, plan: DecompositionPlan, data: np.ndarray,
                 weights: np.ndarray, precision=None) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of dwm_conv2d w.r.t. data and weights.

    Aggregation is a plain sum, so every part receives the whole ``grad_out``
    unchanged; no per-part outputs need to be stored.  The taps of
    ``grad_out`` are built once per call, and A dY At once per (row, col)
    tap-count pair (the plan's family fixes the transforms), kept until
    that pair's last part.  Per part, with G g Gt its kernel transform and
    Bt d B its data transform as in ``_dwm``:

    * data gradient: B[(A dY At) . (G g Gt)]Bt per tile, summed over
      filters in the transform domain, then scatter-added into the
      overlapping windows of the part's input slice one tap (i, j) at a
      time with i and j descending, so each element receives its tile
      contributions in row-major tile order; the parts' data gradients
      then add into the padded input through their strided slices;
    * weight gradient: Gt[(A dY At) . (Bt d B)]G, accumulated over tiles
      and batch in the transform domain.

    The parts' kernel sub-blocks partition the tap-major copy of the
    weights, and each part overwrites its sub-block with its weight
    gradient once its kernel transform has read it, so the copy ends as the
    whole weight gradient and is transposed back once.  Weights stay in the
    spatial domain; nothing Winograd-transformed persists between calls.

    The two results are scanned for NaN/Inf once each, whole and
    contiguous, before the copies that are returned: the padded data
    gradient and the tap-major weight gradient.  Only when either scan
    fails does the loop run again, ``checked``, over a fresh tap-major
    copy: each part's data and weight gradients are then scanned as they
    are made, naming the part, and last the unpadded data gradient, so a
    sum that overflows only in the padding raises nothing.
    """
    _check_plan(plan)
    spec = plan.spec
    dpad, dt, (oh, ow) = _checked_inputs(data, weights, spec, precision, grad_out)
    wt = _tap_major(weights, dt)
    n, c = dpad.shape[:2]
    th, tw = _tile_dims(oh, ow)
    dy = _taps(_cast(grad_out, dt, "grad_out"), 2, 2, th, tw)            # (2,2,F,NTT)
    pair = lambda part: (len(part.row), len(part.col))
    last = {pair(part): index for index, part in enumerate(plan.parts)}

    for checked in (False, True):
        if checked:  # the first pass wrote its weight gradient over the copy
            wt = _tap_major(weights, dt)
        grad_pad = np.zeros_like(dpad)
        dms = {}  # A dY At per (row, col) tap-count pair, until its last part
        with np.errstate(over="ignore", invalid="ignore"):  # reported by the scans
            for index, part, nt_r, nt_c, ksel, (rows, cols) in _part_loop(plan, dt, (oh, ow)):
                key = pair(part)
                if key not in dms:
                    dms[key] = _axes2(nt_r.a_t.T, nt_c.a_t.T, dy)   # (lr,lc,F,NTT)
                dm = dms.pop(key) if last[key] == index else dms[key]
                lr, lc = nt_r.r + 1, nt_c.r + 1
                u = _axes2(nt_r.g, nt_c.g, wt[ksel])                    # G g Gt: (lr,lc,F,C)
                m = np.matmul(u.transpose(0, 1, 3, 2), dm)              # (lr,lc,C,NTT)
                del u  # as in _dwm: freed before the detransform allocates
                dwin = _axes2(nt_r.b_t.T, nt_c.b_t.T, m).reshape(lr, lc, c, n, th, tw)
                del m
                g_sig = np.zeros((c, n, 2 * th + lr - 2, 2 * tw + lc - 2), dtype=dt)
                for i in reversed(range(lr)):
                    for j in reversed(range(lc)):
                        g_sig[:, :, i:i + 2 * th:2, j:j + 2 * tw:2] += dwin[i, j]
                del dwin  # peak memory: free it before the weight gradient's own

                v = _data_transform(dpad[:, :, rows, cols], nt_r, nt_c, th, tw)
                m = np.matmul(dm, v.transpose(0, 1, 3, 2))              # (lr,lc,F,C)
                del v  # as in _dwm: freed before the detransform
                g_w = _axes2(nt_r.g.T, nt_c.g.T, m, out=wt[ksel])       # Gt m G
                del m, dm
                g_sig = g_sig.transpose(1, 0, 2, 3)[:, :, :oh + lr - 2, :ow + lc - 2]
                if checked:
                    _check_part(g_sig, "dwm_backward", plan, index, " data gradient")
                    _check_part(g_w, "dwm_backward", plan, index, " weight gradient")
                grad_pad[:, :, rows, cols] += g_sig
                del g_sig
        if checked or (_finite(grad_pad) and _finite(wt)):
            break

    top, _, left, _ = spec.pad
    h, wd = data.shape[2], data.shape[3]
    grad_d = np.ascontiguousarray(grad_pad[:, :, top:top + h, left:left + wd])
    if checked:  # finite parts can still sum to an overflow
        check_finite(grad_d, "dwm_backward")
    return grad_d, np.ascontiguousarray(wt.transpose(2, 3, 0, 1))


def convolve(data: np.ndarray, weights: np.ndarray, spec: ConvSpec,
             algo: str = "direct", precision=None) -> ConvOutput:
    """Run one convolution by name ("direct", "gemm", "winograd", "dwm")
    with its public engine.  "winograd" and "dwm" get the plan the output
    carries, ``plan_classic`` or ``plan_decomposition``, built once.  The
    output also carries the FLOP-model count of what ran: ``flops_dwm`` of
    that plan, or ``flops_direct`` for the two direct engines, which run no
    plan."""
    runs = {"direct": (direct_conv2d, None), "gemm": (gemm_conv2d, None),
            "winograd": (winograd_conv2d, plan_classic), "dwm": (dwm_conv2d, plan_decomposition)}
    if algo not in runs:
        raise ValueError(f"unknown algorithm {algo!r}; expected direct, gemm, winograd or dwm")
    engine, build = runs[algo]
    if build is None:
        y = engine(data, weights, spec, precision=precision)
        return ConvOutput(y=y, flops=flops_direct(spec, y.shape[2:]), plan=None)
    plan = build(spec)
    y = engine(data, weights, spec, plan, precision)
    return ConvOutput(y=y, flops=flops_dwm(plan, y.shape[2:]), plan=plan)
