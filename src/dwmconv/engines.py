"""Convolution engines: direct, tiled Winograd F(2, r), and decomposed Winograd.

All engines compute cross-correlation (no kernel flip) over N,C,H,W data
with F,C,r_h,r_w weights and agree with each other up to float rounding.

The decomposed path (``dwm_conv2d``) runs five steps per kernel part:
splitting (strided gathers of kernel and padded input), transformation,
elementwise calculation with channel summation in the transform domain,
detransformation, and aggregation of the part outputs in plan order.

Every Winograd stage reads and writes the layout of the transform-domain
GEMM (Lavin & Gray, arXiv:1509.09308): (lr, lc, K, N*TH*TW), window point
first, then channel or filter, then every tile of the batch.  Each
transform is two small matmuls over the two leading axes (``_axes2``).

Precision notes: every engine runs in the element type of its tensors, so
the binary32 path rounds after each matrix stage; passing object-dtype
arrays of ``fractions.Fraction`` runs the same code exactly (test mode).
A transformed element is a row sum of at most four products, each exact
because F(2, <=3) entries are 0, +-1 or +-1/2, then a column sum, both in
ascending order; a layout that keeps that order keeps the bits, while one
Kronecker product (nine products in one sum) would not.  Reductions use
fixed orders (ascending channel/tap loops, plan order, row-major tiles) so
results are reproducible run to run.  The backward pass scatters each
part's signal gradient tap by tap in descending tap order, so every
element still receives its tile contributions in row-major tile order.
"""

from dataclasses import dataclass

import numpy as np

from .convspec import ConvSpec
from .decompose import DecompositionPlan, input_region_for_part, plan_decomposition
from .flops import flops_direct, flops_dwm, flops_winograd_classic
from .tensor import accumulate, check_finite, pad_input, require_tensor4, slice_strided
from .transforms import (POINT_SEQUENCE, NumericTransformSet, TransformSet, get_transform,
                         precision_dtype, to_exact_arrays, to_float)

_OBJECT = np.dtype(object)


@dataclass(frozen=True)
class ConvOutput:
    """Convolution result plus the FLOP model's multiplication count for it.

    ``flops`` is normalized per channel, per filter and per image, as
    everywhere in ``dwmconv.flops``.
    """

    y: np.ndarray
    flops: int


def _resolve_dtype(data: np.ndarray, precision):
    if precision is None:
        return data.dtype
    return precision_dtype(precision)


def _numeric_for(ts: TransformSet, dtype) -> NumericTransformSet:
    if np.dtype(dtype) == _OBJECT:
        return to_exact_arrays(ts)
    return to_float(ts, np.dtype(dtype))


def _require_finite(x: np.ndarray, name: str):
    if x.dtype != _OBJECT and not np.isfinite(x).all():
        raise ValueError(f"{name} contains NaN or Inf")


def _cast(x: np.ndarray, dt, name: str) -> np.ndarray:
    """``x`` in element type ``dt``; the inputs are finite by then, so a
    non-finite value after the cast is a value beyond ``dt``'s range."""
    if x.dtype == dt:
        return x
    with np.errstate(over="ignore"):
        y = x.astype(dt)
    if y.dtype != _OBJECT and not np.isfinite(y).all():
        raise ValueError(f"{name} does not fit in {y.dtype}")
    return y


def _check_pair(data: np.ndarray, weights: np.ndarray, kernel: tuple[int, int]):
    require_tensor4(data, "data")
    require_tensor4(weights, "weights")
    if data.shape[1] != weights.shape[1]:
        raise ValueError(
            f"channel mismatch: data has {data.shape[1]}, weights have {weights.shape[1]}")
    if tuple(weights.shape[2:]) != kernel:
        raise ValueError(f"weights taps {weights.shape[2:]} do not match kernel {kernel}")
    _require_finite(data, "data")
    _require_finite(weights, "weights")


def _axes2(mat_r: np.ndarray, mat_c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat_r over axis 0 of x, then mat_c over axis 1: (a, b, ...) -> (p, q, ...)."""
    a, b, *rest = x.shape
    p, q = mat_r.shape[0], mat_c.shape[0]
    rows = np.matmul(mat_r, x.reshape(a, -1)).reshape(p, b, -1)
    return np.matmul(mat_c, rows).reshape(p, q, *rest)


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


def _part_loop(plan: DecompositionPlan, dt, out_dims: tuple[int, int]):
    """Walk the plan once: per part, its numeric row and column transforms,
    its kernel sub-block and its padded-input region, both as
    ``slice_strided`` (origin, step, count) arguments, and a label naming
    the part by index and kernel taps for error messages."""
    for index, part in enumerate(plan.parts):
        row, col = part.row, part.col
        (ro, rs, rc), (co, cs, cc) = input_region_for_part(plan, part, out_dims)
        taps = [",".join(str(a.origin + a.step * t) for t in range(a.count)) for a in (row, col)]
        yield (_numeric_for(part.transform_rows, dt), _numeric_for(part.transform_cols, dt),
               ((row.origin, col.origin), (row.step, col.step), (row.count, col.count)),
               ((ro, co), (rs, cs), (rc, cc)),
               f"part {index} (kernel rows {taps[0]}; cols {taps[1]})")


def direct_conv2d(data: np.ndarray, weights: np.ndarray, spec: ConvSpec,
                  precision=None) -> np.ndarray:
    """Plain strided correlation; the in-package baseline for everything else.

    Each output element accumulates in a fixed order: channel ascending,
    then kernel row, then kernel column.
    """
    _check_pair(data, weights, spec.kernel)
    dt = _resolve_dtype(data, precision)
    d, w = _cast(data, dt, "data"), _cast(weights, dt, "weights")
    dpad = pad_input(d, spec.pad)
    n, c, _, _ = d.shape
    f = w.shape[0]
    r_h, r_w = spec.kernel
    s_h, s_w = spec.stride
    oh, ow = spec.out_dims(d.shape[2], d.shape[3])
    y = np.zeros((n, f, oh, ow), dtype=dt)
    with np.errstate(over="ignore", invalid="ignore"):  # reported once, below
        for ci in range(c):
            for ky in range(r_h):
                for kx in range(r_w):
                    window = dpad[:, ci, ky:ky + s_h * oh:s_h, kx:kx + s_w * ow:s_w]
                    y += w[:, ci, ky, kx][None, :, None, None] * window[:, None, :, :]
    return check_finite(y, "direct_conv2d")


def _winograd_forward(signal: np.ndarray, weights: np.ndarray,
                      nt_r: NumericTransformSet, nt_c: NumericTransformSet) -> np.ndarray:
    """Tiled F(2, r) correlation of a stride-1 signal.

    Output is cut into 2x2 tiles, each computed from an (r+1) x (r+1)
    window advancing by 2; channel contributions are summed in the
    transform domain, then one detransform runs per tile.  Odd output
    extents are handled by zero-padding the signal to the next even
    extent and truncating the result.
    """
    n, c, sh, sw = signal.shape
    f = weights.shape[0]
    p_r, p_c = nt_r.r, nt_c.r
    oh, ow = sh - p_r + 1, sw - p_c + 1
    if oh < 1 or ow < 1:
        raise ValueError(f"signal {sh}x{sw} too small for taps {p_r}x{p_c}")
    th, tw = -(-oh // 2), -(-ow // 2)

    v = _data_transform(signal, nt_r, nt_c, th, tw)                 # (lr,lc,C,NTT)
    u = _axes2(nt_r.g, nt_c.g, weights.transpose(2, 3, 0, 1))       # G g Gt: (lr,lc,F,C)
    tiles = _axes2(nt_r.a_t, nt_c.a_t, np.matmul(u, v))             # At m A: (2,2,F,NTT)
    y = tiles.reshape(2, 2, f, n, th, tw).transpose(3, 2, 4, 0, 5, 1)
    return np.ascontiguousarray(y.reshape(n, f, 2 * th, 2 * tw)[:, :, :oh, :ow])


def winograd_conv2d(data: np.ndarray, weights: np.ndarray, ts: TransformSet,
                    ts_cols: TransformSet | None = None, precision=None) -> np.ndarray:
    """Classic tiled Winograd correlation, stride 1 only.

    ``data`` must already carry any zero padding.  Rectangular kernels use
    separate row/column transforms (``ts_cols`` defaults to ``ts``).
    Strided convolutions are out of this engine's reach; decompose them
    with a plan and use dwm_conv2d.
    """
    tsc = ts_cols if ts_cols is not None else ts
    _check_pair(data, weights, (ts.r, tsc.r))
    if ts.m != 2 or tsc.m != 2:
        raise ValueError("engine produces 2x2 output tiles; transforms must have m == 2")
    dt = _resolve_dtype(data, precision)
    with np.errstate(over="ignore", invalid="ignore"):  # reported once, below
        y = _winograd_forward(_cast(data, dt, "data"), _cast(weights, dt, "weights"),
                              _numeric_for(ts, dt), _numeric_for(tsc, dt))
    return check_finite(y, "winograd_conv2d")


def dwm_conv2d(data: np.ndarray, weights: np.ndarray, spec: ConvSpec,
               plan: DecompositionPlan | None = None, precision=None) -> np.ndarray:
    """Decomposed Winograd convolution for any kernel size and stride.

    Pads the input once, then for each plan part gathers the kernel
    sub-block and the matching strided input slice, runs the tiled
    Winograd engine at stride 1, and aggregates part outputs in plan
    order.  Equals direct_conv2d up to float rounding (exactly, in the
    object-dtype test mode).
    """
    _check_pair(data, weights, spec.kernel)
    if plan is None:
        plan = plan_decomposition(spec)
    elif plan.spec != spec:
        raise ValueError("plan was built for a different ConvSpec")
    dt = _resolve_dtype(data, precision)
    w = _cast(weights, dt, "weights")
    dpad = pad_input(_cast(data, dt, "data"), spec.pad)
    oh, ow = spec.out_dims(data.shape[2], data.shape[3])

    acc = None
    with np.errstate(over="ignore", invalid="ignore"):  # reported per part, below
        for nt_r, nt_c, ksel, isel, label in _part_loop(plan, dt, (oh, ow)):
            y_part = _winograd_forward(slice_strided(dpad, *isel), slice_strided(w, *ksel),
                                       nt_r, nt_c)
            check_finite(y_part, f"dwm_conv2d {label}")
            acc = y_part if acc is None else accumulate(acc, y_part)
    return acc


def _winograd_backward(grad_out: np.ndarray, signal: np.ndarray, weights: np.ndarray,
                       nt_r: NumericTransformSet, nt_c: NumericTransformSet):
    """Signal and weight gradients of _winograd_forward from one A dY At per tile.

    Signal gradient: B[(A dY At) . (G g Gt)]Bt per tile, summed over filters
    in the transform domain, then scatter-added into the overlapping input
    windows one tap (i, j) at a time with i and j descending, so each
    element receives its tile contributions in row-major tile order.
    Weight gradient: Gt[(A dY At) . (Bt d B)]G, accumulated over tiles and
    batch in the transform domain.
    """
    n, _, oh, ow = grad_out.shape
    c = signal.shape[1]
    p_r, p_c = nt_r.r, nt_c.r
    lr, lc = p_r + 1, p_c + 1
    th, tw = -(-oh // 2), -(-ow // 2)
    dy = _taps(grad_out, 2, 2, th, tw)                                 # (2,2,F,NTT)
    dm = _axes2(nt_r.a_t.T, nt_c.a_t.T, dy)                           # A dY At: (lr,lc,F,NTT)

    u = _axes2(nt_r.g, nt_c.g, weights.transpose(2, 3, 1, 0))         # G g Gt: (lr,lc,C,F)
    dwin = _axes2(nt_r.b_t.T, nt_c.b_t.T, np.matmul(u, dm))           # B (.) Bt: (lr,lc,C,NTT)
    dwin = dwin.reshape(lr, lc, c, n, th, tw)
    dsig = np.zeros((c, n, 2 * th + p_r - 1, 2 * tw + p_c - 1), dtype=grad_out.dtype)
    for i in reversed(range(lr)):
        for j in reversed(range(lc)):
            dsig[:, :, i:i + 2 * th:2, j:j + 2 * tw:2] += dwin[i, j]
    del u, dwin  # peak memory: free these before the weight gradient's own

    v = _data_transform(signal, nt_r, nt_c, th, tw)                   # (lr,lc,C,NTT)
    dg = _axes2(nt_r.g.T, nt_c.g.T, np.matmul(dm, v.transpose(0, 1, 3, 2)))  # Gt (.) G
    dsig = dsig.transpose(1, 0, 2, 3)[:, :, :oh + p_r - 1, :ow + p_c - 1]
    return dsig, dg.transpose(2, 3, 0, 1)


def dwm_backward(grad_out: np.ndarray, plan: DecompositionPlan, data: np.ndarray,
                 weights: np.ndarray, precision=None) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of dwm_conv2d w.r.t. data and weights.

    Aggregation is a plain sum, so every part receives the whole ``grad_out``
    unchanged; no per-part outputs need to be stored.  Per-part data
    gradients scatter back through each part's strided input slice and sum;
    per-part weight gradients land in disjoint kernel sub-blocks, so the
    weight gradient is assembled by placement.  Weights stay in the spatial
    domain; nothing Winograd-transformed persists between calls.
    """
    spec = plan.spec
    _check_pair(data, weights, spec.kernel)
    require_tensor4(grad_out, "grad_out")
    oh, ow = spec.out_dims(data.shape[2], data.shape[3])
    n, _, _, _ = data.shape
    f = weights.shape[0]
    if grad_out.shape != (n, f, oh, ow):
        raise ValueError(f"grad_out shape {grad_out.shape} != {(n, f, oh, ow)}")
    _require_finite(grad_out, "grad_out")

    dt = _resolve_dtype(grad_out, precision)
    gout = _cast(grad_out, dt, "grad_out")
    w = _cast(weights, dt, "weights")
    dpad = pad_input(_cast(data, dt, "data"), spec.pad)
    grad_pad = np.zeros_like(dpad)
    grad_w = np.zeros_like(w)

    with np.errstate(over="ignore", invalid="ignore"):  # reported per part, below
        for nt_r, nt_c, ksel, isel, label in _part_loop(plan, dt, (oh, ow)):
            g_sig, g_w = _winograd_backward(gout, slice_strided(dpad, *isel),
                                            slice_strided(w, *ksel), nt_r, nt_c)
            check_finite(g_sig, f"dwm_backward {label} data gradient")
            check_finite(g_w, f"dwm_backward {label} weight gradient")
            slice_strided(grad_pad, *isel)[...] += g_sig
            slice_strided(grad_w, *ksel)[...] = g_w

    top, _, left, _ = spec.pad
    h, wd = data.shape[2], data.shape[3]
    grad_d = np.ascontiguousarray(grad_pad[:, :, top:top + h, left:left + wd])
    return check_finite(grad_d, "dwm_backward"), grad_w


def convolve(data: np.ndarray, weights: np.ndarray, spec: ConvSpec,
             algo: str = "direct", precision=None,
             plan: DecompositionPlan | None = None) -> ConvOutput:
    """Run one convolution by name ("direct", "winograd", "dwm") with its FLOP-model count."""
    if algo == "direct":
        y = direct_conv2d(data, weights, spec, precision=precision)
        return ConvOutput(y=y, flops=flops_direct(spec, y.shape[2:]))
    if algo == "winograd":
        if spec.stride != (1, 1):
            raise ValueError(
                "classic Winograd is stride-1 only; use --algo dwm for strided convolutions")
        if max(spec.kernel) > len(POINT_SEQUENCE):
            raise ValueError(
                f"classic Winograd supports at most {len(POINT_SEQUENCE)} taps per axis, "
                f"got kernel {spec.kernel}; use --algo dwm for larger kernels")
        _check_pair(data, weights, spec.kernel)
        dt = _resolve_dtype(data, precision)
        dpad = pad_input(_cast(data, dt, "data"), spec.pad)
        ts_r, ts_c = get_transform(spec.kernel[0]), get_transform(spec.kernel[1])
        y = winograd_conv2d(dpad, weights, ts_r, ts_c)
        return ConvOutput(y=y, flops=flops_winograd_classic(spec, y.shape[2:], ts_r, ts_c))
    if algo == "dwm":
        if plan is None:
            plan = plan_decomposition(spec)
        y = dwm_conv2d(data, weights, spec, plan=plan, precision=precision)
        return ConvOutput(y=y, flops=flops_dwm(plan, y.shape[2:]))
    raise ValueError(f"unknown algorithm {algo!r}; expected direct, winograd or dwm")
