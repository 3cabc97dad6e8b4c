"""The benchmark's own convolution: im2col + one BLAS matrix product.

It shares no code with ``dwmconv``.  In binary64 it is the reference every
forward output is checked against; in binary32 it is the "fastest direct
convolution numpy can do" that the program's engines are compared with.
Convolution is cross-correlation over N,C,H,W data and F,C,kh,kw weights.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def out_dims(hw, kernel, stride, pad) -> tuple[int, int]:
    top, bottom, left, right = pad
    return ((hw[0] + top + bottom - kernel[0]) // stride[0] + 1,
            (hw[1] + left + right - kernel[1]) // stride[1] + 1)


def conv2d(x: np.ndarray, w: np.ndarray, stride, pad, dtype=np.float64,
           block_bytes: int | None = None) -> np.ndarray:
    """Strided, zero-padded correlation computed as im2col columns @ weights.

    ``block_bytes`` caps the size of one im2col block by splitting the input
    channels into groups whose partial products are summed; None builds the
    whole column matrix at once (fastest, most memory).
    """
    n, c, h, wd = x.shape
    f, c_w, kh, kw = w.shape
    if c != c_w:
        raise ValueError(f"channel mismatch: {c} vs {c_w}")
    top, bottom, left, right = pad
    xp = np.zeros((n, c, h + top + bottom, wd + left + right), dtype=dtype)
    xp[:, :, top:top + h, left:left + wd] = x
    wm = w.astype(dtype, copy=False)
    oh, ow = out_dims((h, wd), (kh, kw), stride, pad)

    per_channel = n * kh * kw * oh * ow * np.dtype(dtype).itemsize
    group = c if block_bytes is None else max(1, min(c, block_bytes // per_channel))
    y = None
    for c0 in range(0, c, group):
        c1 = min(c, c0 + group)
        win = sliding_window_view(xp[:, c0:c1], (kh, kw), axis=(2, 3))
        win = win[:, :, :stride[0] * (oh - 1) + 1:stride[0], :stride[1] * (ow - 1) + 1:stride[1]]
        cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, (c1 - c0) * kh * kw, oh * ow)
        part = wm[:, c0:c1].reshape(f, -1) @ cols
        y = part if y is None else y + part
    return y.reshape(n, f, oh, ow)


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> accumulated in binary64."""
    return float(np.dot(a.astype(np.float64, copy=False).ravel(),
                        b.astype(np.float64, copy=False).ravel()))


def abs_inner(a: np.ndarray, b: np.ndarray) -> float:
    """<|a|, |b|>: the magnitude against which rounding in <a, b> is judged."""
    return float(np.dot(np.abs(a.astype(np.float64, copy=False)).ravel(),
                        np.abs(b.astype(np.float64, copy=False)).ravel()))


def mse(y: np.ndarray, ref: np.ndarray) -> float:
    diff = y.astype(np.float64) - ref
    return float(np.mean(diff * diff))


def rel_rms(y: np.ndarray, ref: np.ndarray) -> float:
    """RMS error relative to the RMS of the reference."""
    return float(np.sqrt(mse(y, ref) / max(np.mean(ref * ref), np.finfo(np.float64).tiny)))
