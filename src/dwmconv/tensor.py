"""Dense 4-D tensor helpers in N,C,H,W row-major layout.

Tensors are plain numpy arrays with four axes and element type float32
(binary32) or float64 (binary64).  Operations are pure: inputs are never
mutated and every float result is checked to be finite.  Arrays of dtype
``object`` (exact rationals) are also accepted so the convolution engines
can run an exact-arithmetic test mode; finiteness checks apply to float
data only.
"""

import numpy as np

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def require_tensor4(x, name: str = "tensor") -> np.ndarray:
    """Validate an N,C,H,W array and return it unchanged."""
    if not isinstance(x, np.ndarray):
        raise TypeError(f"{name} must be a numpy array, got {type(x).__name__}")
    if x.ndim != 4:
        raise ValueError(f"{name} must have 4 axes (N,C,H,W), got shape {x.shape}")
    if x.dtype not in FLOAT_DTYPES and x.dtype != np.dtype(object):
        raise TypeError(f"{name} must be float32 or float64, got {x.dtype}")
    return x


def check_finite(x: np.ndarray, op: str) -> np.ndarray:
    if x.dtype in FLOAT_DTYPES and not np.isfinite(x).all():
        raise FloatingPointError(f"{op} produced non-finite values")
    return x


def pad_input(d: np.ndarray, pad: tuple[int, int, int, int]) -> np.ndarray:
    """Zero-pad the spatial axes by (top, bottom, left, right)."""
    require_tensor4(d)
    top, bottom, left, right = (int(p) for p in pad)
    if min(top, bottom, left, right) < 0:
        raise ValueError(f"pad values must be non-negative, got {pad}")
    n, c, h, w = d.shape
    out = np.zeros((n, c, h + top + bottom, w + left + right), dtype=d.dtype)
    out[:, :, top:top + h, left:left + w] = d
    return check_finite(out, "pad_input")


def slice_strided(d: np.ndarray, origin: tuple[int, int], step: tuple[int, int],
                  count: tuple[int, int]) -> np.ndarray:
    """Strided spatial sampling: out[..., i, j] = d[..., o_r + i*s_r, o_c + j*s_c].

    The result is a view into ``d``: reading it gathers a strided region,
    writing into it scatters back into the same elements of ``d``.
    """
    require_tensor4(d)
    names = ("row", "col")
    for axis in range(2):
        o, s, cnt = origin[axis], step[axis], count[axis]
        if o < 0 or cnt < 1 or s < 1:
            raise ValueError(f"bad {names[axis]} sampling: origin {o}, step {s}, count {cnt}")
        last = o + s * (cnt - 1)
        extent = d.shape[2 + axis]
        if last >= extent:
            raise ValueError(
                f"{names[axis]} axis out of range: origin {o} + step {s} * "
                f"(count {cnt} - 1) = {last} >= extent {extent}"
            )
    (ro, co), (rs, cs), (rc, cc) = origin, step, count
    return d[:, :, ro:ro + rs * rc:rs, co:co + cs * cc:cs]


def accumulate(acc: np.ndarray, addend: np.ndarray) -> np.ndarray:
    """Element-wise sum of two tensors with identical dims and precision.

    Accumulation runs in the operands' own precision.  Callers chaining
    several accumulations must fold left-to-right so float results are
    bit-reproducible run to run.
    """
    require_tensor4(acc, "acc")
    require_tensor4(addend, "addend")
    if acc.shape != addend.shape:
        raise ValueError(f"shape mismatch: {acc.shape} vs {addend.shape}")
    if acc.dtype != addend.dtype:
        raise TypeError(f"precision mismatch: {acc.dtype} vs {addend.dtype}")
    return check_finite(acc + addend, "accumulate")


def mse(x: np.ndarray, reference: np.ndarray) -> float:
    """Mean squared error against a binary64 reference, computed in binary64."""
    require_tensor4(x, "x")
    require_tensor4(reference, "reference")
    if x.shape != reference.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {reference.shape}")
    if reference.dtype != np.dtype(np.float64):
        raise TypeError(f"reference must be binary64, got {reference.dtype}")
    diff = x.astype(np.float64) - reference
    return float(np.mean(diff * diff))
