"""Dense 4-D tensor helpers in N,C,H,W row-major layout.

Tensors are plain numpy arrays with four axes and element type float32
(binary32) or float64 (binary64).  Operations are pure: inputs are never
mutated.  Nothing here scans for NaN/Inf unasked: the engines decide which
arrays ``_finite`` and ``check_finite`` scan, each value once on a
successful call.  Arrays of dtype ``object`` (exact rationals) are also
accepted so the convolution engines can run an exact-arithmetic test mode;
finiteness checks apply to float data only.
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


def _finite(x: np.ndarray) -> bool:
    """No NaN or Inf in float ``x``; always True for an object (exact
    ``Fraction``) array, so callers need no dtype guard.  On C-contiguous
    ``x`` one BLAS pass decides: the dot product of ``x`` with itself is
    finite only when every element is.  Only when it is not (a NaN or Inf,
    or finite values whose squares overflow), or on any other layout, do
    min and max decide: a NaN propagates through them and an Inf is one of
    them.  Unlike ``np.isfinite(x).all()``, neither builds a boolean copy."""
    if x.size == 0 or x.dtype == np.dtype(object):
        return True
    if x.flags.c_contiguous:
        v = x.reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):  # the value decides
            if np.isfinite(np.dot(v, v)):
                return True
    return bool(np.isfinite(x.min()) and np.isfinite(x.max()))


def check_finite(x: np.ndarray, op: str) -> np.ndarray:
    if not _finite(x):
        raise FloatingPointError(f"{op} produced non-finite values")
    return x


def _pad(d: np.ndarray, pad: tuple[int, int, int, int]) -> np.ndarray:
    """Zero-pad the spatial axes by (top, bottom, left, right), without a
    NaN/Inf scan: the engines have scanned their data when they cast it,
    and ``ConvSpec`` has checked that every pad is a non-negative int.

    A padded shape numpy refuses to allocate (a dimension or byte count
    beyond its index type) raises ``MemoryError``, as any other array too
    large for memory does, naming the padded shape."""
    top, bottom, left, right = pad
    n, c, h, w = d.shape
    shape = (n, c, h + top + bottom, w + left + right)
    try:
        out = np.zeros(shape, dtype=d.dtype)
    except ValueError as exc:  # numpy's size limit, checked before allocating
        raise MemoryError(f"padded input {'x'.join(map(str, shape))} is too large "
                          f"for an array") from exc
    out[:, :, top:top + h, left:left + w] = d
    return out


def accumulate(acc: np.ndarray, addend: np.ndarray) -> np.ndarray:
    """Element-wise sum of two arrays of the same shape and precision,
    unchecked: a non-finite partial sum stays non-finite in every later
    sum, so the scan of the result the sums feed sees it.

    ``dwm_conv2d`` sums its parts' outputs in the Winograd tile layout
    (2, 2, F, N*TH*TW) and untiles the total once, in its checked rerun
    too, which only adds an untiled scan of each part and partial sum.
    Accumulation runs in the operands' own precision.  Callers chaining
    several accumulations must fold left-to-right so float results are
    bit-reproducible run to run.  It stays a function, not an inline
    ``+``, so that a tracer can count and time the aggregation adds.
    """
    return acc + addend


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
