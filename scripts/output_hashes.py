"""Print one SHA-1 line per engine output over a fixed set of geometries.

A refactor that must keep every bit runs this on the old and the new source
and compares the two listings:

    PYTHONPATH=old/src python3 scripts/output_hashes.py > before.txt
    PYTHONPATH=src python3 scripts/output_hashes.py > after.txt
    diff before.txt after.txt

Each line is ``<sha1>  <engine> <geometry> <precision>``.  Engines:
``dwm_conv2d`` (with and without a prebuilt plan), both ``dwm_backward``
gradients, ``direct_conv2d``, ``winograd_conv2d`` (stride-1 kernels of at
most 13 taps per axis) and ``convolve`` ``y``/``flops`` for every algorithm
the geometry admits.  Precisions: binary32, binary64 and exact ``Fraction``
(object arrays; reduced extents, since exact arithmetic is slow).  Inputs
are drawn from a fixed seed per geometry; the Fraction inputs are multiples
of 1/4.  Floats hash their dtype, shape and bytes; Fractions hash the
``p/q`` text of every element.
"""

import hashlib
from fractions import Fraction

import numpy as np

from dwmconv import (ConvSpec, convolve, direct_conv2d, dwm_backward, dwm_conv2d,
                     get_transform, pad_input, plan_decomposition, winograd_conv2d)

# name, kernel, stride, pad, (N, C, F), float input (H, W), Fraction input (H, W)
GEOMETRIES = (
    ("3x3s1", (3, 3), (1, 1), (1, 1, 1, 1), (1, 3, 4), (9, 9), (6, 6)),
    ("5x5s2", (5, 5), (2, 2), (2, 2, 2, 2), (1, 3, 4), (13, 13), (9, 9)),
    ("11x11s4", (11, 11), (4, 4), (2, 2, 2, 2), (1, 3, 2), (35, 35), (19, 19)),
    ("7x5s1,3", (7, 5), (1, 3), (0, 0, 0, 0), (1, 2, 3), (12, 16), (9, 11)),
    ("2x4s3,1", (2, 4), (3, 1), (0, 2, 1, 3), (1, 2, 3), (11, 10), (7, 6)),
    ("6x2s2,3", (6, 2), (2, 3), (1, 0, 2, 1), (2, 3, 2), (13, 11), (8, 8)),
    ("batch2-5x3s1", (5, 3), (1, 1), (2, 1, 0, 1), (2, 3, 5), (10, 9), (7, 6)),
    ("alexnet-conv1", (11, 11), (4, 4), (2, 2, 2, 2), (1, 3, 4), (224, 224), (19, 19)),
    ("alexnet-conv2", (5, 5), (1, 1), (2, 2, 2, 2), (1, 4, 6), (27, 27), (7, 7)),
    ("alexnet-conv3", (3, 3), (1, 1), (1, 1, 1, 1), (1, 6, 8), (13, 13), (5, 5)),
    ("alexnet-conv4", (3, 3), (1, 1), (1, 1, 1, 1), (1, 8, 6), (13, 13), (5, 5)),
    ("alexnet-conv5", (3, 3), (1, 1), (1, 1, 1, 1), (1, 6, 6), (13, 13), (5, 5)),
)

PRECISIONS = ("binary32", "binary64", "fraction")


def digest(x) -> str:
    if isinstance(x, (int, np.integer)):
        payload = str(int(x)).encode()
    elif x.dtype == np.dtype(object):
        payload = " ".join(str(Fraction(v)) for v in x.ravel()).encode()
        payload = repr(x.shape).encode() + payload
    else:
        payload = x.dtype.str.encode() + repr(x.shape).encode() + x.tobytes()
    return hashlib.sha1(payload).hexdigest()


def inputs(seed: int, spec: ConvSpec, dims, extent, precision: str):
    n, c, f = dims
    rng = np.random.default_rng(seed)
    oh, ow = spec.out_dims(*extent)
    shapes = ((n, c) + tuple(extent), (f, c) + spec.kernel, (n, f, oh, ow))
    if precision == "fraction":
        draw = [rng.integers(-8, 9, size=s) for s in shapes]
        return [np.vectorize(lambda v: Fraction(int(v), 4), otypes=[object])(a) for a in draw]
    dt = np.float32 if precision == "binary32" else np.float64
    return [rng.standard_normal(s).astype(dt) for s in shapes]


def outputs(spec: ConvSpec, data, weights, grad_out):
    """(label, output) for every engine call the geometry admits."""
    plan = plan_decomposition(spec)
    grad_d, grad_w = dwm_backward(grad_out, plan, data, weights)
    yield "dwm_conv2d", dwm_conv2d(data, weights, spec)
    yield "dwm_conv2d[plan]", dwm_conv2d(data, weights, spec, plan=plan)
    yield "dwm_backward[data]", grad_d
    yield "dwm_backward[weights]", grad_w
    yield "direct_conv2d", direct_conv2d(data, weights, spec)
    algos = ["direct", "dwm"]
    if spec.stride == (1, 1) and max(spec.kernel) <= 13:
        ts_r, ts_c = get_transform(spec.kernel[0]), get_transform(spec.kernel[1])
        yield "winograd_conv2d", winograd_conv2d(pad_input(data, spec.pad), weights, ts_r, ts_c)
        algos.append("winograd")
    for algo in algos:
        out = convolve(data, weights, spec, algo=algo)
        yield f"convolve[{algo}].y", out.y
        yield f"convolve[{algo}].flops", out.flops


def main():
    for seed, (name, kernel, stride, pad, dims, extent, exact_extent) in enumerate(GEOMETRIES):
        spec = ConvSpec(kernel=kernel, stride=stride, pad=pad)
        for precision in PRECISIONS:
            ext = exact_extent if precision == "fraction" else extent
            data, weights, grad_out = inputs(seed, spec, dims, ext, precision)
            for label, out in outputs(spec, data, weights, grad_out):
                print(f"{digest(out)}  {label} {name} {precision}", flush=True)


if __name__ == "__main__":
    main()
