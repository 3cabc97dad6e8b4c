"""Deliberately naive reference implementations, used only by tests.

Everything here is written as the most literal possible scalar loops in
binary64, independent of the package's tiling and transform code, so that
agreement between the two is evidence rather than tautology.
"""

import numpy as np


def oracle_conv(data, weights, spec):
    """Quadruple-loop strided correlation with zero padding, binary64 only.

    Per output element the sum runs channel-ascending, then kernel row,
    then kernel column, matching the engine's documented order so binary64
    comparisons can be exact.
    """
    n, c, h, w = data.shape
    f = weights.shape[0]
    r_h, r_w = spec.kernel
    s_h, s_w = spec.stride
    top, bottom, left, right = spec.pad
    oh = (h + top + bottom - r_h) // s_h + 1
    ow = (w + left + right - r_w) // s_w + 1
    out = np.zeros((n, f, oh, ow), dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(r_h):
                            for kx in range(r_w):
                                iy = oy * s_h + ky - top
                                ix = ox * s_w + kx - left
                                if 0 <= iy < h and 0 <= ix < w:
                                    acc += float(weights[fi, ci, ky, kx]) * float(data[ni, ci, iy, ix])
                    out[ni, fi, oy, ox] = acc
    return out


def oracle_conv_f32(data, weights, spec):
    """oracle_conv in binary32: the same loops and summation order, with
    every product and every add rounded to binary32 (numpy float32
    scalars), as the engines' binary32 path does."""
    n, c, h, w = data.shape
    f = weights.shape[0]
    r_h, r_w = spec.kernel
    s_h, s_w = spec.stride
    top, bottom, left, right = spec.pad
    oh = (h + top + bottom - r_h) // s_h + 1
    ow = (w + left + right - r_w) // s_w + 1
    out = np.zeros((n, f, oh, ow), dtype=np.float32)
    for ni in range(n):
        for fi in range(f):
            for oy in range(oh):
                for ox in range(ow):
                    acc = np.float32(0.0)
                    for ci in range(c):
                        for ky in range(r_h):
                            for kx in range(r_w):
                                iy = oy * s_h + ky - top
                                ix = ox * s_w + kx - left
                                if 0 <= iy < h and 0 <= ix < w:
                                    acc += (np.float32(weights[fi, ci, ky, kx])
                                            * np.float32(data[ni, ci, iy, ix]))
                    out[ni, fi, oy, ox] = acc
    return out


def oracle_conv1d(filt, data):
    """1-D sliding correlation: y[k] = sum_i filt[i] * data[k+i]."""
    m = len(data) - len(filt) + 1
    return [sum(filt[i] * data[k + i] for i in range(len(filt))) for k in range(m)]


def oracle_grads(data, weights, spec, grad_out):
    """Analytic gradients of oracle_conv by the chain rule on the literal loops."""
    n, c, h, w = data.shape
    f = weights.shape[0]
    r_h, r_w = spec.kernel
    s_h, s_w = spec.stride
    top, bottom, left, right = spec.pad
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    grad_d = np.zeros((n, c, h, w), dtype=np.float64)
    grad_w = np.zeros(weights.shape, dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for oy in range(oh):
                for ox in range(ow):
                    go = float(grad_out[ni, fi, oy, ox])
                    for ci in range(c):
                        for ky in range(r_h):
                            for kx in range(r_w):
                                iy = oy * s_h + ky - top
                                ix = ox * s_w + kx - left
                                if 0 <= iy < h and 0 <= ix < w:
                                    grad_d[ni, ci, iy, ix] += float(weights[fi, ci, ky, kx]) * go
                                    grad_w[fi, ci, ky, kx] += float(data[ni, ci, iy, ix]) * go
    return grad_d, grad_w


def finite_difference(data, weights, spec, grad_out, coords_data=(), coords_weights=(), h=1e-5):
    """Central finite differences of loss = sum(grad_out * oracle_conv(data, weights)).

    Returns (data_grads, weight_grads): lists of d(loss)/d(coordinate) for
    the requested index tuples.
    """

    def loss(d, w):
        return float(np.sum(oracle_conv(d, w, spec) * grad_out))

    data_grads = []
    for idx in coords_data:
        bumped = data.copy()
        bumped[idx] = data[idx] + h
        up = loss(bumped, weights)
        bumped[idx] = data[idx] - h
        down = loss(bumped, weights)
        data_grads.append((up - down) / (2.0 * h))
    weight_grads = []
    for idx in coords_weights:
        bumped = weights.copy()
        bumped[idx] = weights[idx] + h
        up = loss(data, bumped)
        bumped[idx] = weights[idx] - h
        down = loss(data, bumped)
        weight_grads.append((up - down) / (2.0 * h))
    return data_grads, weight_grads
