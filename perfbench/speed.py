"""Machine-speed calibration for wall times taken on a shared machine.

On a small shared machine the CPU speed available to one process drifts
by 30 % and more, over seconds and over minutes, for reasons outside the
process.  Every timed unit of work is therefore bracketed by a fixed
calibration pass (the benchmark's own numpy code, with fixed inputs), and
its wall time is scaled by the pass's nominal time over the median of the
most recent passes:

    scaled = wall * nominal / median(last RECENT_PASSES passes)

One pass is short and can itself be hit by a momentary stall; the median
of the last few (the two around this unit and those around the units just
before it) follows the drift without following single stalls.

A pass tracks the drift only when it spends its time the way the workload
does, so there are two kinds:

* ``im2col``: two small convolutions through the benchmark's own im2col +
  BLAS code, i.e. strided copies of a few megabytes and matrix products,
  the mix the DWM engines spend their time in;
* ``loop``: a few hundred broadcast multiply-adds on a 256-channel 14x14
  tensor, the pattern of the sequential direct engine that dominates the
  accuracy sweep.

Over five seeds on a 2-vCPU VM, scaling by the matching pass cut the
run-to-run spread of step medians from 13 % to 2 % (im2col, paper14
shapes) and from 21 % to 8 % (loop, accuracy sweep); the im2col pass did
not help the sweep.  The program never runs a pass and cannot change it,
so the scaled times of two commits are compared at the same nominal
machine speed.
"""

import collections
import statistics
import time

import numpy as np

import refconv

RECENT_PASSES = 5


class _Im2colPass:
    # median pass time on an Intel Xeon (Sapphire Rapids) 2-vCPU VM with
    # OpenBLAS 0.3.31 on one thread and numpy 2.4, so that scaled times
    # there read close to wall times
    nominal_s = 0.012

    def __init__(self, rng):
        self._convs = [
            (rng.standard_normal((1, 64, 27, 27), dtype=np.float32),
             rng.standard_normal((192, 64, 5, 5), dtype=np.float32), (1, 1), (2, 2, 2, 2)),
            (rng.standard_normal((1, 3, 224, 224), dtype=np.float32),
             rng.standard_normal((64, 3, 11, 11), dtype=np.float32), (4, 4), (2, 2, 2, 2)),
        ]

    def __call__(self):
        for x, w, stride, pad in self._convs:
            refconv.conv2d(x, w, stride, pad, dtype=np.float32)


class _LoopPass:
    nominal_s = 0.02  # measured as for _Im2colPass

    def __init__(self, rng):
        self._y = np.zeros((1, 256, 14, 14), dtype=np.float32)
        self._w = rng.standard_normal((64, 256), dtype=np.float32)
        self._x = rng.standard_normal((1, 1, 16, 14), dtype=np.float32)

    def __call__(self):
        y = self._y
        y[...] = 0
        for k in range(400):
            y += self._w[k % 64][None, :, None, None] * self._x[:, :, k % 3:k % 3 + 14, :]


PASSES = {"im2col": _Im2colPass, "loop": _LoopPass}


class Calibrator:
    def __init__(self, kind: str):
        self._pass = PASSES[kind](np.random.Generator(np.random.PCG64(20020552)))
        self._recent = collections.deque(maxlen=RECENT_PASSES)
        self.passes: list[float] = []
        self.pass_seconds()  # first pass pays BLAS and allocator start-up
        self._recent.clear()
        self.passes.clear()

    def pass_seconds(self) -> float:
        start = time.perf_counter()
        self._pass()
        seconds = time.perf_counter() - start
        self._recent.append(seconds)
        self.passes.append(seconds)
        return seconds

    def scale(self, wall: float) -> float:
        """``wall`` at the nominal machine speed, judged by the recent passes."""
        return wall * self._pass.nominal_s / statistics.median(self._recent)

    def timed(self, fn):
        """Run ``fn()`` between two passes; returns (result, wall s, scaled s)."""
        self.pass_seconds()
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            self.pass_seconds()
        return result, wall, self.scale(wall)
