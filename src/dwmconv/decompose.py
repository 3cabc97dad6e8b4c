"""Kernel decomposition for large and/or strided convolutions.

A convolution with kernel taps > 3 or stride > 1 is rewritten as a sum of
small stride-1 convolutions that the 2-output Winograd transforms handle
well:

  * stride split: taps (and input samples) are grouped by index residue
    modulo the stride, turning one strided convolution into ``stride``
    independent stride-1 convolutions per axis;
  * size split: any residue with more than 3 taps is cut into consecutive
    blocks of 3 plus one remainder block.

Applied per axis and crossed, this yields a partition of the original
kernel into parts of at most 3x3 taps; the convolution result is the sum
of the parts' results.  A plan is one tuple of runs per axis, each run a
``range`` of kernel indices, and one transform family, F(2, r)
``transform(r)`` for every run of r taps; its parts are the row runs
crossed with the column runs, and ``input_region_for_part`` gives a part's
input slices.  Classic tiled F(2, r) Winograd is the one-part plan of
``plan_classic``.

Any plan, built here or by hand, is checked once, when it is built
(``DecompositionPlan`` lists the checks), so the engines never see a bad one.
"""

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from .convspec import ConvSpec
from .transforms import POINT_SEQUENCE, TransformSet, get_transform


class KernelPart(NamedTuple):
    """One 2-D kernel sub-block: a run of kernel rows by a run of kernel
    columns, each a ``range``; its plan gives its transforms."""

    row: range
    col: range

    @property
    def label(self) -> str:
        """The part's kernel taps for messages: 'kernel rows 0,2,4; cols 1,3'."""
        rows, cols = (",".join(map(str, run)) for run in self)
        return f"kernel rows {rows}; cols {cols}"


@dataclass(frozen=True)
class DecompositionPlan:
    """A kernel's row runs by its column runs, each run a ``range`` of
    kernel indices, with one transform family: F(2, r) ``transform(r)``
    per r-tap run.  ``parts`` is the cross product, row-major, made once.

    Checked when built, per axis, geometry before any transform lookup:
    each run is non-empty and steps by ``spec.stride``, and the runs hold
    each index of ``spec.kernel`` exactly once (a ValueError names the
    axis and the run, or the index no run holds); then each run's
    transform has the run's tap count and m == 2, the engines' output tile.
    """

    spec: ConvSpec
    rows: tuple[range, ...]
    cols: tuple[range, ...]
    transform: Callable[[int], TransformSet] = get_transform
    parts: tuple[KernelPart, ...] = field(init=False, repr=False, compare=False)

    def transforms(self, part: KernelPart) -> tuple[TransformSet, TransformSet]:
        """The row and column transforms of ``part``."""
        return self.transform(len(part.row)), self.transform(len(part.col))

    def __post_init__(self):
        # tuples, so that a list or a generator of runs is checked and crossed alike
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        axes = ("row", self.rows), ("col", self.cols)
        for (axis, runs), taps, stride in zip(axes, self.spec.kernel, self.spec.stride):
            owner = {}  # kernel index -> index of the run that holds it
            for index, run in enumerate(runs):
                if not isinstance(run, range) or not run:
                    raise ValueError(f"plan {axis} run {index} must be a non-empty range, "
                                     f"got {run!r}")
                fault = f"plan {axis} run {index} (taps {','.join(map(str, run))})"
                if run.step != stride:
                    raise ValueError(f"{fault} steps by {run.step}, not by the stride {stride}")
                for tap in run:
                    if not 0 <= tap < taps:
                        raise ValueError(f"{fault} reaches {axis} {tap}, outside the "
                                         f"kernel's {taps} {axis}s")
                    if owner.setdefault(tap, index) != index:
                        raise ValueError(f"{fault} repeats {axis} {tap} of run {owner[tap]}")
            if len(owner) < taps:
                missing = min(set(range(taps)) - owner.keys())
                raise ValueError(f"plan {axis} runs hold no kernel {axis} {missing}")
        for run in (*self.rows, *self.cols):
            ts = self.transform(len(run))
            if ts.r != len(run):
                raise ValueError("transform tap counts must match the axis counts")
            if ts.m != 2:
                raise ValueError("engine produces 2x2 output tiles; transforms must have m == 2")
        object.__setattr__(self, "parts",
                           tuple(KernelPart(row, col) for row in self.rows for col in self.cols))


def _axis_runs(taps: int, stride: int) -> tuple[range, ...]:
    """One axis's runs: the taps of each stride residue, low residue first,
    cut into blocks of 3 plus one remainder (5 -> 3+2, 7 -> 3+3+1)."""
    residues = (range(residue, taps, stride) for residue in range(min(stride, taps)))
    return tuple(run[first:first + 3] for run in residues for first in range(0, len(run), 3))


def plan_decomposition(spec: ConvSpec) -> DecompositionPlan:
    """Partition spec's kernel into Winograd-sized parts (cross product of axes)."""
    rows, cols = map(_axis_runs, spec.kernel, spec.stride)
    # named, not left to the field's default, so that a tracer that rebinds
    # this module's get_transform (perfbench's) sees the plan's lookups
    return DecompositionPlan(spec, rows, cols, transform=get_transform)


def plan_classic(spec: ConvSpec, transform=get_transform) -> DecompositionPlan:
    """Classic tiled F(2, r) Winograd: one part covering the whole stride-1
    kernel, each axis run with ``transform`` of its tap count.  The
    ValueErrors say where classic Winograd does not apply."""
    if spec.stride != (1, 1):
        raise ValueError(
            "classic Winograd is stride-1 only; use --algo dwm for strided convolutions")
    if max(spec.kernel) > len(POINT_SEQUENCE):
        raise ValueError(
            f"classic Winograd supports at most {len(POINT_SEQUENCE)} taps per axis, "
            f"got kernel {spec.kernel}; use --algo dwm for larger kernels")
    r_h, r_w = spec.kernel
    return DecompositionPlan(spec, (range(r_h),), (range(r_w),), transform=transform)


def input_region_for_part(part: KernelPart, out_dims: tuple[int, int]) -> tuple[slice, slice]:
    """Row and column slices of the padded input feeding one part's
    stride-1 convolution.

    Along an axis with stride s, a part's run of p taps from a reads, for
    output o, padded-input samples a + s*(o + i) for i in 0..p-1, so the
    part consumes the samples from a, step s, count out + p - 1.  On those
    the part is a plain stride-1 correlation with p taps.

    For a part of a checked plan the samples stay inside the padded extent
    H_pad: the last is a + s(p-1) + s(out-1), the run's last tap
    a + s(p-1) is at most r-1, and out = floor((H_pad-r)/s) + 1 gives
    s(out-1) <= H_pad-r, so the sample is at most H_pad-1.
    """
    return tuple(slice(run.start, run.start + run.step * (out + len(run) - 1), run.step)
                 for run, out in zip(part, out_dims))


def plan_to_json(plan: DecompositionPlan) -> dict:
    """JSON-friendly dump of each part's run origins, steps and counts (debugging aid)."""
    run = lambda taps: {"origin": taps.start, "step": taps.step, "count": len(taps)}
    return {
        "kernel": list(plan.spec.kernel),
        "stride": list(plan.spec.stride),
        "pad": list(plan.spec.pad),
        "parts": [{"row": run(p.row), "col": run(p.col)} for p in plan.parts],
    }
