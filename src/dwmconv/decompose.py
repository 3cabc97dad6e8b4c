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
of the parts' results.  A plan records each part's (origin, step, count)
per axis and one transform family, F(2, r) ``transform(r)`` for every run
of r taps; ``input_region_for_part`` gives a part's input slices.
Classic tiled F(2, r) Winograd is the one-part plan of ``plan_classic``.

Any plan, built here or by hand, is checked once, when it is built
(``DecompositionPlan`` lists the checks), so the engines never see a bad one.
"""

from collections.abc import Callable
from dataclasses import asdict, dataclass
from itertools import product

from .convspec import ConvSpec
from .transforms import POINT_SEQUENCE, TransformSet, get_transform


@dataclass(frozen=True)
class AxisPart:
    """A strided run of kernel taps along one axis: origin + step*i, i < count <= 13."""

    origin: int
    step: int
    count: int

    def __post_init__(self):
        if self.origin < 0 or self.step < 1 or not 1 <= self.count <= len(POINT_SEQUENCE):
            raise ValueError(f"invalid axis part {self}")

    @property
    def taps(self) -> range:
        """The kernel indices of the run."""
        return range(self.origin, self.origin + self.step * self.count, self.step)


@dataclass(frozen=True)
class KernelPart:
    """One 2-D kernel sub-block, a row run by a column run; its plan gives its transforms."""

    row: AxisPart
    col: AxisPart

    @property
    def label(self) -> str:
        """The part's kernel taps for messages: 'kernel rows 0,2,4; cols 1,3'."""
        rows, cols = (",".join(map(str, a.taps)) for a in (self.row, self.col))
        return f"kernel rows {rows}; cols {cols}"


@dataclass(frozen=True)
class DecompositionPlan:
    """Ordered partition of a kernel into parts, row-major over (row, col)
    splits, with one transform family: F(2, r) ``transform(r)`` per r-tap run.

    Checked when built, with a ValueError naming the part or tap at fault:
    each part steps by ``spec.stride`` on each axis, every tap of
    ``spec.kernel`` lies in exactly one part, and each run's transform
    has the run's tap count and m == 2, the engines' output tile.
    """

    spec: ConvSpec
    parts: tuple[KernelPart, ...]
    transform: Callable[[int], TransformSet] = get_transform

    def transforms(self, part: KernelPart) -> tuple[TransformSet, TransformSet]:
        """The row and column transforms of ``part``."""
        return self.transform(part.row.count), self.transform(part.col.count)

    def __post_init__(self):
        def fault(index: int, what: str) -> ValueError:
            return ValueError(f"plan part {index} ({self.parts[index].label}) {what}")

        r_h, r_w = self.spec.kernel
        owner = {}  # kernel tap -> index of the part that holds it
        for index, part in enumerate(self.parts):
            ts_r, ts_c = self.transforms(part)
            if (ts_r.r, ts_c.r) != (part.row.count, part.col.count):
                raise ValueError("transform tap counts must match the axis counts")
            steps = (part.row.step, part.col.step)
            if steps != self.spec.stride:
                raise fault(index, f"steps by {steps}, not by the stride {self.spec.stride}")
            if part.row.taps[-1] >= r_h or part.col.taps[-1] >= r_w:
                raise fault(index, f"reaches past kernel {self.spec.kernel}")
            if ts_r.m != 2 or ts_c.m != 2:
                raise ValueError("engine produces 2x2 output tiles; transforms must have m == 2")
            for tap in product(part.row.taps, part.col.taps):
                if owner.setdefault(tap, index) != index:
                    raise fault(index, f"repeats kernel tap {tap} of part {owner[tap]}")
        if len(owner) < r_h * r_w:
            tap = next(t for t in product(range(r_h), range(r_w)) if t not in owner)
            raise ValueError(f"kernel tap {tap} lies in no part of the plan")


def _axis_parts(taps: int, stride: int) -> list[AxisPart]:
    """One axis's runs: the taps of each stride residue, low residue first,
    cut into blocks of 3 plus one remainder (5 -> 3+2, 7 -> 3+3+1)."""
    parts = []
    for residue in range(min(stride, taps)):  # residues past the last tap are empty
        residue_taps = len(range(residue, taps, stride))
        for first in range(0, residue_taps, 3):
            parts.append(AxisPart(origin=residue + stride * first, step=stride,
                                  count=min(3, residue_taps - first)))
    return parts


def plan_decomposition(spec: ConvSpec) -> DecompositionPlan:
    """Partition spec's kernel into Winograd-sized parts (cross product of axes)."""
    rows, cols = map(_axis_parts, spec.kernel, spec.stride)
    parts = tuple(KernelPart(row=rp, col=cp) for rp in rows for cp in cols)
    # named, not left to the field's default, so that a tracer that rebinds
    # this module's get_transform (perfbench's) sees the plan's lookups
    return DecompositionPlan(spec=spec, parts=parts, transform=get_transform)


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
    part = KernelPart(row=AxisPart(0, 1, spec.kernel[0]), col=AxisPart(0, 1, spec.kernel[1]))
    return DecompositionPlan(spec=spec, parts=(part,), transform=transform)


def input_region_for_part(part: KernelPart, out_dims: tuple[int, int]) -> tuple[slice, slice]:
    """Row and column slices of the padded input feeding one part's
    stride-1 convolution.

    Along an axis with stride s, part origin a and part taps p, output o
    reads padded-input samples a + s*(o + i) for i in 0..p-1, so the part
    consumes the run origin a, step s, count out + p - 1.  On that run the
    part is a plain stride-1 correlation with p taps.

    For a part of a checked plan the run stays inside the padded extent
    H_pad: its last sample is a + s(p-1) + s(out-1), the part's last tap
    a + s(p-1) is at most r-1, and out = floor((H_pad-r)/s) + 1 gives
    s(out-1) <= H_pad-r, so the sample is at most H_pad-1.
    """
    return tuple(slice(a.origin, a.origin + a.step * (out + a.count - 1), a.step)
                 for a, out in ((part.row, out_dims[0]), (part.col, out_dims[1])))


def plan_to_json(plan: DecompositionPlan) -> dict:
    """JSON-friendly dump of part origins, steps and counts (debugging aid)."""
    return {
        "kernel": list(plan.spec.kernel),
        "stride": list(plan.spec.stride),
        "pad": list(plan.spec.pad),
        "parts": [{"row": asdict(p.row), "col": asdict(p.col)} for p in plan.parts],
    }
