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
per axis together with the matching input sampling rule.
"""

from dataclasses import dataclass

from .convspec import ConvSpec
from .transforms import TransformSet, get_transform


@dataclass(frozen=True)
class AxisPart:
    """A strided run of kernel taps along one axis: origin + step*i, i < count."""

    origin: int
    step: int
    count: int

    def __post_init__(self):
        if self.origin < 0 or self.step < 1 or not 1 <= self.count <= 3:
            raise ValueError(f"invalid axis part {self}")


@dataclass(frozen=True)
class KernelPart:
    """One 2-D kernel sub-block with the transforms matching its tap counts."""

    row: AxisPart
    col: AxisPart
    transform_rows: TransformSet
    transform_cols: TransformSet

    def __post_init__(self):
        if self.transform_rows.r != self.row.count or self.transform_cols.r != self.col.count:
            raise ValueError("transform tap counts must match the axis counts")


@dataclass(frozen=True)
class DecompositionPlan:
    """Ordered partition of a kernel into parts, row-major over (row, col) splits."""

    spec: ConvSpec
    parts: tuple[KernelPart, ...]


def split_by_size(taps: int) -> list[int]:
    """Greedy blocks of 3 plus one remainder block, low-order taps first.

    5 -> [3, 2], 7 -> [3, 3, 1], 11 -> [3, 3, 3, 2].
    """
    if taps < 1:
        raise ValueError(f"taps must be positive, got {taps}")
    blocks = [3] * (taps // 3)
    if taps % 3:
        blocks.append(taps % 3)
    return blocks


def split_axis_by_stride(taps: int, stride: int) -> list[tuple[int, int, int]]:
    """Group taps by index residue modulo the stride.

    Returns (origin, step, residue_taps) triples, one per non-empty residue
    class; stride 1 is the identity single group.  For stride 2 this is the
    even/odd split: taps {g0, g2, ...} and {g1, g3, ...}.
    """
    if taps < 1 or stride < 1:
        raise ValueError(f"taps and stride must be positive, got {taps}, {stride}")
    out = []
    for residue in range(stride):
        residue_taps = -(-(taps - residue) // stride)  # ceil
        if residue_taps > 0:
            out.append((residue, stride, residue_taps))
    return out


def _axis_parts(taps: int, stride: int) -> list[AxisPart]:
    """Stride split first, then size split of any residue with > 3 taps."""
    parts = []
    for origin, step, residue_taps in split_axis_by_stride(taps, stride):
        offset = 0
        for block in split_by_size(residue_taps):
            parts.append(AxisPart(origin=origin + step * offset, step=step, count=block))
            offset += block
    return parts


def plan_decomposition(spec: ConvSpec) -> DecompositionPlan:
    """Partition spec's kernel into Winograd-sized parts (cross product of axes)."""
    rows = _axis_parts(spec.kernel[0], spec.stride[0])
    cols = _axis_parts(spec.kernel[1], spec.stride[1])
    parts = tuple(
        KernelPart(row=rp, col=cp,
                   transform_rows=get_transform(rp.count),
                   transform_cols=get_transform(cp.count))
        for rp in rows
        for cp in cols
    )
    return DecompositionPlan(spec=spec, parts=parts)


def input_region_for_part(plan: DecompositionPlan, part: KernelPart,
                          out_dims: tuple[int, int]):
    """Strided slice of the padded input feeding one part's stride-1 convolution.

    Along an axis with stride s, part origin a and part taps p, output o
    reads padded-input samples a + s*(o + i) for i in 0..p-1, so the part
    consumes the strided slice origin=a, step=s, count=(out_extent-1)+p.
    On that slice the part is a plain stride-1 correlation with p taps.

    Returns ((row_origin, row_step, row_count), (col_origin, col_step, col_count)).
    """
    if part not in plan.parts:
        raise ValueError("part does not belong to this plan")
    regions = []
    for axis_part, out_extent in ((part.row, out_dims[0]), (part.col, out_dims[1])):
        regions.append((axis_part.origin, axis_part.step, out_extent - 1 + axis_part.count))
    return tuple(regions)


def plan_to_json(plan: DecompositionPlan) -> dict:
    """JSON-friendly dump of part origins, steps and counts (debugging aid)."""
    return {
        "kernel": list(plan.spec.kernel),
        "stride": list(plan.spec.stride),
        "pad": list(plan.spec.pad),
        "parts": [
            {
                "row": {"origin": p.row.origin, "step": p.row.step, "count": p.row.count},
                "col": {"origin": p.col.origin, "step": p.col.step, "count": p.col.count},
            }
            for p in plan.parts
        ],
    }
