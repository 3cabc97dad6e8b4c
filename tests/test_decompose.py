import numpy as np
import pytest

from dwmconv.convspec import ConvSpec
from dwmconv.decompose import (AxisPart, input_region_for_part, plan_decomposition,
                               split_axis_by_stride, split_by_size)

from reference import oracle_conv


@pytest.mark.parametrize("taps,blocks", [
    (1, [1]), (2, [2]), (3, [3]), (4, [3, 1]), (5, [3, 2]),
    (6, [3, 3]), (7, [3, 3, 1]), (11, [3, 3, 3, 2]),
])
def test_split_by_size(taps, blocks):
    got = split_by_size(taps)
    assert got == blocks
    assert sum(got) == taps


def test_split_axis_by_stride_parity():
    assert split_axis_by_stride(3, 2) == [(0, 2, 2), (1, 2, 1)]
    assert split_axis_by_stride(5, 2) == [(0, 2, 3), (1, 2, 2)]
    assert split_axis_by_stride(7, 2) == [(0, 2, 4), (1, 2, 3)]


def test_split_axis_by_stride_identity():
    for taps in (1, 3, 7, 11):
        assert split_axis_by_stride(taps, 1) == [(0, 1, taps)]


def test_split_axis_omits_empty_residues():
    assert split_axis_by_stride(1, 4) == [(0, 4, 1)]
    assert split_axis_by_stride(2, 4) == [(0, 4, 1), (1, 4, 1)]


def _part_geoms(plan):
    return [((p.row.origin, p.col.origin), (p.row.step, p.col.step),
             (p.row.count, p.col.count)) for p in plan.parts]


def test_plan_5x5_stride1():
    plan = plan_decomposition(ConvSpec(kernel=(5, 5)))
    assert _part_geoms(plan) == [
        ((0, 0), (1, 1), (3, 3)), ((0, 3), (1, 1), (3, 2)),
        ((3, 0), (1, 1), (2, 3)), ((3, 3), (1, 1), (2, 2)),
    ]


def test_plan_5x5_stride2():
    plan = plan_decomposition(ConvSpec(kernel=(5, 5), stride=(2, 2)))
    assert _part_geoms(plan) == [
        ((0, 0), (2, 2), (3, 3)), ((0, 1), (2, 2), (3, 2)),
        ((1, 0), (2, 2), (2, 3)), ((1, 1), (2, 2), (2, 2)),
    ]


def test_plan_7x7_stride2_has_nine_parts():
    plan = plan_decomposition(ConvSpec(kernel=(7, 7), stride=(2, 2)))
    assert len(plan.parts) == 9
    row_axis = [(p.row.origin, p.row.step, p.row.count) for p in plan.parts[::3]]
    assert row_axis == [(0, 2, 3), (6, 2, 1), (1, 2, 3)]


def test_small_stride1_plan_degenerates_to_single_part():
    for r in (1, 2, 3):
        plan = plan_decomposition(ConvSpec(kernel=(r, r)))
        assert len(plan.parts) == 1
        part = plan.parts[0]
        assert (part.row.origin, part.row.step, part.row.count) == (0, 1, r)


def test_partition_invariant_exhaustive():
    # every kernel coefficient covered exactly once, all sizes and strides,
    # by parts of at most 3 taps per axis
    for r_h in range(1, 14):
        for r_w in range(1, 14):
            for s in range(1, 5):
                plan = plan_decomposition(ConvSpec(kernel=(r_h, r_w), stride=(s, s)))
                covered = np.zeros((r_h, r_w), dtype=int)
                for p in plan.parts:
                    assert p.row.count <= 3 and p.col.count <= 3
                    for i in range(p.row.count):
                        for j in range(p.col.count):
                            covered[p.row.origin + p.row.step * i,
                                    p.col.origin + p.col.step * j] += 1
                assert (covered == 1).all(), (r_h, r_w, s)


def test_plan_transforms_match_counts():
    plan = plan_decomposition(ConvSpec(kernel=(7, 7), stride=(2, 2)))
    for p in plan.parts:
        assert p.transform_rows.r == p.row.count
        assert p.transform_cols.r == p.col.count


@pytest.mark.parametrize("kernel,stride", [((5, 5), (1, 1)), ((5, 5), (2, 2)),
                                           ((7, 7), (3, 3)), ((4, 6), (2, 1))])
def test_reconstruction_sum_of_parts_equals_whole(kernel, stride):
    # summing direct convolutions of the strided parts reproduces the
    # direct strided convolution of the whole kernel
    rng = np.random.default_rng(11)
    spec = ConvSpec(kernel=kernel, stride=stride, pad=(1, 1, 1, 1))
    data = rng.standard_normal((1, 2, 12, 12))
    weights = rng.standard_normal((2, 2, *kernel))
    whole = oracle_conv(data, weights, spec)
    oh, ow = whole.shape[2:]

    padded = np.zeros((1, 2, 12 + 2, 12 + 2))
    padded[:, :, 1:13, 1:13] = data
    total = np.zeros_like(whole)
    plan = plan_decomposition(spec)
    for part in plan.parts:
        row, col = part.row, part.col
        sub = weights[:, :,
                      row.origin:row.origin + row.step * row.count:row.step,
                      col.origin:col.origin + col.step * col.count:col.step]
        (ro, rs, rc), (co, cs, cc) = input_region_for_part(plan, part, (oh, ow))
        sig = padded[:, :, ro:ro + rs * rc:rs, co:co + cs * cc:cs]
        part_spec = ConvSpec(kernel=(row.count, col.count))
        total += oracle_conv(sig, sub, part_spec)
    np.testing.assert_allclose(total, whole, atol=1e-12)


def test_input_region_classic_3x3():
    spec = ConvSpec(kernel=(3, 3))
    plan = plan_decomposition(spec)
    region = input_region_for_part(plan, plan.parts[0], (14, 14))
    assert region == ((0, 1, 16), (0, 1, 16))


def test_input_region_5x5_corner_part():
    plan = plan_decomposition(ConvSpec(kernel=(5, 5)))
    part = plan.parts[3]  # origin (3,3), 2x2
    region = input_region_for_part(plan, part, (14, 14))
    assert region == ((3, 1, 15), (3, 1, 15))


def test_input_region_5x5_stride2_odd_part():
    plan = plan_decomposition(ConvSpec(kernel=(5, 5), stride=(2, 2)))
    part = plan.parts[3]  # origin (1,1), 2x2, step 2
    region = input_region_for_part(plan, part, (2, 2))
    assert region == ((1, 2, 3), (1, 2, 3))


@pytest.mark.parametrize("origin,step,count", [(-1, 1, 1), (0, 0, 1), (0, 1, 0), (0, 1, 14)])
def test_axis_part_rejects_invalid_runs(origin, step, count):
    with pytest.raises(ValueError, match="invalid axis part"):
        AxisPart(origin, step, count)


def test_input_region_rejects_foreign_part():
    plan_a = plan_decomposition(ConvSpec(kernel=(5, 5)))
    plan_b = plan_decomposition(ConvSpec(kernel=(7, 7), stride=(2, 2)))
    with pytest.raises(ValueError):
        input_region_for_part(plan_a, plan_b.parts[1], (4, 4))
