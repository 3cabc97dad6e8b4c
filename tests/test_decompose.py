from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwmconv.convspec import ConvSpec
from dwmconv.decompose import (AxisPart, DecompositionPlan, KernelPart, input_region_for_part,
                               plan_decomposition)
from dwmconv.engines import dwm_backward, dwm_conv2d
from dwmconv.transforms import cook_toom, get_transform

from reference import oracle_conv


def _axis_runs(taps, stride):
    """(origin, step, count) of each run ``plan_decomposition`` cuts one
    kernel axis of ``taps`` taps at ``stride`` into, in plan order."""
    plan = plan_decomposition(ConvSpec(kernel=(taps, 1), stride=(stride, 1)))
    return [(p.row.origin, p.row.step, p.row.count) for p in plan.parts]


@pytest.mark.parametrize("taps,blocks", [
    (1, [1]), (2, [2]), (3, [3]), (4, [3, 1]), (5, [3, 2]),
    (6, [3, 3]), (7, [3, 3, 1]), (11, [3, 3, 3, 2]),
])
def test_split_by_size(taps, blocks):
    # greedy blocks of 3 plus one remainder, low-order taps first
    origins = [sum(blocks[:i]) for i in range(len(blocks))]
    assert _axis_runs(taps, 1) == [(o, 1, b) for o, b in zip(origins, blocks)]


def test_split_axis_by_stride_parity():
    # stride 2 is the even/odd split; a residue with over 3 taps is cut in blocks
    assert _axis_runs(3, 2) == [(0, 2, 2), (1, 2, 1)]
    assert _axis_runs(5, 2) == [(0, 2, 3), (1, 2, 2)]
    assert _axis_runs(7, 2) == [(0, 2, 3), (6, 2, 1), (1, 2, 3)]


def test_split_axis_by_stride_identity():
    # stride 1 has one residue: a single run up to 3 taps
    for taps in (1, 2, 3):
        assert _axis_runs(taps, 1) == [(0, 1, taps)]


def test_split_axis_omits_empty_residues():
    assert _axis_runs(1, 4) == [(0, 4, 1)]
    assert _axis_runs(2, 4) == [(0, 4, 1), (1, 4, 1)]


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
        rows, cols = input_region_for_part(part, (oh, ow))
        sig = padded[:, :, rows, cols]
        part_spec = ConvSpec(kernel=(row.count, col.count))
        total += oracle_conv(sig, sub, part_spec)
    np.testing.assert_allclose(total, whole, atol=1e-12)


def test_input_region_classic_3x3():
    spec = ConvSpec(kernel=(3, 3))
    plan = plan_decomposition(spec)
    region = input_region_for_part(plan.parts[0], (14, 14))
    assert region == (slice(0, 16, 1), slice(0, 16, 1))


def test_input_region_5x5_corner_part():
    plan = plan_decomposition(ConvSpec(kernel=(5, 5)))
    part = plan.parts[3]  # origin (3,3), 2x2
    region = input_region_for_part(part, (14, 14))
    assert region == (slice(3, 18, 1), slice(3, 18, 1))


def test_input_region_5x5_stride2_odd_part():
    plan = plan_decomposition(ConvSpec(kernel=(5, 5), stride=(2, 2)))
    part = plan.parts[3]  # origin (1,1), 2x2, step 2
    region = input_region_for_part(part, (2, 2))
    assert region == (slice(1, 7, 2), slice(1, 7, 2))


@pytest.mark.parametrize("origin,step,count", [(-1, 1, 1), (0, 0, 1), (0, 1, 0), (0, 1, 14)])
def test_axis_part_rejects_invalid_runs(origin, step, count):
    with pytest.raises(ValueError, match="invalid axis part"):
        AxisPart(origin, step, count)


SPEC_5 = ConvSpec(kernel=(5, 5), pad=(2, 2, 2, 2))
PARTS_5 = plan_decomposition(SPEC_5).parts  # 3+2 by 3+2 taps, stride 1
BAD_PLANS = {
    "part missing": (SPEC_5, PARTS_5[:3], r"^kernel tap \(3, 3\) lies in no part of the plan$"),
    "part repeated": (SPEC_5, PARTS_5 + PARTS_5[1:2],
                      r"^plan part 4 \(kernel rows 0,1,2; cols 3,4\) repeats kernel tap "
                      r"\(0, 3\) of part 1$"),
    "past the kernel": (SPEC_5, PARTS_5[:3] + (KernelPart(AxisPart(3, 1, 3), AxisPart(3, 1, 2),
                                                         get_transform(3), get_transform(2)),),
                        r"^plan part 3 \(kernel rows 3,4,5; cols 3,4\) reaches past "
                        r"kernel \(5, 5\)$"),
    "wrong step": (replace(SPEC_5, stride=(2, 2)), PARTS_5,
                   r"^plan part 0 \(kernel rows 0,1,2; cols 0,1,2\) steps by \(1, 1\), "
                   r"not by the stride \(2, 2\)$"),
    "F(4, 3)": (SPEC_5, (replace(PARTS_5[0], transform_rows=cook_toom(4, 3)),) + PARTS_5[1:],
                r"^engine produces 2x2 output tiles; transforms must have m == 2$"),
}


@pytest.mark.parametrize("engine", ["dwm_conv2d", "dwm_backward"])
@pytest.mark.parametrize("case", BAD_PLANS)
def test_bad_plan_raises_when_built(case, engine):
    # the plan's own message, not one from a tensor stage or numpy
    spec, parts, message = BAD_PLANS[case]
    rng = np.random.default_rng(3)
    x, w = rng.standard_normal((1, 2, 9, 9)), rng.standard_normal((2, 2, 5, 5))
    gy = rng.standard_normal((1, 2, *spec.out_dims(9, 9)))
    with pytest.raises(ValueError, match=message):
        if engine == "dwm_conv2d":
            dwm_conv2d(x, w, spec, plan=DecompositionPlan(spec, parts))
        else:
            dwm_backward(gy, DecompositionPlan(spec, parts), x, w)


def _mutated(draw, parts: tuple[KernelPart, ...]) -> tuple[KernelPart, ...]:
    """``parts`` with one part dropped or repeated, or one axis run of one
    part given another origin, step or count, or one transform given m = 4."""
    i = draw(st.integers(0, len(parts) - 1))
    kind = draw(st.sampled_from(["drop", "repeat", "origin", "step", "count", "m"]))
    if kind == "drop":
        return parts[:i] + parts[i + 1:]
    if kind == "repeat":
        return parts + parts[i:i + 1]
    part = parts[i]
    axis = draw(st.sampled_from(["row", "col"]))
    run = getattr(part, axis)
    if kind == "m":
        key = f"transform_{axis}s"
        return parts[:i] + (replace(part, **{key: cook_toom(4, run.count)}),) + parts[i + 1:]
    if kind == "origin":
        run = replace(run, origin=draw(st.integers(0, 16).filter(lambda o: o != run.origin)))
    elif kind == "step":
        run = replace(run, step=draw(st.integers(1, 5).filter(lambda s: s != run.step)))
    else:
        run = replace(run, count=draw(st.integers(1, 4).filter(lambda c: c != run.count)))
    rows, cols = (run, part.col) if axis == "row" else (part.row, run)
    built = KernelPart(rows, cols, get_transform(rows.count), get_transform(cols.count))
    return parts[:i] + (built,) + parts[i + 1:]


@given(st.tuples(st.integers(1, 13), st.integers(1, 13)),
       st.tuples(st.integers(1, 4), st.integers(1, 4)), st.data())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_plans_pass_and_any_one_mutation_is_rejected(kernel, stride, data):
    spec = ConvSpec(kernel=kernel, stride=stride)
    parts = plan_decomposition(spec).parts  # a checked plan: building it raised nothing
    with pytest.raises(ValueError, match=r"^(plan part \d+ \(|kernel tap |engine produces)"):
        DecompositionPlan(spec, _mutated(data.draw, parts))
