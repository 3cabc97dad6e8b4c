from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwmconv.convspec import ConvSpec
from dwmconv.decompose import DecompositionPlan, input_region_for_part, plan_decomposition
from dwmconv.engines import dwm_backward, dwm_conv2d
from dwmconv.transforms import cook_toom, get_baseline_transform, get_transform

from reference import oracle_conv, oracle_grads


def _axis_runs(taps, stride):
    """(start, step, length) of each run ``plan_decomposition`` cuts one
    kernel axis of ``taps`` taps at ``stride`` into, in plan order."""
    plan = plan_decomposition(ConvSpec(kernel=(taps, 1), stride=(stride, 1)))
    assert [p.row for p in plan.parts] == list(plan.rows)
    return [(run.start, run.step, len(run)) for run in plan.rows]


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
    return [((p.row.start, p.col.start), (p.row.step, p.col.step),
             (len(p.row), len(p.col))) for p in plan.parts]


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
    row_axis = [(p.row.start, p.row.step, len(p.row)) for p in plan.parts[::3]]
    assert row_axis == [(0, 2, 3), (6, 2, 1), (1, 2, 3)]


def test_small_stride1_plan_degenerates_to_single_part():
    for r in (1, 2, 3):
        plan = plan_decomposition(ConvSpec(kernel=(r, r)))
        assert len(plan.parts) == 1
        part = plan.parts[0]
        assert part == (range(r), range(r))


def test_partition_invariant_exhaustive():
    # every kernel coefficient covered exactly once, all sizes and strides,
    # by parts of at most 3 taps per axis
    for r_h in range(1, 14):
        for r_w in range(1, 14):
            for s in range(1, 5):
                plan = plan_decomposition(ConvSpec(kernel=(r_h, r_w), stride=(s, s)))
                covered = np.zeros((r_h, r_w), dtype=int)
                for p in plan.parts:
                    assert len(p.row) <= 3 and len(p.col) <= 3
                    for i in p.row:
                        for j in p.col:
                            covered[i, j] += 1
                assert (covered == 1).all(), (r_h, r_w, s)


def test_plan_transforms_match_counts():
    plan = plan_decomposition(ConvSpec(kernel=(7, 7), stride=(2, 2)))
    for p in plan.parts:
        assert plan.transforms(p) == (get_transform(len(p.row)), get_transform(len(p.col)))


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
        sub = weights[:, :, row.start:row.stop:row.step, col.start:col.stop:col.step]
        rows, cols = input_region_for_part(part, (oh, ow))
        sig = padded[:, :, rows, cols]
        part_spec = ConvSpec(kernel=(len(row), len(col)))
        total += oracle_conv(sig, sub, part_spec)
    np.testing.assert_allclose(total, whole, atol=1e-12)


def test_input_region_classic_3x3():
    spec = ConvSpec(kernel=(3, 3))
    plan = plan_decomposition(spec)
    region = input_region_for_part(plan.parts[0], (14, 14))
    assert region == (slice(0, 16, 1), slice(0, 16, 1))


def test_input_region_5x5_corner_part():
    plan = plan_decomposition(ConvSpec(kernel=(5, 5)))
    part = plan.parts[3]  # start (3,3), 2x2
    region = input_region_for_part(part, (14, 14))
    assert region == (slice(3, 18, 1), slice(3, 18, 1))


def test_input_region_5x5_stride2_odd_part():
    plan = plan_decomposition(ConvSpec(kernel=(5, 5), stride=(2, 2)))
    part = plan.parts[3]  # start (1,1), 2x2, step 2
    region = input_region_for_part(part, (2, 2))
    assert region == (slice(1, 7, 2), slice(1, 7, 2))


FIVE = (range(3), range(3, 5))  # the runs of a 5-tap axis at stride 1
BAD_RUNS = {  # taps, stride, runs of the bad axis, message with {axis}
    "empty": (5, 1, (range(3), range(3, 3), range(3, 5)),
              r"^plan {axis} run 1 must be a non-empty range, got range\(3, 3\)$"),
    "not a range": (5, 1, (range(3), [3, 4]),
                    r"^plan {axis} run 1 must be a non-empty range, got \[3, 4\]$"),
    "before the kernel": (5, 1, (range(-1, 2), range(2, 5)),
                          r"^plan {axis} run 0 \(taps -1,0,1\) reaches {axis} -1, "
                          r"outside the kernel's 5 {axis}s$"),
    "wrong step": (5, 2, (range(0, 5, 2), range(1, 5)),
                   r"^plan {axis} run 1 \(taps 1,2,3,4\) steps by 1, not by the stride 2$"),
    "missing": (5, 2, (range(0, 5, 2),), r"^plan {axis} runs hold no kernel {axis} 1$"),
    # geometry passes; the family's own lookup refuses 14 taps
    "14 taps": (14, 1, (range(14),), r"^F\(2,14\) needs 14 interpolation nodes"),
}


@pytest.mark.parametrize("axis", ["row", "col"])
@pytest.mark.parametrize("case", BAD_RUNS)
def test_plan_rejects_a_bad_run_on_either_axis(case, axis):
    taps, stride, runs, message = BAD_RUNS[case]
    if axis == "row":
        spec, rows, cols = ConvSpec(kernel=(taps, 5), stride=(stride, 1)), runs, FIVE
    else:
        spec, rows, cols = ConvSpec(kernel=(5, taps), stride=(1, stride)), FIVE, runs
    with pytest.raises(ValueError, match=message.format(axis=axis)):
        DecompositionPlan(spec, rows, cols)


def test_runs_given_as_a_list_or_a_generator_make_the_tuple_plan():
    # the check reads the runs before the parts are crossed from them, so a
    # generator must give the same parts as the tuple
    spec = ConvSpec(kernel=(5, 5))
    plan = DecompositionPlan(spec, FIVE, FIVE)
    assert DecompositionPlan(spec, list(FIVE), iter(FIVE)) == plan
    assert DecompositionPlan(spec, iter(FIVE), list(FIVE)).parts == plan.parts
    assert len(plan.parts) == 4
    assert hash(DecompositionPlan(spec, list(FIVE), FIVE)) == hash(plan)
    with pytest.raises(ValueError, match="^plan row runs hold no kernel row 3$"):
        DecompositionPlan(spec, iter(FIVE[:1]), iter(FIVE))


SPEC_5 = ConvSpec(kernel=(5, 5), pad=(2, 2, 2, 2))  # 3+2 by 3+2 taps, stride 1
BAD_PLANS = {  # spec, rows, cols, message
    "part missing": (SPEC_5, FIVE[:1], FIVE, r"^plan row runs hold no kernel row 3$"),
    "part repeated": (SPEC_5, FIVE, FIVE + FIVE[1:],
                      r"^plan col run 2 \(taps 3,4\) repeats col 3 of run 1$"),
    "past the kernel": (SPEC_5, (range(3), range(3, 6)), FIVE,
                        r"^plan row run 1 \(taps 3,4,5\) reaches row 5, "
                        r"outside the kernel's 5 rows$"),
    "wrong step": (replace(SPEC_5, stride=(2, 2)), FIVE, FIVE,
                   r"^plan row run 0 \(taps 0,1,2\) steps by 1, not by the stride 2$"),
}
# transform families that no plan can use: F(4, r), and F(2, r') with r' != r
F4_FAMILY = lambda r: cook_toom(4, r)
WRONG_R_FAMILY = lambda r: get_transform(r % 3 + 1)
M_MESSAGE = r"^engine produces 2x2 output tiles; transforms must have m == 2$"
R_MESSAGE = r"^transform tap counts must match the axis counts$"
BAD_FAMILIES = {"F(4, 3)": (F4_FAMILY, M_MESSAGE),
                "F(2, 1) for 3 taps": (WRONG_R_FAMILY, R_MESSAGE)}


@pytest.mark.parametrize("engine", ["dwm_conv2d", "dwm_backward"])
@pytest.mark.parametrize("case", [*BAD_PLANS, *BAD_FAMILIES])
def test_bad_plan_raises_when_built(case, engine):
    # the plan's own message, not one from a tensor stage or numpy
    if case in BAD_PLANS:
        (spec, rows, cols, message), family = BAD_PLANS[case], get_transform
    else:
        (family, message), spec, rows, cols = BAD_FAMILIES[case], SPEC_5, FIVE, FIVE
    rng = np.random.default_rng(3)
    x, w = rng.standard_normal((1, 2, 9, 9)), rng.standard_normal((2, 2, 5, 5))
    gy = rng.standard_normal((1, 2, *spec.out_dims(9, 9)))
    with pytest.raises(ValueError, match=message):
        if engine == "dwm_conv2d":
            dwm_conv2d(x, w, spec, plan=DecompositionPlan(spec, rows, cols, family))
        else:
            dwm_backward(gy, DecompositionPlan(spec, rows, cols, family), x, w)


def _mutated(draw, rows: tuple[range, ...], cols: tuple[range, ...]):
    """(rows, cols, family): one run of one axis dropped, repeated or
    emptied, or given another start, step or length, under the default
    family; or the runs unchanged under a family of F(4, r) or of the
    wrong tap count."""
    kind = draw(st.sampled_from(["drop", "repeat", "empty", "start", "step", "length",
                                 "m", "r"]))
    if kind in ("m", "r"):
        return rows, cols, F4_FAMILY if kind == "m" else WRONG_R_FAMILY
    axis = draw(st.sampled_from(["row", "col"]))
    runs = rows if axis == "row" else cols
    i = draw(st.integers(0, len(runs) - 1))
    start, step, length = runs[i].start, runs[i].step, len(runs[i])
    if kind == "drop":
        runs = runs[:i] + runs[i + 1:]
    elif kind == "repeat":
        runs = runs + runs[i:i + 1]
    else:
        if kind == "empty":
            length = 0
        elif kind == "start":
            start = draw(st.integers(-2, 16).filter(lambda s: s != start))
        elif kind == "step":
            step = draw(st.integers(1, 5).filter(lambda s: s != step))
        else:
            length = draw(st.integers(1, 4).filter(lambda n: n != length))
        runs = runs[:i] + (range(start, start + step * length, step),) + runs[i + 1:]
    return (runs, cols, get_transform) if axis == "row" else (rows, runs, get_transform)


@given(st.tuples(st.integers(1, 13), st.integers(1, 13)),
       st.tuples(st.integers(1, 4), st.integers(1, 4)), st.data())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_plans_pass_and_any_one_mutation_is_rejected(kernel, stride, data):
    spec = ConvSpec(kernel=kernel, stride=stride)
    plan = plan_decomposition(spec)  # a checked plan: building it raised nothing
    with pytest.raises(ValueError,
                       match=r"^(plan (row|col) |engine produces|transform tap)"):
        DecompositionPlan(spec, *_mutated(data.draw, plan.rows, plan.cols))


def test_a_hand_built_plan_under_the_baseline_family_equals_the_oracle():
    # a 12x12 kernel split 6+6 per axis: four parts of F(2, 6) baseline
    # transforms, one tap-count pair, so the backward builds A dY At once
    runs = (range(6), range(6, 12))
    spec = ConvSpec(kernel=(12, 12), pad=(1, 0, 2, 1))
    plan = DecompositionPlan(spec, runs, runs, get_baseline_transform)
    assert set(map(plan.transforms, plan.parts)) == {(get_baseline_transform(6),) * 2}
    # multiples of 1/4 keep every product and sum of the binary64 oracle exact
    rng = np.random.default_rng(12)
    d = rng.integers(-8, 9, (1, 2, 14, 13)) / 4
    w = rng.integers(-8, 9, (3, 2, 12, 12)) / 4
    oh, ow = spec.out_dims(14, 13)  # 4x5: the odd extent leaves a partial tile
    dy = rng.integers(-8, 9, (1, 3, oh, ow)) / 4
    exact = np.vectorize(Fraction, otypes=[object])
    y = dwm_conv2d(exact(d), exact(w), spec, plan)
    gd, gw = dwm_backward(exact(dy), plan, exact(d), exact(w))
    want_d, want_w = oracle_grads(d, w, spec, dy)
    assert y.dtype == gd.dtype == gw.dtype == np.dtype(object)
    assert y.tolist() == exact(oracle_conv(d, w, spec)).tolist()
    assert gd.tolist() == exact(want_d).tolist()
    assert gw.tolist() == exact(want_w).tolist()
