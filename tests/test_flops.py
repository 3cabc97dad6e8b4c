import json
from fractions import Fraction as F

import pytest

from dwmconv.convspec import ConvSpec
from dwmconv.decompose import plan_decomposition
from dwmconv.flops import (count_non_shift_free, flops_direct, flops_dwm,
                           flops_winograd_classic, is_shift_free, speedup_table)
from dwmconv.transforms import get_baseline_transform, get_transform

OUT14 = (14, 14)

# reference 14x14 sweep: exact multiplication counts and 2-decimal speedups
EXPECTED = {
    (3, 1): (1764, 784, 2.25),
    (5, 1): (4900, 2401, 2.04),
    (7, 1): (9604, 4900, 1.96),
    (9, 1): (15876, 7056, 2.25),
    (11, 1): (23716, 11025, 2.15),
    (3, 2): (1764, 1225, 1.44),
    (5, 2): (4900, 2401, 2.04),
    (7, 2): (9604, 4900, 1.96),
    (9, 2): (15876, 8281, 1.92),
    (11, 2): (23716, 11025, 2.15),
}


@pytest.mark.parametrize("value,expected", [
    (F(1, 4), True), (F(-4), True), (F(0), True), (F(1), True), (F(-1), True),
    (F(2), True), (F(1, 2), True), (F(-1, 2), True), (16, True),
    (F(-5), False), (F(1, 6), False), (F(3, 2), False), (F(1, 3), False), (3, False),
])
def test_is_shift_free(value, expected):
    assert is_shift_free(value) is expected


def test_direct_counts():
    assert flops_direct(ConvSpec(kernel=(3, 3)), OUT14) == 1764
    assert flops_direct(ConvSpec(kernel=(5, 5)), OUT14) == 4900
    assert flops_direct(ConvSpec(kernel=(11, 11)), OUT14) == 14 * 14 * 121 == 23716


@pytest.mark.parametrize("key,vals", EXPECTED.items())
def test_dwm_counts_and_speedups(key, vals):
    r, s = key
    direct_want, dwm_want, speedup_want = vals
    spec = ConvSpec(kernel=(r, r), stride=(s, s))
    plan = plan_decomposition(spec)
    assert flops_direct(spec, OUT14) == direct_want
    assert flops_dwm(plan, OUT14) == dwm_want
    assert round(direct_want / dwm_want, 2) == speedup_want


def test_part_transforms_are_entirely_shift_free():
    # the reason decomposed transform stages cost nothing, checked not assumed
    for r in (1, 2, 3):
        ts = get_transform(r)
        assert count_non_shift_free(ts.g) == 0
        assert count_non_shift_free(ts.b_t) == 0
        assert count_non_shift_free(ts.a_t) == 0


def test_winograd_classic_3x3_is_784_all_transforms_free():
    spec = ConvSpec(kernel=(3, 3))
    assert flops_winograd_classic(spec, OUT14) == 784
    assert round(1764 / 784, 2) == 2.25


def test_winograd_classic_5x5_own_convention_value():
    # elementwise 49*36 plus data-transform 49*2*6*2 plus kernel-transform 20*(5+6)
    ts = get_baseline_transform(5)
    assert count_non_shift_free(ts.b_t) == 2
    assert count_non_shift_free(ts.g) == 20
    spec = ConvSpec(kernel=(5, 5))
    assert flops_winograd_classic(spec, OUT14) == 49 * 36 + 49 * 2 * 6 * 2 + 20 * (5 + 6) == 3160


def test_winograd_classic_stride2_not_applicable():
    assert flops_winograd_classic(ConvSpec(kernel=(3, 3), stride=(2, 2)), OUT14) is None
    # beyond the 13-node point sequence: no classic transform exists
    assert flops_winograd_classic(ConvSpec(kernel=(14, 14)), OUT14) is None


def test_winograd_classic_grows_much_faster_than_dwm():
    for r in (7, 9, 11):
        spec = ConvSpec(kernel=(r, r))
        wino = flops_winograd_classic(spec, OUT14)
        dwm = flops_dwm(plan_decomposition(spec), OUT14)
        assert wino > flops_direct(spec, OUT14) > dwm


def test_degenerate_dwm_equals_classic_winograd_cost():
    for r in (1, 2, 3):
        spec = ConvSpec(kernel=(r, r))
        assert flops_dwm(plan_decomposition(spec), OUT14) == \
            flops_winograd_classic(spec, OUT14)


def test_dwm_beats_direct_for_all_kernels_at_least_2():
    for r in range(2, 12):
        for s in (1, 2, 3):
            spec = ConvSpec(kernel=(r, r), stride=(s, s))
            assert flops_dwm(plan_decomposition(spec), OUT14) <= flops_direct(spec, OUT14)


def test_reference_grid_speedups_within_published_band():
    for (r, s), (direct_want, dwm_want, _) in EXPECTED.items():
        speedup = direct_want / dwm_want
        assert 1.4 <= speedup <= 2.3


def test_one_by_one_has_no_speedup():
    spec = ConvSpec(kernel=(1, 1))
    rep = speedup_table([(spec, OUT14)]).rows[0]
    assert rep.direct == rep.dwm == 196
    assert rep.dwm_speedup == 1.0


def test_speedup_table_matches_reference_grid():
    configs = [(ConvSpec(kernel=(r, r), stride=(s, s)), OUT14)
               for (r, s) in EXPECTED]
    for rep, ((r, s), (direct_want, dwm_want, speedup_want)) in zip(
            speedup_table(configs).rows, EXPECTED.items()):
        assert rep.direct == direct_want
        assert rep.dwm == dwm_want
        assert round(rep.dwm_speedup, 2) == speedup_want
        if s > 1:
            assert rep.winograd is None and rep.winograd_speedup is None


def test_stride4_11x11_axis_parts_give_15_products_per_axis():
    spec = ConvSpec(kernel=(11, 11), stride=(4, 4))
    plan = plan_decomposition(spec)
    row_counts = sorted({(p.row.origin, p.row.count) for p in plan.parts})
    assert [c for _, c in row_counts] == [3, 3, 3, 2]
    assert flops_dwm(plan, OUT14) == 49 * 15 * 15 == 11025


def test_json_records_give_exact_counts_under_the_report_keys():
    table = speedup_table([(ConvSpec(kernel=(3, 3)), OUT14),
                           (ConvSpec(kernel=(3, 3), stride=(2, 2)), (7, 7))])
    assert json.loads(json.dumps(table.to_json())) == [
        {"kernel": [3, 3], "stride": [1, 1], "out": [14, 14], "direct": 1764,
         "winograd": 784, "winograd_speedup": 2.25, "dwm": 784, "dwm_speedup": 2.25},
        {"kernel": [3, 3], "stride": [2, 2], "out": [7, 7], "direct": 441,
         "winograd": None, "winograd_speedup": None, "dwm": 400, "dwm_speedup": 1.1025}]


def test_csv_formatting():
    configs = [(ConvSpec(kernel=(r, r), stride=(s, s)), OUT14) for (r, s) in EXPECTED]
    csv_text = speedup_table(configs).to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("#")  # counting convention declared up front
    assert lines[1] == "kernel,stride,direct,winograd,winograd_speedup,dwm,dwm_speedup"
    body = lines[2:]
    assert body[0] == "3x3,1,1.76E+03,7.84E+02,2.25,7.84E+02,2.25"
    assert body[5].startswith("3x3,2,1.76E+03,N/A,N/A,1.23E+03,1.44")
    assert "2.37E+04" in body[4] and "1.10E+04" in body[4]
    assert "8.28E+03,1.92" in body[8]
