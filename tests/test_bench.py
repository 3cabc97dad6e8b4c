import collections
import dataclasses
import json

import numpy as np
import pytest

from dwmconv import bench, engines, flops
from dwmconv.bench import (AccuracyConfig, AccuracyRow, AccuracyReport, _draw,
                           analyze_network, check_accuracy_bands, load_network,
                           run_accuracy_suite)
from dwmconv.convspec import ConvSpec
from dwmconv.decompose import plan_classic, plan_decomposition
from dwmconv.engines import direct_conv2d, dwm_conv2d, gemm_conv2d, winograd_conv2d
from dwmconv.tensor import mse
from dwmconv.transforms import get_baseline_transform
from dwmconv.flops import flops_direct, flops_dwm, flops_winograd_classic, speedup_table

SMALL = [AccuracyConfig(kernel=(3, 3), stride=(1, 1), hw=8, channels=4, filters=4),
         AccuracyConfig(kernel=(5, 5), stride=(2, 2), hw=8, channels=4, filters=4)]


def test_accuracy_suite_row_structure():
    report = run_accuracy_suite(SMALL, seeds=[1])
    by_key = {(r.kernel, r.algorithm, r.precision): r for r in report.rows}
    # binary64 direct sanity row is exactly zero
    assert by_key[((3, 3), "direct", "binary64")].mse == 0.0
    assert by_key[((3, 3), "direct", "binary64")].log_scaled is None
    # binary64 decomposed path is the same arithmetic rearranged
    assert by_key[((3, 3), "dwm", "binary64")].mse <= 1e-20
    assert by_key[((5, 5), "dwm", "binary64")].mse <= 1e-20
    # the classic row only exists at stride 1
    assert ((3, 3), "winograd", "binary32") in by_key
    assert ((5, 5), "winograd", "binary32") not in by_key
    for row in report.rows:
        assert row.status == "ok"
        if row.mse:
            assert row.log_scaled == pytest.approx(np.log10(row.mse) + 10)


def test_accuracy_suite_has_no_classic_row_beyond_13_taps():
    wide = AccuracyConfig(kernel=(14, 14), stride=(1, 1), hw=15, channels=1, filters=1)
    rows = run_accuracy_suite([wide], seeds=[1]).rows
    assert [(r.algorithm, r.precision) for r in rows] == [
        ("direct", "binary64"), ("direct", "binary32"), ("dwm", "binary32"), ("dwm", "binary64")]


def test_accuracy_suite_is_deterministic():
    a = run_accuracy_suite(SMALL, seeds=[1, 2])
    b = run_accuracy_suite(SMALL, seeds=[1, 2])
    assert a == b
    assert a.to_csv() == b.to_csv()


def test_accuracy_suite_rows_equal_the_public_engines():
    # every row must equal the public engine's on the same draw
    configs = SMALL + [AccuracyConfig(kernel=(4, 2), stride=(1, 1), hw=7, channels=3,
                                      filters=2, batch=2)]
    report = run_accuracy_suite(configs, seeds=[3])
    rows = iter(report.rows)
    for cfg in configs:
        spec = cfg.spec()
        data, weights = _draw(cfg, 3)
        reference = gemm_conv2d(data, weights, spec, precision="binary64")
        public = {("direct", "binary64"): reference,
                  ("direct", "binary32"): direct_conv2d(data, weights, spec, "binary32"),
                  ("dwm", "binary32"): dwm_conv2d(data, weights, spec, precision="binary32"),
                  ("dwm", "binary64"): dwm_conv2d(data, weights, spec, precision="binary64")}
        if spec.stride == (1, 1):
            baseline = plan_classic(spec, get_baseline_transform)
            public["winograd", "binary32"] = winograd_conv2d(data, weights, spec, baseline,
                                                             precision="binary32")
        for _ in public:
            row = next(rows)
            assert row.mse == mse(public[row.algorithm, row.precision], reference)
    assert next(rows, None) is None


def test_accuracy_suite_calls_each_public_engine_once_per_row(monkeypatch):
    calls = {}

    def counting(name):
        engine = getattr(bench, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return engine(*args, **kwargs)
        return wrapper

    expected = run_accuracy_suite(SMALL, seeds=[1, 2])
    for name in ("direct_conv2d", "gemm_conv2d", "winograd_conv2d", "dwm_conv2d"):
        monkeypatch.setattr(bench, name, counting(name))
    assert run_accuracy_suite(SMALL, seeds=[1, 2]) == expected
    rows = collections.Counter(r.algorithm for r in expected.rows
                               if (r.algorithm, r.precision) != ("direct", "binary64"))
    assert calls == {"gemm_conv2d": len(SMALL) * 2, "direct_conv2d": rows["direct"],
                     "winograd_conv2d": rows["winograd"], "dwm_conv2d": rows["dwm"]}


@pytest.mark.parametrize("builder", ["plan_classic", "plan_decomposition"])
def test_accuracy_suite_builds_each_plan_once_per_config(monkeypatch, builder):
    # every binding a row could build through: the suite's, the FLOP model's, the engines'
    built = []
    for module in (bench, flops, engines):
        build = getattr(module, builder, None)
        if build is not None:
            monkeypatch.setattr(module, builder,
                                lambda spec, *args, build=build: built.append(spec) or
                                build(spec, *args))
    run_accuracy_suite(SMALL, seeds=[1, 2])
    assert built == [cfg.spec() for cfg in SMALL]


def test_accuracy_same_padding_keeps_extent():
    cfg = AccuracyConfig(kernel=(5, 5), stride=(1, 1), hw=14, channels=2, filters=2)
    assert cfg.spec().out_dims(14, 14) == (14, 14)


def test_accuracy_direct_binary32_error_magnitude_28x28():
    # reference magnitude for 3x3 on a 28x28 map with 128 channels is ~1e-10
    cfg = AccuracyConfig(kernel=(3, 3), stride=(1, 1), hw=28, channels=128, filters=128)
    report = run_accuracy_suite([cfg], seeds=[1])
    row = next(r for r in report.rows
               if (r.algorithm, r.precision) == ("direct", "binary32"))
    assert 1e-12 <= row.mse <= 1e-8


def test_band_checker_passes_clean_report():
    rows = []
    for r, wino in ((3, 1e-10), (5, 1e-8), (7, 1e-3), (9, 3e-3), (11, 1e-2)):
        common = dict(kernel=(r, r), stride=(1, 1), hw=14, channels=64, filters=64,
                      batch=1, seed=1, status="ok")
        rows.append(AccuracyRow(algorithm="winograd", precision="binary32",
                                mse=wino, log_scaled=None, **common))
        rows.append(AccuracyRow(algorithm="dwm", precision="binary32",
                                mse=1e-9, log_scaled=None, **common))
        rows.append(AccuracyRow(algorithm="dwm", precision="binary64",
                                mse=1e-26, log_scaled=None, **common))
    assert check_accuracy_bands(AccuracyReport(rows=tuple(rows))) == []


def test_band_checker_flags_violations():
    common = dict(kernel=(7, 7), stride=(1, 1), hw=14, channels=64, filters=64,
                  batch=1, seed=1, status="ok", log_scaled=None)
    too_accurate = AccuracyRow(algorithm="winograd", precision="binary32",
                               mse=1e-8, **common)
    too_sloppy = AccuracyRow(algorithm="dwm", precision="binary32", mse=1e-3, **common)
    report = AccuracyReport(rows=(too_accurate, too_sloppy))
    messages = "\n".join(check_accuracy_bands(report))
    assert "winograd" in messages and "dwm" in messages


def test_band_checker_flags_non_monotone_winograd():
    rows = []
    for r, wino in ((7, 1e-2), (9, 1e-3)):  # decreasing: violation
        rows.append(AccuracyRow(kernel=(r, r), stride=(1, 1), hw=14, channels=64,
                                filters=64, batch=1, seed=1, algorithm="winograd",
                                precision="binary32", status="ok", mse=wino,
                                log_scaled=None))
    assert any("monotone" in v for v in check_accuracy_bands(AccuracyReport(tuple(rows))))


def test_band_checker_reports_overflow_rows():
    row = AccuracyRow(kernel=(7, 7), stride=(1, 1), hw=14, channels=64, filters=64,
                      batch=1, seed=1, algorithm="winograd", precision="binary32",
                      status="overflow", mse=None, log_scaled=None)
    assert any("overflow" in v for v in check_accuracy_bands(AccuracyReport((row,))))


def test_accuracy_suite_reports_binary32_overflow_and_the_band_check_lists_it(monkeypatch):
    # inputs near 1e20 make 1e40 products: past binary32, not binary64
    draw = bench._draw
    monkeypatch.setattr(bench, "_draw", lambda cfg, seed: tuple(x * 1e20 for x in draw(cfg, seed)))
    cfg = AccuracyConfig(kernel=(5, 5), stride=(1, 1), hw=6, channels=2, filters=2)
    report = run_accuracy_suite([cfg], [1])
    status = {(r.algorithm, r.precision): r.status for r in report.rows}
    assert status == {("direct", "binary64"): "ok", ("direct", "binary32"): "overflow",
                      ("winograd", "binary32"): "overflow", ("dwm", "binary32"): "overflow",
                      ("dwm", "binary64"): "ok"}
    csv_tails = [line.rsplit(",", 4)[1:] for line in report.to_csv().splitlines()[1:]]
    assert [t for t in csv_tails if t[1] == "overflow"] == [["binary32", "overflow", "", ""]] * 3
    dwm64 = next(r for r in report.rows if (r.algorithm, r.precision) == ("dwm", "binary64"))
    assert dwm64.mse > 1e-20
    assert check_accuracy_bands(report) == [
        "overflow in direct/binary32 at kernel (5, 5)",
        "overflow in winograd/binary32 at kernel (5, 5)",
        "overflow in dwm/binary32 at kernel (5, 5)",
        f"dwm binary64 mse {dwm64.mse:.3E} > 1e-20 at kernel (5, 5)",
    ]


def test_band_checker_leaves_strided_binary32_rows_unbanded():
    row = AccuracyRow(kernel=(5, 5), stride=(2, 2), hw=14, channels=64, filters=64,
                      batch=1, seed=1, algorithm="dwm", precision="binary32",
                      status="ok", mse=1e-3, log_scaled=None)
    assert check_accuracy_bands(AccuracyReport((row,))) == []
    stride1 = dataclasses.replace(row, stride=(1, 1))
    assert check_accuracy_bands(AccuracyReport((stride1,))) == [
        "dwm binary32 mse 1.000E-03 > 1e-7 at kernel (5, 5)"]


def test_flops_suite_empty_config_is_empty():
    table = speedup_table([])
    assert table.rows == () and table.to_json() == []
    assert table.to_csv().strip().split("\n")[-1].startswith("kernel,")


def test_flops_suite_reference_values():
    configs = [(ConvSpec(kernel=(r, r), stride=(s, s)), (14, 14))
               for s in (1, 2) for r in (3, 5, 7, 9, 11)]
    assert [rep.dwm for rep in speedup_table(configs).rows] == [
        784, 2401, 4900, 7056, 11025, 1225, 2401, 4900, 8281, 11025]


def test_check_flops_compares_each_expected_key_with_the_json_record():
    table = speedup_table([(ConvSpec(kernel=(3, 3)), (14, 14)),
                             (ConvSpec(kernel=(3, 3), stride=(2, 2)), (14, 14))])
    assert bench.check_flops(table, [
        {"direct": 1764, "winograd": 784.0, "dwm_speedup": 2.254},
        {"winograd": None, "winograd_speedup": None}, None]) == []
    assert bench.check_flops(table, [{"dwm": 785, "dwm_speedup": 2.26},
                                       {"winograd": 784, "dwm_speedup": None}]) == [
        "3x3 s1: dwm = 784, expected 785", "3x3 s1: dwm_speedup = 2.25, expected 2.26",
        "3x3 s2: winograd = None, expected 784", "3x3 s2: dwm_speedup = 1.44, expected None"]


def _single_layer_net(**overrides):
    layer = {"name": "conv", "in_channels": 1, "out_channels": 1, "kernel": [3, 3],
             "stride": [1, 1], "pad": [1, 1, 1, 1], "input": [14, 14]}
    layer.update(overrides)
    return load_network({"schema": 1, "name": "single", "layers": [layer]})


def test_analyze_single_layer_delegates_to_flop_model():
    net = _single_layer_net()
    report = analyze_network(net)
    assert report.layers[0].out == (14, 14)
    assert report.totals == {"direct": 1764, "winograd": 784, "dwm": 784}


def test_analyze_two_layer_totals_are_additive():
    net = _single_layer_net()
    double = dataclasses.replace(net, layers=net.layers * 2)
    assert analyze_network(double).totals == {"direct": 2 * 1764, "winograd": 2 * 784,
                                              "dwm": 2 * 784}


def test_analyze_one_by_one_passes_through():
    net = _single_layer_net(kernel=[1, 1], pad=[0, 0, 0, 0])
    rep = analyze_network(net).layers[0]
    assert rep.direct == rep.winograd == rep.dwm


def test_analyze_strided_layer_scales_by_channels():
    net = _single_layer_net(kernel=[11, 11], stride=[4, 4], pad=[2, 2, 2, 2],
                            input=[224, 224], in_channels=3, out_channels=64)
    report = analyze_network(net)
    rep = report.layers[0]
    assert rep.out == (55, 55)
    assert rep.winograd is None
    spec = ConvSpec(kernel=(11, 11), stride=(4, 4), pad=(2, 2, 2, 2))
    assert rep.direct == flops_direct(spec, (55, 55)) * 3 * 64
    assert rep.dwm == flops_dwm(plan_decomposition(spec), (55, 55)) * 3 * 64
    # realized speedup is a bit below the even-extent per-tile ratio of 2.15
    # because 55x55 outputs round up to 28x28 tiles
    assert 2.0 <= rep.direct / rep.dwm <= 2.2
    assert report.totals["winograd"] == rep.direct  # fallback where not applicable


def test_analyze_rectangular_kernels():
    net = _single_layer_net(kernel=[1, 7], pad=[0, 0, 3, 3])
    rep = analyze_network(net).layers[0]
    assert rep.out == (14, 14)
    spec = ConvSpec(kernel=(1, 7), pad=(0, 0, 3, 3))
    assert rep.dwm == flops_dwm(plan_decomposition(spec), (14, 14))
    assert rep.winograd == flops_winograd_classic(spec, (14, 14))
    assert rep.dwm < rep.direct


def test_network_json_holds_the_name_layers_and_totals():
    report = analyze_network(_single_layer_net(stride=[2, 2]))
    assert json.loads(json.dumps(report.to_json())) == {
        "network": "single",
        "layers": [{"name": "conv", "kernel": [3, 3], "stride": [2, 2], "out": [7, 7],
                    "direct": 441, "winograd": None, "dwm": 400}],
        "totals": {"direct": 441, "winograd": 441, "dwm": 400}}


def test_network_csv_has_total_row():
    net = _single_layer_net()
    text = analyze_network(net).to_csv()
    assert text.strip().split("\n")[-1].startswith("TOTAL,")


def test_network_csv_counts_round_half_up_as_the_flops_csv():
    # 1225 is a tie at three digits: half-up gives 1.23E+03, where
    # f"{1225:.2E}" rounds the binary 1225.0 to even, 1.22E+03
    layer = bench.LayerReport(name="tie", kernel=(1, 1), stride=(1, 1), out=(35, 35),
                              direct=1225, winograd=None, dwm=1225)
    report = bench.NetworkReport("tie", (layer,), {"direct": 1225, "winograd": 1225,
                                                   "dwm": 1225})
    assert report.to_csv().splitlines()[2:] == [
        "tie,1x1,1x1,35x35,1.23E+03,N/A,N/A,1.23E+03,1.00",
        "TOTAL,-,-,-,1.23E+03,1.23E+03,1.00,1.23E+03,1.00"]


def test_load_network_rejects_bad_schema():
    with pytest.raises(ValueError, match="schema"):
        load_network({"schema": 2, "layers": []})


def test_load_network_names_offending_layer():
    doc = {"schema": 1, "layers": [{"name": "convX", "in_channels": 1}]}
    with pytest.raises(ValueError, match="convX"):
        load_network(doc)


def test_analyze_names_layer_with_impossible_geometry():
    with pytest.raises(ValueError, match="tiny"):
        analyze_network(_single_layer_net(name="tiny", input=[2, 2], kernel=[3, 3],
                                          pad=[0, 0, 0, 0]))


def test_accuracy_csv_writes_both_strides_when_they_differ():
    doc = {"schema": 1, "seeds": [1], "configs": [
        {"kernel": 3, "stride": 1, "hw": 6, "channels": 1, "filters": 1},
        {"kernel": 3, "stride": [1, 2], "hw": 6, "channels": 1, "filters": 1}]}
    report = run_accuracy_suite(*bench.parse_accuracy_config(doc))
    strides = {line.split(",")[1] for line in report.to_csv().splitlines()[1:]}
    assert strides == {"1", "1x2"}
    assert {tuple(r["stride"]) for r in report.to_json()} == {(1, 1), (1, 2)}
