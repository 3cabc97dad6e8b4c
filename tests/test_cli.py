import json
import os
import subprocess
import sys

import numpy as np
import pytest

from dwmconv import (ConvSpec, bench, cli, convolve, flops_dwm, plan_classic,
                     plan_decomposition, plan_to_json, tensorfile)
from dwmconv.transforms import VerifyResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_transforms_f23(capsys):
    code, out, err = run_cli(capsys, "gen-transforms", "2", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["b_t"] == [["1", "0", "-1", "0"], ["0", "1", "1", "0"],
                          ["0", "-1", "1", "0"], ["0", "1", "0", "-1"]]
    assert doc["g"] == [["1", "0", "0"], ["1/2", "1/2", "1/2"],
                        ["1/2", "-1/2", "1/2"], ["0", "0", "1"]]
    assert doc["a_t"] == [["1", "1", "1", "0"], ["0", "1", "-1", "-1"]]


def test_gen_transforms_f25_highlight_rows(capsys):
    code, out, _ = run_cli(capsys, "gen-transforms", "2", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["g"][3] == ["1/24", "1/12", "1/6", "1/3", "2/3"]
    assert doc["b_t"][0] == ["4", "0", "-5", "0", "1", "0"]
    assert doc["a_t"][1] == ["0", "1", "-1", "2", "-2", "1"]


def test_gen_transforms_rejects_duplicate_points(capsys):
    code, _, err = run_cli(capsys, "gen-transforms", "2", "3", "--points", "0,0")
    assert code != 0
    assert err == "error: interpolation points must be distinct, got [0, 0]\n"


def test_gen_transforms_names_equal_points_as_rationals(capsys):
    code, out, err = run_cli(capsys, "gen-transforms", "2", "3", "--points", "1/2,0.5")
    assert code == 1 and out == ""
    assert err == "error: interpolation points must be distinct, got [1/2, 1/2]\n"


def test_gen_transforms_rejects_bad_rational(capsys):
    code, _, err = run_cli(capsys, "gen-transforms", "2", "3", "--points", "0,1,x")
    assert code != 0


def test_gen_transforms_rejects_a_size_below_one(capsys):
    code, out, err = run_cli(capsys, "gen-transforms", "0", "3")
    assert (code, out, err) == (1, "", "error: m and r must be positive, got m=0, r=3\n")


def test_gen_transforms_exits_2_when_verification_fails(capsys, monkeypatch, tmp_path):
    failed = VerifyResult(ok=False, trials=3, failure=([1], [1, 2, 3, 4], [7, 8], [7, 9]))
    monkeypatch.setattr(cli, "verify_transform", lambda ts, trials: failed)
    out_path = tmp_path / "f23.json"
    code, out, err = run_cli(capsys, "gen-transforms", "2", "3", "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == ("error: generated transform failed verification after 3 trials: "
                   "filt=[1] data=[1, 2, 3, 4] expected=[7, 8] got=[7, 9]\n")
    assert not out_path.exists()


def test_gen_transforms_beyond_the_default_nodes_asks_for_points(capsys):
    code, out, err = run_cli(capsys, "gen-transforms", "2", "14")
    assert code == 1 and out == ""
    assert err == ("error: F(2,14) needs 14 interpolation nodes, but the default sequence "
                   "has 13; pass the points (--points)\n")


@pytest.mark.parametrize("argv,message", [
    (("2", "1", "--points", "5,6,7"), "F(2,1) needs 1 points, got 3"),
    (("400", "1"), "F(400,1) needs 399 interpolation nodes, but the default sequence has 13; "
     "pass the points (--points)"),
], ids=["r1-three-points", "r1-beyond-the-default-nodes"])
def test_gen_transforms_checks_the_nodes_at_r1(capsys, argv, message):
    code, out, err = run_cli(capsys, "gen-transforms", *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_gen_transforms_rejects_fewer_than_one_trial(capsys, trials):
    code, out, err = run_cli(capsys, "gen-transforms", "2", "3", "--trials", trials)
    assert code == 1 and out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"


def _write_fixture(tmp_path, shape_in, shape_w, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(shape_in).astype(dtype)
    w = rng.standard_normal(shape_w).astype(dtype)
    din, win = tmp_path / "in.dwm", tmp_path / "w.dwm"
    tensorfile.write_tensor(din, d)
    tensorfile.write_tensor(win, w)
    return din, win, d, w


def test_conv_direct_identity_kernel_roundtrips_file(tmp_path, capsys):
    din, win, d, _ = _write_fixture(tmp_path, (1, 1, 6, 6), (1, 1, 1, 1))
    w = np.ones((1, 1, 1, 1))
    tensorfile.write_tensor(win, w)
    out_path = tmp_path / "out.dwm"
    code, out, _ = run_cli(capsys, "conv", "--algo", "direct", "--in", str(din),
                           "--weights", str(win), "--out", str(out_path))
    assert code == 0
    np.testing.assert_array_equal(tensorfile.read_tensor(out_path), d)


def test_conv_dwm_verify_reports_tiny_diff(tmp_path, capsys):
    din, win, _, _ = _write_fixture(tmp_path, (1, 2, 11, 11), (2, 2, 5, 5))
    code, out, _ = run_cli(capsys, "conv", "--algo", "dwm", "--in", str(din),
                           "--weights", str(win), "--stride", "2", "--verify")
    assert code == 0
    diff = float(out.split("max_abs_diff_vs_direct=")[1].split()[0])
    assert diff <= 1e-12
    assert "mults_per_channel_filter=" in out


def test_conv_gemm_verify_prints_one_stats_line(tmp_path, capsys):
    din, win, _, _ = _write_fixture(tmp_path, (1, 2, 11, 11), (2, 2, 5, 5))
    code, out, err = run_cli(capsys, "conv", "--algo", "gemm", "--in", str(din),
                             "--weights", str(win), "--stride", "2", "--verify")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("algo=gemm kernel=5x5 stride=2x2 out=4x4 ")
    assert "mults_per_channel_filter=400 " in lines[0]  # flops_direct: 4*4 outputs, 25 taps
    assert float(lines[0].split("max_abs_diff_vs_direct=")[1]) <= 1e-12


@pytest.mark.parametrize("algo,parts", [("winograd", 1), ("dwm", 4)])
def test_conv_dump_plan_prints_the_plan_that_ran(tmp_path, capsys, algo, parts):
    din, win, d, w = _write_fixture(tmp_path, (1, 1, 8, 8), (1, 1, 5, 5))
    code, out, err = run_cli(capsys, "conv", "--algo", algo, "--in", str(din),
                             "--weights", str(win), "--dump-plan")
    assert code == 0, err
    stats, plan = out.split("\n", 1)
    assert len(json.loads(plan)["parts"]) == parts
    spec = ConvSpec(kernel=(5, 5))
    ran = (plan_classic if algo == "winograd" else plan_decomposition)(spec)
    assert f"mults_per_channel_filter={flops_dwm(ran, (4, 4))}" in stats
    assert plan == json.dumps(plan_to_json(convolve(d, w, spec, algo=algo).plan), indent=2) + "\n"


@pytest.mark.parametrize("algo", ["direct", "gemm"])
def test_conv_dump_plan_without_a_plan_is_one_error_line(tmp_path, capsys, algo):
    # the tensor files do not exist: the option is refused before they are read
    code, out, err = run_cli(capsys, "conv", "--algo", algo, "--in", str(tmp_path / "no.dwm"),
                             "--weights", str(tmp_path / "no_w.dwm"), "--dump-plan")
    assert code == 1 and out == ""
    assert err == f"error: --dump-plan needs --algo winograd or dwm; {algo} runs no plan\n"


def test_conv_winograd_stride2_errors_toward_dwm(tmp_path, capsys):
    din, win, _, _ = _write_fixture(tmp_path, (1, 1, 8, 8), (1, 1, 3, 3))
    code, _, err = run_cli(capsys, "conv", "--algo", "winograd", "--in", str(din),
                           "--weights", str(win), "--stride", "2")
    assert code != 0
    assert "dwm" in err


@pytest.mark.parametrize("argv", [
    ("conv", "--algo", "dwm", "--in", "x.dwm", "--weights", "w.dwm", "--stride=--"),
    ("gen-transforms", "2", "3", "--points=--"),
    ("analyze", "--network=--"),
], ids=["stride", "points", "network"])
def test_double_dash_flag_value_is_one_error_line(capsys, argv):
    # Python 3.11's argparse turns "--flag=--" into an empty list, not "--"
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err


def test_conv_refuses_kernel_flag(tmp_path, capsys):
    # the kernel taps come from the weights file only
    din, win, _, _ = _write_fixture(tmp_path, (1, 1, 8, 8), (1, 1, 3, 3))
    with pytest.raises(SystemExit) as exc:
        cli.main(["conv", "--algo", "direct", "--in", str(din), "--weights", str(win),
                  "--kernel", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kernel 3" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--stride", "x"), ("--stride", "1,2,3"), ("--pad", "1,2"), ("--pad", "1,,1,1"),
])
def test_conv_malformed_geometry_flag_is_one_error_line(tmp_path, flag, value):
    din, win, _, _ = _write_fixture(tmp_path, (1, 1, 8, 8), (1, 1, 3, 3))
    proc = subprocess.run([sys.executable, "-m", "dwmconv.cli", "conv", "--algo", "direct",
                           "--in", str(din), "--weights", str(win), flag, value],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and flag in errors[0]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("algo", ["direct", "winograd", "dwm"])
def test_conv_float32_overflow_is_one_error_line(tmp_path, algo):
    din, win = tmp_path / "in.dwm", tmp_path / "w.dwm"
    tensorfile.write_tensor(din, np.full((1, 1, 8, 8), 3e38, dtype=np.float32))
    tensorfile.write_tensor(win, np.full((1, 1, 3, 3), 10, dtype=np.float32))
    proc = subprocess.run([sys.executable, "-m", "dwmconv.cli", "conv", "--algo", algo,
                           "--in", str(din), "--weights", str(win)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


@pytest.mark.parametrize("argv,size,taps,message", [
    (("--algo", "dwm"), 8, 5, "dwm_conv2d part 0 (kernel rows 0,1,2; cols 0,1,2)"),
    (("--algo", "dwm", "--stride", "4"), 24, 11,
     "dwm_conv2d part 0 (kernel rows 0,4,8; cols 0,4,8)"),
    (("--algo", "gemm"), 8, 3, "gemm_conv2d"),
], ids=["dwm-5x5", "dwm-11x11s4", "gemm"])
def test_conv_float32_overflow_names_the_part_or_engine(tmp_path, argv, size, taps, message):
    """A multi-part plan's overflow is named by the checked rerun's part;
    gemm names itself.  Either way stderr holds the one ``error:`` line."""
    din, win = tmp_path / "in.dwm", tmp_path / "w.dwm"
    tensorfile.write_tensor(din, np.full((1, 1, size, size), 3e38, dtype=np.float32))
    tensorfile.write_tensor(win, np.full((1, 1, taps, taps), 10, dtype=np.float32))
    proc = subprocess.run([sys.executable, "-m", "dwmconv.cli", "conv", *argv,
                           "--in", str(din), "--weights", str(win)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message} produced non-finite values\n"


@pytest.mark.parametrize("algo", ["direct", "gemm", "winograd", "dwm"])
def test_conv_oversized_pad_is_one_error_line(tmp_path, capsys, algo):
    """numpy refuses the padded shape before allocating anything."""
    din, win, _, _ = _write_fixture(tmp_path, (1, 1, 8, 8), (1, 1, 3, 3))
    pad = "99999999999999999999"
    code, out, err = run_cli(capsys, "conv", "--algo", algo, "--in", str(din),
                             "--weights", str(win), "--pad", pad)
    extent = 8 + 2 * int(pad)
    assert code == 1 and out == ""
    assert err == (f"error: --pad {pad}: input 8x8 padded to {extent}x{extent} "
                   f"does not fit in memory\n")


def _out_of_memory(*args, **kwargs):
    raise MemoryError


def test_conv_out_of_memory_names_the_padded_extent(tmp_path, capsys, monkeypatch):
    din, win, _, _ = _write_fixture(tmp_path, (1, 1, 8, 8), (1, 1, 3, 3))
    monkeypatch.setattr(cli, "convolve", _out_of_memory)
    code, out, err = run_cli(capsys, "conv", "--algo", "dwm", "--in", str(din),
                             "--weights", str(win), "--pad", "1,2,3,4")
    assert code == 1 and out == ""
    assert err == "error: --pad 1,2,3,4: input 8x8 padded to 11x15 does not fit in memory\n"


@pytest.mark.parametrize("algo,taps,stride", [
    ("direct", 5, 2), ("winograd", 3, 1), ("dwm", 5, 2), ("dwm", 3, 1),
])
def test_conv_on_zero_images_writes_an_empty_output(tmp_path, capsys, algo, taps, stride):
    din, win, _, _ = _write_fixture(tmp_path, (0, 2, 9, 9), (3, 2, taps, taps))
    out_path = tmp_path / "out.dwm"
    code, out, err = run_cli(capsys, "conv", "--algo", algo, "--in", str(din),
                             "--weights", str(win), "--stride", str(stride),
                             "--pad", "1,1,1,1", "--verify", "--out", str(out_path))
    assert code == 0, err
    side = (9 + 2 - taps) // stride + 1
    assert f"out={side}x{side}" in out and "max_abs_diff_vs_direct=0.000000E+00" in out
    assert tensorfile.read_tensor(out_path).shape == (0, 3, side, side)


@pytest.mark.parametrize("taps", [(16, 16), (3, 14)])
def test_conv_winograd_tap_limit_errors_toward_dwm(tmp_path, capsys, taps):
    din, win, _, _ = _write_fixture(tmp_path, (1, 1, 20, 20), (1, 1, *taps))
    code, _, err = run_cli(capsys, "conv", "--algo", "winograd", "--in", str(din),
                           "--weights", str(win))
    assert code == 1
    assert "at most 13 taps per axis" in err and "--algo dwm" in err
    assert "count must be" not in err


def test_bench_flops_bundled_config_passes_check(capsys):
    code, out, err = run_cli(capsys, "bench", "--suite", "flops",
                             "--config", "flops_14x14.json", "--check")
    assert code == 0, err
    assert "3x3,1,1.76E+03,7.84E+02,2.25,7.84E+02,2.25" in out


def test_bench_flops_kernel_beyond_classic_winograd_is_na(tmp_path, capsys):
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"schema": 1, "out": [14, 14],
                               "configs": [{"kernel": 15, "stride": 1}]}))
    code, out, err = run_cli(capsys, "bench", "--suite", "flops", "--config", str(cfg))
    assert code == 0 and "Traceback" not in err, err
    row = out.splitlines()[-1].split(",")
    assert row[:2] == ["15x15", "1"] and row[3:5] == ["N/A", "N/A"]


def test_bench_flops_check_catches_wrong_expectation(tmp_path, capsys):
    doc = {"schema": 1, "out": [14, 14],
           "configs": [{"kernel": 3, "stride": 1, "expected": {"dwm": 999}}]}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "bench", "--suite", "flops",
                           "--config", str(cfg), "--check")
    assert code == 1
    assert "expected 999" in err


def test_bench_accuracy_small_config(tmp_path, capsys):
    doc = {"schema": 1, "seeds": [1],
           "configs": [{"kernel": 3, "stride": 1, "hw": 8, "channels": 4, "filters": 4}]}
    cfg = tmp_path / "acc.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "bench", "--suite", "accuracy",
                             "--config", str(cfg), "--out", str(tmp_path / "acc"))
    assert code == 0
    assert (tmp_path / "acc.csv").exists() and (tmp_path / "acc.json").exists()
    assert out.startswith("kernel,stride,hw,")


def test_bench_empty_config_exits_zero(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"schema": 1, "configs": []}))
    code, out, _ = run_cli(capsys, "bench", "--suite", "flops", "--config", str(cfg))
    assert code == 0


def test_bench_missing_config_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, "bench", "--suite", "flops",
                           "--config", "no_such_file.json")
    assert code != 0
    assert "not found" in err


def _acc(**entry):
    return {"schema": 1, "configs": [{"kernel": 3, "hw": 8, "channels": 2, "filters": 2,
                                      **entry}]}


def _net(**layer):
    return {"schema": 1, "layers": [{"name": "conv1", "in_channels": 1, "out_channels": 1,
                                     "kernel": 3, "input": 8, **layer}]}


FLOPS, ACCURACY, ANALYZE = ("bench", "--suite", "flops"), ("bench", "--suite", "accuracy"), \
    ("analyze",)


@pytest.mark.parametrize("command,doc,named", [
    (FLOPS, {"schema": 1, "configs": [{"stride": 1}]}, "entry 0: missing key 'kernel'"),
    (FLOPS, [], "bad.json"),
    (ACCURACY, [], "bad.json"),
    (ANALYZE, [], "bad.json"),
    (FLOPS, {"schema": 1, "configs": 5}, "'configs'"),
    (ACCURACY, _acc(stride=0), "entry 0"),
    (FLOPS, {"schema": 1, "configs": [{"kernel": 3, "out": [0, 14]}]}, "entry 0"),
    (ANALYZE, _net(pad=[1, 1]), "'conv1'"),
    (ACCURACY, {**_acc(), "seeds": ["x"]}, "'seeds'"),
    (ACCURACY, _acc(precisions=["binary16"]), "entry 0: unknown key 'precisions'"),
    (ACCURACY, _acc(channels=-1), "entry 0"),
    (FLOPS, {"schema": 1, "configs": [{"kernel": 3, "expected": 5}]}, "entry 0"),
    (ACCURACY, "{not json", "bad.json"),
    (ACCURACY, _acc(kernel=3.7), "entry 0: 'kernel' must be an integer, got 3.7"),
    (ACCURACY, _acc(hw=8.9), "entry 0: 'hw' must be an integer, got 8.9"),
    (ACCURACY, {**_acc(), "seeds": [1.9]}, "'seeds' must be a list of integers"),
    (FLOPS, {"schema": 1, "configs": [{"kernel": 3, "out": [14, 14.5]}]},
     "entry 0: 'out' must be an integer, got 14.5"),
    (ANALYZE, _net(in_channels=True), "'conv1': 'in_channels' must be an integer, got True"),
    (ACCURACY, {**_acc(), "seeds": [1, -1]}, "'seeds' must be non-negative, got [-1]"),
    (FLOPS, {"schema": True, "configs": []}, "unsupported flops config schema True"),
    (ANALYZE, {**_net(), "schema": 1.0}, "unsupported network schema 1.0"),
    (ACCURACY, {**_acc(), "seeds": ""}, "'seeds' must be a list, got ''"),
    (FLOPS, {"schema": 1, "configs": [{"kernel": 3, "expected": {"dwm_speedup": "x"}}]},
     "entry 0: expected must be a JSON object of numbers or nulls, got {'dwm_speedup': 'x'}"),
    (ANALYZE, _net(name="conv,1"), "entry 0 'conv,1': layer name must be a string without "
     "commas, double quotes or line breaks, got 'conv,1'"),
    (ANALYZE, _net(name="conv\n1"), "entry 0 'conv\\n1': layer name must be a string"),
    (ANALYZE, {**_net(), "name": {"a": 1, "b": 2}},
     "network name must be a string without commas, double quotes or line breaks, "
     "got {'a': 1, 'b': 2}"),
    (ANALYZE, _net(strides=4), "entry 0 'conv1': unknown key 'strides'"),
    (ACCURACY, _acc(strides=2), "entry 0: unknown key 'strides'"),
    (FLOPS, {"schema": 1, "configs": [{"kernel": 3, "strides": 2}]},
     "entry 0: unknown key 'strides'"),
    (FLOPS, {"schema": 1, "configs": [{"kernel": 3, "expected": {"dwn": 12345}}]},
     "entry 0: unknown expected key 'dwn'; expected one of direct, winograd, "
     "winograd_speedup, dwm, dwm_speedup"),
    (FLOPS, {"schema": 1, "configs": [{"kernel": 3, "expected": {"dwm": 784,
                                                                 "direct_speedup": 99}}]},
     "entry 0: unknown expected key 'direct_speedup'"),
    (ANALYZE, _net(in_channels=0), "entry 0 'conv1': in_channels and out_channels must be "
     "positive, got 0 and 1"),
    (ANALYZE, _net(out_channels=0), "entry 0 'conv1': in_channels and out_channels must be "
     "positive, got 1 and 0"),
    (ANALYZE, _net(in_channels=-2), "entry 0 'conv1': in_channels and out_channels must be "
     "positive, got -2 and 1"),
    (ANALYZE, _net(pad=0), "entry 0 'conv1': 'pad' must be a list, got 0"),
    (ACCURACY, _acc(kernel=[3, 3, 3]),
     "entry 0: 'kernel' must be an integer or a list of two integers, got [3, 3, 3]"),
    (ACCURACY, _acc(kernel=[]),
     "entry 0: 'kernel' must be an integer or a list of two integers, got []"),
    (FLOPS, {"schema": 1, "configs": [{"kernel": 3, "stride": [1, 2, 3]}]},
     "entry 0: 'stride' must be an integer or a list of two integers, got [1, 2, 3]"),
    (ANALYZE, _net(input=[8]),
     "entry 0 'conv1': 'input' must be an integer or a list of two integers, got [8]"),
], ids=["flops-missing-kernel", "flops-array", "accuracy-array", "network-array",
        "configs-not-a-list", "accuracy-stride-0", "flops-out-0", "layer-pad-pair",
        "seeds-not-integers", "unknown-precision", "negative-channels",
        "expected-not-an-object", "bad-json", "kernel-not-integer", "hw-not-integer",
        "seed-not-integer", "out-not-integer", "channels-bool", "seed-negative",
        "schema-true", "schema-float", "seeds-a-string",
        "expected-value-a-string", "layer-name-comma", "layer-name-newline",
        "network-name-object", "layer-strides", "accuracy-strides", "flops-strides",
        "expected-dwn", "expected-direct-speedup", "layer-in-channels-0",
        "layer-out-channels-0", "layer-in-channels-negative", "layer-pad-an-int",
        "accuracy-kernel-of-three", "accuracy-kernel-empty", "flops-stride-of-three",
        "layer-input-of-one"])
def test_bench_malformed_entry_is_identified(tmp_path, capsys, command, doc, named):
    cfg = tmp_path / "bad.json"
    cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    flag = "--network" if command == ANALYZE else "--config"
    code, out, err = run_cli(capsys, *command, flag, str(cfg))
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and named in errors[0], err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("doc,message", [
    ({"schema": 1, "out": [14, 14, 14], "configs": [{"kernel": 3}]},
     "flops config 'out' must be an integer or a list of two integers, got [14, 14, 14]"),
    ({"schema": 1, "out": "x", "configs": []}, "flops config 'out' must be an integer, got 'x'"),
], ids=["out-of-three-one-config", "out-a-string-no-configs"])
def test_bench_flops_document_out_is_named_as_the_documents(tmp_path, capsys, doc, message):
    """A document-level "out" is every entry's default, checked once as a
    field of the document: not blamed on entry 0, and checked with no entries."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *FLOPS, "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == f"error: {cfg}: {message}\n"


def test_bench_flops_entry_out_overrides_the_documents():
    doc = {"schema": 1, "out": [7, 9], "configs": [{"kernel": 3}, {"kernel": 3, "out": 4}]}
    assert [out for _, out, _ in bench.parse_flops_config(doc)] == [(7, 9), (4, 4)]


def test_bench_out_of_memory_names_the_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "acc.json"
    doc = _acc()
    doc["configs"].append({**doc["configs"][0], "kernel": [5, 3]})
    cfg.write_text(json.dumps(doc))
    suite = bench.run_accuracy_suite

    def second_out_of_memory(configs, seeds):
        if configs[0].kernel == (5, 3):
            raise MemoryError
        return suite(configs, seeds)

    monkeypatch.setattr(bench, "run_accuracy_suite", second_out_of_memory)
    code, out, err = run_cli(capsys, "bench", "--suite", "accuracy", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == f"error: {cfg}: config entry 1 (kernel 5x3) does not fit in memory\n"


def test_bench_config_beyond_numpys_size_limit_names_the_config(tmp_path, capsys):
    """numpy refuses the draw's shape before allocating anything."""
    cfg = tmp_path / "acc.json"
    cfg.write_text(json.dumps(_acc(hw=10**20)))
    code, out, err = run_cli(capsys, "bench", "--suite", "accuracy", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {cfg}: config entry 0 (kernel 3x3) is too large for an "
                          f"array (")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [
    ("gen-transforms", "2", "3"),
    ("conv", "--algo", "direct"),
    ("bench", "--suite", "flops", "--config", "flops_14x14.json"),
    ("analyze", "--network", "alexnet.json"),
], ids=lambda command: command[0])
def test_unwritable_out_path_is_one_error_line(tmp_path, command):
    if command[0] == "conv":
        din, win, _, _ = _write_fixture(tmp_path, (1, 1, 6, 6), (1, 1, 3, 3))
        command += ("--in", str(din), "--weights", str(win))
    out = tmp_path / "no" / "such" / "dir" / "x"
    proc = subprocess.run([sys.executable, "-m", "dwmconv.cli", *command, "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(out) in errors[0], proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ("analyze", "--network", "alexnet.json"),
    ("gen-transforms", "2", "3"),
], ids=lambda command: command[0])
def test_closed_stdout_is_one_error_line(tmp_path, command):
    # the pipe's read end is closed before the CLI writes, as when `| head` has exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = tmp_path / "report"
    try:
        proc = subprocess.run([sys.executable, "-m", "dwmconv.cli", *command, "--out", str(out)],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: stdout was closed before all output was written\n"
    if command[0] == "analyze":  # the report files are written before stdout
        report = bench.analyze_network(cli._load_config("alexnet.json", bench.load_network))
        assert (tmp_path / "report.csv").read_text(encoding="utf-8") == report.to_csv()
    else:
        assert json.loads(out.read_text(encoding="utf-8"))["r"] == 3


def test_analyze_bundled_alexnet(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--network", "alexnet.json")
    assert code == 0
    conv1 = next(line for line in out.splitlines() if line.startswith("conv1,"))
    fields = conv1.split(",")
    assert fields[1] == "11x11" and fields[6] == "N/A"  # no classic winograd at stride 4
    speedup_dwm = float(fields[-1])
    assert 2.0 <= speedup_dwm <= 2.2
    assert any(line.startswith("TOTAL,") for line in out.splitlines())


def test_analyze_kernel_beyond_classic_winograd_is_na(tmp_path, capsys):
    net = tmp_path / "wide.json"
    net.write_text(json.dumps(_net(kernel=15, input=20)))
    code, out, err = run_cli(capsys, "analyze", "--network", str(net))
    assert code == 0 and "Traceback" not in err, err
    conv1 = next(line for line in out.splitlines() if line.startswith("conv1,"))
    assert conv1.split(",")[1:3] + conv1.split(",")[5:7] == ["15x15", "1x1", "N/A", "N/A"]
    total = next(line for line in out.splitlines() if line.startswith("TOTAL,")).split(",")
    assert total[5] == total[4]  # the winograd total falls back to direct


def test_analyze_missing_network_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "--network", "missing.json")
    assert code != 0
    assert "not found" in err


def test_cli_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    doc = {"schema": 1, "seeds": [3],
           "configs": [{"kernel": 5, "stride": 2, "hw": 9, "channels": 3, "filters": 2}]}
    cfg = tmp_path / "acc.json"
    cfg.write_text(json.dumps(doc))

    blobs = []
    for run in ("a", "b"):
        base = tmp_path / f"rep_{run}"
        code, _, _ = run_cli(capsys, "bench", "--suite", "accuracy",
                             "--config", str(cfg), "--out", str(base))
        assert code == 0
        blobs.append((base.with_suffix(".csv").read_bytes(),
                      base.with_suffix(".json").read_bytes()))
    assert blobs[0] == blobs[1]

    din, win, _, _ = _write_fixture(tmp_path, (1, 2, 9, 9), (2, 2, 5, 5))
    outs = []
    for run in ("a", "b"):
        out_path = tmp_path / f"y_{run}.dwm"
        code, _, _ = run_cli(capsys, "conv", "--algo", "dwm", "--in", str(din),
                             "--weights", str(win), "--stride", "2",
                             "--out", str(out_path))
        assert code == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]


def test_tensorfile_roundtrip_and_validation(tmp_path):
    rng = np.random.default_rng(9)
    for dtype in (np.float32, np.float64):
        t = rng.standard_normal((2, 3, 4, 5)).astype(dtype)
        path = tmp_path / f"t_{np.dtype(dtype).name}.dwm"
        tensorfile.write_tensor(path, t)
        back = tensorfile.read_tensor(path)
        assert back.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(back, t)

    path = tmp_path / "bad.dwm"
    path.write_bytes(b"NOPE" + bytes(30))
    with pytest.raises(ValueError, match="magic"):
        tensorfile.read_tensor(path)

    with pytest.raises(TypeError,
                       match="^only binary32/binary64 tensors can be stored, got object$"):
        tensorfile.write_tensor(tmp_path / "object.dwm", np.empty((1, 1, 1, 1), dtype=object))
    assert not (tmp_path / "object.dwm").exists()

    good = tmp_path / "t_float32.dwm"
    truncated = good.read_bytes()[:-3]
    (tmp_path / "trunc.dwm").write_bytes(truncated)
    with pytest.raises(ValueError, match="payload"):
        tensorfile.read_tensor(tmp_path / "trunc.dwm")
