"""Tests of the benchmark itself (not of dwmconv).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import dwmconv  # noqa: E402
import refconv  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def _inputs(cls, seed):
    wl = cls(dwmconv, ROOT)
    wl.load()
    wl.make_inputs(np.random.Generator(np.random.PCG64(seed)))
    return wl


@pytest.mark.parametrize("cls", [workloads.AlexNetTrain, workloads.Paper14Infer])
def test_same_seed_same_inputs(cls):
    a, b, c = _inputs(cls, 7), _inputs(cls, 7), _inputs(cls, 8)
    assert workloads.bits_equal((a.x, a.w), (b.x, b.w))
    assert not workloads.bits_equal((a.x, a.w), (c.x, c.w))


def test_sweep_seed_from_argument():
    a = _inputs(workloads.AccuracySweep, 7)
    b = _inputs(workloads.AccuracySweep, 7)
    c = _inputs(workloads.AccuracySweep, 8)
    assert a.seed == b.seed != c.seed


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlap merges to [1, 6])
    # and [9, 12] (clipped to [9, 10]); grandchild [2, 3] under the first child
    tree = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),
        Span("d", 2.0, 3.0, 1, 0),
    ]
    assert spans.self_seconds(tree) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 3, 1])
    totals = spans.totals_by_step(tree)[0]
    assert totals["root"]["ms"] == pytest.approx(10_000)
    assert totals["root"]["self_ms"] == pytest.approx(4_000)
    assert totals["a"]["calls"] == 1


def test_tracer_records_parents_and_steps():
    tracer = spans.Tracer()
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(x) * 2)
    tracer.step = 3
    assert outer(1) == 4
    done = tracer.finished()
    assert [(s.name, s.parent, s.step) for s in done] == [("m.outer", -1, 3), ("m.inner", 0, 3)]


def test_install_wraps_cross_module_bindings_and_restores_them():
    modules = run.layer_modules()
    engines = modules["engines"]
    original = engines.to_float
    tracer = spans.Tracer()
    undo = spans.install(tracer, modules)
    try:
        assert engines.to_float is not original
        spec = dwmconv.ConvSpec(kernel=(5, 5), pad=(2, 2, 2, 2))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 3, 9, 9)).astype(np.float32)
        w = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
        traced_y = dwmconv.dwm_conv2d(x, w, spec)
    finally:
        spans.uninstall(undo)
    assert engines.to_float is original
    assert np.array_equal(traced_y, dwmconv.dwm_conv2d(x, w, spec))
    names = {s.name for s in tracer.finished()}
    assert {"transforms.to_float", "decompose.plan_decomposition",
            "decompose.input_region_for_part", "tensor.accumulate"} <= names


def test_reference_matches_direct_engine():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 11, 13))
    w = rng.standard_normal((4, 3, 5, 3))
    spec = dwmconv.ConvSpec(kernel=(5, 3), stride=(2, 3), pad=(1, 2, 0, 1))
    want = dwmconv.direct_conv2d(x, w, spec, precision=np.float64)
    for block in (None, 1):
        got = refconv.conv2d(x, w, spec.stride, spec.pad, block_bytes=block)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def _declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]},
            {w["name"] for w in doc["workloads"]})


def test_metric_tables_match_benchmark_json():
    end_to_end, per_layer, names = _declared()
    assert run.END_TO_END == end_to_end
    assert run.PER_LAYER == per_layer
    assert names == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "paper14-infer",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()[trace]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["decompose.parts"] == 39
        assert m["transforms.to_float.calls"] == 78


def _wrong_by(fn, factor):
    def fake(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, tuple):
            return tuple(o * np.float32(factor) for o in out)
        return out * np.float32(factor)
    return fake


def _settle_steps(wl, calls, steps):
    tally = run.Tally()
    cal = SimpleNamespace(timed=lambda fn: (fn(), 0.0, 0.0))
    for i in range(steps):
        _, _, out, error = run.timed_step(wl, calls, i, cal)
        run.settle(wl, i, out, error, tally)
    return tally


def test_fake_forward_engine_counts_as_failed():
    wl = _inputs(workloads.Paper14Infer, 5)
    real = workloads.engine_calls(dwmconv)
    wl.prepare(real)
    assert _settle_steps(wl, real, 1).failed == 0
    fake = SimpleNamespace(**vars(real))
    fake.dwm_conv2d = _wrong_by(real.dwm_conv2d, 1.001)
    tally = _settle_steps(wl, fake, 2)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_fake_backward_engine_counts_as_failed():
    wl = _inputs(workloads.AlexNetTrain, 5)
    real = workloads.engine_calls(dwmconv)
    wl.prepare(real)
    fake = SimpleNamespace(**vars(real))
    fake.dwm_backward = _wrong_by(real.dwm_backward, 1.01)
    tally = _settle_steps(wl, fake, 1)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert any("bilinear" in p for p in tally.problems)


def test_raising_engine_counts_as_failed():
    wl = _inputs(workloads.Paper14Infer, 5)
    fake = SimpleNamespace(**vars(workloads.engine_calls(dwmconv)))

    def broken(*args, **kwargs):
        raise FloatingPointError("dwm_conv2d produced non-finite values")

    fake.dwm_conv2d = broken
    wl.prepare(fake)
    tally = _settle_steps(wl, fake, 1)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_sweep_check_rejects_a_bad_report():
    wl = _inputs(workloads.AccuracySweep, 5)
    row = dwmconv.AccuracyRow(kernel=(3, 3), stride=(1, 1), hw=14, channels=256,
                              filters=256, batch=1, seed=0, algorithm="dwm",
                              precision="binary32", status="ok", mse=1e-3, log_scaled=7.0)
    check = wl.check(0, dwmconv.AccuracyReport(rows=(row,)))
    assert not check.ok
    assert not wl.check(0, object()).ok


def test_raising_check_counts_as_failed():
    wl = _inputs(workloads.Paper14Infer, 5)
    tally = run.Tally()
    run.settle(wl, 0, 42, None, tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper14-infer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
