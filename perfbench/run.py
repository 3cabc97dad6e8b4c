"""dwmconv benchmark: one workload per invocation, one closed-loop caller.

    python3 perfbench/run.py --workload alexnet-train --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/dwmconv`` of that checkout.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  Lines before it start with ``#`` and record
the machine and the sample counts.  Workloads are described in
``workloads.py``; spans of a traced run are written to ``perfbench/out/``.
"""

import argparse
import os
import sys
import time
from pathlib import Path

# BLAS threads are fixed before numpy loads; one thread keeps a 2-core
# machine steady and leaves no idle thread spinning beside the caller.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

import machine  # noqa: E402
import refconv  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, bits_equal, engine_calls, span_name  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
LAYERS = ("engines", "transforms", "decompose", "tensor", "flops", "bench")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "mse_dwm_f32": "mse",
    "pass_rate": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engines.dwm_conv2d.ms": "ms",
    "engines.dwm_conv2d.self_ms": "ms",
    "engines.dwm_conv2d.gmults_per_s": "Gmult/s",
    "engines.dwm_backward.ms": "ms",
    "engines.dwm_backward.self_ms": "ms",
    "engines.direct_conv2d.ms": "ms",
    "engines.direct_conv2d.calls": "count",
    "engines.winograd_conv2d.ms": "ms",
    "transforms.to_float.calls": "count",
    "transforms.to_float.ms": "ms",
    "transforms.get_transform.ms": "ms",
    "decompose.plan_decomposition.ms": "ms",
    "decompose.input_region_for_part.calls": "count",
    "decompose.input_region_for_part.ms": "ms",
    "decompose.parts": "count",
    "tensor.pad_input.ms": "ms",
    "tensor.accumulate.calls": "count",
    "tensor.accumulate.ms": "ms",
    "tensor.slice_strided.ms": "ms",
    "tensor.check_finite.ms": "ms",
    "tensor.mse.ms": "ms",
    "flops.dwm_mults": "mults",
    "flops.direct_mults": "mults",
    "bench.run_accuracy_suite.ms": "ms",
    "bench.run_accuracy_suite.self_ms": "ms",
    "baseline.gemm_direct_f32_ms": "ms",
    "trace.overhead_pct": "%",
}

# Metrics taken from the traced set-up rather than from the timed steps.
SETUP_PHASE = {"transforms.get_transform.ms"}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one cold set-up and exit")
    return p.parse_args(argv)


def require_source() -> Path:
    src = ROOT / "src"
    if not (src / "dwmconv" / "__init__.py").is_file():
        raise BenchError(f"no program source at {src / 'dwmconv'}; run from a checkout")
    return src


def import_program():
    """Import dwmconv from this checkout's src/ and return (module, seconds)."""
    src = require_source()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    dw = importlib.import_module("dwmconv")
    seconds = time.perf_counter() - start
    if not Path(dw.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"dwmconv imported from {dw.__file__}, not from {src}")
    return dw, seconds


def layer_modules() -> dict:
    return {name: importlib.import_module(f"dwmconv.{name}") for name in LAYERS}


def setup_workload(wl, calls, seed: int) -> float:
    """Run the program's set-up for ``wl``; returns the seconds it took.

    Input generation in between is the benchmark's own work and is not
    counted.
    """
    start = time.perf_counter()
    wl.load()
    mid = time.perf_counter()
    wl.make_inputs(np.random.Generator(np.random.PCG64(seed)))
    resume = time.perf_counter()
    wl.prepare(calls)
    wl.warmup(calls)
    return (mid - start) + (time.perf_counter() - resume)


def setup_probe(name: str, seed: int) -> dict:
    """One cold set-up in this fresh process: import, config, plans, warm-up."""
    cal = speed.Calibrator(WORKLOADS[name].calibration)
    cal.pass_seconds()
    dw, import_s = import_program()
    wl = WORKLOADS[name](dw, ROOT)
    wall = import_s + setup_workload(wl, engine_calls(dw), seed)
    cal.pass_seconds()
    return {"setup_s": cal.scale(wall), "wall_s": wall}


def measure_setup(name: str, seed: int) -> list[dict]:
    """Scaled and wall set-up times from fresh processes, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Tally:
    """Attempted/failed counts, worst binary32 MSE and the first few problems."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.worst_mse = 0.0
        self.problems: list[str] = []

    def record(self, check) -> None:
        self.attempted += 1
        if check.ok:
            self.worst_mse = max(self.worst_mse, check.mse_f32)
        else:
            self.failed += 1
            self.problems += check.problems

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(message)


def timed_step(wl, calls, i: int, cal):
    """Run step ``i`` unit by unit on the clock.

    Returns (wall seconds, scaled seconds, outputs, error message or None).
    """
    wall = scaled = 0.0
    try:
        results = []
        for unit in wl.units(calls, i):
            result, unit_wall, unit_scaled = cal.timed(unit)
            results.append(result)
            wall += unit_wall
            scaled += unit_scaled
        out = wl.combine(results)
    except Exception as exc:  # a raised error is a failed step, not a crashed run
        return wall, scaled, None, f"step {i}: {type(exc).__name__}: {exc}"
    return wall, scaled, out, None


def settle(wl, i: int, out, error, tally: Tally, untraced_out=None) -> None:
    """Check a step's outputs off the clock, count the result and advance the state."""
    if error is not None:
        tally.fail(error)
        return
    try:
        check = wl.check(i, out)
    except Exception as exc:  # malformed outputs can break the check itself
        tally.fail(f"step {i}: check raised {type(exc).__name__}: {exc}")
        return
    if untraced_out is not None and not bits_equal(untraced_out, out):
        check.ok = False
        check.problems.append(f"step {i}: traced outputs differ from untraced outputs")
    tally.record(check)
    wl.advance(out)


def closed_loop(seconds: float, body) -> None:
    """Call ``body(i)`` for i = 0, 1, ... for about ``seconds``.

    The next iteration starts only if one of median length still ends
    before the deadline, so a run never overshoots by a whole long step.
    """
    deadline = time.perf_counter() + seconds
    lengths: list[float] = []
    while True:
        start = time.perf_counter()
        body(len(lengths))
        lengths.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(lengths) > deadline:
            return


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def run_untraced(name: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    setup_samples = measure_setup(name, seed)
    cal = speed.Calibrator(WORKLOADS[name].calibration)
    dw, _ = import_program()
    wl = WORKLOADS[name](dw, ROOT)
    calls = engine_calls(dw)
    setup_workload(wl, calls, seed)

    tally = Tally()
    wall, scaled = [], []

    def body(i):
        wall_i, scaled_i, out, error = timed_step(wl, calls, i, cal)
        settle(wl, i, out, error, tally)
        wall.append(wall_i)
        scaled.append(scaled_i)

    closed_loop(seconds, body)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setup_samples),
        "step_ms_p50": percentile(scaled, 50) * 1e3,
        "step_ms_p90": percentile(scaled, 90) * 1e3,
        "mse_dwm_f32": tally.worst_mse,
        "pass_rate": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": peak_mb,
    }
    notes = {
        "steps": len(scaled),
        "beyond_p90": sum(t * 1e3 > metrics["step_ms_p90"] for t in scaled),
        "wall_step_ms_p50": round(percentile(wall, 50) * 1e3, 3),
        "wall_step_ms_p90": round(percentile(wall, 90) * 1e3, 3),
        "calibration_pass_ms_p50": round(percentile(cal.passes, 50) * 1e3, 3),
        "setup_s_samples": [round(s["setup_s"], 4) for s in setup_samples],
        "wall_setup_s_samples": [round(s["wall_s"], 4) for s in setup_samples],
    }
    return metrics, tally, notes


class ModelCounts:
    """FLOP-model multiplications and part counts of one dwm_conv2d call."""

    def __init__(self, dw):
        self.dw = dw
        self._memo = {}

    def __call__(self, info) -> tuple[int, int, int]:
        if info not in self._memo:
            data_shape, weight_shape, spec = info
            n, c, h, w = data_shape
            f = weight_shape[0]
            plan = self.dw.plan_decomposition(spec)
            out = spec.out_dims(h, w)
            scale = n * c * f
            self._memo[info] = (self.dw.flops_dwm(plan, out) * scale,
                                self.dw.flops_direct(spec, out) * scale,
                                len(plan.parts))
        return self._memo[info]


def _capture_conv(args, kwargs):
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    return (tuple(args[0].shape), tuple(args[1].shape), spec)


def layer_metrics(tracer, model, steps, baseline_ms, untraced_s, traced_s) -> dict:
    """Per-layer metrics: medians over traced steps of per-step sums."""
    finished = tracer.finished()
    totals = spans.totals_by_step(finished)
    setup = totals.get("setup", {})
    per_step = [totals.get(s, {}) for s in steps]

    derived = {s: {"dwm": 0, "direct": 0, "parts": 0} for s in steps}
    for span in finished:
        if span.name == "engines.dwm_conv2d" and span.step in derived:
            dwm, direct, parts = model(span.info)
            rec = derived[span.step]
            rec["dwm"] += dwm
            rec["direct"] += direct
            rec["parts"] += parts

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    out = {}
    for metric in PER_LAYER:
        layer, fn, field = (metric.split(".") + [""])[:3]
        span_key = f"{layer}.{fn}"
        if field in ("ms", "self_ms", "calls"):
            from_steps = [rec.get(span_key, {}).get(field, 0) for rec in per_step]
            if metric in SETUP_PHASE or not any(from_steps):
                out[metric] = float(setup.get(span_key, {}).get(field, 0))
            else:
                out[metric] = med(from_steps)
    out["decompose.parts"] = med([derived[s]["parts"] for s in steps])
    out["flops.dwm_mults"] = med([derived[s]["dwm"] for s in steps])
    out["flops.direct_mults"] = med([derived[s]["direct"] for s in steps])
    rates = [derived[s]["dwm"] / (rec["engines.dwm_conv2d"]["ms"] * 1e6)
             for s, rec in zip(steps, per_step) if "engines.dwm_conv2d" in rec]
    out["engines.dwm_conv2d.gmults_per_s"] = med(rates)
    out["baseline.gemm_direct_f32_ms"] = med(baseline_ms)
    out["trace.overhead_pct"] = (med(traced_s) / med(untraced_s) - 1.0) * 100.0
    return {m: out[m] for m in PER_LAYER}


def time_baseline(wl) -> float:
    """Milliseconds of the benchmark's im2col + BLAS binary32 forward of one step."""
    convs = wl.forward_convs()
    start = time.perf_counter()
    for x, w, spec in convs:
        refconv.conv2d(x, w, spec.stride, spec.pad, dtype=np.float32)
    return (time.perf_counter() - start) * 1e3


def run_traced(name: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    """Pairs of steps on the same state: untraced, then traced.

    Spans cover the traced set-up and every traced step.  Each pair is
    checked once, and the traced outputs must equal the untraced ones bit
    for bit.
    """
    dw, _ = import_program()
    modules = layer_modules()
    wl = WORKLOADS[name](dw, ROOT)
    raw = engine_calls(dw)
    tracer = spans.Tracer()
    captures = {"engines.dwm_conv2d": _capture_conv}
    traced = type(raw)(**{k: tracer.wrap(span_name(fn), fn, captures.get(span_name(fn)))
                          for k, fn in vars(raw).items()})

    tracer.step = "setup"
    undo = spans.install(tracer, modules, captures)
    try:
        setup_workload(wl, traced, seed)
    finally:
        spans.uninstall(undo)

    cal = speed.Calibrator(wl.calibration)
    tally = Tally()
    untraced_s, traced_s, baseline_ms, steps = [], [], [], []

    def body(i):
        _, t_raw, out_raw, err_raw = timed_step(wl, raw, i, cal)
        tracer.step = i
        undo = spans.install(tracer, modules, captures)
        try:
            _, t_traced, out, err = timed_step(wl, traced, i, cal)
        finally:
            spans.uninstall(undo)
        settle(wl, i, out, err_raw or err, tally, untraced_out=out_raw)
        untraced_s.append(t_raw)
        traced_s.append(t_traced)
        steps.append(i)
        baseline_ms.append(time_baseline(wl))

    closed_loop(seconds, body)

    metrics = layer_metrics(tracer, ModelCounts(dw), steps, baseline_ms, untraced_s, traced_s)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for s in tracer.finished():
            fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "step": s.step}) + "\n")
    notes = {"pairs": len(steps), "spans": len(tracer.spans),
             "spans_file": str(path.relative_to(ROOT))}
    return metrics, tally, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(machine.usable_cpus())
    # one CPU for this process and its set-up probes, so that a calibration
    # pass runs where the unit it brackets ran
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {machine.usable_cpus()[-1]})
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload, args.seed)))
            return 0
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        require_source()
        runner = run_traced if args.trace else run_untraced
        metrics, tally, notes = runner(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER if args.trace else END_TO_END
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# env " + json.dumps(machine.describe(BLAS_THREADS, nproc)))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(notes))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
