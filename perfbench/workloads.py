"""The three benchmark workloads and their output checks.

Each workload has the same life cycle, driven by ``run.py``:

* ``load()``           program set-up: parse the bundled config (timed);
* ``make_inputs(rng)`` the benchmark's own inputs, from the seed (untimed);
* ``prepare(calls)``   program set-up: plans and cold transforms (timed);
* ``units(calls, i)``  the timed work of step ``i``, as a list of thunks;
* ``combine(results)`` the step's outputs from the thunks' results;
* ``warmup(calls)``    one untimed step, part of the timed set-up;
* ``check(i, out)``    compare the outputs with the benchmark's own
                       reference (untimed), returning a ``Check``;
* ``advance(out)``     untimed state change after a checked step.

``calls`` is the table of program entry points the workload may use
(``engine_calls``); the traced run hands in wrapped ones and a test may
hand in a fake engine.  The program module itself is passed in, never
imported here, so ``run.py`` can time its import.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import refconv

# Relative RMS error a binary32 forward output may have against the
# binary64 reference.  Binary32 DWM measures 1e-7 to 6e-7 on these shapes;
# a wrong tap or a dropped part is off by orders of magnitude more.
FORWARD_REL_RMS = 1e-5
# |<x, grad_data> - <conv(x, w), g>| (and the same for the weights) as a
# share of <|conv(x, w)|, |g|>.  Binary32 measures 5e-10 to 7e-9 on the
# AlexNet layers; a gradient scaled by 1.01 is off by 8e-6 or more.
BILINEAR_REL = 2e-7
# SGD step, as a share of the initial weight RMS per unit of gradient RMS.
SGD_RATE = 1e-3
# Distinct input tensors cycled through by the inference workload.
INFER_POOL = 2

ENTRY_POINTS = ("dwm_conv2d", "dwm_backward", "plan_decomposition",
                "get_baseline_transform", "run_accuracy_suite")


def engine_calls(dw) -> SimpleNamespace:
    """The program entry points the workloads call, as plain attributes."""
    return SimpleNamespace(**{name: getattr(dw, name) for name in ENTRY_POINTS})


def span_name(fn) -> str:
    """``"engines.dwm_conv2d"`` for dwmconv.engines.dwm_conv2d."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@dataclass
class Check:
    ok: bool
    mse_f32: float = 0.0
    problems: list[str] = field(default_factory=list)


def _finite_f32(name: str, arr, shape, problems: list[str]) -> bool:
    if not isinstance(arr, np.ndarray) or arr.shape != shape or arr.dtype != np.float32:
        problems.append(f"{name}: expected float32 {shape}, got "
                        f"{getattr(arr, 'dtype', type(arr).__name__)} "
                        f"{getattr(arr, 'shape', '')}")
        return False
    if not np.isfinite(arr).all():
        problems.append(f"{name}: non-finite values")
        return False
    return True


def check_forward(name: str, y, ref: np.ndarray, problems: list[str]) -> float | None:
    """MSE of a binary32 output against its binary64 reference, or None if it fails."""
    if not _finite_f32(name, y, ref.shape, problems):
        return None
    err = refconv.rel_rms(y, ref)
    if not err <= FORWARD_REL_RMS:
        problems.append(f"{name}: relative RMS error {err:.3e} > {FORWARD_REL_RMS:g}")
        return None
    return refconv.mse(y, ref)


def check_bilinear(name: str, lhs: float, ref: float, scale: float,
                   problems: list[str]) -> None:
    if not abs(lhs - ref) <= BILINEAR_REL * scale:
        problems.append(f"{name}: bilinear identity off by {abs(lhs - ref) / scale:.3e} "
                        f"of scale (limit {BILINEAR_REL:g})")


def _data_file(root: Path, name: str) -> dict:
    return json.loads((root / "src" / "dwmconv" / "data" / name).read_text(encoding="utf-8"))


def _accuracy_configs(dw, root: Path) -> list:
    doc = _data_file(root, "accuracy_14x14.json")

    def pair(v):
        return (int(v[0]), int(v[1])) if isinstance(v, list) else (int(v), int(v))

    return [dw.AccuracyConfig(kernel=pair(e["kernel"]), stride=pair(e.get("stride", 1)),
                              hw=int(e["hw"]), channels=int(e["channels"]),
                              filters=int(e["filters"]), batch=int(e.get("batch", 1)))
            for e in doc["configs"]]


def bits_equal(a, b) -> bool:
    """True when two output trees hold the same arrays bit for bit."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(bits_equal(x, y) for x, y in zip(a, b))
    return repr(a) == repr(b)  # float reprs round-trip, so equal reprs are equal bits


class Workload:
    """Shared defaults: one thunk per step, the warm-up is step 0.

    ``calibration`` names the ``speed.py`` pass whose time tracks this
    workload's: the DWM engines spend theirs in copies and BLAS products.
    """

    calibration = "im2col"

    def __init__(self, dw, root: Path):
        self.dw, self.root = dw, root

    def units(self, calls, i: int) -> list:
        return [lambda: self.step(calls, i)]

    def combine(self, results):
        return results[0]

    def warmup(self, calls) -> None:
        self.step(calls, 0)

    def advance(self, out) -> None:
        pass


class AlexNetTrain(Workload):
    """Forward then dwm_backward through the five AlexNet layers, batch 1, binary32.

    Each layer has its own input (the bundled network lists layer dims
    only, without the pooling between them) and an upstream gradient fixed
    at set-up.  After each checked step the weights take an in-place SGD
    step, so no two steps see the same weights.
    """

    name = "alexnet-train"

    def load(self) -> None:
        self.net = self.dw.load_network(_data_file(self.root, "alexnet.json"))
        self.specs = [layer.spec() for layer in self.net.layers]

    def make_inputs(self, rng: np.random.Generator) -> None:
        self.x, self.w, self.g, self.lr = [], [], [], []
        for layer, spec in zip(self.net.layers, self.specs):
            c, f = layer.in_channels, layer.out_channels
            oh, ow = refconv.out_dims(layer.input_hw, spec.kernel, spec.stride, spec.pad)
            fan_in = c * spec.kernel[0] * spec.kernel[1]
            self.x.append(rng.standard_normal((1, c, *layer.input_hw), dtype=np.float32))
            self.w.append((rng.standard_normal((f, c, *spec.kernel), dtype=np.float32)
                           / np.float32(np.sqrt(fan_in))))
            self.g.append(rng.standard_normal((1, f, oh, ow), dtype=np.float32))
            # grad_weights entries are sums of oh*ow products of N(0, 1) terms
            self.lr.append(np.float32(SGD_RATE / np.sqrt(fan_in) / np.sqrt(oh * ow)))

    def prepare(self, calls) -> None:
        self.plans = [calls.plan_decomposition(spec) for spec in self.specs]

    def step(self, calls, i: int):
        out = []
        for spec, plan, x, w, g in zip(self.specs, self.plans, self.x, self.w, self.g):
            y = calls.dwm_conv2d(x, w, spec, plan=plan)
            gd, gw = calls.dwm_backward(g, plan, x, w)
            out.append((y, gd, gw))
        return out

    def check(self, i: int, out) -> Check:
        problems: list[str] = []
        worst = 0.0
        for layer, spec, x, w, g, (y, gd, gw) in zip(
                self.net.layers, self.specs, self.x, self.w, self.g, out):
            ref = refconv.conv2d(x, w, spec.stride, spec.pad, block_bytes=1 << 24)
            err = check_forward(f"{layer.name} forward", y, ref, problems)
            if err is not None:
                worst = max(worst, err)
            target = refconv.inner(ref, g)
            scale = refconv.abs_inner(ref, g)
            if _finite_f32(f"{layer.name} grad_data", gd, x.shape, problems):
                check_bilinear(f"{layer.name} grad_data", refconv.inner(x, gd),
                               target, scale, problems)
            if _finite_f32(f"{layer.name} grad_weights", gw, w.shape, problems):
                check_bilinear(f"{layer.name} grad_weights", refconv.inner(w, gw),
                               target, scale, problems)
        return Check(ok=not problems, mse_f32=worst, problems=problems)

    def advance(self, out) -> None:
        for w, lr, (_, _, gw) in zip(self.w, self.lr, out):
            if isinstance(gw, np.ndarray) and gw.shape == w.shape:
                w -= lr * gw.astype(np.float32, copy=False)

    def forward_convs(self):
        """(x, w, spec) of every forward convolution in one step."""
        return list(zip(self.x, self.w, self.specs))


class Paper14Infer(Workload):
    """Forward only over the five accuracy_14x14 shapes, batch 1, binary32.

    Weights are fixed for the run; inputs cycle through a small pool, and
    the binary64 references for every (input, shape) pair are computed
    once before timing starts.
    """

    name = "paper14-infer"

    def load(self) -> None:
        self.configs = _accuracy_configs(self.dw, self.root)
        self.specs = [cfg.spec() for cfg in self.configs]

    def make_inputs(self, rng: np.random.Generator) -> None:
        first = self.configs[0]
        self.x = [rng.standard_normal((first.batch, first.channels, first.hw, first.hw),
                                      dtype=np.float32)
                  for _ in range(INFER_POOL)]
        self.w = [rng.standard_normal((cfg.filters, cfg.channels, *cfg.kernel),
                                      dtype=np.float32)
                  for cfg in self.configs]
        self.refs = [[refconv.conv2d(x, w, spec.stride, spec.pad, block_bytes=1 << 24)
                      for w, spec in zip(self.w, self.specs)]
                     for x in self.x]

    def prepare(self, calls) -> None:
        self.plans = [calls.plan_decomposition(spec) for spec in self.specs]

    def step(self, calls, i: int):
        x = self.x[i % INFER_POOL]
        return [calls.dwm_conv2d(x, w, spec, plan=plan)
                for w, spec, plan in zip(self.w, self.specs, self.plans)]

    def check(self, i: int, out) -> Check:
        problems: list[str] = []
        worst = 0.0
        for cfg, y, ref in zip(self.configs, out, self.refs[i % INFER_POOL]):
            err = check_forward(f"{cfg.kernel[0]}x{cfg.kernel[1]} forward", y, ref, problems)
            if err is not None:
                worst = max(worst, err)
        if len(out) != len(self.configs):
            problems.append(f"expected {len(self.configs)} outputs, got {len(out)}")
        return Check(ok=not problems, mse_f32=worst, problems=problems)

    def forward_convs(self):
        return [(self.x[0], w, spec) for w, spec in zip(self.w, self.specs)]


class AccuracySweep(Workload):
    """bench.run_accuracy_suite over the bundled accuracy_14x14 configs, one seed.

    A step is one whole sweep; sweep ``i`` of a run uses seed ``seed + i``.
    It runs as one suite call per config (the suite treats configs
    independently, so the rows are the same), which lets each call be
    timed on its own.  The check is the program's own
    ``check_accuracy_bands`` plus the expected set of rows.  The warm-up
    is the first config alone: a whole sweep takes longer than a run
    measures.  About 89 % of a sweep is the sequential direct engine, so
    its times are calibrated by the ``loop`` pass.
    """

    name = "accuracy-sweep"
    calibration = "loop"

    def load(self) -> None:
        self.configs = _accuracy_configs(self.dw, self.root)
        self.specs = [cfg.spec() for cfg in self.configs]

    def make_inputs(self, rng: np.random.Generator) -> None:
        self.seed = int(rng.integers(0, 2**31))
        self.rng = rng

    def prepare(self, calls) -> None:
        for cfg, spec in zip(self.configs, self.specs):
            calls.plan_decomposition(spec)
            calls.get_baseline_transform(cfg.kernel[0])
            calls.get_baseline_transform(cfg.kernel[1])

    def units(self, calls, i: int) -> list:
        return [lambda cfg=cfg: calls.run_accuracy_suite([cfg], [self.seed + i])
                for cfg in self.configs]

    def combine(self, results):
        return self.dw.AccuracyReport(rows=tuple(row for rep in results for row in rep.rows))

    def warmup(self, calls) -> None:
        calls.run_accuracy_suite(self.configs[:1], [self.seed])

    def expected_rows(self) -> list[tuple]:
        rows = []
        for cfg in self.configs:
            rows += [("direct", "binary64"), ("direct", "binary32")]
            if cfg.stride == (1, 1):
                rows.append(("winograd", "binary32"))
            rows += [("dwm", "binary32"), ("dwm", "binary64")]
        return rows

    def check(self, i: int, report) -> Check:
        problems: list[str] = []
        rows = getattr(report, "rows", None)
        if rows is None:
            return Check(ok=False, problems=[f"not an accuracy report: {type(report).__name__}"])
        got = [(r.algorithm, r.precision) for r in rows]
        if got != self.expected_rows():
            problems.append(f"unexpected report rows {got}")
        problems += self.dw.check_accuracy_bands(report)
        dwm32 = [r.mse for r in rows
                 if (r.algorithm, r.precision, r.status) == ("dwm", "binary32", "ok")]
        if not dwm32 or not all(np.isfinite(m) and m > 0 for m in dwm32):
            problems.append(f"dwm/binary32 rows missing or non-finite: {dwm32}")
        return Check(ok=not problems, mse_f32=max(dwm32, default=0.0), problems=problems)

    def forward_convs(self):
        convs = []
        for cfg, spec in zip(self.configs, self.specs):
            x = self.rng.standard_normal((cfg.batch, cfg.channels, cfg.hw, cfg.hw))
            w = self.rng.standard_normal((cfg.filters, cfg.channels, *cfg.kernel))
            convs.append((x.astype(np.float32), w.astype(np.float32), spec))
        return convs


WORKLOADS = {cls.name: cls for cls in (AlexNetTrain, Paper14Infer, AccuracySweep)}
