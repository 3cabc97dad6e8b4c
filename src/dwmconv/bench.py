"""Benchmark harness: accuracy sweeps, FLOP sweeps and network-level analysis.

Accuracy methodology: draw inputs and weights from a standard normal
distribution, run each algorithm in binary32 (and the decomposed path in
binary64 as a sanity row), and report the mean squared error against the
binary64 direct result.  Randomness comes from numpy's PCG64 generator
with ``standard_normal`` (ziggurat method); the stream is seeded from the
user seed plus the configuration fields, so every row is a deterministic
function of (config, seed).  Non-finite algorithm outputs become
"overflow" rows instead of crashes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .convspec import ConvSpec
from .decompose import plan_decomposition
from .engines import direct_conv2d, dwm_conv2d, winograd_conv2d
from .flops import (FlopReport, flops_direct, flops_dwm, flops_winograd_classic,
                    reports_to_csv, speedup_table)
from .tensor import mse, pad_input
from .transforms import get_baseline_transform

PRECISIONS = ("binary32", "binary64")
_DT = {"binary32": np.float32, "binary64": np.float64}


def as_pair(value) -> tuple[int, int]:
    """Normalize a scalar or 2-sequence config field to an (h, w) pair."""
    if isinstance(value, (list, tuple)):
        a, b = value
        return int(a), int(b)
    return int(value), int(value)


@dataclass(frozen=True)
class AccuracyConfig:
    """One accuracy sweep point; padding is "same" (output extent = ceil(hw / stride))."""

    kernel: tuple[int, int]
    stride: tuple[int, int]
    hw: int
    channels: int
    filters: int
    batch: int = 1
    precisions: tuple[str, ...] = PRECISIONS

    def spec(self) -> ConvSpec:
        pads = []
        for r in self.kernel:
            pads.extend(((r - 1) // 2, r - 1 - (r - 1) // 2))
        top, bottom, left, right = pads
        return ConvSpec(kernel=self.kernel, stride=self.stride,
                        pad=(top, bottom, left, right))


@dataclass(frozen=True)
class AccuracyRow:
    kernel: tuple[int, int]
    stride: tuple[int, int]
    hw: int
    channels: int
    filters: int
    batch: int
    seed: int
    algorithm: str
    precision: str
    status: str               # "ok" or "overflow"
    mse: float | None
    log_scaled: float | None  # log10(mse) + 10, only when mse > 0


@dataclass(frozen=True)
class AccuracyReport:
    rows: tuple[AccuracyRow, ...]

    def to_csv(self) -> str:
        lines = ["kernel,stride,hw,channels,filters,batch,seed,algorithm,"
                 "precision,status,mse,log_scaled"]
        for r in self.rows:
            mse_s = "" if r.mse is None else f"{r.mse:.6E}"
            log_s = "" if r.log_scaled is None else f"{r.log_scaled:.4f}"
            lines.append(
                f"{r.kernel[0]}x{r.kernel[1]},{r.stride[0]},{r.hw},{r.channels},"
                f"{r.filters},{r.batch},{r.seed},{r.algorithm},{r.precision},"
                f"{r.status},{mse_s},{log_s}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> list[dict]:
        return [
            {
                "kernel": list(r.kernel), "stride": list(r.stride), "hw": r.hw,
                "channels": r.channels, "filters": r.filters, "batch": r.batch,
                "seed": r.seed, "algorithm": r.algorithm, "precision": r.precision,
                "status": r.status, "mse": r.mse, "log_scaled": r.log_scaled,
            }
            for r in self.rows
        ]


def _draw(cfg: AccuracyConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """N(0,1) data and weights; one PCG64 stream per (config, seed)."""
    entropy = [seed, *cfg.kernel, *cfg.stride, cfg.hw, cfg.channels, cfg.filters, cfg.batch]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    data = rng.standard_normal((cfg.batch, cfg.channels, cfg.hw, cfg.hw))
    weights = rng.standard_normal((cfg.filters, cfg.channels, *cfg.kernel))
    return data, weights


def _run_algorithm(algo: str, data, weights, spec: ConvSpec, precision: str):
    dt = _DT[precision]
    if algo == "direct":
        return direct_conv2d(data, weights, spec, precision=dt)
    if algo == "winograd":
        # the naive one-shot F(2, r) baseline, not the accuracy-tuned engine
        dpad = pad_input(data.astype(dt), spec.pad)
        return winograd_conv2d(dpad, weights.astype(dt),
                               get_baseline_transform(spec.kernel[0]),
                               get_baseline_transform(spec.kernel[1]))
    if algo == "dwm":
        return dwm_conv2d(data, weights, spec, precision=dt)
    raise ValueError(f"unknown algorithm {algo!r}")


def run_accuracy_suite(configs, seeds) -> AccuracyReport:
    """MSE of each algorithm/precision against the binary64 direct result."""
    rows = []
    for cfg in configs:
        spec = cfg.spec()
        for seed in seeds:
            data, weights = _draw(cfg, seed)
            reference = direct_conv2d(data, weights, spec, precision=np.float64)

            jobs = [("direct", "binary64")]
            if "binary32" in cfg.precisions:
                jobs.append(("direct", "binary32"))
                if spec.stride == (1, 1):
                    jobs.append(("winograd", "binary32"))
                jobs.append(("dwm", "binary32"))
            if "binary64" in cfg.precisions:
                jobs.append(("dwm", "binary64"))

            for algo, precision in jobs:
                try:
                    y = (reference if (algo, precision) == ("direct", "binary64")
                         else _run_algorithm(algo, data, weights, spec, precision))
                    err = mse(y, reference)
                    status = "ok"
                except FloatingPointError:
                    err, status = None, "overflow"
                log_scaled = math.log10(err) + 10 if err else None
                rows.append(AccuracyRow(
                    kernel=cfg.kernel, stride=cfg.stride, hw=cfg.hw,
                    channels=cfg.channels, filters=cfg.filters, batch=cfg.batch,
                    seed=seed, algorithm=algo, precision=precision,
                    status=status, mse=err, log_scaled=log_scaled))
    return AccuracyReport(rows=tuple(rows))


def parse_accuracy_config(doc: dict):
    """(configs, seeds) of an accuracy config document."""
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported accuracy config schema {doc.get('schema')!r}")
    seeds = [int(s) for s in doc.get("seeds", [1])]
    configs = []
    for i, entry in enumerate(doc.get("configs", [])):
        try:
            configs.append(AccuracyConfig(
                kernel=as_pair(entry["kernel"]),
                stride=as_pair(entry.get("stride", 1)),
                hw=int(entry["hw"]),
                channels=int(entry["channels"]),
                filters=int(entry["filters"]),
                batch=int(entry.get("batch", 1)),
                precisions=tuple(entry.get("precisions", PRECISIONS)),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed accuracy config entry {i}: {exc}") from exc
    return configs, seeds


def check_accuracy_bands(report: AccuracyReport) -> list[str]:
    """Acceptance bands for the stride-1 sweep; returns human-readable violations.

    Exact published errors are tied to another ecosystem's random stream,
    so the bands are order-of-magnitude: decomposed binary32 stays at or
    below 1e-7 for every kernel size, classic Winograd binary32 reaches
    1e-4 from 7x7 up and degrades monotonically with kernel size, and the
    binary64 decomposed rows sit at rounding level (<= 1e-20).
    """
    violations = []
    for r in report.rows:
        if r.status == "overflow":
            violations.append(f"overflow in {r.algorithm}/{r.precision} at kernel {r.kernel}")
            continue
        if r.algorithm == "dwm" and r.precision == "binary64" and r.mse > 1e-20:
            violations.append(f"dwm binary64 mse {r.mse:.3E} > 1e-20 at kernel {r.kernel}")
        if r.stride != (1, 1):
            continue
        if r.algorithm == "dwm" and r.precision == "binary32" and r.mse > 1e-7:
            violations.append(f"dwm binary32 mse {r.mse:.3E} > 1e-7 at kernel {r.kernel}")
        if (r.algorithm == "winograd" and r.precision == "binary32"
                and max(r.kernel) >= 7 and r.mse < 1e-4):
            violations.append(f"winograd binary32 mse {r.mse:.3E} < 1e-4 at kernel {r.kernel}")

    groups: dict[tuple, list[tuple[int, float]]] = {}
    for r in report.rows:
        if (r.algorithm, r.precision, r.status) != ("winograd", "binary32", "ok"):
            continue
        key = (r.stride, r.hw, r.channels, r.filters, r.batch, r.seed)
        groups.setdefault(key, []).append((max(r.kernel), r.mse))
    for key, entries in groups.items():
        entries.sort()
        for (k1, m1), (k2, m2) in zip(entries, entries[1:]):
            if m2 < m1:
                violations.append(
                    f"winograd binary32 mse not monotone: {m1:.3E} at {k1} vs "
                    f"{m2:.3E} at {k2} (seed {key[-1]})")
    return violations


def run_flops_suite(configs) -> tuple[list[FlopReport], str]:
    """Multiplication counts for (ConvSpec, out_dims) pairs plus their CSV."""
    reports = speedup_table(configs)
    return reports, reports_to_csv(reports)


def parse_flops_config(doc: dict):
    """(ConvSpec, out_dims, expected) per entry of a flops config document."""
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported flops config schema {doc.get('schema')!r}")
    default_out = tuple(doc.get("out", (14, 14)))
    entries = []
    for i, entry in enumerate(doc.get("configs", [])):
        try:
            spec = ConvSpec(kernel=as_pair(entry["kernel"]),
                            stride=as_pair(entry.get("stride", 1)))
            out = tuple(entry.get("out", default_out))
            entries.append((spec, out, entry.get("expected")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed flops config entry {i}: {exc}") from exc
    return entries


def check_flops(reports, expectations) -> list[str]:
    """Mismatches between FLOP reports and the config's expected values."""
    violations = []
    for rep, expected in zip(reports, expectations):
        if not expected:
            continue
        label = f"{rep.spec.kernel[0]}x{rep.spec.kernel[1]} s{rep.spec.stride[0]}"
        for field, actual in (("direct", rep.direct_mults), ("dwm", rep.dwm_mults),
                              ("winograd", rep.winograd_mults)):
            if field in expected and expected[field] != actual:
                violations.append(f"{label}: {field} = {actual}, expected {expected[field]}")
        for field, actual in (("dwm_speedup", rep.speedup_dwm),
                              ("winograd_speedup", rep.speedup_winograd)):
            if field in expected:
                want = expected[field]
                if actual is None or want is None:
                    if actual is not want:
                        violations.append(f"{label}: {field} = {actual}, expected {want}")
                elif round(actual, 2) != round(want, 2):
                    violations.append(
                        f"{label}: {field} = {actual:.2f}, expected {want:.2f}")
    return violations


@dataclass(frozen=True)
class LayerSpec:
    name: str
    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: tuple[int, int]
    pad: tuple[int, int, int, int]
    input_hw: tuple[int, int]

    def spec(self) -> ConvSpec:
        return ConvSpec(kernel=self.kernel, stride=self.stride, pad=self.pad)


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    layers: tuple[LayerSpec, ...]


@dataclass(frozen=True)
class LayerReport:
    """Per-layer multiplication counts scaled by in_channels * out_channels."""

    name: str
    kernel: tuple[int, int]
    stride: tuple[int, int]
    out: tuple[int, int]
    direct: int
    winograd: int | None    # None where classic Winograd does not apply
    dwm: int


def load_network(doc: dict) -> NetworkSpec:
    """Parse a network JSON document, naming the offending layer on errors."""
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported network schema {doc.get('schema')!r}")
    layers = []
    for entry in doc.get("layers", []):
        name = entry.get("name", f"layer{len(layers)}")
        try:
            layers.append(LayerSpec(
                name=name,
                in_channels=int(entry["in_channels"]),
                out_channels=int(entry["out_channels"]),
                kernel=as_pair(entry["kernel"]),
                stride=as_pair(entry.get("stride", 1)),
                pad=tuple(int(p) for p in entry.get("pad", (0, 0, 0, 0))),
                input_hw=as_pair(entry["input"]),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed layer {name!r}: {exc}") from exc
    return NetworkSpec(name=doc.get("name", "network"), layers=tuple(layers))


def analyze_network(net: NetworkSpec) -> tuple[list[LayerReport], dict]:
    """Per-layer and total multiplication counts per algorithm, per input image.

    1x1 layers pass through unaccelerated (all three columns equal).  The
    winograd total falls back to the direct count for layers it cannot run
    (stride > 1), mirroring a deployment that only accelerates what it can.
    """
    layer_reports = []
    totals = {"direct": 0, "winograd": 0, "dwm": 0}
    for layer in net.layers:
        spec = layer.spec()
        try:
            out = spec.out_dims(*layer.input_hw)
        except ValueError as exc:
            raise ValueError(f"malformed layer {layer.name!r}: {exc}") from exc
        scale = layer.in_channels * layer.out_channels
        direct = flops_direct(spec, out) * scale
        if spec.kernel == (1, 1):
            wino: int | None = direct
            dwm = direct
        else:
            wino_base = flops_winograd_classic(spec, out)
            wino = None if wino_base is None else wino_base * scale
            dwm = flops_dwm(plan_decomposition(spec), out) * scale
        layer_reports.append(LayerReport(
            name=layer.name, kernel=spec.kernel, stride=spec.stride, out=out,
            direct=direct, winograd=wino, dwm=dwm))
        totals["direct"] += direct
        totals["winograd"] += wino if wino is not None else direct
        totals["dwm"] += dwm
    return layer_reports, totals


def network_report_csv(net: NetworkSpec, layer_reports, totals) -> str:
    lines = [f"# network {net.name}: multiplications per input image; winograd "
             "total falls back to direct where not applicable",
             "layer,kernel,stride,out,direct,winograd,winograd_speedup,dwm,dwm_speedup"]

    def fmt(name, kernel, stride, out, direct, wino, dwm):
        wino_s = "N/A" if wino is None else f"{wino:.2E}"
        speed_w = "N/A" if wino is None else f"{direct / wino:.2f}"
        return (f"{name},{kernel},{stride},{out},{direct:.2E},{wino_s},{speed_w},"
                f"{dwm:.2E},{direct / dwm:.2f}")

    for rep in layer_reports:
        lines.append(fmt(rep.name, f"{rep.kernel[0]}x{rep.kernel[1]}",
                         f"{rep.stride[0]}x{rep.stride[1]}",
                         f"{rep.out[0]}x{rep.out[1]}",
                         rep.direct, rep.winograd, rep.dwm))
    lines.append(fmt("TOTAL", "-", "-", "-",
                     totals["direct"], totals["winograd"], totals["dwm"]))
    return "\n".join(lines) + "\n"
