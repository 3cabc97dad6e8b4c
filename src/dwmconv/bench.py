"""Benchmark harness: accuracy sweeps, FLOP sweeps and network-level analysis.

Accuracy methodology: draw inputs and weights from a standard normal
distribution, run each algorithm in binary32 (and the decomposed path in
binary64 as a sanity row), and report the mean squared error against a
binary64 reference computed as an im2col GEMM (``gemm_conv2d``); the
``direct/binary64`` row is that reference, so its error is exactly 0.
Randomness comes from numpy's PCG64 generator with ``standard_normal``
(ziggurat method); the stream is seeded from the user seed plus the
configuration fields, so every row is a deterministic function of
(config, seed).  Non-finite algorithm outputs become "overflow" rows
instead of crashes.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .convspec import ConvSpec
from .decompose import plan_decomposition
from .engines import direct_conv2d, dwm_conv2d, gemm_conv2d, winograd_conv2d
from .flops import _classic_baseline_plan, flops_direct, flops_dwm, flops_winograd_classic
from .tensor import mse

PRECISIONS = ("binary32", "binary64")


def _integer(value, key: str) -> int:
    """A JSON integer config field; floats and booleans are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key!r} must be an integer, got {value!r}")
    return value


def _list(value, key: str) -> list | tuple:
    """A JSON list config field; a string or object is rejected, not iterated."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{key!r} must be a list, got {value!r}")
    return value


def as_pair(value, key: str) -> tuple[int, int]:
    """Normalize a scalar or 2-sequence integer config field to an (h, w) pair."""
    if isinstance(value, (list, tuple)):
        a, b = value
        return _integer(a, key), _integer(b, key)
    return _integer(value, key), _integer(value, key)


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
        return [asdict(r) for r in self.rows]


def _draw(cfg: AccuracyConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """N(0,1) data and weights; one PCG64 stream per (config, seed)."""
    entropy = [seed, *cfg.kernel, *cfg.stride, cfg.hw, cfg.channels, cfg.filters, cfg.batch]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    data = rng.standard_normal((cfg.batch, cfg.channels, cfg.hw, cfg.hw))
    weights = rng.standard_normal((cfg.filters, cfg.channels, *cfg.kernel))
    return data, weights


def run_accuracy_suite(configs, seeds) -> AccuracyReport:
    """MSE of each algorithm/precision against the binary64 im2col GEMM reference.

    Every row is its public engine's result on the (config, seed) draw at
    the row's precision; "winograd" is classic Winograd over the naive
    baseline transforms, not the accuracy-tuned ones.
    """
    rows = []
    for cfg in configs:
        spec = cfg.spec()
        classic = _classic_baseline_plan(spec)
        jobs = [("direct", "binary64")]
        if "binary32" in cfg.precisions:
            jobs.append(("direct", "binary32"))
            if classic is not None:
                jobs.append(("winograd", "binary32"))
            jobs.append(("dwm", "binary32"))
        if "binary64" in cfg.precisions:
            jobs.append(("dwm", "binary64"))

        for seed in seeds:
            data, weights = _draw(cfg, seed)
            reference = gemm_conv2d(data, weights, spec, precision="binary64")
            for algo, precision in jobs:
                try:
                    if (algo, precision) == ("direct", "binary64"):
                        y = reference
                    elif algo == "direct":
                        y = direct_conv2d(data, weights, spec, precision=precision)
                    elif algo == "winograd":
                        part = classic.parts[0]
                        y = winograd_conv2d(data, weights, spec, part.transform_rows,
                                            part.transform_cols, precision=precision)
                    else:
                        y = dwm_conv2d(data, weights, spec, precision=precision)
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


def _parse_entries(doc, kind: str, key: str, build) -> list:
    """[build(index, entry)] over the ``key`` list of a schema-1 ``kind`` document.

    An error names the document, the list or the entry (by index, and by
    its "name" where it has one) that is at fault.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} must be a JSON object, got {type(doc).__name__}")
    if type(doc.get("schema")) is not int or doc["schema"] != 1:  # not 1.0 or true
        raise ValueError(f"unsupported {kind} schema {doc.get('schema')!r}")
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ValueError(f"{kind} {key!r} must be a list, got {type(entries).__name__}")
    built = []
    for i, entry in enumerate(entries):
        try:
            if not isinstance(entry, dict):
                raise TypeError(f"expected a JSON object, got {type(entry).__name__}")
            built.append(build(i, entry))
        except (KeyError, TypeError, ValueError) as exc:
            name = f" {entry['name']!r}" if isinstance(entry, dict) and "name" in entry else ""
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"malformed {kind} entry {i}{name}: {detail}") from exc
    return built


def _accuracy_entry(_, entry: dict) -> AccuracyConfig:
    cfg = AccuracyConfig(
        kernel=as_pair(entry["kernel"], "kernel"),
        stride=as_pair(entry.get("stride", 1), "stride"),
        hw=_integer(entry["hw"], "hw"),
        channels=_integer(entry["channels"], "channels"),
        filters=_integer(entry["filters"], "filters"),
        batch=_integer(entry.get("batch", 1), "batch"),
        precisions=tuple(_list(entry.get("precisions", PRECISIONS), "precisions")),
    )
    if min(cfg.channels, cfg.filters, cfg.batch) < 1:
        raise ValueError("channels, filters and batch must be positive")
    unknown = [p for p in cfg.precisions if p not in PRECISIONS]
    if unknown:
        raise ValueError(f"unknown precisions {unknown}; expected {' or '.join(PRECISIONS)}")
    cfg.spec().out_dims(cfg.hw, cfg.hw)
    return cfg


def parse_accuracy_config(doc: dict):
    """(configs, seeds) of an accuracy config document."""
    configs = _parse_entries(doc, "accuracy config", "configs", _accuracy_entry)
    try:
        seeds = [_integer(s, "seeds") for s in _list(doc.get("seeds", [1]), "seeds")]
    except TypeError as exc:
        raise ValueError(f"accuracy config 'seeds' must be a list of integers: {exc}") from exc
    negative = [s for s in seeds if s < 0]
    if negative:  # numpy's generators take non-negative seeds only
        raise ValueError(f"accuracy config 'seeds' must be non-negative, got {negative}")
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


def parse_flops_config(doc: dict):
    """(ConvSpec, out_dims, expected) per entry of a flops config document."""

    def build(_, entry):
        spec = ConvSpec(kernel=as_pair(entry["kernel"], "kernel"),
                        stride=as_pair(entry.get("stride", 1), "stride"))
        out = as_pair(entry.get("out", doc.get("out", 14)), "out")
        if min(out) < 1:
            raise ValueError(f"out must be two positive integers, got {out}")
        expected = entry.get("expected")
        if not (expected is None or isinstance(expected, dict) and all(
                want is None or type(want) in (int, float) for want in expected.values())):
            raise TypeError(f"expected must be a JSON object of numbers or nulls, got {expected!r}")
        return spec, out, expected

    return _parse_entries(doc, "flops config", "configs", build)


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


def _layer_entry(i: int, entry: dict) -> LayerSpec:
    layer = LayerSpec(
        name=entry.get("name", f"layer{i}"),
        in_channels=_integer(entry["in_channels"], "in_channels"),
        out_channels=_integer(entry["out_channels"], "out_channels"),
        kernel=as_pair(entry["kernel"], "kernel"),
        stride=as_pair(entry.get("stride", 1), "stride"),
        pad=tuple(_integer(p, "pad") for p in entry.get("pad", (0, 0, 0, 0))),
        input_hw=as_pair(entry["input"], "input"),
    )
    layer.spec()
    return layer


def load_network(doc: dict) -> NetworkSpec:
    """Parse a network JSON document, naming the offending layer on errors."""
    layers = _parse_entries(doc, "network", "layers", _layer_entry)
    return NetworkSpec(name=doc.get("name", "network"), layers=tuple(layers))


def analyze_network(net: NetworkSpec) -> tuple[list[LayerReport], dict]:
    """Per-layer and total multiplication counts per algorithm, per input image.

    1x1 layers pass through unaccelerated (all three columns equal).  The
    winograd total falls back to the direct count for layers it cannot run
    (stride > 1, over 13 taps), mirroring a deployment that only
    accelerates what it can.
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
