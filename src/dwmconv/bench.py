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
from .flops import REPORT_FIELDS, FlopTable, _classic_baseline_plan, flops_direct, mult_counts
from .tensor import mse


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


def _name(value, kind: str) -> str:
    """A JSON name field that ``NetworkReport.to_csv`` can write as one plain
    CSV field: a string without a comma, double quote or line break
    (``splitlines`` knows every line break)."""
    if not isinstance(value, str) or "," in value or '"' in value \
            or value.splitlines() not in ([], [value]):
        raise ValueError(f"{kind} name must be a string without commas, double quotes or "
                         f"line breaks, got {value!r}")
    return value


def as_pair(value, key: str) -> tuple[int, int]:
    """Normalize a scalar or 2-sequence integer config field to an (h, w) pair."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise TypeError(f"{key!r} must be an integer or a list of two integers, "
                            f"got {value!r}")
        return _integer(value[0], key), _integer(value[1], key)
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
    baseline transforms, not the accuracy-tuned ones.  Both plans are
    built once per config, and every row of the config runs on them.
    """
    rows = []
    for cfg in configs:
        spec = cfg.spec()
        classic, plan = _classic_baseline_plan(spec), plan_decomposition(spec)
        jobs = [("direct", "binary64"), ("direct", "binary32")]
        if classic is not None:
            jobs.append(("winograd", "binary32"))
        jobs += [("dwm", "binary32"), ("dwm", "binary64")]

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
                        y = winograd_conv2d(data, weights, spec, classic, precision)
                    else:
                        y = dwm_conv2d(data, weights, spec, plan, precision)
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


def _parse_entries(doc, kind: str, key: str, build, fields: tuple[str, ...]) -> list:
    """[build(index, entry)] over the ``key`` list of a schema-1 ``kind`` document.

    Only "schema", ``key``, the parser's ``fields`` and "note" may be at the top level.
    ``build`` pops each key it reads from a copy of the entry, so a key
    left over is one it never reads, and is refused.  An error names the
    document, the list or the entry (by index, and by its "name" where it
    has one) that is at fault.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} must be a JSON object, got {type(doc).__name__}")
    if type(doc.get("schema")) is not int or doc["schema"] != 1:  # not 1.0 or true
        raise ValueError(f"unsupported {kind} schema {doc.get('schema')!r}")
    unknown = [name for name in doc if name not in ("schema", key, *fields, "note")]
    if unknown:
        raise ValueError(f"unknown {kind} key {unknown[0]!r}")
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ValueError(f"{kind} {key!r} must be a list, got {type(entries).__name__}")
    built = []
    for i, entry in enumerate(entries):
        try:
            if not isinstance(entry, dict):
                raise TypeError(f"expected a JSON object, got {type(entry).__name__}")
            unread = dict(entry)
            built.append(build(i, unread))
            if unread:
                raise ValueError(f"unknown key {next(iter(unread))!r}")
        except (KeyError, TypeError, ValueError) as exc:
            name = f" {entry['name']!r}" if isinstance(entry, dict) and "name" in entry else ""
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"malformed {kind} entry {i}{name}: {detail}") from exc
    return built


def _accuracy_entry(_, entry: dict) -> AccuracyConfig:
    cfg = AccuracyConfig(
        kernel=as_pair(entry.pop("kernel"), "kernel"),
        stride=as_pair(entry.pop("stride", 1), "stride"),
        hw=_integer(entry.pop("hw"), "hw"),
        channels=_integer(entry.pop("channels"), "channels"),
        filters=_integer(entry.pop("filters"), "filters"),
        batch=_integer(entry.pop("batch", 1), "batch"),
    )
    if min(cfg.channels, cfg.filters, cfg.batch) < 1:
        raise ValueError("channels, filters and batch must be positive")
    cfg.spec().out_dims(cfg.hw, cfg.hw)
    return cfg


def parse_accuracy_config(doc: dict):
    """(configs, seeds) of an accuracy config document."""
    configs = _parse_entries(doc, "accuracy config", "configs", _accuracy_entry, ("seeds",))
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


def _out(value) -> tuple[int, int]:
    """A flops config's positive ``out`` extents, as an (h, w) pair."""
    out = as_pair(value, "out")
    if min(out) < 1:
        raise ValueError(f"out must be two positive integers, got {out}")
    return out


def parse_flops_config(doc: dict):
    """(ConvSpec, out_dims, expected) per entry of a flops config document.

    An entry without ``out`` takes the document's, which defaults to 14 and
    is checked once, as a field of the document, even with no entries."""

    def build(_, entry):
        spec = ConvSpec(kernel=as_pair(entry.pop("kernel"), "kernel"),
                        stride=as_pair(entry.pop("stride", 1), "stride"))
        out = _out(entry.pop("out")) if "out" in entry else None
        expected = entry.pop("expected", None)
        if not (expected is None or isinstance(expected, dict) and all(
                want is None or type(want) in (int, float) for want in expected.values())):
            raise TypeError(f"expected must be a JSON object of numbers or nulls, got {expected!r}")
        unknown = [key for key in expected or () if key not in REPORT_FIELDS]
        if unknown:
            raise ValueError(f"unknown expected key {unknown[0]!r}; expected one of "
                             f"{', '.join(REPORT_FIELDS)}")
        return spec, out, expected

    entries = _parse_entries(doc, "flops config", "configs", build, ("out",))
    try:
        default = _out(doc.get("out", 14))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"flops config {exc}") from exc
    return [(spec, out or default, expected) for spec, out, expected in entries]


def check_flops(table: FlopTable, expectations) -> list[str]:
    """Mismatches between each of the table's JSON records (``to_json``)
    and the config's expected values under the same keys: counts exactly,
    speedups (floats) to 2 decimals."""
    violations = []
    for rec, expected in zip(table.to_json(), expectations):
        label = f"{rec['kernel'][0]}x{rec['kernel'][1]} s{rec['stride'][0]}"
        for key, want in (expected or {}).items():
            got = rec[key]
            if isinstance(got, float) and want is not None:
                if round(got, 2) != round(want, 2):
                    violations.append(f"{label}: {key} = {got:.2f}, expected {want:.2f}")
            elif got != want:
                violations.append(f"{label}: {key} = {got}, expected {want}")
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

    def __post_init__(self):
        if min(self.in_channels, self.out_channels) < 1:
            raise ValueError(f"in_channels and out_channels must be positive, got "
                             f"{self.in_channels} and {self.out_channels}")
        self.spec().out_dims(*self.input_hw)  # the kernel must fit the padded input

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


@dataclass(frozen=True)
class NetworkReport:
    """``analyze_network`` of one network: its layers' counts and the totals."""

    network: str
    layers: tuple[LayerReport, ...]
    totals: dict[str, int]

    def to_csv(self) -> str:
        lines = [f"# network {self.network}: multiplications per input image; winograd "
                 "total falls back to direct where not applicable",
                 "layer,kernel,stride,out,direct,winograd,winograd_speedup,dwm,dwm_speedup"]

        def row(name, dims, direct, winograd, dwm):
            wino = ["N/A"] * 2 if winograd is None else [f"{winograd:.2E}",
                                                         f"{direct / winograd:.2f}"]
            return ",".join([name, *dims, f"{direct:.2E}", *wino, f"{dwm:.2E}",
                             f"{direct / dwm:.2f}"])

        for rep in self.layers:
            dims = [f"{a}x{b}" for a, b in (rep.kernel, rep.stride, rep.out)]
            lines.append(row(rep.name, dims, rep.direct, rep.winograd, rep.dwm))
        lines.append(row("TOTAL", ["-"] * 3, **self.totals))
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return asdict(self)


def _layer_entry(i: int, entry: dict) -> LayerSpec:
    return LayerSpec(
        name=_name(entry.pop("name", f"layer{i}"), "layer"),
        in_channels=_integer(entry.pop("in_channels"), "in_channels"),
        out_channels=_integer(entry.pop("out_channels"), "out_channels"),
        kernel=as_pair(entry.pop("kernel"), "kernel"),
        stride=as_pair(entry.pop("stride", 1), "stride"),
        pad=tuple(_integer(p, "pad") for p in _list(entry.pop("pad", (0, 0, 0, 0)), "pad")),
        input_hw=as_pair(entry.pop("input"), "input"),
    )


def load_network(doc: dict) -> NetworkSpec:
    """Parse a network JSON document, naming the offending layer on errors.

    The network's and each layer's "name" must be a string that fits in one
    plain CSV field (``_name``), since ``NetworkReport.to_csv`` writes it
    unquoted.  A network needs at least one layer.
    """
    layers = _parse_entries(doc, "network", "layers", _layer_entry, ("name",))
    if not layers:  # the report's TOTAL row would divide by zero
        raise ValueError("network has no layers")
    return NetworkSpec(name=_name(doc.get("name", "network"), "network"), layers=tuple(layers))


def analyze_network(net: NetworkSpec) -> NetworkReport:
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
        out = spec.out_dims(*layer.input_hw)
        counts = ((flops_direct(spec, out),) * 3 if spec.kernel == (1, 1)
                  else mult_counts(spec, out))
        scale = layer.in_channels * layer.out_channels
        direct, wino, dwm = (None if c is None else c * scale for c in counts)
        layer_reports.append(LayerReport(
            name=layer.name, kernel=spec.kernel, stride=spec.stride, out=out,
            direct=direct, winograd=wino, dwm=dwm))
        totals["direct"] += direct
        totals["winograd"] += wino if wino is not None else direct
        totals["dwm"] += dwm
    return NetworkReport(network=net.name, layers=tuple(layer_reports), totals=totals)
