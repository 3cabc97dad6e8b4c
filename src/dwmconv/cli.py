"""Command-line front door: transform dumps, single convolutions, benchmark
suites and network analysis.

Human-readable output goes to stdout, diagnostics to stderr, and machine
output only to files named with --out.  Every subcommand is deterministic
given its inputs and declared seeds, so identical invocations produce
byte-identical outputs.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from . import bench, flops, tensorfile
from .convspec import ConvSpec
from .decompose import plan_to_json
from .engines import convolve, direct_conv2d
from .transforms import cook_toom, transform_to_json, verify_transform


def _fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cannot_write(path: str, exc: OSError) -> int:
    return _fail(f"cannot write {exc.filename or path}: {exc.strerror or exc}")


def _parse_ints(text: str, name: str, count: int) -> tuple[int, ...]:
    """``count`` comma-separated integers, or one integer repeated ``count`` times."""
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) in (1, count):
        return tuple(parts) * (count // len(parts))
    raise ValueError(f"{name} takes one or {count} comma-separated integers, got {text!r}")


def _resolve_config(path_text: str) -> Path:
    """A real path, or the name of a bundled file under dwmconv/data."""
    path = Path(path_text)
    if path.exists():
        return path
    bundled = resources.files("dwmconv").joinpath("data", path_text)
    if bundled.is_file():
        return Path(str(bundled))
    raise FileNotFoundError(f"config {path_text!r} not found (not a path or bundled name)")


def _load_config(path_text: str, parse):
    """``parse`` of the JSON document at a path or bundled name; an error
    in the JSON or in its contents names the file."""
    path = _resolve_config(path_text)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except ValueError as exc:  # json.JSONDecodeError included
            raise ValueError(f"{path_text}: {exc}") from exc


def cmd_gen_transforms(args) -> int:
    if args.trials < 1:
        return _fail(f"--trials must be at least 1, got {args.trials}")
    points = None
    if args.points is not None:
        try:
            points = [Fraction(p) for p in args.points.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            return _fail(f"bad rational in --points: {exc}")
    try:
        ts = cook_toom(args.m, args.r, points)
    except ValueError as exc:
        return _fail(str(exc))
    result = verify_transform(ts, trials=args.trials)
    if not result.ok:
        filt, data, want, got = result.failure
        return _fail(
            f"generated transform failed verification after {result.trials} trials: "
            f"filt={filt} data={data} expected={want} got={got}", 2)
    doc = json.dumps(transform_to_json(ts), indent=2)
    if args.out:
        try:
            Path(args.out).write_text(doc + "\n", encoding="utf-8")
        except OSError as exc:
            return _cannot_write(args.out, exc)
        print(f"wrote F({args.m},{args.r}) transforms to {args.out} "
              f"(verified, {result.trials} trials)")
    else:
        print(doc)
    return 0


def cmd_conv(args) -> int:
    if args.dump_plan and args.algo in ("direct", "gemm"):
        return _fail(f"--dump-plan needs --algo winograd or dwm; {args.algo} runs no plan")
    try:
        data = tensorfile.read_tensor(args.input)
        weights = tensorfile.read_tensor(args.weights)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))

    kernel = tuple(weights.shape[2:])
    try:
        spec = ConvSpec(kernel=kernel, stride=_parse_ints(args.stride, "--stride", 2),
                        pad=_parse_ints(args.pad, "--pad", 4))
    except ValueError as exc:
        return _fail(str(exc))

    try:
        out = convolve(data, weights, spec, algo=args.algo, precision=args.precision)
        reference = (direct_conv2d(data, weights, spec, precision=args.precision)
                     if args.verify else None)
    except (ValueError, FloatingPointError) as exc:
        return _fail(str(exc))
    except MemoryError:
        h, w = data.shape[2:]
        top, bottom, left, right = spec.pad
        return _fail(f"--pad {args.pad}: input {h}x{w} padded to "
                     f"{h + top + bottom}x{w + left + right} does not fit in memory")
    if args.out:
        try:
            tensorfile.write_tensor(args.out, out.y)
        except OSError as exc:
            return _cannot_write(args.out, exc)

    stats = (f"algo={args.algo} kernel={kernel[0]}x{kernel[1]} "
             f"stride={spec.stride[0]}x{spec.stride[1]} out={out.y.shape[2]}x{out.y.shape[3]} "
             f"mults_per_channel_filter={out.flops}")
    if args.verify:
        diff = float(np.max(np.abs(out.y - reference))) if out.y.size else 0.0
        stats += f" max_abs_diff_vs_direct={diff:.6E}"
    print(stats)
    if args.dump_plan:
        print(json.dumps(plan_to_json(out.plan), indent=2))
    return 0


def _emit(report, out_base: str | None) -> int:
    """Write the report's .csv and .json under ``out_base`` and print the CSV;
    returns 1, after an error line, if a report cannot be written, else 0."""
    csv_text = report.to_csv()
    if out_base:
        try:
            Path(out_base + ".csv").write_text(csv_text, encoding="utf-8")
            Path(out_base + ".json").write_text(
                json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8")
        except OSError as exc:
            return _cannot_write(out_base, exc)
    print(csv_text, end="")
    return 0


def cmd_bench(args) -> int:
    parse = bench.parse_flops_config if args.suite == "flops" else bench.parse_accuracy_config
    try:
        parsed = _load_config(args.config, parse)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))

    if args.suite == "flops":
        report = flops.speedup_table([(spec, out) for spec, out, _ in parsed])
        check = lambda: bench.check_flops(report, [exp for _, _, exp in parsed])
    else:
        configs, seeds = parsed
        rows = []
        # one config at a time, so an error can name it; the suite loops over
        # configs before seeds, so the joined rows are the suite's own report
        for i, cfg in enumerate(configs):
            entry = f"{args.config}: config entry {i} (kernel {cfg.kernel[0]}x{cfg.kernel[1]})"
            try:
                rows += bench.run_accuracy_suite([cfg], seeds).rows
            except MemoryError:
                return _fail(f"{entry} does not fit in memory")
            except ValueError as exc:  # numpy refuses a draw's shape before allocating it
                return _fail(f"{entry} is too large for an array ({exc})")
        report = bench.AccuracyReport(rows=tuple(rows))
        check = lambda: bench.check_accuracy_bands(report)
    if _emit(report, args.out):
        return 1
    violations = check() if args.check else []
    for v in violations:
        print(f"check failed: {v}", file=sys.stderr)
    return 1 if violations else 0


def cmd_analyze(args) -> int:
    try:
        report = bench.analyze_network(_load_config(args.network, bench.load_network))
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    return _emit(report, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwmconv",
        description="Decomposable Winograd convolution kernels and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-transforms", help="build and dump F(m, r) transform matrices")
    p.add_argument("m", type=int, help="outputs per tile")
    p.add_argument("r", type=int, help="filter taps")
    p.add_argument("--points", help="comma-separated rational interpolation points, e.g. 0,1,-1")
    p.add_argument("--trials", type=int, default=32, help="verification trials (default 32)")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_gen_transforms)

    p = sub.add_parser("conv", help="run a single convolution on tensor files")
    p.add_argument("--algo", choices=("direct", "gemm", "winograd", "dwm"), required=True)
    p.add_argument("--in", dest="input", required=True, help="input tensor file (DWM1)")
    p.add_argument("--weights", required=True,
                   help="weights tensor file (F,C,r_h,r_w); sets the kernel taps")
    p.add_argument("--stride", default="1", help="stride, one or two integers")
    p.add_argument("--pad", default="0", help="padding: symmetric value or top,bottom,left,right")
    p.add_argument("--precision", choices=("f32", "f64"), help="compute precision")
    p.add_argument("--out", help="write the output tensor here")
    p.add_argument("--verify", action="store_true",
                   help="also run the direct engine and report max abs difference")
    p.add_argument("--dump-plan", action="store_true",
                   help="print the plan that ran as JSON (winograd and dwm only)")
    p.set_defaults(func=cmd_conv)

    p = sub.add_parser("bench", help="run the FLOP or accuracy suite from a config file")
    p.add_argument("--suite", choices=("flops", "accuracy"), required=True)
    p.add_argument("--config", required=True,
                   help="config JSON path or bundled name (e.g. flops_14x14.json)")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero if acceptance bands or expected values fail")
    p.add_argument("--out", help="basename for .csv and .json report files")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("analyze", help="per-layer FLOP analysis of a network spec")
    p.add_argument("--network", required=True,
                   help="network JSON path or bundled name (e.g. alexnet.json)")
    p.add_argument("--out", help="basename for .csv and .json report files")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if any(isinstance(value, list) for value in vars(args).values()):
        parser.error("'--' is not a flag value")  # Python 3.11's argparse makes "--flag=--" []
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:
        # as the Python docs advise: the exit-time flush then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail("stdout was closed before all output was written")
    return code


if __name__ == "__main__":
    sys.exit(main())
