"""Print one SHA-1 line per engine output over a fixed set of geometries.

A refactor that must keep every bit compares this tree's listing with the
listing of the tree it changes:

    PYTHONPATH=src python3 scripts/output_hashes.py --against ../old

``--against DIR`` runs DIR's own ``scripts/output_hashes.py`` with
``PYTHONPATH=DIR/src`` in a subprocess, so each listing comes from its own
script and source, even across a change to a public signature the script
calls.  Every line of DIR's listing must appear unchanged at the same
position in this tree's listing; this tree may only append lines (new
engines or geometries go at the end).  The lines that differ are printed,
and the exit code is 1 if there are any, 0 if there are none.  Without
``--against`` the script prints this tree's listing, for a diff by hand:

    PYTHONPATH=old/src python3 scripts/output_hashes.py > before.txt
    PYTHONPATH=src python3 scripts/output_hashes.py > after.txt
    diff before.txt after.txt

Each line is ``<sha1>  <engine> <geometry> <precision>``.  Engines:
``dwm_conv2d`` (with and without a prebuilt plan), both ``dwm_backward``
gradients, ``direct_conv2d``, ``winograd_conv2d`` (where ``plan_classic``
accepts the geometry) and ``convolve`` ``y``/``flops`` for every algorithm
the geometry admits; the ``gemm_conv2d`` lines come after all of those, so
the lines before them compare with a listing from a tree without that
engine.  Last come the full-width lines: binary32 ``dwm_conv2d`` and both
``dwm_backward`` gradients at real layer widths (the paper's 11x11
256->256 shape, forward only, and AlexNet conv1 and conv4), whose
256-channel GEMMs are large enough for BLAS to block them, then binary32
``winograd_conv2d`` on the paper's 7x7 256->256 shape, with the default
plan and with ``plan_classic`` over the baseline transforms.  Precisions:
binary32, binary64 and exact ``Fraction`` (object arrays; reduced extents,
since exact arithmetic is slow).  Inputs are drawn from a fixed seed per
geometry; the Fraction inputs are multiples of 1/4.  Floats hash their dtype, shape and bytes; Fractions hash the
``p/q`` text of every element.

After all of those come the bundled CLI reports, each line the SHA-1 of
the text the CLI writes, the ``to_csv()``/``to_json()`` of the report the
suite returns:
``dwmconv bench --suite accuracy --config accuracy_14x14.json`` (CSV and
JSON), ``dwmconv bench --suite flops --config flops_14x14.json`` (CSV) and
``dwmconv analyze`` on ``alexnet.json`` and ``googlenet.json`` (CSV).
Then, per geometry and precision again: ``convolve`` ``y``/``flops`` for
"gemm", and for "dwm" and "winograd" (where the geometry admits it) the
plan ``convolve`` reports, as the SHA-1 of its ``plan_to_json`` text as
``dwmconv conv --dump-plan`` prints it.  Then come the JSON texts of the
flops and analyze reports above.  Last is binary32 ``dwm_conv2d`` on the
classic full-width 7x7 inputs: its plan's 1-tap parts transform 256x256
kernels, so they run ``_axes2``'s blocked branch, which the small
geometries' 1-tap parts do not reach.  After it comes binary32
``direct_conv2d`` on float64 draws of a 64->64 11x11 layer, whose weights
are cast in several tiles on their way into the filters-last copy.  Last
are binary32 ``direct_conv2d`` lines on the strided stems at real widths,
AlexNet conv1 (3->64, 11x11, stride 4) and GoogLeNet's first layer (3->64,
7x7, stride 2), both on 224x224 inputs, whose tap windows are strided
views of the engine's data buffer.  After them come binary32 ``dwm_conv2d``
and both ``dwm_backward`` gradients on AlexNet conv2 at full width (64->192,
5x5, 27x27): four parts summed in the tile layout and an odd output extent,
so the untile drops a tile row and column.  Last are binary32
``dwm_conv2d`` and both ``dwm_backward`` gradients under a plan built by
hand: a 12x12 kernel split 6+6 on each axis, the runs ``range(6)`` and
``range(6, 12)`` for both rows and columns, so four 6x6 parts under the
baseline transform family (3->4, 19x19), the one plan here with several
parts under a family other than the default; its parts share one tap-count
pair, so the backward builds A dY At once and reuses it.  The source
before plans carried one transform family gave the same three hashes, with
the baseline F(2, 6) given to each part.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from dwmconv import (ConvSpec, DecompositionPlan, analyze_network, convolve, direct_conv2d,
                     dwm_backward, dwm_conv2d, gemm_conv2d, get_baseline_transform,
                     load_network, plan_classic, plan_decomposition, plan_to_json,
                     run_accuracy_suite, speedup_table, winograd_conv2d)
from dwmconv.bench import parse_accuracy_config, parse_flops_config

# name, kernel, stride, pad, (N, C, F), float input (H, W), Fraction input (H, W)
GEOMETRIES = (
    ("3x3s1", (3, 3), (1, 1), (1, 1, 1, 1), (1, 3, 4), (9, 9), (6, 6)),
    ("5x5s2", (5, 5), (2, 2), (2, 2, 2, 2), (1, 3, 4), (13, 13), (9, 9)),
    ("11x11s4", (11, 11), (4, 4), (2, 2, 2, 2), (1, 3, 2), (35, 35), (19, 19)),
    ("7x5s1,3", (7, 5), (1, 3), (0, 0, 0, 0), (1, 2, 3), (12, 16), (9, 11)),
    ("2x4s3,1", (2, 4), (3, 1), (0, 2, 1, 3), (1, 2, 3), (11, 10), (7, 6)),
    ("6x2s2,3", (6, 2), (2, 3), (1, 0, 2, 1), (2, 3, 2), (13, 11), (8, 8)),
    ("batch2-5x3s1", (5, 3), (1, 1), (2, 1, 0, 1), (2, 3, 5), (10, 9), (7, 6)),
    ("alexnet-conv1", (11, 11), (4, 4), (2, 2, 2, 2), (1, 3, 4), (224, 224), (19, 19)),
    ("alexnet-conv2", (5, 5), (1, 1), (2, 2, 2, 2), (1, 4, 6), (27, 27), (7, 7)),
    ("alexnet-conv3", (3, 3), (1, 1), (1, 1, 1, 1), (1, 6, 8), (13, 13), (5, 5)),
    ("alexnet-conv4", (3, 3), (1, 1), (1, 1, 1, 1), (1, 8, 6), (13, 13), (5, 5)),
    ("alexnet-conv5", (3, 3), (1, 1), (1, 1, 1, 1), (1, 6, 6), (13, 13), (5, 5)),
)

PRECISIONS = ("binary32", "binary64", "fraction")

# name, kernel, stride, pad, (N, C, F), input (H, W), with gradients?
FULL_WIDTH = (
    ("paper14-11x11-full", (11, 11), (1, 1), (5, 5, 5, 5), (1, 256, 256), (14, 14), False),
    ("alexnet-conv1-full", (11, 11), (4, 4), (2, 2, 2, 2), (1, 3, 64), (224, 224), True),
    ("alexnet-conv4-full", (3, 3), (1, 1), (1, 1, 1, 1), (1, 384, 256), (13, 13), True),
)

# classic winograd_conv2d at full width: name, kernel, pad, (N, C, F), input (H, W)
CLASSIC_FULL_WIDTH = ("paper14-7x7-full", (7, 7), (3, 3, 3, 3), (1, 256, 256), (14, 14))

# binary32 direct_conv2d on float64 draws: name, kernel, pad, (N, C, F), input (H, W)
DIRECT_CAST = ("64x64-11x11-float64-draw", (11, 11), (5, 5, 5, 5), (1, 64, 64), (14, 14))

# binary32 direct_conv2d on strided stems: name, kernel, stride, pad, (N, C, F), input (H, W)
STRIDED_DIRECT = (
    ("alexnet-conv1-full", (11, 11), (4, 4), (2, 2, 2, 2), (1, 3, 64), (224, 224)),
    ("googlenet-stem-full", (7, 7), (2, 2), (3, 3, 3, 3), (1, 3, 64), (224, 224)),
)

# binary32 dwm_conv2d and dwm_backward on the one stride-1 multi-part layer of
# AlexNet: name, kernel, pad, (N, C, F), input (H, W)
MULTI_PART_FULL_WIDTH = ("alexnet-conv2-full", (5, 5), (2, 2, 2, 2), (1, 64, 192), (27, 27))

# binary32 dwm_conv2d and dwm_backward under a hand-built plan: a 12x12
# kernel split 6+6 per axis under the baseline family; (N, C, F), input (H, W)
SPLIT_6X6 = ("12x12-split-6+6-baseline", (1, 3, 4), (19, 19))


def split_6x6_plan() -> DecompositionPlan:
    """The 12x12 kernel's rows and columns each split into runs of 6 taps:
    four 6x6 parts, F(2, 6) baseline transforms."""
    runs = (range(6), range(6, 12))
    return DecompositionPlan(ConvSpec(kernel=(12, 12)), runs, runs, get_baseline_transform)


def _bundled(name: str, parse):
    """``parse`` of the bundled config document ``name``."""
    text = resources.files("dwmconv").joinpath("data", name).read_text(encoding="utf-8")
    return parse(json.loads(text))


def _texts(report) -> dict[str, str]:
    """{format: text} of the report files the CLI writes for ``report``."""
    return {"csv": report.to_csv(), "json": json.dumps(report.to_json(), indent=2) + "\n"}


def accuracy_report(name: str) -> dict[str, str]:
    """{format: text} that ``dwmconv bench --suite accuracy --config name --out`` writes."""
    return _texts(run_accuracy_suite(*_bundled(name, parse_accuracy_config)))


def flops_report(name: str) -> dict[str, str]:
    """{format: text} that ``dwmconv bench --suite flops --config name --out`` writes."""
    parsed = _bundled(name, parse_flops_config)
    return _texts(speedup_table([(spec, out) for spec, out, _ in parsed]))


def analyze_report(name: str) -> dict[str, str]:
    """{format: text} that ``dwmconv analyze --network name --out`` writes."""
    return _texts(analyze_network(_bundled(name, load_network)))


# bundled CLI reports: label, config name, {format: text} builder, and the
# formats listed last, after every other line (they were added later)
REPORTS = (
    ("accuracy-report", "accuracy_14x14.json", accuracy_report, ()),
    ("flops-report", "flops_14x14.json", flops_report, ("json",)),
    ("analyze-report", "alexnet.json", analyze_report, ("json",)),
    ("analyze-report", "googlenet.json", analyze_report, ("json",)),
)


def digest(x) -> str:
    if isinstance(x, str):
        payload = x.encode()
    elif isinstance(x, (int, np.integer)):
        payload = str(int(x)).encode()
    elif x.dtype == np.dtype(object):
        payload = " ".join(str(Fraction(v)) for v in x.ravel()).encode()
        payload = repr(x.shape).encode() + payload
    else:
        payload = x.dtype.str.encode() + repr(x.shape).encode() + x.tobytes()
    return hashlib.sha1(payload).hexdigest()


def inputs(seed: int, spec: ConvSpec, dims, extent, precision: str):
    n, c, f = dims
    rng = np.random.default_rng(seed)
    oh, ow = spec.out_dims(*extent)
    shapes = ((n, c) + tuple(extent), (f, c) + spec.kernel, (n, f, oh, ow))
    if precision == "fraction":
        draw = [rng.integers(-8, 9, size=s) for s in shapes]
        return [np.vectorize(lambda v: Fraction(int(v), 4), otypes=[object])(a) for a in draw]
    dt = np.float32 if precision == "binary32" else np.float64
    return [rng.standard_normal(s).astype(dt) for s in shapes]


def winograd_algos(spec: ConvSpec) -> list[str]:
    """The Winograd algorithms ``convolve`` admits for ``spec``: "winograd"
    only where ``plan_classic`` builds a plan for it."""
    try:
        plan_classic(spec)
    except ValueError:
        return ["dwm"]
    return ["dwm", "winograd"]


def outputs(spec: ConvSpec, data, weights, grad_out):
    """(label, output) for every engine call the geometry admits."""
    plan = plan_decomposition(spec)
    grad_d, grad_w = dwm_backward(grad_out, plan, data, weights)
    yield "dwm_conv2d", dwm_conv2d(data, weights, spec)
    yield "dwm_conv2d[plan]", dwm_conv2d(data, weights, spec, plan=plan)
    yield "dwm_backward[data]", grad_d
    yield "dwm_backward[weights]", grad_w
    yield "direct_conv2d", direct_conv2d(data, weights, spec)
    algos = ["direct", *winograd_algos(spec)]
    if "winograd" in algos:
        yield "winograd_conv2d", winograd_conv2d(data, weights, spec)
    for algo in algos:
        out = convolve(data, weights, spec, algo=algo)
        yield f"convolve[{algo}].y", out.y
        yield f"convolve[{algo}].flops", out.flops


def cases():
    """(name, precision, spec, (data, weights, grad_out)) per geometry and precision."""
    for seed, (name, kernel, stride, pad, dims, extent, exact_extent) in enumerate(GEOMETRIES):
        spec = ConvSpec(kernel=kernel, stride=stride, pad=pad)
        for precision in PRECISIONS:
            ext = exact_extent if precision == "fraction" else extent
            yield name, precision, spec, inputs(seed, spec, dims, ext, precision)


def listing():
    """The lines of this tree's listing, in order."""
    for name, precision, spec, (data, weights, grad_out) in cases():
        for label, out in outputs(spec, data, weights, grad_out):
            yield f"{digest(out)}  {label} {name} {precision}"
    for name, precision, spec, (data, weights, _) in cases():
        yield f"{digest(gemm_conv2d(data, weights, spec))}  gemm_conv2d {name} {precision}"
    for seed, (name, kernel, stride, pad, dims, extent, grads) in enumerate(FULL_WIDTH, 100):
        spec = ConvSpec(kernel=kernel, stride=stride, pad=pad)
        data, weights, grad_out = inputs(seed, spec, dims, extent, "binary32")
        yield f"{digest(dwm_conv2d(data, weights, spec))}  dwm_conv2d {name} binary32"
        if grads:
            grad_d, grad_w = dwm_backward(grad_out, plan_decomposition(spec), data, weights)
            yield f"{digest(grad_d)}  dwm_backward[data] {name} binary32"
            yield f"{digest(grad_w)}  dwm_backward[weights] {name} binary32"
    name, kernel, pad, dims, extent = CLASSIC_FULL_WIDTH
    spec = ConvSpec(kernel=kernel, pad=pad)
    data, weights, _ = inputs(100 + len(FULL_WIDTH), spec, dims, extent, "binary32")
    baseline = plan_classic(spec, get_baseline_transform)
    for label, plan in (("winograd_conv2d", None), ("winograd_conv2d[baseline]", baseline)):
        yield f"{digest(winograd_conv2d(data, weights, spec, plan))}  {label} {name} binary32"
    for label, name, build, late in REPORTS:
        for fmt, text in build(name).items():
            if fmt not in late:
                yield f"{digest(text)}  {label} {name} {fmt}"
    for name, precision, spec, (data, weights, _) in cases():
        out = convolve(data, weights, spec, algo="gemm")
        yield f"{digest(out.y)}  convolve[gemm].y {name} {precision}"
        yield f"{digest(out.flops)}  convolve[gemm].flops {name} {precision}"
        for algo in winograd_algos(spec):
            plan = convolve(data, weights, spec, algo=algo).plan
            text = json.dumps(plan_to_json(plan), indent=2)
            yield f"{digest(text)}  convolve[{algo}].plan {name} {precision}"
    for label, name, build, late in REPORTS:
        for fmt in late:
            yield f"{digest(build(name)[fmt])}  {label} {name} {fmt}"
    name, kernel, pad, dims, extent = CLASSIC_FULL_WIDTH
    spec = ConvSpec(kernel=kernel, pad=pad)
    data, weights, _ = inputs(100 + len(FULL_WIDTH), spec, dims, extent, "binary32")
    yield f"{digest(dwm_conv2d(data, weights, spec))}  dwm_conv2d {name} binary32"
    name, kernel, pad, dims, extent = DIRECT_CAST
    spec = ConvSpec(kernel=kernel, pad=pad)
    data, weights, _ = inputs(101 + len(FULL_WIDTH), spec, dims, extent, "binary64")
    y = direct_conv2d(data, weights, spec, precision="binary32")
    yield f"{digest(y)}  direct_conv2d {name} binary32"
    for seed, (name, kernel, stride, pad, dims, extent) in enumerate(STRIDED_DIRECT, 105):
        spec = ConvSpec(kernel=kernel, stride=stride, pad=pad)
        data, weights, _ = inputs(seed, spec, dims, extent, "binary32")
        yield f"{digest(direct_conv2d(data, weights, spec))}  direct_conv2d {name} binary32"
    name, kernel, pad, dims, extent = MULTI_PART_FULL_WIDTH
    spec = ConvSpec(kernel=kernel, pad=pad)
    data, weights, grad_out = inputs(105 + len(STRIDED_DIRECT), spec, dims, extent, "binary32")
    yield f"{digest(dwm_conv2d(data, weights, spec))}  dwm_conv2d {name} binary32"
    grad_d, grad_w = dwm_backward(grad_out, plan_decomposition(spec), data, weights)
    yield f"{digest(grad_d)}  dwm_backward[data] {name} binary32"
    yield f"{digest(grad_w)}  dwm_backward[weights] {name} binary32"
    name, dims, extent = SPLIT_6X6
    plan = split_6x6_plan()
    data, weights, grad_out = inputs(108, plan.spec, dims, extent, "binary32")
    yield f"{digest(dwm_conv2d(data, weights, plan.spec, plan))}  dwm_conv2d {name} binary32"
    grad_d, grad_w = dwm_backward(grad_out, plan, data, weights)
    yield f"{digest(grad_d)}  dwm_backward[data] {name} binary32"
    yield f"{digest(grad_w)}  dwm_backward[weights] {name} binary32"


def compare(old: list[str], new: list[str]) -> list[str]:
    """One report per line of ``old`` that ``new`` does not repeat at the
    same position; lines that ``new`` appends after ``old``'s end are fine."""
    problems = []
    for i, line in enumerate(old):
        got = new[i] if i < len(new) else "(no line)"
        if got != line:
            problems.append(f"line {i + 1}:\n  - {line}\n  + {got}")
    return problems


def against(tree: Path) -> int:
    """Compare ``tree``'s listing, from its own script and source, with this one's."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    # the other tree's listing runs while this one is computed
    proc = subprocess.Popen([sys.executable, str(tree / "scripts" / "output_hashes.py")],
                            cwd=tree, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    new = list(listing())
    out, err = proc.communicate()
    if proc.returncode != 0:
        print(f"error: {tree}'s output_hashes.py failed:\n{err}", file=sys.stderr)
        return 2
    old = out.splitlines()
    problems = compare(old, new)
    for problem in problems:
        print(problem)
    print(f"{len(old) - len(problems)} of {len(old)} lines of {tree} identical, "
          f"{max(0, len(new) - len(old))} appended")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="compare with the listing of the source tree DIR")
    args = parser.parse_args(argv)
    if args.against is not None:
        return against(args.against.resolve())
    for line in listing():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
