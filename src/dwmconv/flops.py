"""Multiplication-count model for direct, classic Winograd and decomposed Winograd.

Counting convention (declared in every report header):

  * only multiplications count, never additions;
  * counts are per input channel, per filter and per image; network-level
    totals scale by in_channels * out_channels;
  * multiplying by a shift-free constant (0, +-2^n or +-1/2^n, any integer
    n) is free, since it is implementable as a bit shift;
  * a Winograd part costs elementwise products (tiles * alpha^2) + data
    transform (per tile, non-shift-free entries of b_t applied twice) +
    kernel transform (non-shift-free entries of g, applied across the two
    matrix stages).  The output detransform is not charged.  The classic
    column is the one-part plan (``plan_classic``) over the naive baseline
    transforms, the same one-shot F(2, r) the accuracy suite compares against.

Under this convention the decomposed method's transform stages cost zero,
because the F(2,1)/F(2,2)/F(2,3) matrices contain only shift-free entries;
flops_dwm computes the transform terms anyway rather than assuming them
away.
"""

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from fractions import Fraction

from .convspec import ConvSpec
from .decompose import DecompositionPlan, plan_classic, plan_decomposition
from .transforms import TransformSet, get_baseline_transform

CONVENTION_NOTE = (
    "multiplications only, per channel per filter per image; constants in "
    "{0, +-2^n, +-1/2^n} are free (bit shifts); winograd column = elementwise "
    "products + non-shift-free data/kernel transform multiplies, output "
    "detransform uncharged"
)


@dataclass(frozen=True)
class FlopReport:
    """Multiplication counts and speedups for one convolution configuration.

    ``winograd_mults``/``speedup_winograd`` are None where classic Winograd
    does not apply (stride > 1, over 13 taps), rendered as N/A in reports.
    """

    spec: ConvSpec
    out: tuple[int, int]
    direct_mults: int
    winograd_mults: int | None
    dwm_mults: int
    speedup_winograd: float | None
    speedup_dwm: float


def is_shift_free(x) -> bool:
    """True iff x is 0 or +-2^k for integer k (so +-1, +-4, +-1/2, ...)."""
    f = Fraction(x)
    if f == 0:
        return True
    num, den = abs(f.numerator), f.denominator
    return (num & (num - 1)) == 0 and (den & (den - 1)) == 0


def count_non_shift_free(rows) -> int:
    """Number of matrix entries whose multiplication actually costs."""
    return sum(1 for row in rows for x in row if not is_shift_free(x))


def _tiles(out: tuple[int, int]) -> int:
    oh, ow = out
    return -(-oh // 2) * -(-ow // 2)


def flops_direct(spec: ConvSpec, out: tuple[int, int]) -> int:
    """oh * ow * r_h * r_w multiplications."""
    oh, ow = out
    return oh * ow * spec.kernel[0] * spec.kernel[1]


def _part_cost(ts_r: TransformSet, ts_c: TransformSet, tiles: int) -> int:
    """One tiled F(2, r_r) x F(2, r_c) correlation: the elementwise products
    plus the non-shift-free multiplies of the data and kernel transforms."""
    lr, lc = ts_r.alpha, ts_c.alpha
    data_cost = tiles * (count_non_shift_free(ts_r.b_t) * lc + lr * count_non_shift_free(ts_c.b_t))
    kernel_cost = count_non_shift_free(ts_r.g) * ts_c.r + lr * count_non_shift_free(ts_c.g)
    return tiles * lr * lc + data_cost + kernel_cost


def _classic_baseline_plan(spec: ConvSpec) -> DecompositionPlan | None:
    """``plan_classic`` over the naive baseline transforms (integer-first
    nodes), or None where classic Winograd does not apply."""
    try:
        return plan_classic(spec, *map(get_baseline_transform, spec.kernel))
    except ValueError:
        return None


def flops_winograd_classic(spec: ConvSpec, out: tuple[int, int]) -> int | None:
    """Classic tiled F(2, r) cost under the declared convention: flops_dwm of
    ``_classic_baseline_plan``; None where classic Winograd does not apply.

    Reference counts in the fast-convolution literature for one-shot
    F(2, r) at r >= 5 are much larger; their accounting convention is not
    recoverable, so this model emits its own documented convention.
    """
    plan = _classic_baseline_plan(spec)
    return None if plan is None else flops_dwm(plan, out)


def flops_dwm(plan: DecompositionPlan, out: tuple[int, int]) -> int:
    """Winograd cost of a plan: tiles * sum over parts of prod(count + 1),
    plus each part's transform multiplies.

    For parts of at most 3 taps per axis every transform entry is
    shift-free, so that term is zero (computed, not assumed).
    """
    tiles = _tiles(out)
    return sum(_part_cost(part.transform_rows, part.transform_cols, tiles) for part in plan.parts)


def speedup_table(configs) -> list[FlopReport]:
    """One FlopReport per (ConvSpec, out_dims) pair, ratios from exact counts."""
    reports = []
    for spec, out in configs:
        out = tuple(out)
        direct = flops_direct(spec, out)
        wino = flops_winograd_classic(spec, out)
        dwm = flops_dwm(plan_decomposition(spec), out)
        reports.append(FlopReport(
            spec=spec, out=out,
            direct_mults=direct,
            winograd_mults=wino,
            dwm_mults=dwm,
            speedup_winograd=None if wino is None else direct / wino,
            speedup_dwm=direct / dwm,
        ))
    return reports


def _sci(x: int) -> str:
    """3-significant-digit scientific notation with half-up rounding (1225 -> 1.23E+03)."""
    if x == 0:
        return "0.00E+00"
    d = Decimal(x)
    exp = d.adjusted()
    q = d.scaleb(-exp).quantize(Decimal("1.00"), rounding=ROUND_HALF_UP)
    if q >= 10:
        q = (q / 10).quantize(Decimal("1.00"), rounding=ROUND_HALF_UP)
        exp += 1
    return f"{q}E{exp:+03d}"


def reports_to_csv(reports) -> str:
    """Fixed-column CSV: counts in 3-significant-digit scientific notation,
    speedups to 2 decimals, N/A where classic Winograd does not apply."""
    lines = [f"# {CONVENTION_NOTE}",
             "kernel,stride,direct,winograd,winograd_speedup,dwm,dwm_speedup"]
    for rep in reports:
        r_h, r_w = rep.spec.kernel
        s_h, s_w = rep.spec.stride
        stride = str(s_h) if s_h == s_w else f"{s_h}x{s_w}"
        wino = "N/A" if rep.winograd_mults is None else _sci(rep.winograd_mults)
        wino_speed = "N/A" if rep.speedup_winograd is None else f"{rep.speedup_winograd:.2f}"
        lines.append(
            f"{r_h}x{r_w},{stride},{_sci(rep.direct_mults)},{wino},{wino_speed},"
            f"{_sci(rep.dwm_mults)},{rep.speedup_dwm:.2f}")
    return "\n".join(lines) + "\n"


def reports_to_json(reports) -> list[dict]:
    """Exact integer counts and full-precision ratios."""
    out = []
    for rep in reports:
        out.append({
            "kernel": list(rep.spec.kernel),
            "stride": list(rep.spec.stride),
            "out": list(rep.out),
            "direct": rep.direct_mults,
            "winograd": rep.winograd_mults,
            "winograd_speedup": rep.speedup_winograd,
            "dwm": rep.dwm_mults,
            "dwm_speedup": rep.speedup_dwm,
        })
    return out
