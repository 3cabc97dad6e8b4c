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

from dataclasses import asdict, dataclass
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
    """Multiplication counts and speedups for one convolution configuration,
    its fields the keys of its JSON record.

    ``winograd``/``winograd_speedup`` are None where classic Winograd does
    not apply (stride > 1, over 13 taps), rendered as N/A in reports.
    """

    kernel: tuple[int, int]
    stride: tuple[int, int]
    out: tuple[int, int]
    direct: int
    winograd: int | None
    winograd_speedup: float | None
    dwm: int
    dwm_speedup: float


# The counts a FlopReport gives, in column order: its attributes, CSV
# columns, JSON keys and flops-config ``expected`` keys.  Multiplication
# counts are ints, exact; speedups are float ratios, shown and checked to
# 2 decimals.
REPORT_FIELDS = ("direct", "winograd", "winograd_speedup", "dwm", "dwm_speedup")


def is_shift_free(x) -> bool:
    """True iff x is 0 or +-2^k for integer k (so +-1, +-4, +-1/2, ...)."""
    f = Fraction(x)  # 0 is 0/1: both pass the power-of-two test below
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
        return plan_classic(spec, get_baseline_transform)
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
    return sum(_part_cost(*plan.transforms(part), tiles) for part in plan.parts)


def mult_counts(spec: ConvSpec, out: tuple[int, int]) -> tuple[int, int | None, int]:
    """(direct, classic Winograd, decomposed) multiplications of ``spec`` at
    output extent ``out``; the classic count is None where it does not apply."""
    return (flops_direct(spec, out), flops_winograd_classic(spec, out),
            flops_dwm(plan_decomposition(spec), out))


def _sci(x: int) -> str:
    """3-significant-digit scientific notation with half-up rounding (1225 -> 1.23E+03)."""
    d = Decimal(x)
    exp = d.adjusted()
    q = d.scaleb(-exp).quantize(Decimal("1.00"), rounding=ROUND_HALF_UP)
    if q >= 10:
        q = (q / 10).quantize(Decimal("1.00"), rounding=ROUND_HALF_UP)
        exp += 1
    return f"{q}E{exp:+03d}"


@dataclass(frozen=True)
class FlopTable:
    """The FLOP sweep: one FlopReport per configuration, in config order."""

    rows: tuple[FlopReport, ...]

    def to_csv(self) -> str:
        """Fixed-column CSV: counts in 3-significant-digit scientific
        notation, speedups to 2 decimals, N/A where classic Winograd does
        not apply."""
        lines = [f"# {CONVENTION_NOTE}", ",".join(["kernel", "stride", *REPORT_FIELDS])]
        for rep in self.rows:
            (r_h, r_w), (s_h, s_w) = rep.kernel, rep.stride
            cells = [f"{r_h}x{r_w}", str(s_h) if s_h == s_w else f"{s_h}x{s_w}"]
            cells += ["N/A" if v is None else f"{v:.2f}" if isinstance(v, float) else _sci(v)
                      for v in (getattr(rep, key) for key in REPORT_FIELDS)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> list[dict]:
        """Exact integer counts and full-precision ratios, one record per row."""
        return [asdict(rep) for rep in self.rows]


def speedup_table(configs) -> FlopTable:
    """One FlopReport per (ConvSpec, out_dims) pair, ratios from exact counts."""
    rows = []
    for spec, out in configs:
        out = tuple(out)
        direct, wino, dwm = mult_counts(spec, out)
        rows.append(FlopReport(
            kernel=spec.kernel, stride=spec.stride, out=out, direct=direct, winograd=wino,
            winograd_speedup=None if wino is None else direct / wino,
            dwm=dwm, dwm_speedup=direct / dwm))
    return FlopTable(rows=tuple(rows))
