"""Exact Cook-Toom construction of Winograd minimal-filtering transforms.

F(m, r) computes m outputs of an r-tap sliding correlation with m+r-1
elementwise multiplications via three fixed matrices:

    y = a_t @ ((g @ filt) * (b_t @ data))

where ``filt`` has r taps, ``data`` has m+r-1 samples, ``g`` is the filter
transform (l x r), ``b_t`` the data transform (l x l, stored transposed)
and ``a_t`` the output detransform (m x l, stored transposed), l = m+r-1.

All construction and verification happens in exact rational arithmetic
(``fractions.Fraction``), so generated matrices carry no float drift and
equivalence with direct correlation can be checked for exact equality.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .tensor import FLOAT_DTYPES

ExactMatrix = tuple[tuple[Fraction, ...], ...]

# Interpolation nodes used when the caller does not supply any.  The prefix
# [0, 1, -1] and [0, 1, -1, 2, -2] reproduce the transform matrices that ship
# in production Winograd kernels; later entries keep magnitudes small.
POINT_SEQUENCE: tuple[Fraction, ...] = (
    Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-3),
    Fraction(1, 3), Fraction(-1, 3), Fraction(4), Fraction(-4),
)

# Nodes of the naive one-shot F(2, r) baseline the benchmarks compare
# against: integers of growing magnitude first.  Same prefix as above
# through F(2, 5), but from F(2, 7) on the larger nodes inflate the data
# transform and wreck binary32 accuracy, which is exactly the behaviour of
# traditional large-tile Winograd that kernel decomposition avoids.
BASELINE_POINT_SEQUENCE: tuple[Fraction, ...] = (
    Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(3), Fraction(-3), Fraction(1, 2), Fraction(-1, 2),
    Fraction(1, 3), Fraction(-1, 3), Fraction(4), Fraction(-4),
)

_DTYPE_ALIASES = {
    "binary32": np.float32, "f32": np.float32,
    "binary64": np.float64, "f64": np.float64,
}


def precision_dtype(precision) -> np.dtype:
    """Map a precision name (binary32/binary64, f32/f64) or dtype to a numpy dtype."""
    if isinstance(precision, str):
        try:
            return np.dtype(_DTYPE_ALIASES[precision])
        except KeyError:
            raise ValueError(f"unknown precision {precision!r}") from None
    dt = np.dtype(precision)
    if dt not in FLOAT_DTYPES:
        raise ValueError(f"unsupported precision {precision!r}")
    return dt


@dataclass(frozen=True)
class TransformSet:
    """Exact transform triple for F(m, r) plus its interpolation points."""

    m: int
    r: int
    points: tuple[Fraction, ...]
    g: ExactMatrix      # l x r filter transform
    b_t: ExactMatrix    # l x l data transform, transposed form
    a_t: ExactMatrix    # m x l output detransform, transposed form
    # to_float's conversions, per element type; not part of the value
    _floats: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def alpha(self) -> int:
        """Window length / number of elementwise products, m + r - 1."""
        return self.m + self.r - 1


@dataclass(frozen=True)
class NumericTransformSet:
    """Float rendering of a TransformSet for a fixed element precision."""

    r: int
    g: np.ndarray
    b_t: np.ndarray
    a_t: np.ndarray


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of verify_transform; failure carries the first counterexample."""

    ok: bool
    trials: int
    failure: tuple | None = None  # (filt, data, expected, got)


def _poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_from_roots(roots) -> list[Fraction]:
    """Monic polynomial prod(x - a) as coefficients, low order first."""
    return reduce(_poly_mul, ([-a, Fraction(1)] for a in roots), [Fraction(1)])


def cook_toom(m: int, r: int, points=None) -> TransformSet:
    """Build the F(m, r) transform triple by polynomial interpolation.

    A degree-(m-1) by degree-(r-1) polynomial product is evaluated at
    m+r-2 distinct rational nodes plus the conventional "infinity" node
    (which picks the leading coefficient), multiplied pointwise, and
    interpolated back; transposing that bilinear algorithm yields the
    correlation form y = a_t @ ((g @ filt) * (b_t @ data)).

    Row i of each matrix belongs to node i, in the order given, with the
    infinity node last:

      * b_t row i holds the coefficients of prod_{j != i}(x - a_j), the
        monic Lagrange numerator; the infinity row holds prod_j(x - a_j).
      * g row i is the Vandermonde row (1, a_i, ..., a_i^(r-1)) divided by
        the Lagrange denominator prod_{j != i}(a_i - a_j).
      * a_t column i is (1, a_i, ..., a_i^(m-1)); the infinity column is
        the basis vector selecting output m-1.

    Sign convention: when 0 is a node and its Lagrange denominator is
    negative, the zero-node pair (g row, b_t row) and the infinity pair
    (b_t row, a_t column) are negated.  Each pair flip cancels in the
    product, and the convention matches the matrices used by widely
    deployed Winograd kernels, e.g. for (2, 3, [0, 1, -1]):

        b_t = [[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]]
        g   = [[1, 0, 0], [1/2, 1/2, 1/2], [1/2, -1/2, 1/2], [0, 0, 1]]
        a_t = [[1, 1, 1, 0], [0, 1, -1, -1]]

    r == 1 is special-cased as an identity pass-through (y_k = filt_0 *
    data_k) rather than a degenerate interpolation system; its nodes are
    checked like any others, then unused (``points`` is empty).
    """
    if m < 1 or r < 1:
        raise ValueError(f"m and r must be positive, got m={m}, r={r}")
    alpha = m + r - 1
    if points is None:
        if alpha - 1 > len(POINT_SEQUENCE):
            raise ValueError(
                f"F({m},{r}) needs {alpha - 1} interpolation nodes, but the default "
                f"sequence has {len(POINT_SEQUENCE)}; pass the points (--points)")
        points = POINT_SEQUENCE[:alpha - 1]
    pts = tuple(Fraction(p) for p in points)
    if len(set(pts)) != len(pts):
        raise ValueError(
            f"interpolation points must be distinct, got [{', '.join(map(str, pts))}]")
    if len(pts) != alpha - 1:
        raise ValueError(f"F({m},{r}) needs {alpha - 1} points, got {len(pts)}")
    if r == 1:
        eye = tuple(tuple(Fraction(int(i == j)) for j in range(m)) for i in range(m))
        ones = tuple((Fraction(1),) for _ in range(m))
        return TransformSet(m=m, r=1, points=(), g=ones, b_t=eye, a_t=eye)

    denom = []
    for i, a in enumerate(pts):
        d = Fraction(1)
        for j, b in enumerate(pts):
            if i != j:
                d *= a - b
        denom.append(d)

    g_rows = [[a ** k / denom[i] for k in range(r)] for i, a in enumerate(pts)]
    g_rows.append([Fraction(int(k == r - 1)) for k in range(r)])

    bt_rows = []
    for i in range(len(pts)):
        numer = _poly_from_roots(b for j, b in enumerate(pts) if j != i)
        bt_rows.append(numer + [Fraction(0)])
    bt_rows.append(_poly_from_roots(pts))

    at_rows = [[a ** k for a in pts] + [Fraction(int(k == m - 1))] for k in range(m)]

    if Fraction(0) in pts:
        i0 = pts.index(Fraction(0))
        if denom[i0] < 0:
            g_rows[i0] = [-x for x in g_rows[i0]]
            bt_rows[i0] = [-x for x in bt_rows[i0]]
            bt_rows[-1] = [-x for x in bt_rows[-1]]
            for row in at_rows:
                row[-1] = -row[-1]

    freeze = lambda rows: tuple(tuple(row) for row in rows)
    return TransformSet(m=m, r=r, points=pts,
                        g=freeze(g_rows), b_t=freeze(bt_rows), a_t=freeze(at_rows))


def apply_exact(ts: TransformSet, filt, data) -> list[Fraction]:
    """Evaluate y = a_t @ ((g @ filt) * (b_t @ data)) in exact arithmetic."""
    if len(filt) != ts.r or len(data) != ts.alpha:
        raise ValueError(f"F({ts.m},{ts.r}) takes {ts.r} taps and {ts.alpha} samples")
    gf = [sum(row[k] * filt[k] for k in range(ts.r)) for row in ts.g]
    bd = [sum(row[k] * data[k] for k in range(ts.alpha)) for row in ts.b_t]
    prod = [a * b for a, b in zip(gf, bd)]
    return [sum(row[i] * prod[i] for i in range(ts.alpha)) for row in ts.a_t]


def correlate_exact(filt, data) -> list[Fraction]:
    """Direct sliding-window correlation, the oracle for apply_exact."""
    m = len(data) - len(filt) + 1
    return [sum(filt[i] * data[k + i] for i in range(len(filt))) for k in range(m)]


def verify_transform(ts: TransformSet, trials: int = 32) -> VerifyResult:
    """Check the exact-equivalence invariant on pseudo-random rational vectors.

    Failure is reported as a result with the first counterexample, never
    raised.  The generator is seeded from (m, r) so runs are repeatable.
    """
    rng = random.Random(0x5EED ^ (ts.m << 16) ^ ts.r)
    for t in range(trials):
        filt = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ts.r)]
        data = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ts.alpha)]
        got = apply_exact(ts, filt, data)
        want = correlate_exact(filt, data)
        if got != want:
            return VerifyResult(ok=False, trials=t + 1, failure=(filt, data, want, got))
    return VerifyResult(ok=True, trials=trials)


def _freeze_array(rows, dtype) -> np.ndarray:
    arr = np.array([[float(x) for x in row] for row in rows], dtype=dtype)
    arr.setflags(write=False)
    return arr


def to_float(ts: TransformSet, precision) -> NumericTransformSet:
    """Round every matrix entry to the nearest binary32 or binary64 value.

    The conversion runs once per transform set and element type; later
    calls return the same read-only arrays.
    """
    dt = precision_dtype(precision)
    nt = ts._floats.get(dt)
    if nt is None:
        nt = ts._floats[dt] = NumericTransformSet(
            r=ts.r,
            g=_freeze_array(ts.g, dt),
            b_t=_freeze_array(ts.b_t, dt),
            a_t=_freeze_array(ts.a_t, dt),
        )
    return nt


def to_exact_arrays(ts: TransformSet) -> NumericTransformSet:
    """Object-dtype (Fraction) arrays for the exact-arithmetic test mode."""
    freeze = lambda rows: np.array([list(row) for row in rows], dtype=object)
    return NumericTransformSet(r=ts.r, g=freeze(ts.g),
                               b_t=freeze(ts.b_t), a_t=freeze(ts.a_t))


@lru_cache(maxsize=None)
def get_transform(r: int) -> TransformSet:
    """Cached F(2, r) built from the default point sequence."""
    return cook_toom(2, r)


@lru_cache(maxsize=None)
def get_baseline_transform(r: int) -> TransformSet:
    """Cached F(2, r) of the naive classic-Winograd baseline (integer-first
    nodes; ``cook_toom`` checks them but does not use them at r == 1)."""
    if r > len(BASELINE_POINT_SEQUENCE):
        raise ValueError(f"baseline point sequence supports up to {len(BASELINE_POINT_SEQUENCE)} nodes")
    return cook_toom(2, r, BASELINE_POINT_SEQUENCE[:r])


def transform_to_json(ts: TransformSet) -> dict:
    """JSON-friendly dump with entries as exact "p/q" strings."""
    fmt = lambda rows: [[str(x) for x in row] for row in rows]
    return {
        "m": ts.m,
        "r": ts.r,
        "points": [str(p) for p in ts.points],
        "g": fmt(ts.g),
        "b_t": fmt(ts.b_t),
        "a_t": fmt(ts.a_t),
    }
