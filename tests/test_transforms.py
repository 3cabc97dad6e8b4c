import dataclasses
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from dwmconv.transforms import (apply_exact, cook_toom, correlate_exact,
                                default_points, get_baseline_transform,
                                get_transform, to_float, transform_to_json,
                                verify_transform)

# The F(2,3) and F(2,5) triples as published and shipped in production
# Winograd kernels; cook_toom must reproduce them entry for entry.
F23_BT = ((1, 0, -1, 0), (0, 1, 1, 0), (0, -1, 1, 0), (0, 1, 0, -1))
F23_G = ((1, 0, 0), (F(1, 2), F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2), F(1, 2)), (0, 0, 1))
F23_AT = ((1, 1, 1, 0), (0, 1, -1, -1))

F25_BT = ((4, 0, -5, 0, 1, 0), (0, -4, -4, 1, 1, 0), (0, 4, -4, -1, 1, 0),
          (0, -2, -1, 2, 1, 0), (0, 2, -1, -2, 1, 0), (0, 4, 0, -5, 0, 1))
F25_G = ((F(1, 4), 0, 0, 0, 0),
         (F(-1, 6), F(-1, 6), F(-1, 6), F(-1, 6), F(-1, 6)),
         (F(-1, 6), F(1, 6), F(-1, 6), F(1, 6), F(-1, 6)),
         (F(1, 24), F(1, 12), F(1, 6), F(1, 3), F(2, 3)),
         (F(1, 24), F(-1, 12), F(1, 6), F(-1, 3), F(2, 3)),
         (0, 0, 0, 0, 1))
F25_AT = ((1, 1, 1, 1, 1, 0), (0, 1, -1, 2, -2, 1))


def as_fracs(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def test_default_points_prefixes():
    assert default_points(3) == [F(0), F(1), F(-1)]
    assert default_points(5) == [F(0), F(1), F(-1), F(2), F(-2)]


def test_default_points_rejects_large_count():
    with pytest.raises(ValueError):
        default_points(14)


def test_cook_toom_beyond_the_default_nodes_asks_for_points():
    with pytest.raises(ValueError, match=r"^F\(2,14\) needs 14 interpolation nodes, but the "
                                         r"default sequence has 13; pass the points"):
        cook_toom(2, 14)
    assert verify_transform(cook_toom(2, 14, range(14)), trials=2).ok


def test_f23_matches_published_matrices():
    ts = cook_toom(2, 3, [0, 1, -1])
    assert ts.b_t == as_fracs(F23_BT)
    assert ts.g == as_fracs(F23_G)
    assert ts.a_t == as_fracs(F23_AT)


def test_f25_matches_published_matrices():
    ts = cook_toom(2, 5, [0, 1, -1, 2, -2])
    assert ts.b_t == as_fracs(F25_BT)
    assert ts.g == as_fracs(F25_G)
    assert ts.a_t == as_fracs(F25_AT)


def test_r1_is_identity_pass_through():
    ts = cook_toom(2, 1, [])
    assert ts.alpha == 2
    assert ts.g == ((F(1),), (F(1),))
    assert ts.b_t == ((F(1), F(0)), (F(0), F(1)))
    assert ts.a_t == ((F(1), F(0)), (F(0), F(1)))
    assert apply_exact(ts, [F(3)], [F(5), F(7)]) == [F(15), F(21)]


@pytest.mark.parametrize("r", range(1, 12))
def test_generated_transforms_verify_exactly(r):
    assert verify_transform(get_transform(r), trials=24).ok


@pytest.mark.parametrize("r", range(1, 12))
def test_baseline_transforms_verify_exactly(r):
    assert verify_transform(get_baseline_transform(r), trials=24).ok


def test_baseline_shares_prefix_with_default_through_r5():
    # same published matrices up to F(2,5); they diverge only at F(2,7)+
    for r in (1, 2, 3, 4, 5):
        assert get_baseline_transform(r) == get_transform(r)
    assert get_baseline_transform(7) != get_transform(7)


def test_perturbed_transform_fails_with_counterexample():
    ts = cook_toom(2, 3, [0, 1, -1])
    g_rows = [list(row) for row in ts.g]
    g_rows[0][0] = F(2)
    broken = dataclasses.replace(ts, g=tuple(tuple(row) for row in g_rows))
    result = verify_transform(broken, trials=16)
    assert not result.ok
    filt, data, want, got = result.failure
    assert apply_exact(broken, filt, data) == got
    assert correlate_exact(filt, data) == want
    assert got != want


@pytest.mark.parametrize("r", [2, 3])
def test_exhaustive_small_integer_equivalence(r):
    # clear all denominators so the identity becomes an integer check,
    # then sweep every filter/data vector with entries in -2..2
    ts = get_transform(r)
    alpha = ts.alpha
    from math import lcm
    scale_g = lcm(*[x.denominator for row in ts.g for x in row])
    scale_b = lcm(*[x.denominator for row in ts.b_t for x in row])
    scale_a = lcm(*[x.denominator for row in ts.a_t for x in row])
    g_i = np.array([[int(x * scale_g) for x in row] for row in ts.g], dtype=np.int64)
    b_i = np.array([[int(x * scale_b) for x in row] for row in ts.b_t], dtype=np.int64)
    a_i = np.array([[int(x * scale_a) for x in row] for row in ts.a_t], dtype=np.int64)
    scale = scale_g * scale_b * scale_a

    filts = np.array(list(product(range(-2, 3), repeat=r)), dtype=np.int64)
    datas = np.array(list(product(range(-2, 3), repeat=alpha)), dtype=np.int64)
    gf = filts @ g_i.T                  # (nf, alpha)
    bd = datas @ b_i.T                  # (nd, alpha)
    got = np.einsum("fa,da,ma->fdm", gf, bd, a_i)
    want = np.zeros((len(filts), len(datas), ts.m), dtype=np.int64)
    for k in range(ts.m):
        for i in range(r):
            want[:, :, k] += filts[:, i][:, None] * datas[:, k + i][None, :]
    np.testing.assert_array_equal(got, want * scale)


def test_cook_toom_is_deterministic():
    assert cook_toom(2, 5, [0, 1, -1, 2, -2]) == cook_toom(2, 5, [0, 1, -1, 2, -2])


def test_duplicate_points_rejected():
    with pytest.raises(ValueError, match="distinct"):
        cook_toom(2, 3, [0, 0, 1])


def test_wrong_point_count_rejected():
    with pytest.raises(ValueError):
        cook_toom(2, 3, [0, 1])


def test_to_float_dyadic_entries_are_exact():
    nt = to_float(get_transform(3), "binary32")
    for rows, exact in ((nt.g, F23_G), (nt.b_t, F23_BT), (nt.a_t, F23_AT)):
        for row, erow in zip(rows, exact):
            for x, e in zip(row, erow):
                assert F(float(x)) == F(e)


def test_to_float_rounds_sixth_to_nearest_binary32():
    nt = to_float(get_transform(5), "binary32")
    assert nt.g[1][0] == np.float32(-1.0 / 6.0)
    assert nt.g[3][2] == np.float32(1.0 / 6.0)


def test_to_float_binary64_roundtrips_dyadics():
    nt = to_float(get_transform(3), "binary64")
    for row, erow in zip(nt.b_t, F23_BT):
        for x, e in zip(row, erow):
            assert F(float(x)) == F(e)


def test_to_float_converts_once_per_element_type():
    ts = cook_toom(2, 3, [F(1, 2), F(-3), F(2, 3)])
    for precision, dt in (("binary32", np.float32), ("binary64", np.float64)):
        nt = to_float(ts, precision)
        assert to_float(ts, dt) is nt
        for got, rows in ((nt.g, ts.g), (nt.b_t, ts.b_t), (nt.a_t, ts.a_t)):
            assert got.dtype == dt and not got.flags.writeable
            np.testing.assert_array_equal(got, [[dt(float(x)) for x in row] for row in rows])
    assert ts == cook_toom(2, 3, [F(1, 2), F(-3), F(2, 3)])
    assert hash(ts) == hash(cook_toom(2, 3, [F(1, 2), F(-3), F(2, 3)]))
    # a changed copy converts its own entries
    other = dataclasses.replace(ts, g=tuple(tuple(2 * x for x in row) for row in ts.g))
    np.testing.assert_array_equal(to_float(other, "binary64").g, 2 * to_float(ts, "binary64").g)


def test_to_float_rejects_unknown_precision():
    with pytest.raises(ValueError):
        to_float(get_transform(3), "binary16")


def test_transform_json_uses_fraction_strings():
    doc = transform_to_json(get_transform(3))
    assert doc["m"] == 2 and doc["r"] == 3
    assert doc["points"] == ["0", "1", "-1"]
    assert doc["g"][1] == ["1/2", "1/2", "1/2"]
    assert doc["b_t"][0] == ["1", "0", "-1", "0"]
