"""Bounded fuzzing of the CLI's input boundaries.

Malformed geometry flags, damaged tensor files and wrong-typed fields at
each level of the flops, accuracy and network JSON documents must each end
in exit 1 or 2 with exactly one ``error:`` line on stderr and no traceback.
Every generated input is malformed by construction, and the suites are
replaced by stubs that fail the test, so no example reaches a suite run.
The CLI runs in-process; examples are derandomized and few, to keep the
module to a few seconds.
"""

import contextlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dwmconv import bench, cli, flops, tensorfile

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _reached_a_suite(*_):
    raise AssertionError("a malformed input reached a suite run")


def run_cli(*argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(bench, "run_accuracy_suite", _reached_a_suite), \
            mock.patch.object(flops, "speedup_table", _reached_a_suite):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(code, err):
    assert code in (1, 2), err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def tensors(tmp_path_factory):
    """A valid (1, 1, 8, 8) input and (1, 1, 3, 3) weights file, by name."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"in": root / "in.dwm", "weights": root / "w.dwm"}
    tensorfile.write_tensor(paths["in"], np.ones((1, 1, 8, 8), dtype=np.float32))
    tensorfile.write_tensor(paths["weights"], np.ones((1, 1, 3, 3), dtype=np.float32))
    return root, paths


# --- geometry flags ------------------------------------------------------

JUNK = st.sampled_from(["", " ", "x", "1.5", "1e3", "0x1", "--", "3x3", "1/2", "nan"])


def malformed_ints(count: int, smallest: int):
    """Text that ``_parse_ints`` or ``ConvSpec`` rejects for a flag of
    ``count`` integers, each at least ``smallest``: a junk token, a wrong
    number of integers, or an integer below ``smallest``."""
    ints = st.lists(st.integers(smallest, 9), max_size=count)
    junk = st.tuples(ints, JUNK, st.integers(0, count)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
    wrong_count = st.lists(st.integers(0, 9), min_size=2, max_size=count + 2).filter(
        lambda xs: len(xs) != count)
    too_small = st.tuples(st.lists(st.integers(smallest, 9), min_size=count - 1,
                                   max_size=count - 1),
                          st.integers(smallest - 5, smallest - 1), st.integers(0, count - 1)
                          ).map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
    return st.one_of(junk, wrong_count, too_small).map(lambda xs: ",".join(map(str, xs)))


# --kernel must match the weights file's 3x3 taps
WRONG_KERNEL = st.one_of(
    malformed_ints(2, 1),
    st.lists(st.integers(1, 9), min_size=1, max_size=2).filter(lambda xs: set(xs) != {3})
    .map(lambda xs: ",".join(map(str, xs))))


@FUZZ
@given(st.one_of(st.tuples(st.just("--stride"), malformed_ints(2, 1)),
                 st.tuples(st.just("--pad"), malformed_ints(4, 0)),
                 st.tuples(st.just("--kernel"), WRONG_KERNEL)),
       st.booleans())
def test_malformed_geometry_flag(tensors, flag_value, joined):
    _, paths = tensors
    flag, value = flag_value
    flags = [f"{flag}={value}"] if joined else [flag, value]
    code, out, err = run_cli("conv", "--algo", "dwm", "--in", str(paths["in"]),
                             "--weights", str(paths["weights"]), *flags)
    assert_one_error_line(code, err)
    assert out == ""


# --- tensor files --------------------------------------------------------

HEADER = tensorfile._HEADER.size


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    """``blob``, a valid tensor file, truncated, cut to its header, with a
    bad magic, rank, element count or precision tag."""
    kind = draw(st.sampled_from(["truncated", "header-only", "bad-magic", "bad-rank",
                                 "bad-dims", "mis-tagged"]))
    if kind == "truncated":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "header-only":
        return blob[:HEADER]
    if kind == "bad-magic":
        return draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != b"DWM1")) + blob[4:]
    if kind == "bad-rank":
        rank = draw(st.integers(0, 2**32 - 1).filter(lambda r: r != 4))
        return blob[:4] + rank.to_bytes(4, "little") + blob[8:]
    if kind == "bad-dims":
        at = 8 + 4 * draw(st.integers(0, 3))
        was = int.from_bytes(blob[at:at + 4], "little")
        dim = draw(st.integers(0, 2**32 - 1).filter(lambda d: d != was))
        return blob[:at] + dim.to_bytes(4, "little") + blob[at + 4:]
    tag = draw(st.integers(1, 255))
    return blob[:HEADER - 1] + bytes([tag]) + blob[HEADER:]


@FUZZ
@given(st.sampled_from(["in", "weights"]), st.data())
def test_damaged_tensor_file(tensors, which, data):
    root, paths = tensors
    bad = root / f"bad-{which}.dwm"
    bad.write_bytes(data.draw(damaged(paths[which].read_bytes())))
    files = {**paths, which: bad}
    code, out, err = run_cli("conv", "--algo", "dwm", "--in", str(files["in"]),
                             "--weights", str(files["weights"]))
    assert_one_error_line(code, err)
    assert out == "" and str(bad) in err


# --- config documents ----------------------------------------------------

NOT_A_NUMBER = st.one_of(
    st.booleans(), st.text(max_size=4),
    st.lists(st.one_of(st.text(max_size=2), st.none()), min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))
NOT_AN_INT = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False),
                       NOT_A_NUMBER)
NOT_A_LIST = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.text(max_size=4),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))

# the entry has no "out" of its own, so a top-level "out" is read
FLOPS_DOC = {"schema": 1, "configs": [{"kernel": 3, "stride": 1, "expected": {"dwm": 784}}]}
ACCURACY_DOC = {"schema": 1, "seeds": [1],
                "configs": [{"kernel": 3, "stride": 1, "hw": 8, "channels": 2,
                             "filters": 2, "batch": 1, "precisions": ["binary32"]}]}
NETWORK_DOC = {"schema": 1, "name": "net",
               "layers": [{"name": "conv1", "in_channels": 1, "out_channels": 1,
                           "kernel": 3, "stride": 1, "pad": [1, 1, 1, 1], "input": 8}]}

# (argv, valid document, list key, top-level fields, entry fields), each
# field with the wrong-typed values that replace it
DOCUMENTS = {
    "flops": (("bench", "--suite", "flops", "--check", "--config"), FLOPS_DOC, "configs",
              {"schema": NOT_AN_INT, "configs": NOT_A_LIST, "out": NOT_AN_INT},
              {"kernel": NOT_AN_INT, "stride": NOT_AN_INT, "out": NOT_AN_INT,
               "expected": st.one_of(st.booleans(), st.integers(), st.text(max_size=4),
                                     st.lists(st.integers(), max_size=2))}),
    "accuracy": (("bench", "--suite", "accuracy", "--config"), ACCURACY_DOC, "configs",
                 {"schema": NOT_AN_INT, "configs": NOT_A_LIST, "seeds": NOT_A_LIST},
                 {field: NOT_AN_INT for field in
                  ("kernel", "stride", "hw", "channels", "filters", "batch")}
                 | {"precisions": NOT_A_LIST}),
    "network": (("analyze", "--network"), NETWORK_DOC, "layers",
                {"schema": NOT_AN_INT, "layers": NOT_A_LIST},
                {field: NOT_AN_INT for field in
                 ("in_channels", "out_channels", "kernel", "stride", "input")}
                | {"pad": NOT_A_LIST}),
}
EXPECTED_KEYS = ("direct", "winograd", "dwm", "winograd_speedup", "dwm_speedup")


@st.composite
def wrong_typed(draw, kind: str):
    """(argv, document) with one field of ``kind``'s valid document, at the
    top level, in its first entry (the entry itself included) or, for
    flops, in the entry's expected values, replaced by a wrong-typed value."""
    argv, doc, key, top, fields = DOCUMENTS[kind]
    doc = json.loads(json.dumps(doc))
    entry = doc[key][0]
    levels = ["top", "entry", "field"] + (["expected"] if kind == "flops" else [])
    level = draw(st.sampled_from(levels))
    if level == "top":
        name = draw(st.sampled_from(sorted(top)))
        doc[name] = draw(top[name])
    elif level == "entry":
        doc[key][0] = draw(NOT_A_LIST.filter(lambda v: not isinstance(v, dict)))
    elif level == "field":
        name = draw(st.sampled_from(sorted(fields)))
        entry[name] = draw(fields[name])
    else:
        entry["expected"] = {draw(st.sampled_from(EXPECTED_KEYS)): draw(NOT_A_NUMBER)}
    return argv, doc


@FUZZ
@given(st.sampled_from(sorted(DOCUMENTS)).flatmap(wrong_typed))
def test_wrong_typed_config_field(tensors, case):
    root, _ = tensors
    argv, doc = case
    path = root / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(*argv, str(path))
    assert_one_error_line(code, err)
    assert out == "" and str(path) in err
