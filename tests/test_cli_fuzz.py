"""Bounded fuzzing of the CLI's input boundaries.

Malformed geometry flags, damaged tensor files, and wrong-typed fields or
unknown keys at each level of the flops, accuracy and network JSON
documents must each end in exit 1 or 2 with exactly one ``error:`` line on
stderr and no traceback.
Every generated input is malformed by construction, and the suites are
replaced by stubs that fail the test, so no example reaches a suite run.
The CLI runs in-process; the flag and tensor-file examples are
derandomized and few, and the config documents are walked once, one
example per (document, level, field) and near-miss value, to keep the
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


@FUZZ
@given(st.one_of(st.tuples(st.just("--stride"), malformed_ints(2, 1)),
                 st.tuples(st.just("--pad"), malformed_ints(4, 0))),
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

# the near misses of a valid value: true, 1.0, 0 or -1 for a positive
# integer, "" or {} for a list or an object; each field gets those it does
# not accept (a whole field replaced by 0 or -1 is never a list, so
# "seeds" and "pad" refuse them too, though each accepts a list holding 0)
NEAR_MISSES = (True, 1.0, "", {}, 0, -1)
# "" is a name, but these do not fit in one plain CSV field
NOT_A_NAME = (True, 1.0, {}, "a,b", 'a"b', "a\nb", "a\r\nb", "a\u2028b")
NOT_EXPECTED = (True, 1.0, "", 0, -1)  # {} expects nothing
NOT_A_NUMBER = (True, "", {})          # 1.0, 0 and -1 are numbers

# the entry has no "out" of its own, so a top-level "out" is read
FLOPS_DOC = {"schema": 1, "configs": [{"kernel": 3, "stride": 1, "expected": {"dwm": 784}}]}
ACCURACY_DOC = {"schema": 1, "seeds": [1],
                "configs": [{"kernel": 3, "stride": 1, "hw": 8, "channels": 2,
                             "filters": 2, "batch": 1}]}
NETWORK_DOC = {"schema": 1, "name": "net",
               "layers": [{"name": "conv1", "in_channels": 1, "out_channels": 1,
                           "kernel": 3, "stride": 1, "pad": [1, 1, 1, 1], "input": 8}]}

# (argv, valid document, list key, top-level fields, entry fields), each
# field with the wrong-typed values that replace it
DOCUMENTS = {
    "flops": (("bench", "--suite", "flops", "--check", "--config"), FLOPS_DOC, "configs",
              {"schema": NEAR_MISSES, "configs": NEAR_MISSES, "out": NEAR_MISSES},
              {"kernel": NEAR_MISSES, "stride": NEAR_MISSES, "out": NEAR_MISSES,
               "expected": NOT_EXPECTED}),
    "accuracy": (("bench", "--suite", "accuracy", "--config"), ACCURACY_DOC, "configs",
                 {"schema": NEAR_MISSES, "configs": NEAR_MISSES, "seeds": NEAR_MISSES},
                 {field: NEAR_MISSES for field in
                  ("kernel", "stride", "hw", "channels", "filters", "batch")}),
    "network": (("analyze", "--network"), NETWORK_DOC, "layers",
                {"schema": NEAR_MISSES, "layers": NEAR_MISSES, "name": NOT_A_NAME},
                {field: NEAR_MISSES for field in
                 ("in_channels", "out_channels", "kernel", "stride", "input", "pad")}
                | {"name": NOT_A_NAME}),
}
# keys that no builder reads: near misses of real ones
UNREAD_KEYS = ("strides", "kernels", "Kernel", "dwn", "direct_speedup", "")


def _replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` (keys and list indexes) set to ``value``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for step in parents:
        target = target[step]
    target[last] = value
    return doc


def wrong_typed_cases():
    """(label, argv, document) per near miss of each document: one field at
    the top level, the first entry itself, or one field of that entry (for
    flops, one of its expected values too) replaced by each value that field
    does not accept; or one unread key added to the document, to the entry
    (or, for flops, to its expected values); or a network with no layers."""
    argv, doc, key = DOCUMENTS["network"][:3]
    yield "network with no layers", argv, _replaced(doc, (key,), [])
    yield "network without 'layers'", argv, {name: doc[name] for name in doc if name != key}
    for kind, (argv, doc, key, top, fields) in DOCUMENTS.items():
        entry = (key, 0)
        paths = [((name,), values) for name, values in top.items()]
        paths += [((unread,), (1,)) for unread in UNREAD_KEYS]
        paths += [(entry, NEAR_MISSES)]
        paths += [((*entry, name), values) for name, values in fields.items()]
        paths += [((*entry, unread), (1,)) for unread in UNREAD_KEYS]
        if kind == "flops":
            paths += [((*entry, "expected", name), NOT_A_NUMBER) for name in flops.REPORT_FIELDS]
            paths += [((*entry, "expected", unread), (784,)) for unread in UNREAD_KEYS]
        for path, values in paths:
            for value in values:
                yield f"{kind} {path} = {value!r}", argv, _replaced(doc, path, value)


def test_wrong_typed_config_field(tensors):
    root, _ = tensors
    path = root / "bad.json"
    for label, argv, doc in wrong_typed_cases():
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            code, out, err = run_cli(*argv, str(path))
            assert_one_error_line(code, err)
            assert out == "" and str(path) in err
        except AssertionError as exc:
            raise AssertionError(f"{label}: {exc}") from exc
