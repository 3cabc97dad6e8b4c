import importlib.util
from pathlib import Path

from dwmconv import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_hashes.py"
_spec = importlib.util.spec_from_file_location("output_hashes", SCRIPT)
output_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_hashes)

OLD = ["aa  direct_conv2d g1 binary32", "bb  dwm_conv2d g1 binary32", "cc  gemm_conv2d g1 binary64"]


def test_identical_listings_compare_clean():
    assert output_hashes.compare(OLD, list(OLD)) == []


def test_lines_appended_after_the_old_listing_are_allowed():
    assert output_hashes.compare(OLD, OLD + ["dd  new_engine g1 binary32"]) == []


def test_a_changed_line_is_reported_with_both_versions():
    new = [OLD[0], "xx  dwm_conv2d g1 binary32", OLD[2]]
    problems = output_hashes.compare(OLD, new)
    assert len(problems) == 1
    assert problems[0].startswith("line 2:")
    assert OLD[1] in problems[0] and new[1] in problems[0]


def test_a_line_inserted_before_the_end_shifts_and_is_reported():
    new = [OLD[0], "dd  new_engine g1 binary32", OLD[1], OLD[2]]
    problems = output_hashes.compare(OLD, new)
    assert [p.split(":")[0] for p in problems] == ["line 2", "line 3"]


def test_a_missing_line_is_reported():
    problems = output_hashes.compare(OLD, OLD[:2])
    assert len(problems) == 1 and "line 3:" in problems[0] and "(no line)" in problems[0]


def test_report_builders_give_the_text_the_cli_writes(tmp_path):
    for argv, build, name in (
            (["bench", "--suite", "flops", "--config"], output_hashes.flops_report,
             "flops_14x14.json"),
            (["analyze", "--network"], output_hashes.analyze_report, "alexnet.json"),
            (["analyze", "--network"], output_hashes.analyze_report, "googlenet.json")):
        base = tmp_path / name
        assert cli.main([*argv, name, "--out", str(base)]) == 0
        written = {fmt: Path(f"{base}.{fmt}").read_text(encoding="utf-8")
                   for fmt in ("csv", "json")}
        assert build(name) == written
