import ast
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

# one kind of line each: docstrings (module, function, class), a comment-only
# line, blank lines, statements over several lines and a multi-line string
# that is not a docstring
FIXTURE = '''"""Module docstring,
over two lines."""

# a comment-only line
import os  # a trailing comment


def f(a,
      b):
    """Function docstring."""

    total = (a +
             b)
    text = """not a
docstring"""
    return total, text


class C:
    """Class docstring."""
    x = 1
'''
DOCSTRING_LINES = {1, 2, 10, 20}
CODE_LINES = {5, 8, 9, 12, 13, 14, 15, 16, 19, 21}


def test_docstring_lines_are_those_of_module_function_and_class_docstrings():
    assert src_lines.docstring_lines(ast.parse(FIXTURE)) == DOCSTRING_LINES


def test_code_lines_skip_docstrings_comments_and_blanks_but_not_continuations(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert src_lines.count(path) == (21, len(CODE_LINES))


def test_main_sums_every_file_of_a_directory(tmp_path, capsys):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(FIXTURE, encoding="utf-8")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{tmp_path}: 42 lines, 20 code-only (2 files)\n"


def test_main_refuses_a_directory_without_python_files(tmp_path, capsys):
    assert src_lines.main([str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: no Python files in {tmp_path}\n"
