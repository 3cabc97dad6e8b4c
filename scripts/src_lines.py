"""Print the line counts of the package source: total, and code only.

Code-only lines are the lines of ``src/dwmconv/*.py`` that hold at least
one token other than a comment, and that are not part of a docstring (the
string that opens a module, class or function body); blank lines do not
count.  Run from the repository root, or pass another source directory:

    python3 scripts/src_lines.py [src/dwmconv]
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code-only lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/dwmconv")
    files = sorted(root.glob("*.py"))
    if not files:
        print(f"error: no Python files in {root}", file=sys.stderr)
        return 1
    total = code = 0
    for path in files:
        t, c = count(path)
        total, code = total + t, code + c
    print(f"{root}: {total} lines, {code} code-only ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
