"""Line counts of the package source: total lines, and code lines without
blank lines, comments or docstrings.

Usage (from the repository root):

    python3 tools/src_lines.py

Prints one row per `src/sclab/*.py` file and a total row.  It is a report,
with no limit to pass: a change states its `src/` delta as the difference of
the total rows before and after it.
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that docstrings of the module, its classes and functions span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text):
    """(total lines, code lines) of one Python source text."""
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(text.splitlines()), len(code)


def main():
    totals = [0, 0]
    print(f"{'lines':>6} {'code':>6}  file")
    for path in sorted((ROOT / "src" / "sclab").glob("*.py")):
        lines, code = count(path.read_text())
        totals[0] += lines
        totals[1] += code
        print(f"{lines:6d} {code:6d}  {path.relative_to(ROOT)}")
    print(f"{totals[0]:6d} {totals[1]:6d}  total")


if __name__ == "__main__":
    main()
