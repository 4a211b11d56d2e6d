"""`tools/src_lines.py` counts every line, and as code only the lines that are
not blank, comments or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment line
class Box:
    """Class docstring."""

    def size(self):
        """Method
        docstring."""
        text = """a string that is
        not a docstring"""
        return len(text)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # code: import, class, def, the two lines of `text`, return
    assert src_lines.count(SAMPLE) == (16, 6)


def test_counts_the_package():
    total, code = src_lines.count((TOOL.parent.parent / "src" / "sclab" / "ops.py").read_text())
    assert 0 < code < total
