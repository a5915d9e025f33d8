"""``tools/code_lines.py`` counts non-blank, non-comment, non-docstring lines."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"

spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_counts_only_lines_of_code():
    source = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment keeps its line


class Thing:
    """Class docstring."""

    def method(self):
        """Method
        docstring."""
        text = """a string that is not a docstring
spans three lines
"""
        return text
'''
    # import, class, def, the three lines of the string, return
    assert code_lines.code_lines(source) == 7


def test_empty_module_and_bodies_without_docstrings():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines("def f():\n    return 1\n") == 2


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""doc"""\ny = 2\nz = 3\n')
    result = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines() == [
        f"     1  {tmp_path / 'a.py'}",
        f"     2  {tmp_path / 'sub' / 'b.py'}",
        "     3  total",
    ]
