"""Print the code lines of each Python module under the given paths.

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of a module, class or function docstring do not count.
A line that mixes code and a trailing comment counts once. Stdlib only.

    python3 tools/code_lines.py src/sizecon
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(paths: list[str]) -> None:
    total = 0
    for path in paths:
        root = Path(path)
        for module in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            count = code_lines(module.read_text())
            total += count
            print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
