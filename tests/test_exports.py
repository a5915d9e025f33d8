"""Every name the package exports has a caller outside the tests.

A caller is a code reference (an AST ``Name``, ``Attribute`` or imported
name) in a ``src/sizecon`` module other than ``__init__.py``, in a demo or
in ``perfbench/``. Docstrings and other strings do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sizecon"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def referenced_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names


def test_every_export_has_a_caller_outside_tests():
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += sorted((ROOT / "demos").glob("*.py"))
    callers += sorted((ROOT / "perfbench").rglob("*.py"))
    used = set().union(*(referenced_names(p) for p in callers))
    assert sorted(exported_names() - used) == []
