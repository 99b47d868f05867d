"""Source rules for the package: internal invariants raise exceptions
(an `assert` vanishes under `python -O`), and the runtime needs nothing
beyond the standard library."""

import ast
import sys
from pathlib import Path

import pytest

import clalg

MODULES = sorted(Path(clalg.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_and_stdlib_only_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        roots = []
        if isinstance(node, ast.Assert):
            problems.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        problems += [f"line {node.lineno}: imports {root}" for root in roots
                     if root != "clalg" and root not in sys.stdlib_module_names]
    assert not problems, problems
