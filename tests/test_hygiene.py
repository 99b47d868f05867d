"""Source rules for the package: internal invariants raise exceptions
(an `assert` vanishes under `python -O`), and the runtime needs nothing
beyond the standard library."""

import ast
import sys
from pathlib import Path

import pytest

import clalg

MODULES = sorted(Path(clalg.__file__).parent.glob("*.py"))
ORACLES = Path(__file__).parent / "oracles.py"


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_and_stdlib_only_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = [f"line {node.lineno}: assert statement"
                for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    problems += [f"line {line}: imports {root}" for line, root in _imported_roots(tree)
                 if root != "clalg" and root not in sys.stdlib_module_names]
    assert not problems, problems


def test_oracles_are_independent_of_the_package():
    # the reference implementations check the package, so they may use
    # the standard library only
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"), filename=str(ORACLES))
    problems = [f"line {line}: imports {root}" for line, root in _imported_roots(tree)
                if root not in sys.stdlib_module_names]
    assert not problems, problems
