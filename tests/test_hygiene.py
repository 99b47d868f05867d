"""Source rules for the package: internal invariants raise exceptions
(an `assert` vanishes under `python -O`), the runtime needs nothing
beyond the standard library, results are cached on the immutable
values they belong to, never in a module-level cache, and by
core.cached_value, never by functools.cached_property, only the
validator builds sealed algebras, no whole-table test outside the
validator asks a part of `lattice_with_imp` on its own, no
two modules declare a law under the same tag, and only the values that
validate themselves or cache on themselves are dataclasses, no module
imports another's private names, no line is longer than 100
characters, the `scans` fixture counts the scans of every module
that runs laws, every replay context is built from the algebra and the
ideal bits alone, only laws.formula_law compiles source (eval, exec or
compile), no loop or comprehension calls `all_leq` (one call per order
test), and every function and class is named somewhere outside its own
definition."""

import ast
import importlib
import inspect
import sys
from itertools import chain
from pathlib import Path

import pytest
from conftest import SCANNING

import clalg
from clalg import identities, ideals, quotient, replay, validator

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_imported_from_another_module(path):
    # a leading underscore marks a module's own helper; what modules share,
    # the byte primitive laws.translation among it, is public
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = [f"line {node.lineno}: imports {alias.name} from {node.module or '.'}"
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.level or node.module.split(".")[0] == "clalg")
                for alias in node.names if alias.name.startswith("_")]
    assert not problems, problems


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_lines_fit_in_100_characters(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    problems = [f"line {number}: {len(line)} characters"
                for number, line in enumerate(lines, 1) if len(line) > 100]
    assert not problems, problems


# the one process-wide cache: the CLI's argument parser, built on first use
CACHE_ALLOWED = {("cli.py", "_build_parser")}


def _cache_uses(tree):
    """(line, name of the function it decorates or None) of each use of
    functools.cache or lru_cache."""
    decorates = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                decorates[id(dec.func if isinstance(dec, ast.Call) else dec)] = node.name
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else (
            node.id if isinstance(node, ast.Name) else None)
        if name in ("cache", "lru_cache"):
            yield node.lineno, decorates.get(id(node))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_cache(path):
    # a module-level cache outlives the values it was computed from;
    # per-value results belong in core.cached_value or AlgebraCandidate.memo
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = [f"line {line}: functools cache on {name or 'an expression'}"
                for line, name in _cache_uses(tree)
                if (path.name, name) not in CACHE_ALLOWED]
    assert not problems, problems


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_cached_property(path):
    # before Python 3.12 functools.cached_property takes a lock shared by
    # every instance on each first read; core.cached_value takes none
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = [f"line {node.lineno}: cached_property" for node in ast.walk(tree)
                if "cached_property" in (getattr(node, "attr", None), getattr(node, "id", None))
                or isinstance(node, ast.ImportFrom)
                and "cached_property" in [alias.name for alias in node.names]]
    assert not problems, problems


def _calls_named(tree, name):
    """Whether the module calls `name`, plain or as a module attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name:
                return True
    return False


def test_sealed_algebras_are_built_only_by_the_validator():
    # FiniteCLAlgebra's fields are trusted downstream, so every instance
    # must come out of validator.validate
    builders = {path.name for path in MODULES
                if _calls_named(ast.parse(path.read_text(encoding="utf-8")), "FiniteCLAlgebra")}
    assert builders == {"validator.py"}


def test_the_scan_counter_wraps_every_module_that_scans():
    # a module running laws outside the counter would slip past the tests
    # that pin which checks scan nothing
    scanning = {path.stem for path in MODULES
                if _calls_named(ast.parse(path.read_text(encoding="utf-8")), "first_violation")}
    assert scanning == {module.__name__.rpartition(".")[2] for module in SCANNING}


def test_only_laws_compiles_source():
    # formula_law compiles a checked term language; source built anywhere
    # else would run unchecked
    compiling = {path.name for path in MODULES
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) in ("eval", "exec", "compile")}
    assert compiling == {"laws.py"}


# what `AlgebraCandidate.lattice_with_imp` decides once per algebra
PRECONDITION_PARTS = {"has_meets_and_joins", "is_preorder", "is_transitive", "has_imp"}


def _precondition_parts(tree):
    """(line, what) of each read of a part of `lattice_with_imp` and each
    comparison of `imp_table` with None."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Name)):
            name = node.attr if isinstance(node, ast.Attribute) else node.id
            if name in PRECONDITION_PARTS:
                yield node.lineno, name
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if (any(isinstance(s, ast.Attribute) and s.attr == "imp_table" for s in sides)
                    and any(isinstance(s, ast.Constant) and s.value is None for s in sides)):
                yield node.lineno, "imp_table compared with None"


@pytest.mark.parametrize("name", ["identities.py", "ideals.py", "quotient.py"])
def test_whole_table_tests_read_one_precondition(name):
    # a guard of its own in one test would drift from the others
    path = Path(clalg.__file__).parent / name
    problems = list(_precondition_parts(ast.parse(path.read_text(encoding="utf-8"))))
    assert not problems, problems


def test_law_tags_are_declared_once():
    # replay.LAWS merges the modules' tables, so a tag declared twice
    # would replay a witness against the wrong law
    tables = [module.LAWS for module in (validator, ideals, quotient, identities)]
    tags = [tag for table in tables for tag in table]
    assert len(set(tags)) == len(tags) == 27


def test_law_arity_counts_the_violation_parameters():
    # Law.arity reads the code object; the signature is the oracle
    entries = [entry for _context, laws in chain(replay.LAWS.values(), identities.LAWS.values())
               for entry in laws]
    assert len(entries) > 26
    for entry in entries:
        assert entry.arity == len(inspect.signature(entry.violation).parameters) - 1, entry


def test_replay_contexts_take_the_algebra_and_the_ideal_bits():
    # a witness replays from the algebra and the ideal alone: a context
    # that asked for more (a partition, say) would trust its caller's copy
    positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
    for tag, (context, _entries) in replay.LAWS.items():
        kinds = [p.kind for p in inspect.signature(context).parameters.values()]
        assert kinds == [positional, positional], tag


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _all_leq_names(tree):
    """all_leq and every name an assignment binds to `<value>.all_leq`."""
    names = {"all_leq"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts) if isinstance(target, ast.Tuple)
                         and isinstance(node.value, ast.Tuple) else [(target, node.value)])
                names |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                          and isinstance(v, ast.Attribute) and v.attr == "all_leq"}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_loop_calls_all_leq(path):
    # an order test builds its whole sides and calls all_leq once (laws
    # module docstring): a call per row or per cover is n short C calls
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = _all_leq_names(tree)
    problems = {f"line {node.lineno}: all_leq in a loop" for loop in ast.walk(tree)
                if isinstance(loop, LOOPS) for node in ast.walk(loop)
                if isinstance(node, ast.Attribute) and node.attr == "all_leq"
                or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id in names}
    assert not problems, sorted(problems)


# the dataclasses: each validates in __post_init__ (an Ideal as the
# Subset it is), the core three also cache on themselves
# (core.cached_value), and the algebras are copied with dataclasses.replace
DATACLASSES = {"ideals.Subset", "ideals.Ideal", "search.SearchConfig", "core.OrderRelation",
               "core.AlgebraCandidate", "core.FiniteCLAlgebra"}


def test_only_self_checking_values_are_dataclasses():
    # a dataclass is generated at every import; a plain record is a NamedTuple
    found = set()
    for path in (p for p in MODULES if p.stem != "__init__"):
        module = importlib.import_module(f"clalg.{path.stem}")
        found |= {f"{path.stem}.{name}" for name, obj in vars(module).items()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and hasattr(obj, "__dataclass_fields__")}
    assert found == DATACLASSES


TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _names_read(tree):
    """(name, line) of each ast.Name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def test_every_definition_is_named_outside_itself():
    # a function or class that only its own body names has no caller: it
    # is kept for nothing (dunder methods are called by the language)
    reads = {}
    for path in MODULES + TESTS:
        for name, line in _names_read(ast.parse(path.read_text(encoding="utf-8"))):
            reads.setdefault(name, []).append((path, line))
    unread = [f"{path.name}:{node.lineno} {node.name}" for path in MODULES
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and not any(where != path or not node.lineno <= line <= node.end_lineno
                           for where, line in reads.get(node.name, ()))]
    assert not unread, unread
