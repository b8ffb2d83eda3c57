"""Rules of the package that the ROADMAP and README state, checked on its
syntax tree.

Production code does not cross-check itself with `assert` or `raise
AssertionError`: under `python -O` the first would vanish, and either turns
an impossible state into a crash instead of a result the independent gates
judge.  Only oracles.py, which the tests alone use, may do so.  The package
is stdlib-only, and only the property suites import the oracles."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nestlab"


def _nodes():
    """(path, node) for every node of every module of the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def _at(path: Path, node: ast.AST) -> str:
    return f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"


def _fail_at(what: str, found: list[str]) -> None:
    if found:
        pytest.fail(f"{what} at " + ", ".join(found))


def test_no_assert_statements_outside_oracles():
    _fail_at("assert statement", [
        _at(path, node) for path, node in _nodes()
        if path.name != "oracles.py" and isinstance(node, ast.Assert)
    ])


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_raise_assertion_error_outside_oracles():
    _fail_at("raise AssertionError", [
        _at(path, node) for path, node in _nodes()
        if path.name != "oracles.py" and _raises_assertion_error(node)
    ])


def test_every_import_is_stdlib_or_relative():
    found = []
    for path, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{_at(path, node)} ({m})" for m in modules
            if m.partition(".")[0] not in sys.stdlib_module_names
        ]
    _fail_at("non-stdlib import", found)


def test_only_the_suites_import_the_oracles():
    found = []
    for path, node in _nodes():
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module is None:
            imported = [alias.name for alias in node.names]  # from . import x
        else:
            imported = [node.module.partition(".")[0]]
        if "oracles" in imported and path.name != "suites.py":
            found.append(_at(path, node))
    _fail_at("import of oracles", found)
