"""Production code does not cross-check itself with `assert`: under
`python -O` such a check would vanish.  Only oracles.py, which the tests
alone use, may assert."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nestlab"


def test_no_assert_statements_outside_oracles():
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "oracles.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    if found:
        pytest.fail("assert statement at " + ", ".join(found))
