"""Checks on the library source itself."""

import ast
from pathlib import Path

import pytest

import orichrome

SOURCES = sorted(Path(orichrome.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    # python -O strips assert statements; invariants raise InvariantViolation
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"
