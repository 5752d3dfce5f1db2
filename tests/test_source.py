"""Checks on the library source itself."""

import ast
import inspect
from pathlib import Path

import pytest

import orichrome
import orichrome.errors

SOURCES = sorted(Path(orichrome.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    # python -O strips assert statements; invariants raise InvariantViolation
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_parses_at_the_oldest_supported_python(path):
    # pyproject.toml promises Python >= 3.10, and a newer interpreter accepts
    # newer syntax (except*, PEP 695 generics) unless told the grammar to use
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


# exported although no module calls them, each for the reason given
EXPORTS_WITHOUT_CALLER = {
    "genus_upper_from_edges": "Euler lemma behind clique_order_threshold's (log2 n - 1)n + 1",
    "order_upper_from_min_degree": "Euler lemma, at k = 1 the reason the 6g - 1 strip leaves back-degree 6",
    "bounds_table": "the whole CSV as one string; the bounds command streams its rows from bounds_rows",
}


def test_exports_have_a_library_caller():
    used = set()
    exported = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "__init__.py":
            exported |= {
                alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            }
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(exported - used - EXPORTS_WITHOUT_CALLER.keys()) == []
    # the allowance holds only names that still need it
    assert sorted(EXPORTS_WITHOUT_CALLER.keys() - (exported - used)) == []


def test_every_error_class_is_raised():
    # an error class that no module raises is a status the CLI never returns
    raised = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                raised.add(getattr(node.exc.func, "id", getattr(node.exc.func, "attr", None)))
    classes = {
        name
        for name, cls in inspect.getmembers(orichrome.errors, inspect.isclass)
        if issubclass(cls, orichrome.errors.OrichromeError) and cls is not orichrome.errors.OrichromeError
    }
    assert sorted(classes - raised) == []


def test_json_dumps_only_in_canonical_json():
    # byte-identical output rests on one JSON layout, written in one place:
    # every json.dumps (or a dumps imported by name) sits in graphs.canonical_json
    sites, home = [], range(0)
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if path.name == "graphs.py" and isinstance(node, ast.FunctionDef) and node.name == "canonical_json":
                home = range(node.lineno, node.end_lineno + 1)
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", getattr(node, "name", None))
            if name == "dumps":
                sites.append((path.name, node.lineno))
    assert [site for site in sites if site[0] != "graphs.py" or site[1] not in home] == []
    assert home, "graphs.canonical_json is missing"


# bench/ still calls build_restricted, RestrictedTarget.realizer and the
# arc-list FullTarget(k, d, N, arcs); the library builds RestrictedTarget(base,
# free_classes) directly, queries with query, and makes FullTargets from out-rows
BENCH_ONLY = {"build_restricted", "realizer"}


def test_bench_only_names_have_no_library_caller():
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in BENCH_ONLY and not isinstance(node.ctx, ast.Store):
                sites.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in BENCH_ONLY:
                sites.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                sites += [(path.name, node.lineno, a.name) for a in node.names if a.name in BENCH_ONLY]
            elif isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "FullTarget":
                    sites.append((path.name, node.lineno, "FullTarget(...)"))
    assert sites == []
