"""Checks on the package source itself."""

import ast
from pathlib import Path

import arrange

SOURCES = sorted(Path(arrange.__file__).resolve().parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # invariants are checked with raise, so they still run under python -O,
    # which strips assert statements
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SOURCES
    assert found == []
