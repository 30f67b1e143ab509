"""Checks on the package source itself."""

import ast
import pathlib

import fogweaver

SOURCES = sorted(pathlib.Path(fogweaver.__file__).parent.rglob("*.py"))


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so the package must never rely
    # on one; an explicit `raise AssertionError` is not stripped and is fine
    assert len(SOURCES) > 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
