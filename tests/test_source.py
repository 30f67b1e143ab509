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


SOLVER_HELPERS = {"_TickStream", "_tick_windows", "_forbidden_offsets",
                  "_offset_candidates", "edf", "_climb", "_even_spread"}


def test_verifiers_name_no_solver_helper():
    # a verifier that reused the solver's code would share its bugs
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    defs = [node for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert SOLVER_HELPERS <= {d.name for d in defs}
    verifiers = [d for d in defs if d.name.startswith("verify_")]
    assert {"verify_net_schedule", "verify_node_schedule"} <= {v.name for v in verifiers}
    named = {
        v.name: {n.id if isinstance(n, ast.Name) else n.attr
                 for n in ast.walk(v) if isinstance(n, (ast.Name, ast.Attribute))}
        & SOLVER_HELPERS
        for v in verifiers
    }
    assert named == {v.name: set() for v in verifiers}
