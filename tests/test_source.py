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


def test_only_units_derives_a_time_base():
    # one module picks the lcm of the denominators, so every integer time
    # base is exact-or-raise in one place
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES if path.name != "units.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and "lcm" in _names(node.func)
        and any("denominator" in _names(arg) for arg in node.args)
    ]
    assert found == []


SOLVER_HELPERS = {"_TickStream", "_tick_windows", "_forbidden_offsets",
                  "_offset_candidates", "edf", "_jobs", "_edf_fits", "_climb",
                  "_even_spread", "with_layouts"}


def _source_of(path: pathlib.Path, node: ast.ImportFrom) -> pathlib.Path | None:
    """The package file a relative ``from ... import`` in ``path`` reads."""
    if not node.level or node.module is None:
        return None
    base = path.parent
    for _ in range(node.level - 1):
        base = base.parent
    target = base.joinpath(*node.module.split("."))
    module = target.with_suffix(".py")
    return module if module.exists() else target / "__init__.py"


def _function_scopes():
    """The package's parsed files, and each file's scope: the name it uses
    for every module-level function, its own or one it imports from another
    package file, mapped to (defining file, definition)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    own = {(path, node.name): node for path, tree in trees.items()
           for node in tree.body if isinstance(node, ast.FunctionDef)}
    scopes = {path: {} for path in trees}
    for (path, name), node in own.items():
        scopes[path][name] = (path, node)
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                source = _source_of(path, node)
                for alias in node.names:
                    if (source, alias.name) in own:
                        scopes[path][alias.asname or alias.name] = (
                            source, own[source, alias.name])
    return trees, scopes


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_verifiers_name_no_solver_helper():
    # a verifier that reused the solver's code would share its bugs; the
    # check follows every module-level function a verifier names,
    # transitively, so the verifier's helpers are held to the same rule
    trees, scopes = _function_scopes()
    defs = {node.name for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert SOLVER_HELPERS <= defs
    verifiers = [(path, node) for path, tree in trees.items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name.startswith("verify_")]
    assert {"verify_net_schedule", "verify_node_schedule"} <= {v.name for _, v in verifiers}
    named = {}
    for verifier in verifiers:
        seen, todo = set(), [verifier]
        while todo:
            path, node = todo.pop()
            if node in seen:
                continue
            seen.add(node)
            names = _names(node)
            named.setdefault(verifier[1].name, set()).update(names & SOLVER_HELPERS)
            todo += [scopes[path][n] for n in names if n in scopes[path]]
    assert named == {v.name: set() for _, v in verifiers}
