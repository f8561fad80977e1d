"""Every public name of the package, and every private one, has a caller
in the package.

A name in a module's `__all__` counts as called when it appears as a
`Name` or an `Attribute` somewhere in `src/projbalance` outside the
top-level statement that defines it.  Strings, docstrings included, and
import lines do not count.  The few public names that only the tests or
the benchmark call are listed in `NO_CALLER_IN_THE_PACKAGE`, each with the
reason it stays.

A private name (one leading underscore, not a dunder) of a module-level
function, class or constant, or of a method, counts as called by the same
rule, outside its own definition: a helper that a refactor strands fails
here.  None is exempt.

Every import of the package sits at the top level of its module.  The
few that stay inside a function are listed in `LOCAL_IMPORTS`, each with
the reason it stays.

A private name belongs to its module: no module imports one from another
(`from .mod import _name`).  The few that cross are listed in
`PRIVATE_IMPORTS`, each with the reason it crosses.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "projbalance"

NO_CALLER_IN_THE_PACKAGE = {
    "flow_iterate": "the benchmark binds it, and TestGradientFlow "
                    "cross-checks the T-iteration against it",
    "whitening_transform": "the benchmark binds it",
}

LOCAL_IMPORTS = {
    "cli._run_jobs": "a one-worker run never loads multiprocessing",
}

PRIVATE_IMPORTS = {
    "bergman: metrics._base_runs": "hat_form_matrix and volume_coefficients "
                                   "evaluate base-only data once per base "
                                   "node, as metrics.hat_weight does",
    "bergman: metrics._dual_pairing": "the hat form, the fiber measure and "
                                      "the dual-point projector pair "
                                      "covectors as metrics.hat_weight does",
}


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {node.id for target in stmt.targets
                for node in ast.walk(target) if isinstance(node, ast.Name)}
    return set()


def _used_names(stmt):
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _public_names(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and "__all__" in _defined_names(stmt):
            return set(ast.literal_eval(stmt.value))
    return set()


def _uncalled_public_names():
    public = set()
    called = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        public |= _public_names(tree)
        for stmt in tree.body:
            called |= _used_names(stmt) - _defined_names(stmt)
    return public, public - called


def test_every_public_name_has_a_caller():
    _, uncalled = _uncalled_public_names()
    assert sorted(uncalled - set(NO_CALLER_IN_THE_PACKAGE)) == []


def test_every_listed_name_is_public_and_uncalled():
    public, uncalled = _uncalled_public_names()
    listed = set(NO_CALLER_IN_THE_PACKAGE)
    assert sorted(listed - public) == []
    assert sorted(listed - uncalled) == []


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """(name, defining node) of each private module-level function, class
    and constant of a module, and of each private method of its classes."""
    for stmt in tree.body:
        for name in _defined_names(stmt):
            if _is_private(name):
                yield name, stmt
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if (isinstance(item, ast.FunctionDef)
                        and _is_private(item.name)):
                    yield item.name, item


def test_every_private_name_has_a_caller():
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    uses = {}  # name -> nodes where it is used
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    uncalled = []
    for path, tree in zip(sorted(PACKAGE.glob("*.py")), trees):
        for name, definition in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside for node in uses.get(name, [])):
                uncalled.append(f"{path.name}: {name}")
    assert uncalled == []


def _local_imports(tree, module):
    """`module.function` of each function (methods as `Class.method`)
    holding an import statement anywhere below the module's top level."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, (ast.Import, ast.ImportFrom)) and scope:
                found.add(f"{module}.{scope}")
            visit(child, name)

    visit(tree, "")
    return found


def test_no_function_local_import():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= _local_imports(tree, path.stem)
    assert sorted(found) == sorted(LOCAL_IMPORTS)


def test_no_private_name_crosses_modules():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found |= {f"{path.stem}: {node.module}.{alias.name}"
                          for alias in node.names if _is_private(alias.name)}
    assert sorted(found) == sorted(PRIVATE_IMPORTS)
