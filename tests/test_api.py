"""Every public name of the package has a caller in the package.

A name in a module's `__all__` counts as called when it appears as a
`Name` or an `Attribute` somewhere in `src/projbalance` outside the
top-level statement that defines it.  Strings, docstrings included, and
import lines do not count.  The few public names that only the tests or
the benchmark call are listed in `NO_CALLER_IN_THE_PACKAGE`, each with the
reason it stays.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "projbalance"

NO_CALLER_IN_THE_PACKAGE = {
    "flow_iterate": "the benchmark binds it, and TestGradientFlow "
                    "cross-checks the T-iteration against it",
    "lichnerowicz_apply": "the defining route that the tests compare "
                          "scalar_curvature_variation with",
    "PotentialKahler": "the finite-difference reference for the hand-coded "
                       "structures",
    "FlatChart": "a test input",
    "whitening_transform": "the benchmark binds it",
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
