"""The surface is no wider than its callers.

Every public top-level function and class in ``src/thermalqkd``, every
private one and every module constant must be referenced by the package
itself or by the benchmark in ``perfbench/``, outside its own definition. A
name that only tests call is surface (or a helper kept alive for a test)
that nothing needs. The package root re-exports nothing, so its imports
would not count as callers anyway.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thermalqkd"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _references(node, strings: bool) -> set[str]:
    """Names, attributes and imported names used in ``node``; with
    ``strings``, also identifier-shaped string constants (the benchmark
    wraps functions by attribute name)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                out.add(sub.value)
    return out


def test_package_root_exports_only_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    body = [s for s in tree.body if not isinstance(s, ast.Expr)]  # skip the docstring
    assert [ast.unparse(s) for s in body] == ["__version__ = '0.1.0'"]


def _defined_names(stmt) -> list[str]:
    """Names a top-level statement defines: a function, a class, or the
    plain names it assigns."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _uncalled(wanted) -> list[str]:
    """``module:name`` for each top-level definition of the package that
    ``wanted(stmt, name)`` selects and that nothing in the package or the
    benchmark references outside that definition."""
    defined = []        # (module, name)
    users = {}          # name -> {(module, names the enclosing statement defines)}
    for path in MODULES + BENCH:
        for stmt in ast.parse(path.read_text()).body:
            own = frozenset(_defined_names(stmt)) if path in MODULES else frozenset()
            defined += [(path.name, name) for name in own if wanted(stmt, name)]
            for name in _references(stmt, strings=path in BENCH):
                users.setdefault(name, set()).add((path.name, own))
    assert defined
    return sorted(f"{module}:{name}" for module, name in defined
                  if not any(user != module or name not in own
                             for user, own in users.get(name, ())))


def test_every_public_name_has_a_caller_outside_tests():
    assert _uncalled(lambda stmt, name: isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                     and not name.startswith("_")) == []


def test_every_private_name_and_constant_has_a_caller_outside_tests():
    # Private functions, classes and constants, and public constants.
    assert _uncalled(lambda stmt, name: name.startswith("_")
                     or not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))) == []
