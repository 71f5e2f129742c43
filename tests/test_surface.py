"""The public surface is no wider than its callers.

Every public top-level function and class in ``src/thermalqkd`` must be
referenced by the package itself or by the benchmark in ``perfbench/``,
outside its own definition. A name that only tests call is surface that
nothing needs. The package root re-exports nothing, so its imports would
not count as callers anyway.
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


def test_every_public_name_has_a_caller_outside_tests():
    defined = []        # (module, name)
    users = {}          # name -> {(module, enclosing public definition or None)}
    for path in MODULES + BENCH:
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if (path in MODULES and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                own = stmt.name
                defined.append((path.name, own))
            for name in _references(stmt, strings=path in BENCH):
                users.setdefault(name, set()).add((path.name, own))
    assert defined
    unused = [f"{module}:{name}" for module, name in defined
              if not users.get(name, set()) - {(module, name)}]
    assert unused == []
