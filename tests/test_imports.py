"""No library module imports a name it never uses, no private
module-level name goes unreferenced in the package, and the package
exports exactly what ``__init__.py`` imports.

Stdlib ``ast`` checks standing in for a linter's unused-import and
dead-code rules.  ``__init__.py`` is exempt from the first: its imports
are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import copulameasures

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "copulameasures"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") \
        == ["line 1: os", "line 2: tau"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(tree) -> dict[str, int]:
    """Module-level ``_name`` bindings (not dunders) and their lines."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for t in node.targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def references(tree) -> set[str]:
    """Names read, attributes accessed and names imported."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no module of ``sources`` references."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = set().union(*(references(t) for t in trees.values()))
    return [f"{name}:{line} {ident}" for name, tree in sorted(trees.items())
            for ident, line in sorted(private_definitions(tree).items())
            if ident not in used]


def test_detects_a_dead_private_name():
    sources = {"a": "_A = 1\n_B = 2\ndef _f():\n    return _A\n",
               "b": "from a import _f\n"}
    assert dead_private_names(sources) == ["a:2 _B"]


def test_no_dead_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_all_lists_exactly_the_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    assert sorted(copulameasures.__all__) == sorted(imported)
