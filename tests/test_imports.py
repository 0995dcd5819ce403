"""No library or test module imports a name it never uses, no private
module-level name goes unreferenced in the package, the package exports
exactly what ``__init__.py`` imports, no package module imports
``scipy.stats``, ``scipy.integrate`` or ``scipy.optimize``, and neither
importing the package nor running a CLI job (Frank and Joe fits and the
Sobol engine included) loads any of them.

Stdlib ``ast`` checks standing in for a linter's unused-import and
dead-code rules.  ``__init__.py`` is exempt from the first: its imports
are the package's re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import copulameasures
from copulameasures import CopulaModel

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "copulameasures"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


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


# Imports the package in a fresh interpreter and runs the CLI on its
# arguments, if any, which must succeed; then exits 1 if the module named
# first was loaded, else 0.
_GUARD = """
import sys
import copulameasures
from copulameasures.cli import EXIT_OK, main
if sys.argv[2:] and main(sys.argv[2:]) != EXIT_OK:
    sys.exit(2)
sys.exit(int(sys.argv[1] in sys.modules))
"""
# scipy modules that no package module imports and no command loads
BANNED = ("scipy.stats", "scipy.integrate", "scipy.optimize")


def loaded(module: str, *argv: str) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _GUARD, module, *argv],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode in (0, 1), run.stderr
    return run.returncode == 1


@pytest.mark.parametrize("module", BANNED)
def test_import_leaves_module_unloaded(module):
    assert not loaded(module)


def scipy_imports(source: str) -> list[str]:
    """Lines importing a module of BANNED, in any form."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.startswith(BANNED)]
    return found


def test_detects_a_banned_scipy_import():
    source = ("import scipy.integrate\nfrom scipy import optimize\n"
              "from scipy.stats import qmc\n"
              "def f():\n    from scipy.optimize import brentq\n"
              "from scipy.special import spence\n")
    assert scipy_imports(source) == ["line 1: scipy.integrate",
                                     "line 2: scipy.optimize",
                                     "line 3: scipy.stats.qmc",
                                     "line 5: scipy.optimize.brentq"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_package_imports_no_banned_module(path):
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def write_sample(path: Path, data) -> str:
    """Writes ``data`` to ``path`` as a CSV with columns a, b, ...; returns
    the path."""
    cols = ",".join("abcdefgh"[:data.shape[1]])
    path.write_text(cols + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in data))
    return str(path)


@pytest.fixture(scope="module")
def fit_jobs(tmp_path_factory):
    """CLI jobs whose fits invert Frank's and Joe's tau, on a Frank sample."""
    csv = write_sample(tmp_path_factory.mktemp("gof") / "frank3.csv",
                       CopulaModel("frank", 3, (4.0,)).sample(40, seed=5))
    common = ("--data", csv, "--cols", "a,b,c", "--reps", "100")
    return {"gof_frank": ("gof", "--family", "frank", *common),
            "gof_joe": ("gof", "--family", "joe", *common),
            "select_frank_joe": ("select", "--families", "frank,joe", *common)}


def test_gof_leaves_scipy_stats_unloaded(fit_jobs):
    assert not loaded("scipy.stats", *fit_jobs["gof_frank"])


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.optimize"])
@pytest.mark.parametrize("job", ["gof_frank", "gof_joe", "select_frank_joe"])
def test_frank_and_joe_fits_leave_module_unloaded(fit_jobs, job, module):
    assert not loaded(module, *fit_jobs[job])


@pytest.mark.parametrize("module", BANNED)
def test_gaussian_measure_leaves_module_unloaded(module):
    assert not loaded(module, "measure", "--family", "gaussian", "--dim", "3",
                      "--params", "0.5,0.3,0.4", "--stat", "cce")


@pytest.mark.parametrize("module", BANNED)
def test_sobol_measure_leaves_module_unloaded(module):
    assert not loaded(module, "measure", "--family", "product", "--dim", "5",
                      "--stat", "cce")


def test_sobol_empirical_leaves_scipy_stats_unloaded(tmp_path):
    csv = write_sample(tmp_path / "product4.csv",
                       CopulaModel("product", 4, ()).sample(30, seed=3))
    assert not loaded("scipy.stats", "empirical", "--data", csv,
                      "--cols", "a,b,c,d", "--stat", "cce")


def test_guard_reports_a_loaded_module():
    # the package imports scipy.special, so a guard that never saw a
    # module would fail here
    assert loaded("scipy.special")
