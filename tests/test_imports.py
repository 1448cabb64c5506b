"""Every module of the package and every test file uses each name it
imports (``__init__`` is left out: its ``import numpy`` is there for its
side effect);
importing the package loads numpy with OpenBLAS's idle spin cut short
while leaving the environment as it was, and loads none of the
package's modules; ``import contractlab.cli`` loads only the modules
every command uses, each command loads the rest it runs, and every
public name is imported from the module that defines it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "contractlab"


def unused_imports(source: str) -> list[str]:
    """Names an import binds that no other expression of the source reads.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing.
    Attribute chains such as ``np.linalg.norm`` count as a use of ``np``.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_detector():
    source = "import os.path\nimport numpy as np\nfrom a import b, c as d\nd(np.pi)\n"
    assert unused_imports(source) == ["b", "os"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("module", sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + list(TESTS.glob("*.py"))),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text()) == []


def unreferenced_public_names(sources) -> set[str]:
    """Public module-level functions and classes of the sources that no
    name, attribute or import alias in any of them refers to."""
    trees = [ast.parse(source) for source in sources]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    referenced = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.alias):
            referenced.add(node.name)
    return defined - referenced


def test_library_holds_no_code_that_nothing_runs():
    # the package's own code reaches every public function and class but
    # these.  bench/tracer.py wraps the first four by name until its counts
    # move to contractivity.contractivity.  l1 is the constructor of the
    # --norm l1 kind, beside linf and l2; the CLI builds Norm(kind) itself
    assert unreferenced_public_names(
        p.read_text() for p in PACKAGE.glob("*.py")) == {
        "contractivity_linf", "contractivity_l2", "distance_to_diagonal", "delta", "l1"}


SPY = """
import json, os, subprocess, sys

seen = []


class Spy:
    # records the variable when numpy is first looked up; finds nothing
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None


sys.meta_path.insert(0, Spy())
if sys.argv[1] == "numpy-first":
    import numpy
before = dict(os.environ)
import contractlab
inherited = subprocess.run(
    [sys.executable, "-I", "-c", "import os; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"],
    capture_output=True, text=True, check=True).stdout.strip()
print(json.dumps({"seen": seen, "unchanged": dict(os.environ) == before,
                  "after": os.environ.get("OPENBLAS_THREAD_TIMEOUT"), "inherited": inherited}))
"""


@pytest.mark.parametrize("order, user_value, seen", [
    ("contractlab-first", None, "4"),
    ("contractlab-first", "20", "20"),
    ("numpy-first", None, None),
])
def test_numpy_loads_with_short_blas_spin_and_environment_kept(order, user_value, seen):
    # OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, when numpy loads it:
    # contractlab sets 4 for that import unless the user set a value, and
    # leaves the environment as it found it, in this process and in children
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      os.environ.get("PYTHONPATH")]))
    if user_value is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = user_value
    res = subprocess.run([sys.executable, "-c", SPY, order], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {"seen": [seen], "unchanged": True, "after": user_value,
                                      "inherited": str(user_value)}



def fresh(script, *args, cwd=None):
    """The last stdout line of script, as JSON, run with args in a fresh
    interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=cwd,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


# what some commands load beyond what `import contractlab.cli` loads,
# and concurrent.futures, which no command loads
DEFERRED = ["concurrent.futures", "contractlab.cml", "contractlab.products",
            "contractlab.reference", "csv"]
LOADED = """
import json, sys
import contractlab.cli
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("contractlab.") or m in sys.argv[1:])))
"""


def test_cli_import_loads_only_what_every_command_uses():
    assert fresh(LOADED, *DEFERRED) == [
        "contractlab.cli", "contractlab.contractivity", "contractlab.graphs",
        "contractlab.io", "contractlab.matcore", "contractlab.projections"]


COMMAND = """
import json, sys
from contractlab import cli
deferred = sys.argv[1].split(",")
code = cli.main(sys.argv[2:])
print(json.dumps([code, [m for m in deferred if m in sys.modules]]))
"""


@pytest.mark.parametrize("argv, loads", [
    (["analyze", "J.json"], []),
    (["analyze", "J.csv"], ["csv"]),
    (["analyze", "J.json", "J.csv"], ["csv"]),
    (["contractivity", "J.json", "--norm", "wl2", "--weights", "w.json"], []),
    (["decompose", "J.json", "x.csv"], ["csv"]),
    (["product", "seq.json"], ["contractlab.products"]),
    (["ergodicity", "seq.json", "--horizon", "2"], ["contractlab.products"]),
    (["simulate", "sim.json"], ["contractlab.cml", "contractlab.products"]),
    (["reproduce-paper"], ["contractlab.reference"]),
], ids=" ".join)
def test_each_command_loads_what_it_runs(tmp_path, argv, loads):
    (tmp_path / "J.json").write_text('{"rows": [[0.5, 0.5], [0.5, 0.5]]}')
    (tmp_path / "J.csv").write_text("0.5,0.5\n0.5,0.5\n")
    (tmp_path / "w.json").write_text("[1, 2]")
    (tmp_path / "x.csv").write_text("0.1\n0.9\n")
    (tmp_path / "seq.json").write_text('{"matrices": ["J.json"], "repeat": 2}')
    (tmp_path / "sim.json").write_text(json.dumps({
        "matrix": "J.json", "map": {"kind": "logistic", "a": 3.9}, "x0": [0.1, 0.9],
        "steps": 3}))
    assert fresh(COMMAND, ",".join(DEFERRED), *argv, cwd=tmp_path) == [0, loads]


# the public names of each module, imported from the module that defines them
EXPORTS = {
    "matcore": ["Matrix", "RowSumProfile", "as_matrix", "delta", "is_scrambling",
                "is_stochastic", "mu", "row_sum_profile"],
    "graphs": ["has_spanning_directed_tree", "interaction_digraph", "is_irreducible"],
    "projections": ["Norm", "Projection", "distance_to_diagonal", "l1", "l2", "linf",
                    "project", "weighted_l2"],
    "contractivity": [
        "AffineDecomposition", "ContractivityReport", "contractivity", "contractivity_l2",
        "contractivity_linf", "decompose_affine", "spectral_norm_2"],
    "products": [
        "ErgodicityReport", "MatrixSequence", "ergodicity_coefficient", "product",
        "random_stochastic_spanning_tree", "weak_ergodicity_diagnostic"],
    "cml": ["MapDef", "SimTrace", "make_map", "simulate"],
}
NAMESPACE = """
import importlib, json, sys
import contractlab
order, exports = sys.argv[1], json.loads(sys.argv[2])
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("contractlab."))
in_package = sorted(n for names in exports.values() for n in names if hasattr(contractlab, n))
if order == "modules-first":
    for module in exports:
        importlib.import_module("contractlab." + module)
missing = []
for module, names in exports.items():
    for name in names:
        try:
            exec(f"from contractlab.{module} import {name}")
        except ImportError:
            missing.append(f"{module}.{name}")
import contractlab.contractivity
try:
    contractlab.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
try:
    from contractlab import no_such_name
    unknown_import = None
except ImportError as exc:
    unknown_import = type(exc).__name__
print(json.dumps({
    "loaded_at_import": loaded,
    "in_package_at_import": in_package,
    "missing": missing,
    "contractivity_is_the_module":
        contractlab.contractivity is sys.modules["contractlab.contractivity"],
    "unknown": unknown,
    "unknown_import": unknown_import,
}))
"""


@pytest.mark.parametrize("order", ["package-first", "modules-first"])
def test_public_names_unchanged_and_products_cml_lazy(order):
    # the public names stay in the modules that define them and the package
    # repeats none of them: importing it loads numpy alone, products and cml
    # included in what stays unloaded, and in either import order the
    # package attribute ``contractivity`` is the module
    assert sum(map(len, EXPORTS.values())) == 36
    assert fresh(NAMESPACE, order, json.dumps(EXPORTS)) == {
        "loaded_at_import": ["numpy"],
        "in_package_at_import": [],
        "missing": [],
        "contractivity_is_the_module": True,
        "unknown": "module 'contractlab' has no attribute 'no_such_name'",
        "unknown_import": "ImportError",
    }
