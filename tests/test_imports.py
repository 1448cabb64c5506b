"""Every module of the package uses each name it imports (``__init__``
is left out: its imports are the package's re-exports), and importing
the package loads numpy with OpenBLAS's idle spin cut short while
leaving the environment as it was."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contractlab"


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
    p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


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
