"""Every module of the package uses each name it imports.  ``__init__``
is left out: its imports are the package's re-exports."""

import ast
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
