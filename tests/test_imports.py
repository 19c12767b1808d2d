"""Every name a module imports is used in that module.

No linter ships with the project, so this walks each module's syntax tree:
an import binds names, and a name that is never loaded afterwards is dead.
``__init__`` re-exports by design and is skipped.
"""

import ast
from pathlib import Path

import pytest

import modesub

PACKAGE = Path(modesub.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
EXEMPT = {"annotations"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used - EXEMPT)


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nfrom os import path, sep\n"
              "x = np.pi + math.e\nprint(sep)\n")
    assert unused_imports(source) == ["path"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []
