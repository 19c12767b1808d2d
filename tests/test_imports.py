"""Every name a module imports is used in that module, and every f-string
has a placeholder.

No linter ships with the project, so this walks each module's syntax tree:
an import binds names, and a name that is never loaded afterwards is dead.
``__init__`` re-exports by design and is skipped by the import rule.  An
f-string with nothing to format is a plain string written misleadingly; the
rule covers the package, the tests and the benchmark.
"""

import ast
from pathlib import Path

import pytest

import modesub

PACKAGE = Path(modesub.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
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


def placeholder_free_fstrings(source: str) -> list[int]:
    """Lines of the f-strings with no replacement field.  The format spec of
    a field (the ``.2f`` of ``{x:.2f}``) is an f-string node of its own and
    is skipped."""
    tree = ast.parse(source)
    specs = {id(node.format_spec) for node in ast.walk(tree)
             if isinstance(node, ast.FormattedValue) and node.format_spec is not None}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr) and id(node) not in specs
            and not any(isinstance(v, ast.FormattedValue) for v in node.values)]


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nfrom os import path, sep\n"
              "x = np.pi + math.e\nprint(sep)\n")
    assert unused_imports(source) == ["path"]


def test_detects_an_fstring_without_placeholders():
    source = ('x = 1.5\na = f"plain"\nb = f"{x:.2f} and {x!r:>{8}}"\n'
              'c = "not an f-string"\nd = (f"joined "\n     "text")\n'
              'e = f"{x}" "text"\n')
    assert placeholder_free_fstrings(source) == [2, 5]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_fstring_without_placeholders(path):
    assert placeholder_free_fstrings(path.read_text()) == []
