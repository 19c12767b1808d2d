"""Every name a module imports is used in that module, every private name
the package defines is read by the package, no module imports another
module's private name, every f-string has a placeholder, and no handler
swallows a broad exception.  Importing the CLI, resolving a config and
solving on derived Gauss-Legendre axes leave ``numpy.polynomial``
unimported: importing it costs about 3 ms and 1.6 MB, which would land in
every run's set-up time or memory.

No linter ships with the project, so this walks each module's syntax tree:
an import binds names, and a name that is never loaded afterwards is dead.
``__init__`` re-exports by design and is skipped by the import rule.  A
module-level ``_name`` is no module's interface, so the package itself must
load it, as a name, an attribute or an import; one that only tests read is
dead code.  Nor may one module import another's ``_name``: what a module
lends to another is its interface and carries a public name.  An f-string
with nothing to format is a plain string written misleadingly; the rule
covers the package, the tests and the benchmark.  A package handler that
catches ``ValueError``, ``Exception`` or ``BaseException``, or everything,
must end in a ``raise`` (wrapping into a named error counts): otherwise a
bug raising one of them turns into a result or an exit code.  Handlers of
narrower classes, such as ``OSError`` at the I/O boundaries, are left alone.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modesub

PACKAGE = Path(modesub.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
EXEMPT = {"annotations"}
BROAD = {"ValueError", "Exception", "BaseException"}


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


def unloaded_private_names(sources: list[str]) -> list[str]:
    """Module-level ``_name`` bindings (not dunders) that no source loads."""
    defined, loaded = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(a.name for a in node.names)
    return sorted(n for n in defined - loaded
                  if n.startswith("_") and not n.startswith("__"))


def imported_private_names(source: str) -> list[str]:
    """``_name``s (not dunders) that a ``from ... import`` takes from a module."""
    return sorted(a.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) for a in node.names
                  if a.name.startswith("_") and not a.name.startswith("__"))


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


def swallowing_handlers(source: str) -> list[int]:
    """Lines of the ``except`` clauses that catch a :data:`BROAD` class, or
    everything, and do not end in a ``raise``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ExceptHandler)
            and (node.type is None or any(isinstance(n, ast.Name) and n.id in BROAD
                                          for n in ast.walk(node.type)))
            and not isinstance(node.body[-1], ast.Raise)]


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nfrom os import path, sep\n"
              "x = np.pi + math.e\nprint(sep)\n")
    assert unused_imports(source) == ["path"]


def test_detects_an_unloaded_private_name():
    first = ("from second import _imported\n_used = 1\n_dead, kept = 2, 3\n"
             "__all__ = ['kept']\n\n\ndef _helper():\n    return _used + _imported\n\n\n"
             "class _Unread:\n    pass\n\n\nprint(_helper())\n")
    second = ("import first\n_imported = 0\n_attr = 1\n_orphan: int = 2\n"
              "_table = {}\n_table['k'] = first._attr\n")
    assert unloaded_private_names([first, second]) == ["_Unread", "_dead", "_orphan"]


def test_detects_an_imported_private_name():
    source = ("from __future__ import annotations\n"
              "from . import __version__\nfrom ._blas import one_blas_thread\n"
              "from .kernel import (_sample, kernel_gram)\n"
              "from modesub.schmidt import _parity_blocks as blocks\n")
    assert imported_private_names(source) == ["_parity_blocks", "_sample"]


def test_detects_an_fstring_without_placeholders():
    source = ('x = 1.5\na = f"plain"\nb = f"{x:.2f} and {x!r:>{8}}"\n'
              'c = "not an f-string"\nd = (f"joined "\n     "text")\n'
              'e = f"{x}" "text"\n')
    assert placeholder_free_fstrings(source) == [2, 5]


def test_detects_a_swallowing_handler():
    source = ("try:\n    f()\nexcept ValueError as exc:\n    print(exc)\n"
              "try:\n    f()\nexcept (KeyError, Exception):\n    pass\n"
              "try:\n    f()\nexcept:\n    x = 1\n"
              "try:\n    f()\nexcept ValueError as exc:\n    log(exc)\n"
              "    raise RuntimeError('wrapped') from exc\n"
              "try:\n    f()\nexcept OSError:\n    pass\n"
              "try:\n    f()\nexcept BaseException:\n    raise\n")
    assert swallowing_handlers(source) == [3, 7, 11]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def test_no_unloaded_private_names():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unloaded_private_names(sources) == []


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_imported_private_names(module):
    assert imported_private_names(module.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_fstring_without_placeholders(path):
    assert placeholder_free_fstrings(path.read_text()) == []


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_handler_swallows_a_broad_exception(module):
    assert swallowing_handlers(module.read_text()) == []


def test_cli_import_leaves_numpy_polynomial_unimported():
    probe = ("import sys\nimport modesub.cli\nfrom modesub import kernel_gram\n"
             "from modesub.config import resolve\nc = resolve({})\n"
             "kernel_gram(c.preset(), c.gate(), c.signal(), c.grid())\n"
             "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
