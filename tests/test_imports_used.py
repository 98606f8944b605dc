"""Every name a ``bootperc`` module imports is used in that module, and
every private module-level name is used somewhere in the package.

No linter is installed alongside the package, so this reads each module's
source with ``ast``.  An imported name counts as used when it occurs as a
name anywhere in the module, annotations included.  The package
``__init__`` imports names to re-export them, so it is not checked for
imports.  A private name (``_name``, not a dunder) defined at module level
counts as used when a statement other than its definition reads it, as a
name, an attribute or an imported name, in any module of the package.
A private name written in double backticks in the package's source, alone
or with call parentheses (``_name`` or ``_name(p)``), is a module-level
name of the package, so no docstring names a helper that is gone.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bootperc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport numpy as np\nfrom a.b import c, d\nnp, d") == [
        "os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def _read(node: ast.AST) -> str | None:
    """The name that an AST node reads, if any."""
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names, as ``module.name``, that no statement
    of ``sources`` (module name to source) other than their definitions
    reads."""
    definitions, reads = {}, []
    for module, source in sources.items():
        for i, node in enumerate(ast.parse(source).body):
            for name in _defined(node):
                if name.startswith("_") and not name.startswith("__"):
                    definitions.setdefault((module, name), set()).add((module, i))
            reads += [((module, i), name) for sub in ast.walk(node) if (name := _read(sub))]
    return [f"{module}.{name}" for (module, name), places in definitions.items()
            if not any(read == name and place not in places for place, read in reads)]


def test_unused_private_names_are_found():
    sources = {"a": "_A = 1\n_B = 2\ndef _f():\n    return _f()\nclass _C: pass\nprint(_A)",
               "b": "import a\nfrom a import _D\na._B"}
    assert unused_private_names(sources) == ["a._f", "a._C"]


def test_every_private_name_is_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


# A private name in double backticks, with or without call parentheses.
_MENTION = re.compile(r"``(_[A-Za-z]\w*)(?:\([^`]*\))?``")


def stale_mentions(sources: dict[str, str]) -> list[str]:
    """The private names that ``sources`` (module name to source) write in
    double backticks and that no module of ``sources`` defines at module
    level."""
    defined = {name for source in sources.values()
               for node in ast.parse(source).body for name in _defined(node)}
    return [name for source in sources.values()
            for name in _MENTION.findall(source) if name not in defined]


def test_stale_mentions_are_found():
    sources = {"a": '"""``_f``, ``_g(x)``, ``_A``, ``a._C``, ``h``."""\n_A = 1\ndef _f():\n    pass',
               "b": '"""``_gone(p)`` and ``_B(1, 2)``."""\n_B = 2'}
    assert stale_mentions(sources) == ["_g", "_gone"]


def test_every_private_name_in_backticks_is_defined():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert stale_mentions(sources) == []
