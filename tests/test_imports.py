"""Every module under src/coalsim uses each name it imports, and every
private name defined there is used somewhere in the package.  The package
__init__ is left out of the import check: its imports are the public
re-exports.  Quoted annotations are not read; the modules use `from
__future__ import annotations` instead."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coalsim"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_unused_import_is_found():
    source = ("import math, os.path\n"
              "from os import path, sep\n"
              "print(os, sep)\n")
    assert unused_imports(source) == ["math", "path"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree: ast.Module):
    """(name, node) of each private module-level function, class and
    constant, and of each private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item


def _references(node: ast.AST) -> Counter:
    """Loaded names and attribute names anywhere under node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """module.name of each private definition that no code outside the
    definition itself refers to, in any of the sources."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    orphans = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            if _is_private(name) and used[name] <= _references(node)[name]:
                orphans.append(f"{module}.{name}")
    return sorted(orphans)


def test_orphaned_private_name_is_found():
    sources = {
        "a": ("_USED = 1\n_LEFT: int = 2\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "def _shared():\n    return 0\n"
              "class Thing:\n"
              "    def __init__(self):\n        self._helper()\n"
              "    def _helper(self):\n        return _USED\n"
              "    def _stale(self):\n        return 0\n"),
        "b": "from a import _shared\nprint(_shared())\n",
    }
    assert orphaned_private_names(sources) == [
        "a._LEFT", "a._recursive", "a._stale"]


def test_no_private_name_is_orphaned():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py")}
    assert orphaned_private_names(sources) == []
