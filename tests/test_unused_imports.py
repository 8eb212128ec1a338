"""No module imports a name it never uses.

Every module of the package except ``__init__.py`` (which imports to
re-export), every script and every test module is parsed with ``ast``; an
imported name that appears nowhere else as a name is a stale import left
behind by a refactor.
"""
import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in (REPO / "src" / "hstarkit").glob("*.py") if p.name != "__init__.py"
) + sorted((REPO / "scripts").glob("*.py")) + sorted((REPO / "tests").glob("*.py"))
# (module file, name) pairs imported on purpose without a use:
# perfbench's tracer test reaches boxgroup.add through verify.
ALLOWED = {("verify.py", "add")}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_finds_a_stale_import():
    source = "import os.path\nfrom x import a, b as c\nfrom __future__ import annotations\nos.sep, c\n"
    assert unused_imports(source) == ["a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    stale = [n for n in unused_imports(path.read_text()) if (path.name, n) not in ALLOWED]
    assert stale == [], f"{path.name} imports {stale} without using them"
