"""Module boundaries of the package: no module reaches into another's private
names.  A leading underscore marks a name as its module's own; only ``self``
and ``cls`` may read private attributes, and dunder names are public.  No
module imports a name it never reads, apart from ``__init__``'s re-exports
and the few names listed with their reason.  The README names only commands
the command line has."""

import ast
import re
from pathlib import Path

import pytest

import bipartite_sandpile

from conftest import cli_subcommands

SOURCES = sorted(Path(bipartite_sandpile.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str) -> list[str]:
    """Every ``from .module import _name`` and every ``x._name`` whose ``x``
    is not ``self`` or ``cls``, as "line: text" entries."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [f"{node.lineno}: import {a.name}" for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_the_checker_sees_both_forms():
    source = (
        "from .rank import _slide, row_gaps\n"
        "ring._index('x')\n"
        "self._packing\n"
        "cls._cache\n"
        "parse.__name__ = 'integer'\n"
    )
    assert private_uses(source) == ["1: import _slide", "2: ring._index"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_cross_module_private_names(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []


# imported but never read, on purpose: module -> {name: reason}
UNUSED_IMPORTS_ALLOWED = {
    "cli.py": {"rank_of": "wrapped by kmnbench"},
    "genfunc.py": {"rank_parking_sorted": "wrapped by kmnbench"},
}


def unused_imports(source: str) -> list[str]:
    """Every imported name the module never reads, as "line: name" entries;
    ``from __future__`` imports are not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{line}: {name}" for line, name in sorted(imported) if name not in read]


def test_the_import_checker_sees_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from .core import config, degree as deg\n"
        "j.dumps(deg)\n"
        "config = None\n"
    )
    assert unused_imports(source) == ["2: os", "4: config"]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    unused = {entry.split(": ")[1] for entry in unused_imports(path.read_text(encoding="utf-8"))}
    # an allowed name that is read again should leave the list
    assert unused == set(UNUSED_IMPORTS_ALLOWED.get(path.name, {}))


def test_readme_names_only_existing_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"kmn-sandpile ([a-z][a-z-]*)", readme))
    assert named and named <= set(cli_subcommands()), sorted(named - set(cli_subcommands()))
