"""Every import of the library is read by the code of its module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weylmod"


def unread_imports(source: str) -> list:
    """The names a module imports and never reads, in source order.

    A name counts as read where the code loads it (attribute chains start
    with one) or where ``__all__`` lists it; an import on a line marked
    ``# noqa: F401`` is exempt, and ``__future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if "# noqa: F401" in lines[alias.lineno - 1] or name in read:
                continue
            unread.append(name)
    return unread


def test_the_scan_finds_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "from json import dumps, loads as load\n"
        "from math import gcd  # noqa: F401\n"
        "from re import sub\n"
        "__all__ = ['sub']\n"
        "print(load)\n"
    )
    assert unread_imports(source) == ["os", "os", "dumps"]


def test_no_library_module_has_an_unread_import():
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unread_imports(path.read_text()))
    }
    assert found == {}
