"""The package's public surface: ``frostcast.__all__`` and its imports agree."""

import ast
from pathlib import Path

import frostcast


def _imported_public_names():
    tree = ast.parse(Path(frostcast.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_has_no_duplicates():
    assert len(frostcast.__all__) == len(set(frostcast.__all__))


def test_every_listed_name_resolves():
    missing = [name for name in frostcast.__all__ if not hasattr(frostcast, name)]
    assert missing == []


def test_every_imported_public_name_is_listed():
    assert _imported_public_names() - set(frostcast.__all__) == set()
