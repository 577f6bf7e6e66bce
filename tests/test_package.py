"""The package's public surface: ``frostcast.__all__`` and its imports agree."""

import ast
import re
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


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_python_block():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)]


def test_every_listed_name_is_in_the_readme():
    readme = README.read_text(encoding="utf-8")
    assert [name for name in frostcast.__all__ if not re.search(rf"\b{name}\b", readme)] == []


def test_every_name_the_readme_example_imports_is_listed():
    imported = {
        alias.name
        for node in ast.parse(_readme_python_block()).body
        if isinstance(node, ast.ImportFrom) and node.module == "frostcast"
        for alias in node.names
    }
    assert imported
    assert imported - set(frostcast.__all__) == set()
