"""Tests for the package's re-export list."""

import ast
from pathlib import Path

import hybridlm


def test_all_resolves_and_matches_imports():
    tree = ast.parse(Path(hybridlm.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert all(hasattr(hybridlm, name) for name in hybridlm.__all__)
    assert sorted(hybridlm.__all__) == sorted(imported)
    assert len(set(hybridlm.__all__)) == len(hybridlm.__all__)
