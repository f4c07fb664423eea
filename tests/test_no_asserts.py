"""Validation never relies on `assert`, which `python -O` strips."""

import ast
from pathlib import Path

import plhtpy


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(plhtpy.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
