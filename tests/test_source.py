"""Checks on the package's source text, read with ``ast`` rather than imported."""
import ast
from pathlib import Path

import pytest

import skirent

# __init__.py imports names to re-export them, so it reads few of them itself
MODULES = sorted(path for path in Path(skirent.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"  # a compiler switch
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []
