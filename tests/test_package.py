"""The package's public surface: every exported name exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bvlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(bvlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"bvlab.{name}")
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []


def test_package_imports_are_public_names():
    """Each name ``bvlab/__init__.py`` imports exists on the package and is
    in its module's ``__all__`` when that module declares one."""
    tree = ast.parse(Path(bvlab.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"bvlab.{node.module}")
        for alias in node.names:
            assert hasattr(bvlab, alias.name), alias.name
            assert alias.name in getattr(module, "__all__", [alias.name]), alias.name
