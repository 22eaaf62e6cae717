"""The package's public surface: every exported name exists."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_cli_import_loads_no_process_pool_module():
    """``import bvlab.cli`` stays free of the pool modules' import time, and
    neither it nor a ``bvlab theory`` run starts a worker process."""
    script = (
        "import os, sys, bvlab.cli, bvlab._workers as workers\n"
        "def children():\n"
        "    try:\n"
        "        os.waitpid(-1, os.WNOHANG)\n"
        "    except ChildProcessError:\n"
        "        return 'no child'\n"
        "    return 'a child'\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent', 'subprocess')), children())\n"
        "assert bvlab.cli.main(['theory', '--set', 'lambda0=1', '--set', 'gamma=0.1:4:0.1', "
        "'--out', os.devnull]) == 0\n"
        "print(children(), workers._pool)\n"
    )
    src = str(Path(bvlab.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.splitlines() == ["[] no child", "no child []"]
