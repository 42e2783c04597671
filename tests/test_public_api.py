"""The public surface: every exported name exists and is declared public."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fwdapprox

MODULES = sorted(m.name for m in pkgutil.iter_modules(fwdapprox.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    mod = importlib.import_module(f"fwdapprox.{name}")
    assert hasattr(mod, "__all__"), f"fwdapprox.{name} declares no __all__"
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"fwdapprox.{name}.__all__ names missing objects {missing}"


def test_package_reexports_only_public_names():
    tree = ast.parse(Path(fwdapprox.__file__).read_text())
    stale = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"fwdapprox.{node.module}")
            stale += [f"{node.module}.{a.name}" for a in node.names
                      if a.name not in mod.__all__]
    assert not stale, f"fwdapprox/__init__.py imports names outside __all__: {stale}"
