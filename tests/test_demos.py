"""Smoke tests for the narrated demos in demos/."""
import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["basis_tour.py", "simulate_and_price.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out


def test_convergence_demo_imports_exist():
    # the convergence demo runs for tens of seconds, so only its imports
    # from the library are checked
    tree = ast.parse((DEMOS / "convergence_study.py").read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "fwdapprox"]
    assert imports
    for node in imports:
        mod = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(mod, a.name)]
        assert not missing, f"{node.module} lacks {missing}"
