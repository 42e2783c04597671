"""Smoke tests for the narrated demos in demos/."""
import ast
import importlib
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


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


def test_readme_library_example_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {"__name__": "__main__"})
    float(capsys.readouterr().out)
