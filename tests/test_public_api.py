"""The public surface: every exported name exists and is declared public."""
import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
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


def _defaulted_parameters():
    """``module.name(param)`` for every defaulted parameter of a public
    callable: the functions, classes (dataclass fields included) and public
    methods of every name in each module's ``__all__``."""
    found = set()
    for name in MODULES:
        mod = importlib.import_module(f"fwdapprox.{name}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if not callable(obj) or obj.__module__ == "fwdapprox.errors":
                continue   # constants, and exceptions (which take *args)
            targets = [(attr, obj)]
            if inspect.isclass(obj):
                for meth_name, meth in vars(obj).items():
                    meth = getattr(meth, "__func__", meth)   # class/static methods
                    if not meth_name.startswith("_") and inspect.isfunction(meth):
                        targets.append((f"{attr}.{meth_name}", meth))
            for label, fn in targets:
                found |= {f"{name}.{label}({p.name})"
                          for p in inspect.signature(fn).parameters.values()
                          if p.default is not p.empty and not p.name.startswith("_")}
    return found


# Every option a caller can leave out.  A new one is added here in the same
# change that adds it, so that growth of the API is a visible decision.
DEFAULTED_PARAMETERS = {
    "basis.BasisParams(k)", "basis.BasisParams.n_range(k)",
    "basis.eval_e_n_star(local)",
    "cli.main(argv)",
    "dynamics.LevyDriver(increment_law)", "dynamics.LevyDriver(law_param)",
    "dynamics.LevyDriver(seed)", "dynamics.ModelSpec(beta)",
    "dynamics.ModelSpec(psi_weights)", "dynamics.convergence_experiment(n_steps)",
    "dynamics.euler_coefficient_system(noise)",
    "dynamics.oracle_mild_solution(noise)", "dynamics.oracle_mild_solution(path_id)",
    "dynamics.simulate_fk_state(noise)", "dynamics.simulate_fk_state(path_id)",
    "markovian.contract_audit(n_pairs)", "markovian.contract_audit(seed)",
    "markovian.markovian_convergence_experiment(n_steps)",
    "markovian.markovian_convergence_experiment(n_x)",
    "markovian.markovian_convergence_experiment(sup_slices)",
    "markovian.oracle_markovian(noise)", "markovian.projected_coefficients(n_points)",
    "markovian.simulate_markovian_fk(noise)",
    "projection.coefficient(n_points)", "projection.coefficients_fft(n_points)",
    "projection.project_pi(x_max)",
    "semigroup.shift_curve(x_max_out)",
    "space.Curve.from_deriv_fn(n_points)", "space.Curve.from_deriv_fn(value_at_zero)",
    "space.Curve.from_deriv_fn(x_max)", "space.Curve.resample(x_max)",
    "testcurves.exp_loading(n_points)", "testcurves.exp_loading(rate)",
    "testcurves.exp_loading(scale)", "testcurves.exp_loading(x_max)",
    "testcurves.flat_curve(level)", "testcurves.flat_curve(n_points)",
    "testcurves.flat_curve(x_max)",
    "testcurves.seasonal_curve(amplitude)", "testcurves.seasonal_curve(damp)",
    "testcurves.seasonal_curve(level)", "testcurves.seasonal_curve(n_points)",
    "testcurves.seasonal_curve(period)", "testcurves.seasonal_curve(x_max)",
    "testcurves.smooth_bump(center)", "testcurves.smooth_bump(n_points)",
    "testcurves.smooth_bump(value_at_zero)", "testcurves.smooth_bump(width)",
    "testcurves.smooth_bump(x_max)",
}


def test_no_new_defaulted_parameters():
    found = _defaulted_parameters()
    assert not found - DEFAULTED_PARAMETERS, \
        f"new defaulted parameters {sorted(found - DEFAULTED_PARAMETERS)}: list them here"
    assert not DEFAULTED_PARAMETERS - found, \
        f"gone, drop them from the list: {sorted(DEFAULTED_PARAMETERS - found)}"


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    src = str(Path(fwdapprox.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, fwdapprox.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_fold_helpers_stay_with_their_owners():
    # projection.py owns the curve-to-coefficients fold and every FFT; the
    # Euler loop of dynamics.py folds field outputs only through the shared
    # fold (_fold_input, _fold_rows).  The Simpson weights serve the
    # quadrature of space.py and projection.py.  The schemes read their time
    # step only through the time-grid rule of dynamics.py; the mild sum's
    # kernel, the path chunk and the one product of every level's final
    # state of the convergence experiment stay in
    # dynamics.py, and so does the per-path noise stream, which every scheme
    # and experiment draws through the time-grid rule or the chunked draw,
    # with the one-pass seeding that re-implements numpy's beside it.
    # The node shift's trapezoid lives in semigroup.py alone, and the margin
    # past T that the Markovian experiment's oracle keeps in markovian.py
    src = Path(fwdapprox.__file__).parent
    owners = {"np.fft": {"projection.py"},
              "_fold_input": {"projection.py", "dynamics.py"},
              "_fold_rows": {"projection.py", "dynamics.py"},
              "_simpson_weights": {"space.py", "projection.py"},
              "_time_grid": {"dynamics.py", "markovian.py"},
              "_mild_terms": {"dynamics.py"}, "_PATH_CHUNK": {"dynamics.py"},
              "_final_state": {"dynamics.py"},
              "path_rng": {"dynamics.py"}, "_path_rngs": {"dynamics.py"},
              "np.trapezoid": {"semigroup.py"}, "_ORACLE_MARGIN": {"markovian.py"}}
    for name, allowed in owners.items():
        users = {p.name for p in src.glob("*.py") if name in p.read_text()}
        assert users <= allowed, f"{name} is referenced outside {sorted(allowed)}: " \
                                 f"{sorted(users - allowed)}"


def test_fields_read_their_input_on_its_own_nodes():
    # a field output lies on its input's grid: markovian.py reads the state
    # off its own nodes, never through a common grid, a resample or a spline read
    text = (Path(fwdapprox.__file__).parent / "markovian.py").read_text()
    for name in ("_common_grid", "_align", "resample", "_deriv_on"):
        assert name not in text, f"markovian.py names {name}"


def test_projection_has_one_fold_and_one_synthesis_fft():
    # every fold runs the DFT of _fold_rows and every synthesis that of
    # _synth_fft; a second fold path with its own FFT fails here
    tree = ast.parse((Path(fwdapprox.__file__).parent / "projection.py").read_text())
    users = {getattr(top, "name", "<module>") for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and node.attr == "fft"}
    assert users == {"_fold_rows", "_synth_fft"}


def test_cli_writes_every_csv_through_write_csv():
    # one CSV formatting path: cli.py imports no csv module, opens files only
    # in write_csv, and every ".csv" name it holds is the path argument of a
    # write_csv call, whose data lines the benchmark counts as rows written
    tree = ast.parse((Path(fwdapprox.__file__).parent / "cli.py").read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "csv" not in imported
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name)]
    writer = next(n for n in tree.body
                  if isinstance(n, ast.FunctionDef) and n.name == "write_csv")
    in_writer = {id(n) for n in ast.walk(writer)}
    assert all(id(c) in in_writer for c in calls if c.func.id == "open")
    in_writes = {id(node) for c in calls if c.func.id == "write_csv"
                 for node in ast.walk(c.args[0])}
    names = [n for n in ast.walk(tree) if isinstance(n, ast.Constant)
             and isinstance(n.value, str) and n.value.endswith(".csv")]
    assert names and all(id(n) in in_writes for n in names), \
        [n.value for n in names if id(n) not in in_writes]


def _step_differences(tree: ast.AST) -> list[int]:
    """Lines of comparisons that hold a difference of two grid steps: each
    side a ``.grid_step`` read, a name ending in ``step`` or a quotient (a
    range over an interval count)."""
    def is_step(node):
        return ((isinstance(node, ast.Attribute) and node.attr == "grid_step")
                or (isinstance(node, ast.Name) and node.id.endswith("step"))
                or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)))

    return [d.lineno for cmp in ast.walk(tree) if isinstance(cmp, ast.Compare)
            for d in ast.walk(cmp)
            if isinstance(d, ast.BinOp) and isinstance(d.op, ast.Sub)
            and is_step(d.left) and is_step(d.right)]


def _grid_tolerances(tree: ast.AST) -> list[int]:
    """Lines of node tests and range tolerances: a quotient by ``.grid_step``
    (a count in steps, rounded or not), and a comparison of ``.x_max`` or
    ``.grid`` with an offset literal (a sum or difference with a number)."""
    def is_attr(node, names):
        return isinstance(node, ast.Attribute) and node.attr in names

    def is_offset(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                and any(isinstance(side, ast.Constant) and isinstance(side.value, (int, float))
                        for side in (node.left, node.right)))

    steps = [d.lineno for d in ast.walk(tree) if isinstance(d, ast.BinOp)
             and isinstance(d.op, ast.Div) and is_attr(d.right, {"grid_step"})]
    ranges = [cmp.lineno for cmp in ast.walk(tree) if isinstance(cmp, ast.Compare)
              and any(is_attr(d, {"x_max", "grid"}) for d in ast.walk(cmp))
              and any(is_offset(d) for d in ast.walk(cmp))]
    return steps + ranges


def test_only_space_compares_grid_steps():
    # a curve's grid is space.py's decision: whether two steps are one
    # (space._same_step), whether a point is a node (Curve._node_index), whether
    # a curve covers a range (Curve._covers) and where a mask cuts
    # (Curve._masked_from); no other module counts in steps or holds a tolerance
    src = Path(fwdapprox.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "space.py":
            continue
        text = path.read_text()
        tree = ast.parse(text)
        found += [f"{path.name}: _same_step"] if "_same_step" in text else []
        found += [f"{path.name}:{line}"
                  for line in _step_differences(tree) + _grid_tolerances(tree)]
    assert not found, f"grid steps, nodes or ranges decided outside space.py: {found}"
