"""Workload definitions: generated configs, CLI invocations and output checks.

Each workload starts from a shipped config, overrides its size and seed, and
runs one or more ``fwdapprox`` subcommands in process.  The checks read only
the normative outputs (CSV, plus the coefficient JSON of ``simulate``).
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    template: str                    # shipped config the workload is shaped on
    overrides: dict
    commands: tuple                  # argv heads, each run with --config/--out
    outputs: tuple                   # normative files the commands write


WORKLOADS = {
    "scenarios": Workload(
        "scenarios", "default.json", {"n_paths": 10},
        (("simulate",),),
        ("scenarios.csv", "forwards.csv", "coefficients_path0.json")),
    "mc-rate": Workload(
        "mc-rate", "default.json", {"n_paths": 2000, "n_steps": 128},
        (("converge",),),
        ("converge.csv",)),
    "markovian": Workload(
        "markovian", "markovian.json", {"n_paths": 1},
        (("converge", "--markovian"),),
        ("converge.csv",)),
    "certify": Workload(
        "certify", "default.json", {},
        (("basis-check",), ("truncation-rate",)),
        ("basis_check.csv", "truncation_rate.csv")),
}


# -- configs -----------------------------------------------------------------

def make_config(wl: Workload, root: Path, work: Path, seed: int,
                **changes) -> tuple[Path, dict]:
    """Write the workload's config for ``seed`` into ``work``; return it."""
    tmpl_path = root / "configs" / wl.template
    cfg = json.loads(tmpl_path.read_text())
    cfg.update(wl.overrides)
    cfg["seed"] = int(seed)
    cfg.update(changes)
    if isinstance(cfg.get("f0"), str):
        f0 = (tmpl_path.parent / cfg["f0"]).resolve()
        cfg["f0"] = os.path.relpath(f0, work.resolve())
    work.mkdir(parents=True, exist_ok=True)
    path = work / "config.json"
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return path, cfg


def template_seed(wl: Workload, root: Path) -> int:
    return int(json.loads((root / "configs" / wl.template).read_text())["seed"])


# -- running -----------------------------------------------------------------

def invoke(cli, wl: Workload, config: Path, out: Path) -> tuple[list[int], str]:
    """Run the workload's subcommands in process; return exit codes and stdout."""
    buf = io.StringIO()
    rcs = []
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        for head in wl.commands:
            rcs.append(cli.main([*head, "--config", str(config), "--out", str(out)]))
    return rcs, buf.getvalue()


def digests(wl: Workload, out: Path) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in wl.outputs if (out / name).exists()}


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


# -- checks ------------------------------------------------------------------

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# basis-check writes threshold "inf" for the shift-norm row, which has none
_NOT_VALUES = {"basis_check.csv": ("threshold",)}


def _non_finite(name: str, header: list[str], rows: list[list[str]]) -> int:
    skip = {header.index(c) for c in _NOT_VALUES.get(name, ())}
    bad = 0
    for row in rows:
        for i, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                continue
            bad += i not in skip and not math.isfinite(v)
    return bad


def expected_rows(wl: Workload, cfg: dict) -> dict:
    """Exact line counts (header included) of each normative CSV."""
    if wl.name == "scenarios":
        n_steps = round(cfg["t_eval"] / cfg["time_step"])
        times = np.linspace(0.0, cfg["t_eval"], n_steps + 1)
        n_x = int(cfg.get("x_points", 33))
        per_path = sum(int(np.count_nonzero(times <= T1)) for T1, _ in cfg["windows"])
        return {"scenarios.csv": cfg["n_paths"] * times.size * n_x + 1,
                "forwards.csv": cfg["n_paths"] * per_path + 1}
    if wl.name == "certify":
        return {"basis_check.csv": 7, "truncation_rate.csv": len(cfg["k_list"]) + 1}
    return {"converge.csv": len(cfg["k_list"]) + 1}


def check_outputs(wl: Workload, cfg: dict, out: Path, rcs: list[int],
                  stdout: str) -> list[str]:
    """Every output check of one invocation; returns the failures found."""
    fails = [f"{' '.join(h)} exited {rc}" for h, rc in zip(wl.commands, rcs) if rc != 0]
    if fails:
        return fails
    tables = {}
    for name, n_lines in expected_rows(wl, cfg).items():
        header, rows = _read_csv(out / name)
        tables[name] = (header, rows)
        if len(rows) + 1 != n_lines:
            fails.append(f"{name}: {len(rows) + 1} lines, expected {n_lines}")
        if _non_finite(name, header, rows):
            fails.append(f"{name}: non-finite values")
    fails += _CHECKS[wl.name](cfg, out, tables, stdout)
    return fails


def _col(table, name: str) -> list[str]:
    header, rows = table
    i = header.index(name)
    return [r[i] for r in rows]


def _check_scenarios(cfg, out, tables, stdout) -> list[str]:
    fails = []
    for name, value_cols in (("scenarios.csv", (2, 3)), ("forwards.csv", (2, 5))):
        first: dict[str, list] = {}
        for row in tables[name][1]:
            if row[1] == "0.0":
                first.setdefault(row[0], []).append(tuple(row[i] for i in value_cols))
        if len(first) != cfg["n_paths"] or len({tuple(v) for v in first.values()}) != 1:
            fails.append(f"{name}: t=0 rows differ across paths")
    doc = json.loads((out / "coefficients_path0.json").read_text())
    n_steps = round(cfg["t_eval"] / cfg["time_step"])
    if len(doc["states"]) != n_steps + 1:
        fails.append("coefficients_path0.json: wrong number of states")
    defect = 0.0
    for s in doc["states"]:
        c = np.array([complex(re, im) for re, im in s["c"]])
        if not np.all(np.isfinite(c)) or not all(map(math.isfinite, s["c_star"])):
            fails.append("coefficients_path0.json: non-finite values")
            break
        defect = max(defect, float(np.max(np.abs(c - np.conj(c[::-1])))),
                     abs(s["c_star"][1]))
    if defect > 1e-12:
        fails.append(f"coefficients_path0.json: Hermitian defect {defect:.3e} > 1e-12")
    return fails


def _check_mc_rate(cfg, out, tables, stdout) -> list[str]:
    t = tables["converge.csv"]
    bad = [k for k, e, b in zip(_col(t, "k"), _col(t, "mc_error"), _col(t, "bound"))
           if not float(e) <= float(b)]
    return [f"converge.csv: mc_error above the bound at k={bad}"] if bad else []


def _check_markovian(cfg, out, tables, stdout) -> list[str]:
    errs = [float(e) for e in _col(tables["converge.csv"], "mc_error")]
    if all(a > b for a, b in zip(errs, errs[1:])):
        return []
    return [f"converge.csv: mc_error does not decrease in k: {errs}"]


def _check_certify(cfg, out, tables, stdout) -> list[str]:
    fails = []
    lines = [l for l in stdout.splitlines() if l.startswith(("PASS", "FAIL"))]
    if len(lines) != 6 or any(not l.startswith("PASS") for l in lines):
        fails.append("basis-check: not every check printed PASS")
    if any(v != "true" for v in _col(tables["basis_check.csv"], "pass")):
        fails.append("basis_check.csv: a check failed")
    t = tables["truncation_rate.csv"]
    bad = [k for k, e, b in zip(_col(t, "k"), _col(t, "error_sq"), _col(t, "C1_over_k"))
           if not float(e) <= float(b)]
    if bad:
        fails.append(f"truncation_rate.csv: C1/k bound violated at k={bad}")
    return fails


_CHECKS = {"scenarios": _check_scenarios, "mc-rate": _check_mc_rate,
           "markovian": _check_markovian, "certify": _check_certify}


# -- accuracy at the largest truncation level --------------------------------

def scenarios_error(cli, oracle_mild_solution, config: Path, cfg: dict,
                    out: Path) -> float:
    """Mean over paths of the sup over (t, x) of |f_k - f|^2 against the oracle."""
    base = config.parent
    params = cli.load_params(cfg)
    model = cli.load_model(cfg, base, params)
    driver = cli.load_driver(cfg, base, int(cfg["seed"]))
    _, rows = _read_csv(out / "scenarios.csv")
    data = np.array(rows, dtype=float)               # path_id, t, x, f
    times = np.unique(data[:, 1])
    xs = np.unique(data[:, 2])
    errs = []
    for pid in range(cfg["n_paths"]):
        f = data[data[:, 0] == pid, 3].reshape(times.size, xs.size)
        oracle = oracle_mild_solution(model, driver, times, path_id=pid)
        ref = np.stack([s.value(xs).real for s in oracle.states])
        errs.append(float(np.max((f - ref) ** 2)))
    return float(np.mean(errs))


def last_value(out: Path, name: str, column: str) -> float:
    return float(_col(_read_csv(out / name), column)[-1])
