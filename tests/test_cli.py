import copy
import csv
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fwdapprox.cli import loglog_slope, main

PARAMS = {"alpha": 1.0, "lambda": 0.5, "horizon": 1.0}


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def base_model_cfg(seed=5, n_paths=3):
    return {
        "params": PARAMS,
        "seed": seed,
        "k": 4,
        "n_paths": n_paths,
        "time_step": 1.0 / 128,
        "t_eval": 0.25,
        "f0": {"kind": "bump"},
        "driver": {
            "rank": 2,
            "loadings": [{"kind": "exp", "scale": 0.1, "rate": 0.5},
                         {"kind": "exp", "scale": 0.05, "rate": 2.0}],
        },
    }


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_loglog_slope_edge_cases():
    assert loglog_slope([4, 8], [0.0, 0.0]) == 0.0
    assert loglog_slope([4, 8, 16], [1.0, 0.5, 0.25]) == pytest.approx(-1.0)


def test_basis_check_passes_and_writes_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"params": PARAMS, "k": 4, "seed": 1})
    out = tmp_path / "out"
    assert main(["basis-check", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "basis_check.csv")
    assert rows[0] == ["check", "value", "threshold", "pass"]
    assert all(r[3] == "true" for r in rows[1:])
    text = capsys.readouterr().out
    assert "PASS biorthogonality_max_dev" in text


def test_missing_config_file_is_config_error(tmp_path):
    rc = main(["basis-check", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_invalid_json_is_config_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["basis-check", "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 2


def test_negative_lambda_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"params": {"alpha": 1.0, "lambda": -0.5, "horizon": 1.0}})
    assert main(["basis-check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


def test_unsorted_k_list_is_config_error(tmp_path):
    cfg = base_model_cfg()
    cfg["k_list"] = [8, 4]
    p = write_cfg(tmp_path, "c.json", cfg)
    assert main(["converge", "--config", p, "--out", str(tmp_path / "o")]) == 2


def test_non_dividing_time_step_is_config_error(tmp_path):
    cfg = base_model_cfg()
    cfg["time_step"] = 0.3
    p = write_cfg(tmp_path, "c.json", cfg)
    assert main(["simulate", "--config", p, "--out", str(tmp_path / "o")]) == 2


def test_truncation_rate_outputs_and_bound(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {"params": PARAMS, "f0": {"kind": "bump"},
                     "k_list": [4, 8, 16]})
    out = tmp_path / "out"
    assert main(["truncation-rate", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "truncation_rate.csv")
    assert rows[0] == ["k", "error_sq", "C1_over_k"]
    for r in rows[1:]:
        assert float(r[1]) <= float(r[2])
    assert (out / "truncation_rate.svg").exists()
    assert "bound holds" in capsys.readouterr().out


def test_truncation_rate_flat_curve_zero_error(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"params": PARAMS, "f0": {"kind": "flat"},
                     "k_list": [4, 8]})
    out = tmp_path / "out"
    assert main(["truncation-rate", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "truncation_rate.csv")
    assert all(float(r[1]) < 1e-20 for r in rows[1:])


# error_sq of configs/default.json from a dense evaluation of all 1,025
# reference modes on the quadrature grid, independent of the FFT synthesis
DEFAULT_ERROR_SQ = {4: 8.252753632156694e-05, 8: 7.130011540503553e-06,
                    16: 1.9755326925334334e-07, 32: 6.852392226630417e-09,
                    64: 2.1774528173773854e-10}


def test_truncation_rate_default_config_golden(tmp_path):
    config = Path(__file__).resolve().parent.parent / "configs" / "default.json"
    out = tmp_path / "out"
    assert main(["truncation-rate", "--config", str(config), "--out", str(out)]) == 0
    rows = read_rows(out / "truncation_rate.csv")[1:]
    assert [int(r[0]) for r in rows] == list(DEFAULT_ERROR_SQ)
    for k, err, _ in rows:
        assert float(err) == pytest.approx(DEFAULT_ERROR_SQ[int(k)], rel=1e-12, abs=0)


# converge on configs/default.json before its final state had a closed form
DEFAULT_MC_ERROR = {4: 7.587387875425253e-07, 8: 1.3739531811017178e-07,
                    16: 2.9802341267931117e-08, 32: 7.375902904974879e-09,
                    64: 1.813021748647092e-09}
DEFAULT_BOUND = {4: "0.733884802312746", 8: "0.366942401156373",
                 16: "0.1834712005781865", 32: "0.09173560028909325",
                 64: "0.045867800144546625"}


def test_converge_default_config_golden(tmp_path):
    config = Path(__file__).resolve().parent.parent / "configs" / "default.json"
    out = tmp_path / "out"
    assert main(["converge", "--config", str(config), "--out", str(out)]) == 0
    rows = read_rows(out / "converge.csv")
    assert rows[0][:4] == ["k", "mc_error", "stderr", "bound"]
    assert [int(r[0]) for r in rows[1:]] == list(DEFAULT_MC_ERROR)
    for k, err, _, bound, *_ in rows[1:]:
        assert float(err) == pytest.approx(DEFAULT_MC_ERROR[int(k)], rel=1e-10, abs=0)
        assert bound == DEFAULT_BOUND[int(k)]


def test_simulate_outputs_are_deterministic(tmp_path):
    cfg = base_model_cfg(n_paths=2)
    cfg["windows"] = [[0.5, 0.8]]
    p = write_cfg(tmp_path, "c.json", cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", p, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", p, "--out", str(out2)]) == 0
    for name in ("scenarios.csv", "forwards.csv", "coefficients_path0.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rows = read_rows(out1 / "scenarios.csv")
    assert rows[0] == ["path_id", "t", "x", "f"]
    assert {r[0] for r in rows[1:]} == {"0", "1"}
    fwd = read_rows(out1 / "forwards.csv")
    assert fwd[0] == ["path_id", "t", "window", "T1", "T2", "F"]
    assert all(float(r[1]) <= 0.5 for r in fwd[1:])


def test_converge_writes_bound_column(tmp_path, capsys):
    cfg = base_model_cfg(n_paths=40)
    cfg["k_list"] = [4, 8, 16]
    p = write_cfg(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["converge", "--config", p, "--out", str(out)]) == 0
    rows = read_rows(out / "converge.csv")
    assert rows[0] == ["k", "mc_error", "stderr", "bound", "n_paths", "seed"]
    errs = [float(r[1]) for r in rows[1:]]
    assert errs[0] > errs[1] > errs[2]
    for r in rows[1:]:
        assert float(r[1]) <= float(r[3])
    assert "slope" in capsys.readouterr().out


def test_converge_markovian_unstable_step_exits_3(tmp_path):
    cfg = base_model_cfg(n_paths=1)
    cfg["k_list"] = [8]
    cfg["n_steps"] = 32
    cfg["markovian"] = {"field": "mean_revert", "kappa": 0.5,
                        "theta": {"kind": "flat", "level": 1.2}}
    p = write_cfg(tmp_path, "c.json", cfg)
    assert main(["converge", "--config", p, "--out", str(tmp_path / "o"),
                 "--markovian"]) == 3


def test_converge_markovian_bad_field_is_config_error(tmp_path):
    cfg = base_model_cfg(n_paths=1)
    cfg["markovian"] = {"field": "does_not_exist"}
    p = write_cfg(tmp_path, "c.json", cfg)
    assert main(["converge", "--config", p, "--out", str(tmp_path / "o"),
                 "--markovian"]) == 2


def test_converge_markovian_runs_small(tmp_path):
    cfg = base_model_cfg(n_paths=2)
    cfg["k_list"] = [2, 4]
    cfg["n_steps"] = 1024
    cfg["markovian"] = {"field": "mean_revert", "kappa": 0.5,
                        "theta": {"kind": "flat", "level": 1.2}}
    p = write_cfg(tmp_path, "c.json", cfg)
    out = tmp_path / "out"
    assert main(["converge", "--config", p, "--out", str(out),
                 "--markovian"]) == 0
    rows = read_rows(out / "converge.csv")
    assert rows[0] == ["k", "mc_error", "stderr", "bound", "n_paths", "seed"]
    assert [r[3] for r in rows[1:]] == ["", ""]
    assert float(rows[1][1]) > float(rows[2][1])
    # the Markovian numbers themselves, pinned: a refactor must not move them
    assert [int(r[0]) for r in rows[1:]] == [2, 4]
    assert float(rows[1][1]) == pytest.approx(1.0534997337908746e-05, rel=1e-10)
    assert float(rows[2][1]) == pytest.approx(8.209095350868012e-06, rel=1e-10)


def test_curve_file_loading_roundtrip(tmp_path):
    from fwdapprox.space import write_curve_csv
    from fwdapprox.testcurves import smooth_bump

    write_curve_csv(smooth_bump(), str(tmp_path / "f0.csv"))
    cfg = write_cfg(tmp_path, "c.json",
                    {"params": PARAMS, "f0": "f0.csv", "k_list": [4, 8]})
    assert main(["truncation-rate", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    cfg2 = write_cfg(tmp_path, "c2.json",
                     {"params": PARAMS, "f0": "missing.csv"})
    assert main(["truncation-rate", "--config", cfg2,
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("change", [{"k": -1}, {"n_paths": "many"}, {"k": 2048},
                                    {"windows": [[0.9, 0.6]]}],
                         ids=["negative-k", "non-integer-n_paths",
                              "aliasing-k", "reversed-window"])
def test_bad_simulate_config_exits_2_without_traceback(tmp_path, capsys, change):
    cfg = base_model_cfg(n_paths=1)
    cfg.update(change)
    p = write_cfg(tmp_path, "c.json", cfg)
    assert main(["simulate", "--config", p, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_non_finite_curve_file_is_config_error(tmp_path):
    from fwdapprox.space import write_curve_csv
    from fwdapprox.testcurves import smooth_bump

    path = tmp_path / "f0.csv"
    write_curve_csv(smooth_bump(), str(path))
    lines = path.read_text().splitlines()
    x, f, _ = lines[100].split(",")
    lines[100] = f"{x},{f},nan"
    path.write_text("\n".join(lines) + "\n")
    cfg = base_model_cfg(n_paths=1)
    cfg.update({"f0": "f0.csv", "k_list": [4, 8]})
    p = write_cfg(tmp_path, "c.json", cfg)
    for command in ("truncation-rate", "converge"):
        assert main([command, "--config", p, "--out", str(tmp_path / "o")]) == 2


MARKOVIAN = ("converge", "--markovian")
MEAN_REVERT = {"field": "mean_revert", "kappa": 0.5,
               "theta": {"kind": "flat", "level": 1.2}}
DRIVER = base_model_cfg()["driver"]


@pytest.mark.parametrize("argv, change", [
    pytest.param(("converge",), {"k_list": [0, 4]}, id="converge-k-zero"),
    pytest.param(("truncation-rate",), {"k_list": [0, 4]}, id="rate-k-zero"),
    pytest.param(("converge",), {"k_list": [4096]}, id="converge-aliasing-k"),
    pytest.param(("converge",), {"k_list": ["a"]}, id="converge-string-k"),
    pytest.param(("converge",), {"k_list": [4, 4]}, id="converge-duplicate-k"),
    pytest.param(("truncation-rate",), {"k_list": [4, 4]}, id="rate-duplicate-k"),
    pytest.param(("converge",), {"n_steps": 0}, id="converge-zero-steps"),
    pytest.param(("converge",), {"n_steps": -3}, id="converge-negative-steps"),
    pytest.param(MARKOVIAN, {"markovian": MEAN_REVERT, "n_steps": 0},
                 id="markovian-zero-steps"),
    pytest.param(MARKOVIAN, {"markovian": dict(MEAN_REVERT, kappa="abc")},
                 id="markovian-string-kappa"),
    pytest.param(MARKOVIAN, {"markovian": 3}, id="markovian-not-an-object"),
    pytest.param(("simulate",), {"time_step": "abc"}, id="string-time_step"),
    pytest.param(("simulate",), {"time_step": float("nan")}, id="nan-time_step"),
    pytest.param(("simulate",), {"t_eval": float("inf")}, id="infinite-t_eval"),
    pytest.param(("simulate",), {"driver": dict(DRIVER, rank=None)}, id="null-rank"),
    pytest.param(("simulate",),
                 {"driver": dict(DRIVER, law="variance_gamma", law_param="x")},
                 id="string-law_param"),
    pytest.param(("simulate",), {"f0": {"kind": "exp", "n_points": 1}},
                 id="one-point-curve"),
    pytest.param(("truncation-rate",), {"k_list": [4, 600]},
                 id="rate-k-beyond-reference-modes"),
    pytest.param(("basis-check",), {"k": -1}, id="basis-check-negative-k"),
    pytest.param(("converge",), {"k_list": [4.7]}, id="converge-fractional-k"),
    pytest.param(("simulate",), {"x_points": 0}, id="zero-x_points"),
    pytest.param(("simulate",),
                 {"driver": dict(DRIVER, law="nig", law_param=float("inf"))},
                 id="infinite-law_param"),
    pytest.param(("basis-check",), {"seed": -1}, id="negative-seed"),
    pytest.param(("simulate",), {"time_step": 1e20}, id="no-whole-step"),
    pytest.param(("simulate",), {"time_step": 5e-324}, id="infinite-step-count"),
    pytest.param(("simulate",), {"f0": {"kind": "seasonal", "period": 0}},
                 id="zero-period"),
    pytest.param(("simulate",), {"f0": {"kind": []}}, id="list-curve-kind"),
    pytest.param(("simulate",), {"f0": ""}, id="curve-path-is-a-directory"),
    pytest.param(("simulate",), {"time_step": 1e-300}, id="huge-step-count"),
    pytest.param(("simulate",), {"n_paths": 1e300}, id="huge-n_paths"),
    pytest.param(("converge",), {"n_steps": 2**20 + 1}, id="converge-too-many-steps"),
    pytest.param(("simulate",), {"x_points": 1e15}, id="huge-x_points"),
    pytest.param(("simulate",), {"f0": {"kind": "bump", "n_points": 1e15}},
                 id="huge-curve-n_points"),
])
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, argv, change):
    cfg = base_model_cfg(n_paths=1)
    cfg.update(change)
    p = write_cfg(tmp_path, "c.json", cfg)
    assert main([*argv, "--config", p, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, change", [
    (("simulate",), {"params": dict(PARAMS, horizon=3.0)}),
    (("converge",), {"t_eval": 2.5, "time_step": 0.125, "k_list": [2]}),
], ids=["horizon-beyond-curves", "t_eval-beyond-horizon"])
def test_exhausted_domain_exits_3(tmp_path, capsys, argv, change):
    cfg = base_model_cfg(n_paths=1)
    cfg.update(change)
    p = write_cfg(tmp_path, "c.json", cfg)
    assert main([*argv, "--config", p, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


# Small configs that each run to exit 0; curves on 257 points keep every run short.
SMALL_CURVE = {"n_points": 257}
FUZZ_DRIVER = {"rank": 1, "law": "gaussian",
               "loadings": [dict(SMALL_CURVE, kind="exp", scale=0.1, rate=0.5)]}
FUZZ_CONFIGS = {
    ("basis-check",): {"params": dict(PARAMS, k=0), "k": 2, "seed": 1},
    ("truncation-rate",): {"params": PARAMS, "k_list": [4],
                           "f0": dict(SMALL_CURVE, kind="bump", center=0.4)},
    ("simulate",): {
        "params": PARAMS, "seed": 1, "k": 2, "n_paths": 1, "time_step": 0.125,
        "t_eval": 0.25, "x_points": 3, "windows": [[0.5, 0.75]],
        "f0": dict(SMALL_CURVE, kind="seasonal", period=1.0),
        "beta": dict(SMALL_CURVE, kind="flat", level=0.05), "driver": FUZZ_DRIVER},
    ("converge",): {
        "params": PARAMS, "seed": 1, "n_paths": 2, "n_steps": 4, "k_list": [2, 4],
        "time_step": 0.125, "t_eval": 0.25, "f0": dict(SMALL_CURVE, kind="bump"),
        "driver": FUZZ_DRIVER},
    MARKOVIAN: {
        "params": PARAMS, "seed": 1, "n_paths": 1, "n_steps": 32, "k_list": [1],
        "f0": dict(SMALL_CURVE, kind="bump"), "driver": FUZZ_DRIVER,
        "markovian": {"field": "mean_revert", "kappa": 0.5,
                      "theta": dict(SMALL_CURVE, kind="flat", level=1.2)}},
}
# replacement values; none is a large size, since e.g. "n_paths": 1e300 is a
# valid request that would run without end
FUZZ_VALUES = (None, "abc", [1], {"a": 1}, float("nan"), float("inf"),
               float("-inf"), 0, -1, 2.5)
REMOVE = "<remove>"


def key_paths(node, path=()):
    """Every key and list index of a nested config, as a path from the root."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from key_paths(child, path + (key,))


def mutated(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value == REMOVE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


FUZZ_CASES = [(argv, path, value) for argv, cfg in FUZZ_CONFIGS.items()
              for path in key_paths(cfg) for value in (REMOVE, *FUZZ_VALUES)]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(FUZZ_CASES))
def test_mutated_config_never_raises(case):
    argv, path, value = case
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "c.json"
        p.write_text(json.dumps(mutated(FUZZ_CONFIGS[argv], path, value)))
        assert main([*argv, "--config", str(p), "--out", str(Path(d) / "o")]) in range(4)


@pytest.mark.parametrize("argv", list(FUZZ_CONFIGS), ids=" ".join)
def test_fuzz_base_configs_run(tmp_path, argv):
    p = write_cfg(tmp_path, "c.json", FUZZ_CONFIGS[argv])
    assert main([*argv, "--config", p, "--out", str(tmp_path / "o")]) == 0
