import csv
import json

import pytest

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
