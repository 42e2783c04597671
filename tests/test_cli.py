import copy
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fwdapprox import cli, dynamics
from fwdapprox.cli import loglog_slope, main
from fwdapprox.dynamics import delivery_forward, simulate_fk_state
from fwdapprox.space import Curve

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


def test_loglog_svg_skips_non_finite_points(tmp_path):
    # the plot is advisory: an inf or nan point is left out, never raised on
    path = tmp_path / "p.svg"
    cli.write_loglog_svg(path, [2, 4, 8, 16], {"a": [1e-3, np.inf, np.nan, 1e-5],
                                               "b": [np.nan, -np.inf, np.inf, 0.0]}, "t")
    text = path.read_text()
    assert "nan" not in text and "inf" not in text
    lines = [line for line in text.splitlines() if line.startswith("<polyline")]
    assert [line.split('"')[1].count(",") for line in lines] == [2, 0]
    assert [f">1e{d}<" in text for d in (-6, -5, -4, -3, -2)] == [False, True, True, True, False]
    cli.write_loglog_svg(path, [2, 4], {"a": [np.inf, np.nan]}, "t")
    assert "no positive data" in path.read_text()


def test_basis_check_passes_and_writes_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", {"params": PARAMS, "k": 4, "seed": 1})
    out = tmp_path / "out"
    assert main(["basis-check", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "basis_check.csv")
    assert rows[0] == ["check", "value", "threshold", "pass"]
    assert all(r[3] == "true" for r in rows[1:])
    text = capsys.readouterr().out
    assert "PASS biorthogonality_max_dev" in text


@pytest.mark.parametrize("lam", [0.1, 0.01, 0.005])
def test_basis_check_passes_at_small_lambda_horizon(tmp_path, capsys, lam):
    # lambda * horizon down to 5e-3: 2,535 Gram periods, a lower frame
    # constant above 1, and power-iteration blocks past e^709
    cfg = write_cfg(tmp_path, "c.json", {"params": dict(PARAMS, **{"lambda": lam})})
    out = tmp_path / "out"
    assert main(["basis-check", "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all(line.startswith("PASS ") for line in lines), lines
    assert all(r[3] == "true" for r in read_rows(out / "basis_check.csv")[1:])


_OUTPUT_FILES = {"basis_check.csv": "basis-check", "converge.svg": "converge",
                 "coefficients_path0.json": "simulate"}


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "out-is-a-file",
                                  "out-below-a-file", *_OUTPUT_FILES])
def test_missing_config_file_is_config_error(tmp_path, capsys, case):
    # a config that cannot be read, an --out that cannot be a directory and
    # an output file that is a directory (each writer: CSV, SVG, JSON) are
    # config errors (exit 2, one line), not tracebacks
    cfg, out = write_cfg(tmp_path, "c.json", {"params": PARAMS, "k": 2}), tmp_path / "o"
    command = _OUTPUT_FILES.get(case, "basis-check")
    if case == "missing":
        cfg = str(tmp_path / "nope.json")
    elif case == "directory":
        cfg = str(tmp_path)
    elif case == "not-utf8":
        Path(cfg).write_bytes(b'{"params": "\xff"}')
    elif case in _OUTPUT_FILES:
        cfg = write_cfg(tmp_path, "c.json", dict(base_model_cfg(n_paths=1), k_list=[2, 4]))
        (out / case).mkdir(parents=True)
    else:
        out.write_text("a file")
        if case == "out-below-a-file":
            out = out / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


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


def test_converge_reads_no_time_step(tmp_path):
    # converge steps n_steps; simulate's time_step rule does not apply to it
    config = Path(__file__).resolve().parent.parent / "configs" / "default.json"
    cfg = json.loads(config.read_text())
    cfg.update(n_paths=4, f0=str(config.parent / cfg["f0"]))
    without = {key: v for key, v in cfg.items() if key != "time_step"}
    outputs = []
    for name, variant in (("dividing", cfg), ("non-dividing", dict(cfg, time_step=0.3)),
                          ("absent", without)):
        p, out = write_cfg(tmp_path, f"{name}.json", variant), tmp_path / name
        assert main(["converge", "--config", p, "--out", str(out)]) == 0, name
        outputs.append((out / "converge.csv").read_bytes())
    assert outputs == [outputs[0]] * 3


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


def default_config(tmp_path, **changes):
    root = Path(__file__).resolve().parent.parent
    cfg = json.loads((root / "configs" / "default.json").read_text())
    cfg.update(f0=str(root / "data" / "bump_curve.csv"), **changes)
    return write_cfg(tmp_path, "c.json", cfg)


# sha256 of converge.csv on configs/default.json at t_eval 0.3 and 48 steps,
# recorded before the bound's kernel evaluated each curve once per distinct
# lagged point.  There dt is 25.6 steps of the bound's grid, so its lagged
# rows are no windows of one grid and the kernel takes the per-lag fill
CONVERGE_FALLBACK_GOLDEN = "0964dcbe6d3d94b0f9f4ffdcf3abe516d2f8d4b8c191e1f6f6f3c3c55e600561"


def test_converge_off_grid_step_golden(tmp_path):
    out = tmp_path / "out"
    assert main(["converge", "--config", default_config(tmp_path, t_eval=0.3, n_steps=48),
                 "--out", str(out)]) == 0
    assert hashlib.sha256((out / "converge.csv").read_bytes()).hexdigest() == \
        CONVERGE_FALLBACK_GOLDEN


def converge_sha_at_one_thread(tmp_path, config, changes, *flags):
    """sha256 of converge.csv for configs/<config> with f0 read from
    data/bump_curve.csv and ``changes`` applied, run in a fresh interpreter
    at one BLAS thread."""
    root = Path(__file__).resolve().parent.parent
    cfg = json.loads((root / "configs" / config).read_text())
    cfg["f0"] = str(root / "data" / "bump_curve.csv")
    cfg.update(changes)
    out = tmp_path / "out"
    subprocess.run([sys.executable, "-m", "fwdapprox.cli", "converge", *flags, "--config",
                    write_cfg(tmp_path, "c.json", cfg), "--out", str(out)],
                   env=one_thread_env(), capture_output=True, check=True)
    return hashlib.sha256((out / "converge.csv").read_bytes()).hexdigest()


def one_thread_env():
    """The environment of a fresh interpreter that imports this fwdapprox at one BLAS thread."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_run_out_of_memory_is_a_config_error(tmp_path):
    # configs/default.json at 2^14 steps needs a 512 MiB array.  A child
    # that caps its own address space at 512 MiB runs out of memory there
    # and must exit 2 with one config error line, not a traceback
    pytest.importorskip("resource")
    root = Path(__file__).resolve().parent.parent
    cfg = json.loads((root / "configs" / "default.json").read_text())
    cfg.update(f0=str(root / "data" / "bump_curve.csv"), n_steps=2**14, n_paths=64, k_list=[4])
    code = (f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({2**29}, {2**29})); "
            "from fwdapprox.cli import main; sys.exit(main(sys.argv[1:]))")
    run = subprocess.run([sys.executable, "-c", code, "converge", "--config",
                          write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")],
                         env=one_thread_env(), capture_output=True, text=True)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("config error: out of memory") and run.stderr.count("\n") == 1


# sha256 of converge.csv for converge --markovian on configs/markovian.json
# cut to one path, recorded at one BLAS thread before the Euler loop and the
# oracle step were cut down to the pinned folds.  It runs in a fresh
# interpreter at one BLAS thread, because the scheme's span product rounds
# apart between thread counts
CONVERGE_MARKOVIAN_GOLDEN = "72521203784313dc80e157105e236f14009b35fea84a79c08ab30aeed11a65b6"


def test_converge_markovian_one_path_golden(tmp_path):
    assert converge_sha_at_one_thread(tmp_path, "markovian.json", {"n_paths": 1},
                                      "--markovian") == CONVERGE_MARKOVIAN_GOLDEN


# sha256 of converge.csv on configs/default.json at seed 0, recorded at one
# BLAS thread before the chunk loop wrote into one error buffer and the bound
# took its curvature constants in one pass.  "mc-rate" is the benchmark's
# shape, 2,000 paths x 128 steps, whose last chunk has 464 rows; "bump-257"
# puts f0 on 257 nodes, so the bound's rows are resampled to the quadrature's
# 4,097 nodes before their curvature is taken
CONVERGE_SEED0_GOLDEN = {
    "mc-rate": ({"n_paths": 2000, "n_steps": 128},
                "aa8158ce9947300a9afc807e70d0d132c1dda79cbc831e638b99533474b67fdb"),
    "bump-257": ({"n_paths": 100, "f0": {"kind": "bump", "n_points": 257}},
                 "2a5971ae0b3d0d29fc863681c26d2b58e580ef4dbf2b30a30f856503c97c15a9"),
}


@pytest.mark.parametrize("case", list(CONVERGE_SEED0_GOLDEN))
def test_converge_seed0_golden(tmp_path, case):
    changes, sha = CONVERGE_SEED0_GOLDEN[case]
    assert converge_sha_at_one_thread(tmp_path, "default.json",
                                      {"seed": 0, **changes}) == sha


def test_converge_bound_evaluates_each_curve_once(tmp_path, monkeypatch):
    # on configs/default.json dt is 32 steps of the bound's grid, so its kernel
    # evaluates f0, the one flat drift and each of the 3 loadings once (the
    # per-lag fill made 80 calls: f0, 64 drift rows and 5 blocks per loading)
    calls, counts = [0], []
    deriv, mild_terms = Curve.deriv, dynamics._mild_terms

    def counting(c, y):
        calls[0] += 1
        return deriv(c, y)

    def spy(*args):
        before = calls[0]
        out = mild_terms(*args)
        if args[-1] is counting:
            counts.append(calls[0] - before)
        return out

    monkeypatch.setattr(Curve, "deriv", counting)
    monkeypatch.setattr(dynamics, "_mild_terms", spy)
    assert main(["converge", "--config", default_config(tmp_path),
                 "--out", str(tmp_path / "out")]) == 0
    assert counts == [5]


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


# sha256 of simulate's three outputs on configs/default.json cut to 20 paths,
# recorded before its rows were formatted in one pass
SIMULATE_GOLDEN = {
    "scenarios.csv": "c21c09c87ef771799cdd4e1bbba910cbfd7711b5fb022ce9a33e632e9d84b3a3",
    "forwards.csv": "ed485656f3dc224159d57679d0474afaf624b942f067d715fe0aa6fadefa73d1",
    "coefficients_path0.json":
        "219d9923943d03eacfeb6d5ea57b499db96262141b63c0f7cc4abd935551fafd",
}


def test_simulate_default_config_golden(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", default_config(tmp_path, n_paths=20),
                 "--out", str(out)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in SIMULATE_GOLDEN} == SIMULATE_GOLDEN


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(k=st.integers(0, 64), n_steps=st.integers(1, 48), t_eval=st.floats(0.01, 1.0),
       ends=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                     min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_simulate_forwards_equal_delivery_forward(k, n_steps, t_eval, ends, seed):
    # the batched window forwards, one row per state and time t <= T1, are
    # `delivery_forward` of that state bit for bit (as repr strings)
    windows = [[min(a, b), max(a, b)] for a, b in ends if a != b]
    assume(windows)
    cfg = dict(FUZZ_CONFIGS[("simulate",)], k=k, n_paths=2, seed=seed, t_eval=t_eval,
               time_step=t_eval / n_steps, windows=windows)
    with tempfile.TemporaryDirectory() as d:
        p = write_cfg(Path(d), "c.json", cfg)
        assert main(["simulate", "--config", p, "--out", str(Path(d) / "o")]) == 0
        got = (Path(d) / "o" / "forwards.csv").read_text().splitlines()[1:]
        params = cli.load_params(cfg)
        model = cli.load_model(cfg, Path(d), params)
        driver = cli.load_driver(cfg, Path(d), seed)
    times = np.linspace(0.0, t_eval, n_steps + 1)
    want = []
    for pid in range(2):
        path = simulate_fk_state(model, driver, times, k, path_id=pid)
        want += [f"{pid},{t!r},{wi},{T1!r},{T2!r},"
                 f"{delivery_forward(path.state(j), t, T1, T2).real!r}"
                 for j, t in enumerate(times.tolist())
                 for wi, (T1, T2) in enumerate(windows) if t <= T1]
    assert got == want


def test_simulate_folds_each_distinct_input_once(tmp_path, monkeypatch):
    # f0, the two loadings and the one flat beta are each folded by one FFT,
    # however many paths re-project them
    fft, calls = np.fft.fft, []

    def counted(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "fwdapprox.projection":
            calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    counts = []
    for n_paths in (1, 3):
        cfg = dict(base_model_cfg(n_paths=n_paths), beta={"kind": "flat", "level": 0.05})
        p = write_cfg(tmp_path, f"c{n_paths}.json", cfg)
        calls.clear()
        assert main(["simulate", "--config", p, "--out", str(tmp_path / f"o{n_paths}")]) == 0
        counts.append(len(calls))
    assert counts == [4, 4]


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


@pytest.mark.parametrize("field", [
    {"field": "mean_revert", "kappa": 1e300, "theta": {"kind": "flat", "level": 1e300}},
    {"field": "proportional_vol", "sigma0": 1e200},
], ids=["mean_revert", "proportional_vol"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_converge_markovian_overflow_exits_3(tmp_path, capsys, field):
    # a field that overflows is a numerical failure: one line, no traceback
    # and no converge.csv row with a non-finite mc_error.  The first
    # overflows a curve (in the contract audit), the second only mc_error
    root = Path(__file__).resolve().parent.parent
    cfg = json.loads((root / "configs" / "markovian.json").read_text())
    cfg.update(f0=str(root / "data" / "bump_curve.csv"), n_paths=1, n_steps=256, k_list=[2],
               markovian=field)
    out = tmp_path / "o"
    assert main(["converge", "--markovian", "--config", write_cfg(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert not (out / "converge.csv").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_converge_loading_that_overflows_the_bound_exits_3(tmp_path, capsys):
    # the bound's norm of a loading scaled to 1e200 overflows: one line, no
    # traceback and no converge.csv
    root = Path(__file__).resolve().parent.parent
    cfg = json.loads((root / "configs" / "default.json").read_text())
    cfg.update(f0=str(root / "data" / "bump_curve.csv"), n_paths=4, n_steps=8, k_list=[2, 4])
    cfg["driver"]["loadings"][0]["scale"] = 1e200
    out = tmp_path / "o"
    assert main(["converge", "--config", write_cfg(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert not (out / "converge.csv").exists()


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


def test_converge_markovian_loadings_that_end_off_the_grid(tmp_path):
    # configs/markovian.json, small, with every loading on [0, 1.7]: the
    # oracle cuts its state to f0's last node below 1.7 and so stays on f0's
    # grid, and k = 4 reads what loadings on [0, 2] give (4.825899721163e-06)
    # to rounding; states stretched off f0's grid would give 4.6096e-06
    root = Path(__file__).resolve().parent.parent
    cfg = json.loads((root / "configs" / "markovian.json").read_text())
    for load in cfg["driver"]["loadings"]:
        load["x_max"] = 1.7
    cfg.update(f0=str(root / "data" / "bump_curve.csv"), n_paths=2, n_steps=1024,
               k_list=[2, 4])
    out = tmp_path / "out"
    assert main(["converge", "--markovian", "--config", write_cfg(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 0
    rows = read_rows(out / "converge.csv")
    assert float(rows[2][1]) == pytest.approx(4.825899721162656e-06, rel=1e-10)


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


def test_curve_file_that_overflows_its_spline_is_a_config_error(tmp_path):
    # finite samples, as steep as the spec exp(scale=1e300, rate=800)
    with open(tmp_path / "f0.csv", "w") as fh:
        fh.write("x,f,fprime\n")
        for x in np.linspace(0.0, 2.0, 4097).tolist():
            e = np.exp(-800.0 * x).item()
            fh.write(f"{x!r},{1e300 * e!r},{-8e302 * e!r}\n")
    cfg = write_cfg(tmp_path, "c.json",
                    {"params": PARAMS, "f0": "f0.csv", "k_list": [4, 8]})
    assert main(["truncation-rate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


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
    pytest.param(MARKOVIAN, dict(FUZZ_CONFIGS[MARKOVIAN], f0={"kind": "bump", "n_points": 256}),
                 id="markovian-horizon-not-a-node"),
    pytest.param(MARKOVIAN, dict(FUZZ_CONFIGS[MARKOVIAN], f0={"kind": "bump", "n_points": 65},
                                 k_list=[16], n_steps=8192),
                 id="markovian-modes-alias-on-f0"),
    pytest.param(("simulate",), {"time_step": "abc"}, id="string-time_step"),
    pytest.param(("simulate",), {"n_paths": "3"}, id="numeric-string-n_paths"),
    pytest.param(("simulate",), {"n_paths": True}, id="boolean-n_paths"),
    pytest.param(("simulate",), {"t_eval": "0.5"}, id="numeric-string-t_eval"),
    pytest.param(("simulate",), {"params": dict(PARAMS, alpha=True)}, id="boolean-alpha"),
    pytest.param(("converge",), {"k_list": ["4"]}, id="numeric-string-k"),
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
    pytest.param(("basis-check",), {"params": dict(PARAMS, **{"lambda": 1e-6})},
                 id="basis-check-tiny-lambda"),
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
    pytest.param(("simulate",), {"f0": {"kind": "exp", "scale": 1e308, "rate": 10}},
                 id="non-finite-curve-samples"),
    pytest.param(("simulate",), {"f0": {"kind": "seasonal", "amplitude": 1e308}},
                 id="overflowing-curve-samples"),
    pytest.param(("simulate",), {"f0": {"kind": "exp", "scale": 1e300, "rate": 800}},
                 id="overflowing-spline"),
    pytest.param(("simulate",), {"f0": "offset.csv"}, id="curve-file-not-from-zero"),
    pytest.param(("simulate",), {"f0": "repeated.csv"}, id="curve-file-repeated-x"),
    pytest.param(("converge",), {"f0": "decreasing.csv"}, id="curve-file-decreasing-x"),
    pytest.param(("simulate",), {"f0": "short-row.csv"}, id="curve-file-short-row"),
    pytest.param(("converge",), {"f0": "blank-line.csv"}, id="curve-file-blank-line"),
    pytest.param(("simulate",), {"f0": "long-row.csv"}, id="curve-file-long-row"),
    pytest.param(("converge",), {"f0": "contradicting-f.csv"}, id="contradicting-f"),
])
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, argv, change):
    # a uniform curve file on [0.5, 2]: a curve's grid starts at 0
    (tmp_path / "offset.csv").write_text(
        "x,f,fprime\n" + "".join(f"{x},{x + 0.5},1.0\n" for x in (0.5, 1.0, 1.5, 2.0)))
    # x columns that do not increase, a row short of a cell, a blank last
    # line, rows past their three cells, an f column that fprime contradicts
    for name, rows in (("repeated", "0,1,0\n0,1,0\n"), ("decreasing", "0,1,0\n-1,1,0\n-2,1,0\n"),
                       ("short-row", "0,1,0\n1,1\n2,1,0\n"),
                       ("blank-line", "0,1,0\n1,1,0\n2,1,0\n\n"),
                       ("long-row", "0,1,0,7\n1,1,0,junk\n2,1,0\n"),
                       ("contradicting-f", "0,1,0\n1,1,0\n2,-5,0\n")):
        (tmp_path / f"{name}.csv").write_text("x,f,fprime\n" + rows)
    cfg = base_model_cfg(n_paths=1)
    cfg.update(change)
    p = write_cfg(tmp_path, "c.json", cfg)
    assert main([*argv, "--config", p, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_markovian_grid_error_comes_before_the_contract_audit(tmp_path, monkeypatch):
    def audit(*args, **kwargs):
        raise AssertionError("the contract audit ran")

    monkeypatch.setattr(cli, "contract_audit", audit)
    cfg = dict(FUZZ_CONFIGS[MARKOVIAN], f0={"kind": "bump", "n_points": 65}, k_list=[16])
    p = write_cfg(tmp_path, "c.json", cfg)
    assert main([*MARKOVIAN, "--config", p, "--out", str(tmp_path / "o")]) == 2


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


@pytest.mark.parametrize("argv", list(FUZZ_CONFIGS), ids=" ".join)
def test_cli_csvs_are_the_csv_modules_bytes(tmp_path, argv):
    # every CSV the CLI writes (scenarios, forwards, converge with and without
    # its bound, basis_check, truncation_rate) is what csv.writer makes of its
    # own cells: no cell needs quoting, so joining cells by "," is exact
    p = write_cfg(tmp_path, "c.json", FUZZ_CONFIGS[argv])
    out = tmp_path / "o"
    assert main([*argv, "--config", p, "--out", str(out)]) == 0
    written = sorted(out.glob("*.csv"))
    assert written
    for path in written:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(read_rows(path))
        assert path.read_text() == buf.getvalue(), path.name


# x_points and every curve spec's n_points at their caps (2^16, 2^20 + 1) and
# one beyond.  A Markovian run's Euler folds run on f0's nodes: with f0 at the
# cap the run takes about 3 s, so f0 there takes an in-cap 2^12 + 1 instead.
# The loading and theta cases at the cap take about 0.25 s each (in process,
# one BLAS thread, 2-core host)
SIZE_CASES = [
    pytest.param(argv, path, value, id=f"{' '.join(argv)}-{'.'.join(map(str, path))}-{value}")
    for argv, cfg in FUZZ_CONFIGS.items() for path in key_paths(cfg)
    if path[-1] in ("x_points", "n_points")
    for value in ((2**16, 2**16 + 1) if path[-1] == "x_points"
                  else (2**12 + 1 if (argv, path[0]) == (MARKOVIAN, "f0") else 2**20 + 1,
                        2**20 + 2))]


@pytest.mark.parametrize("argv, path, value", SIZE_CASES)
def test_size_keys_within_and_beyond_their_caps(tmp_path, capsys, argv, path, value):
    p = write_cfg(tmp_path, "c.json", mutated(FUZZ_CONFIGS[argv], path, value))
    rc = main([*argv, "--config", p, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if value <= (2**16 if path[-1] == "x_points" else 2**20 + 1):
        assert rc == 0 and err == ""
    else:
        assert rc == 2 and err.startswith("config error:") and err.count("\n") == 1

