"""Command-line harness: config-driven checks, simulations and experiments.

Subcommands
    basis-check       invariant suite (biorthogonality, frame bounds, norms)
    truncation-rate   projection error vs k with the rate-constant bound
    simulate          scenario generation (CSV long format + coefficient JSON)
    converge          MC convergence study, optionally with --markovian

Every subcommand takes --config <json file> and --out <directory>.  Outputs
are deterministic for a fixed config (no timestamps); CSV is the normative
format, SVG plots are advisory.

Exit codes: 0 success, 1 invariant failure, 2 config error (a run out of
memory included: its one line names the sizes to lower), 3 numerical failure
(instability, domain exhaustion, failed smoothness check, an overflow).
A config value of the wrong type, a non-integral integer, a non-finite
number or one out of range is a config error.  The ranges: alpha, lambda,
horizon, time_step, t_eval, law_param > 0; seed >= 0; rank >= 1; x_points
in [1, 2^16]; n_paths in [1, 10^6]; n_steps in [1, 2^20]; for simulate,
time_step dividing t_eval into a step count in [1, 2^20] (converge steps
n_steps and reads no time_step); k in [0, 2047]; k_list strictly ascending,
entries in [1, 2047] for converge and [1, 511] for truncation-rate; in a
curve spec n_points in [2, 2^20 + 1], x_max and period > 0, a curve file's
grid uniform from x = 0 and increasing, each of its rows (a blank line
included) holding exactly the three cells x,f,fprime, its f column within
1e-6 max(1, max|f|) of f(0) plus the integral of fprime, and every curve
real and finite, its cubic spline included.
For basis-check, lambda * horizon must be at least about 3.15e-3, so that
the dual Gram's tail falls below 1e-9 within 2^12 periods (`_gram_periods`).
For converge --markovian, f0's grid must split [0, horizon] into an even
number of intervals, at least 2 max(k_list) + 1 of them.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .basis import (BasisParams, eval_g_n, eval_g_n_deriv,
                    frame_lower_constant, frame_upper_constant,
                    projector_norm_bound, shift_norm_bound)
from .dynamics import (LevyDriver, ModelSpec, _euler_intervals, _window_weights,
                       convergence_experiment, simulate_fk_state)
from .errors import (ConfigError, DomainTooShort, FwdApproxError, NonFinite,
                     NotSmoothEnough, UnstableStep)
from .markovian import (contract_audit, make_field,
                        markovian_convergence_experiment)
from .projection import (COEFF_POINTS, CoeffState, coefficients_fft,
                         commutator_apply, compute_C1, norm_alpha_span,
                         power_iteration_pi_norm)
from .space import Curve, dual_gram_matrix, read_curve_csv
from . import testcurves

__all__ = ["main"]


# -- config loading ----------------------------------------------------------

_REQUIRED = object()
_K_MAX = (COEFF_POINTS - 2) // 2     # 2k + 1 modes fit the grid projections request
# size limits: a larger run would exhaust memory or never finish
_MAX_PATHS = 10**6
_MAX_STEPS = 2**20
_MAX_X_POINTS = 2**16
_MAX_CURVE_POINTS = 2**20 + 1
# numeric arguments of a curve spec with a bound; every other one is a finite float
_CURVE_BOUNDS = {"n_points": (int, 2, _MAX_CURVE_POINTS), "x_max": (float, 0.0),
                 "period": (float, 0.0)}


def _read(cfg: dict, key: str, kind=float, lo=-np.inf, hi=np.inf, default=_REQUIRED):
    """Read ``cfg[key]`` as ``kind``: the one place a config value is converted.

    A missing key gives ``default`` and is an error without one; a key whose
    default is None may also be null.  An ``int`` or ``float`` must be a JSON
    number (not a boolean or a string); an ``int`` must be integral and lie in
    ``[lo, hi]``; a ``float`` must be finite and exceed ``lo``; any other kind
    is only type-checked.  Every failure is a ConfigError naming the key.
    """
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"missing config key {key!r}")
        return default
    v = cfg[key]
    if v is None and default is None:
        return v
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    try:
        x = v if kind not in (int, float) else kind(v) if number else None
    except (ValueError, OverflowError):
        x = None
    if kind is int:
        ok = x is not None and lo <= x <= hi and not (isinstance(v, float) and x != v)
        want = f"an integer in [{lo}, {hi}]"
    elif kind is float:
        ok = x is not None and np.isfinite(x) and x > lo
        want = "a finite number" + (f" > {lo}" if lo > -np.inf else "")
    else:
        ok, want = isinstance(v, kind), f"of type {kind.__name__}"
    if not ok:
        raise ConfigError(f"config key {key!r} must be {want}, got {v!r}")
    return x


def load_params(cfg: dict) -> BasisParams:
    p = _read(cfg, "params", dict)
    return BasisParams(alpha=_read(p, "alpha", lo=0.0), lam=_read(p, "lambda", lo=0.0),
                       horizon=_read(p, "horizon", lo=0.0))


def load_curve(spec, base_dir: Path) -> Curve:
    curve = _read_curve(spec, base_dir)
    if curve.deriv_samples.imag.any() or complex(curve.value_at_zero).imag != 0.0:
        raise ConfigError(f"curve {spec!r} has an imaginary part: forward curves are real")
    # finite samples can be steep and large enough that the spline's segments
    # (divided twice by the grid step) overflow, and every value read through
    # it would be nan; the spline is memoised on the curve for later reads
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(curve._spline().c).all()
    if not finite:
        raise ConfigError(f"curve {spec!r} overflows its cubic spline")
    return curve


def _read_curve(spec, base_dir: Path) -> Curve:
    if isinstance(spec, str):
        path = base_dir / spec
        if not path.is_file():
            raise ConfigError(f"curve file {path} does not exist")
        try:
            return read_curve_csv(str(path))
        except ValueError as e:
            raise ConfigError(f"bad curve file {path}: {e}") from e
    if not isinstance(spec, dict):
        raise ConfigError("curve spec must be a file path or an object")
    kind = _read(spec, "kind", str)
    kw = {key: _read(spec, key, *_CURVE_BOUNDS.get(key, (float,)))
          for key in spec if key != "kind"}
    factory = {"bump": testcurves.smooth_bump, "exp": testcurves.exp_loading,
               "seasonal": testcurves.seasonal_curve, "flat": testcurves.flat_curve}
    if kind not in factory:
        raise ConfigError(f"unknown curve kind {kind!r}")
    try:
        # an overflow gives non-finite values, which `Curve` rejects, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return factory[kind](**kw)
    except TypeError as e:
        raise ConfigError(f"bad arguments for curve kind {kind!r}: {e}") from e
    except ValueError as e:
        raise ConfigError(f"curve kind {kind!r} with {kw}: {e}") from e


def load_driver(cfg: dict, base_dir: Path, seed: int) -> LevyDriver:
    d = _read(cfg, "driver", dict)
    loadings = [load_curve(s, base_dir) for s in _read(d, "loadings", list)]
    try:
        return LevyDriver(rank=_read(d, "rank", int, 1), loadings=loadings,
                          increment_law=_read(d, "law", str, default="gaussian"),
                          law_param=_read(d, "law_param", lo=0.0, default=None),
                          seed=seed)
    except ValueError as e:
        raise ConfigError(f"bad driver spec: {e}") from e


def load_model(cfg: dict, base_dir: Path, params: BasisParams) -> ModelSpec:
    f0 = load_curve(_read(cfg, "f0", object), base_dir)
    beta_spec = cfg.get("beta")
    beta = None
    if beta_spec is not None:
        beta_curve = load_curve(beta_spec, base_dir)
        beta = lambda t: beta_curve
    return ModelSpec(f0=f0, params=params, beta=beta)


def load_k_list(cfg: dict, default, hi: int) -> list[int]:
    ks = [_read({"k_list": k}, "k_list", int, 1, hi)
          for k in _read(cfg, "k_list", list, default=default)]
    if not ks or any(a >= b for a, b in zip(ks, ks[1:])):
        raise ConfigError("k_list must be a non-empty, strictly ascending list")
    return ks


def load_times(cfg: dict) -> tuple[float, int]:
    dt, t_eval = _read(cfg, "time_step", lo=0.0), _read(cfg, "t_eval", lo=0.0)
    n = t_eval / dt
    if not n < _MAX_STEPS + 0.5:
        raise ConfigError(f"t_eval / time_step must be at most {_MAX_STEPS}, "
                          f"got {n:.6g}")
    if not (round(n) >= 1 and abs(n - round(n)) <= 1e-9):
        raise ConfigError("time_step must divide t_eval")
    return t_eval, round(n)


def load_windows(cfg: dict, params: BasisParams) -> list[tuple[float, float]]:
    windows = []
    for w in _read(cfg, "windows", list, default=[]):
        if not (isinstance(w, list) and len(w) == 2):
            raise ConfigError("each delivery window must be a [T1, T2] pair")
        T1, T2 = (_read({"windows": T}, "windows") for T in w)
        if not 0.0 <= T1 < T2 <= params.horizon:
            raise ConfigError(f"delivery window {w} must satisfy "
                              f"0 <= T1 < T2 <= {params.horizon}")
        windows.append((T1, T2))
    return windows


# -- output helpers ----------------------------------------------------------

def _make_out_dir(out: Path) -> None:
    """Create the output directory; a path that cannot be one is a config error."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot use {out} as the output directory: {e}") from e


def _unwritable(path: Path, e: OSError) -> ConfigError:
    """An output path that cannot be written, such as a directory, is a config error."""
    return ConfigError(f"cannot write {path}: {e}")


def write_csv(path: Path, header: list[str], lines: list[str]) -> None:
    """Write ``header`` and data ``lines``, each joined by "," and ended by "\\n"."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(lines)
    except OSError as e:
        raise _unwritable(path, e) from e


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` (`_unwritable` if it cannot be)."""
    try:
        path.write_text(text)
    except OSError as e:
        raise _unwritable(path, e) from e


def write_loglog_svg(path: Path, xs, ys_by_label: dict, title: str) -> None:
    """Minimal log-log polyline plot; advisory output only."""
    W, H, pad = 640, 480, 60
    all_y = np.concatenate([np.asarray(v, dtype=float) for v in ys_by_label.values()])
    all_y = all_y[(all_y > 0) & (all_y < np.inf)]
    if all_y.size == 0:
        _write_text(path, f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
                          f'height="{H}"><text x="20" y="40">no positive data'
                          '</text></svg>\n')
        return
    lx = np.log10(np.asarray(xs, dtype=float))
    ly0, ly1 = np.floor(np.log10(all_y.min())), np.ceil(np.log10(all_y.max()))
    lx0, lx1 = lx.min(), lx.max()
    if lx1 == lx0:
        lx1 = lx0 + 1.0
    if ly1 == ly0:
        ly1 = ly0 + 1.0

    def px(v):
        return pad + (v - lx0) / (lx1 - lx0) * (W - 2 * pad)

    def py(v):
        return H - pad - (v - ly0) / (ly1 - ly0) * (H - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<text x="{W/2:.0f}" y="24" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>',
             f'<rect x="{pad}" y="{pad}" width="{W-2*pad}" height="{H-2*pad}" '
             'fill="none" stroke="#888"/>']
    for d in np.arange(ly0, ly1 + 0.5):
        parts.append(f'<text x="{pad-8}" y="{py(d):.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">1e{int(d)}</text>')
    for i, (label, ys) in enumerate(ys_by_label.items()):
        ys = np.asarray(ys, dtype=float)
        pts = " ".join(f"{px(a):.1f},{py(np.log10(b)):.1f}"
                       for a, b in zip(lx, ys) if 0 < b < np.inf)
        col = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{col}" '
                     'stroke-width="2"/>')
        parts.append(f'<text x="{W-pad+4}" y="{pad+16*(i+1)}" fill="{col}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def loglog_slope(ks, errs) -> float:
    ks = np.asarray(ks, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > 0
    if keep.sum() < 2:
        return 0.0
    return float(np.polyfit(np.log(ks[keep]), np.log(errs[keep]), 1)[0])


# -- subcommands -------------------------------------------------------------

def cmd_basis_check(cfg: dict, base_dir: Path, out: Path) -> int:
    params = load_params(cfg)
    seed = _read(cfg, "seed", int, 0, default=0)
    k = _read(cfg, "k", int, 0, _K_MAX, default=8)
    checks = []

    try:  # refuses a tail beyond its period cap before any quadrature
        gram = dual_gram_matrix(params, min(k, 8) if k > 0 else 0)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    checks.append(("biorthogonality_max_dev", dev, 1e-6, dev <= 1e-6))

    # frame bounds on random span elements
    rng = np.random.default_rng(seed)
    k_frame = max(k, 1)
    pf = BasisParams(params.alpha, params.lam, params.horizon, k_frame)
    # the g_* coordinate enters with constant 1, so the span's lower bound is
    # min(1, lo); hi = 1 / (1 - e^{-2 lam T}) is at least 1 already
    lo, hi = min(1.0, frame_lower_constant(params)), frame_upper_constant(params)
    worst_lo, worst_hi = np.inf, 0.0
    for _ in range(20):
        c = rng.normal(size=2 * k_frame + 1) + 1j * rng.normal(size=2 * k_frame + 1)
        s = CoeffState(complex(rng.normal()), c, pf)
        nsq = norm_alpha_span(s) ** 2
        csq = abs(s.c_star) ** 2 + float(np.sum(np.abs(c) ** 2))
        worst_lo = min(worst_lo, nsq / csq)
        worst_hi = max(worst_hi, nsq / csq)
    checks.append(("frame_lower", worst_lo, lo * 0.98, worst_lo >= lo * 0.98))
    checks.append(("frame_upper", worst_hi, hi * 1.02, worst_hi <= hi * 1.02))

    est = power_iteration_pi_norm(params)
    bound = projector_norm_bound(params)
    rel = abs(est - bound) / bound
    checks.append(("projector_norm_rel_err", rel, 0.01, rel <= 0.01))
    checks.append(("shift_norm_bound", shift_norm_bound(params), np.inf, True))

    # commutator identity: series evaluation vs closed form g_n(t) 1_{|n|>k}
    t_grid = np.linspace(0.0, params.horizon, 5)
    x = np.linspace(0.0, params.horizon, 2**12 + 1)
    worst = 0.0
    k_c = max(k, 2)
    for n in (-2 * k_c, -k_c // 2, 0, k_c // 2, 2 * k_c):
        d = eval_g_n_deriv(params, n, x)
        h = Curve(0.0, d, params.horizon)
        expected = eval_g_n(params, n, t_grid) if abs(n) > k_c else 0.0
        got = commutator_apply(h, k_c, t_grid, params)
        worst = max(worst, float(np.max(np.abs(got - expected))))
    checks.append(("commutator_identity_max_dev", worst, 1e-10, worst <= 1e-10))

    _make_out_dir(out)
    write_csv(out / "basis_check.csv", ["check", "value", "threshold", "pass"],
              [f"{n},{float(v)!r},{float(th)!r},{str(bool(ok)).lower()}\n"
               for n, v, th, ok in checks])
    ok_all = all(ok for _, _, _, ok in checks)
    for name, v, th, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {v:.3e} (threshold {th:.3e})")
    return 0 if ok_all else 1


def cmd_truncation_rate(cfg: dict, base_dir: Path, out: Path) -> int:
    params = load_params(cfg)
    f0 = load_curve(_read(cfg, "f0", object), base_dir)
    n_big = 512
    ks = load_k_list(cfg, [4, 8, 16, 32, 64, 128], n_big - 1)
    C1 = compute_C1(f0, params)
    big = coefficients_fft(f0, n_big, params, n_points=2**15 + 1)
    pb = BasisParams(params.alpha, params.lam, params.horizon, n_big)
    ns = pb.n_range()
    rows, errs = [], []
    ok_all = True
    for k in ks:
        resid = CoeffState(0.0, np.where(np.abs(ns) > k, big.c, 0.0), pb)
        err = norm_alpha_span(resid) ** 2
        errs.append(err)
        ok_all &= err <= C1 / k
        rows.append(f"{k},{float(err)!r},{float(C1 / k)!r}\n")
    _make_out_dir(out)
    write_csv(out / "truncation_rate.csv", ["k", "error_sq", "C1_over_k"], rows)
    write_loglog_svg(out / "truncation_rate.svg", ks,
                     {"error_sq": errs, "C1_over_k": [C1 / k for k in ks]},
                     "projection error vs truncation level")
    slope = loglog_slope(ks, errs)
    print(f"slope {slope:.3f}; bound {'holds' if ok_all else 'VIOLATED'} at all k")
    return 0 if ok_all else 1


def cmd_simulate(cfg: dict, base_dir: Path, out: Path) -> int:
    params = load_params(cfg)
    seed = _read(cfg, "seed", int, 0, default=0)
    model = load_model(cfg, base_dir, params)
    driver = load_driver(cfg, base_dir, seed)
    t_eval, n_steps = load_times(cfg)
    n_paths = _read(cfg, "n_paths", int, 1, _MAX_PATHS, default=1)
    k = _read(cfg, "k", int, 0, _K_MAX, default=8)
    times = np.linspace(0.0, t_eval, n_steps + 1)
    n_x = _read(cfg, "x_points", int, 1, _MAX_X_POINTS, default=33)
    x = np.linspace(0.0, params.horizon, n_x)
    windows = load_windows(cfg, params)

    _make_out_dir(out)
    G = eval_g_n(params, params.n_range(k), x)
    pk = BasisParams(params.alpha, params.lam, params.horizon, k)
    # shared by every path: the cells, and each window's weights at its times
    # t <= T1 (a prefix)
    t_cells = list(map(repr, times.tolist()))
    x_cells = list(map(repr, x.tolist()))
    weights = {f"{wi},{T1!r},{T2!r}": np.stack([_window_weights(pk, t, T1, T2)
                                                  for t in times[times <= T1].tolist()])
                 for wi, (T1, T2) in enumerate(windows)}
    scen, fwd, slices = [], [], []
    for pid in range(n_paths):
        path = simulate_fk_state(model, driver, times, k, path_id=pid)
        S, U = path.S_k, path.U
        # `delivery_forward` of each state, bit for bit
        Fs = [(cell, (S[:len(W)] + np.sum(W * U[:len(W)], axis=-1)).real.tolist())
              for cell, W in weights.items()]
        for j, t_cell in enumerate(t_cells):
            head = f"{pid},{t_cell},"
            scen.extend([f"{head}{x_cell},{v!r}\n"
                         for x_cell, v in zip(x_cells, (S[j] + U[j] @ G).real.tolist())])
            fwd.extend([f"{head}{cell},{F[j]!r}\n" for cell, F in Fs if j < len(F)])
        if pid == 0:
            slices = [path.state(j)._as_dict() for j in range(times.size)]
    write_csv(out / "scenarios.csv", ["path_id", "t", "x", "f"], scen)
    if windows:
        write_csv(out / "forwards.csv",
                  ["path_id", "t", "window", "T1", "T2", "F"], fwd)
    _write_text(out / "coefficients_path0.json",
                json.dumps({"times": list(map(float, times)), "states": slices}, indent=1)
                + "\n")
    print(f"wrote {n_paths} paths x {times.size} times to {out}")
    return 0


def cmd_converge(cfg: dict, base_dir: Path, out: Path, markovian: bool) -> int:
    params = load_params(cfg)
    seed = _read(cfg, "seed", int, 0, default=0)
    model = load_model(cfg, base_dir, params)
    driver = load_driver(cfg, base_dir, seed)
    n_paths = _read(cfg, "n_paths", int, 1, _MAX_PATHS, default=1)
    ks = load_k_list(cfg, [4, 8, 16, 32, 64], _K_MAX)
    n_steps = _read(cfg, "n_steps", int, 1, _MAX_STEPS,
                    default=32 if markovian else 64)
    _make_out_dir(out)
    if markovian:
        m = _read(cfg, "markovian", dict, default={})
        name = _read(m, "field", str, default="constant")
        kw = {key: _read(m, key) for key in ("kappa", "sigma0") if key in m}
        if "theta" in m:
            kw["theta"] = load_curve(m["theta"], base_dir)
        try:
            field = make_field(name, driver, params, **kw)
            _euler_intervals(model.f0, max(ks), params)
        except (ValueError, KeyError) as e:
            raise ConfigError(f"bad --markovian setup: {e}") from e
        audit = contract_audit(field, params, n_pairs=50, seed=seed)
        if audit["structure_leak"] > 0.0 or any(audit[r] > 1.0 for r in (
                "lipschitz_b_ratio", "lipschitz_psi_ratio", "growth_ratio")):
            print(f"contract audit failed: {audit}")
            return 1
        rows = markovian_convergence_experiment(
            field, model, driver, ks, n_paths, n_steps=n_steps)
    else:
        t_eval = _read(cfg, "t_eval", lo=0.0)
        rows = convergence_experiment(model, driver, t_eval, ks, n_paths,
                                      n_steps=n_steps)
    errs = [r["mc_error"] for r in rows]
    if not np.isfinite(errs).all():
        raise NonFinite(f"mc_error {errs} over k={ks} is not finite: the model overflowed")
    write_csv(out / "converge.csv", ["k", "mc_error", "stderr", "bound", "n_paths", "seed"],
              [f"{r['k']},{r['mc_error']!r},{r['stderr']!r},"
               f"{'' if markovian else repr(r['bound_A_over_k'])},{r['n_paths']},{r['seed']}\n"
               for r in rows])
    curves = {"mc_error": errs}
    if not markovian:
        curves["bound"] = [r["bound_A_over_k"] for r in rows]
    write_loglog_svg(out / "converge.svg", ks, curves, "MC sup-error vs truncation level")
    print(f"slope {loglog_slope(ks, errs):.3f} over k={ks}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="fwdapprox",
                                 description="forward-curve approximation harness")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("basis-check", "truncation-rate", "simulate", "converge"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        if name == "converge":
            sp.add_argument("--markovian", action="store_true")
    args = ap.parse_args(argv)

    try:
        cfg_path = Path(args.config)
        try:
            cfg = json.loads(cfg_path.read_text())
        except FileNotFoundError as e:
            raise ConfigError(f"config file {cfg_path} not found") from e
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config file {cfg_path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        base_dir = cfg_path.parent
        out = Path(args.out)
        if args.command == "basis-check":
            return cmd_basis_check(cfg, base_dir, out)
        if args.command == "truncation-rate":
            return cmd_truncation_rate(cfg, base_dir, out)
        if args.command == "simulate":
            return cmd_simulate(cfg, base_dir, out)
        return cmd_converge(cfg, base_dir, out, args.markovian)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("config error: out of memory; lower n_steps (or t_eval / time_step), n_paths, "
              "x_points or a curve's n_points", file=sys.stderr)
        return 2
    except (UnstableStep, DomainTooShort, NotSmoothEnough, NonFinite) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except FwdApproxError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
