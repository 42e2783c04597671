"""Acceptance gate: one test per normative criterion, pinned tolerances.

Each test prints a single PASS/FAIL line with the measured quantity before
asserting, so a red run still reports every number.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from fwdapprox.basis import (
    BasisParams,
    eval_g_n,
    eval_g_n_deriv,
    frame_lower_constant,
    frame_upper_constant,
    lambda_n,
    projector_norm_bound,
    shift_norm_bound,
)
from fwdapprox.cli import loglog_slope
from fwdapprox.dynamics import (
    LevyDriver,
    ModelSpec,
    convergence_experiment,
    delivery_forward,
    euler_coefficient_system,
    system_matrix,
)
from fwdapprox.markovian import (
    contract_audit,
    make_field,
    markovian_convergence_experiment,
    oracle_markovian,
    picard_operator_V,
)
from fwdapprox.projection import (
    CoeffState,
    c_kt_norm_sq,
    coefficients_fft,
    commutator_apply,
    compute_C1,
    compute_C2,
    norm_alpha_span,
    power_iteration_pi_norm,
    reconstruct,
)
from fwdapprox.semigroup import shift_coeffs
from fwdapprox.space import Curve, _simpson_weights, dual_gram_matrix, norm_alpha, read_curve_csv
from fwdapprox.testcurves import exp_loading, flat_curve, smooth_bump

P = BasisParams(alpha=1.0, lam=0.5, horizon=1.0)
DATA = Path(__file__).resolve().parent.parent / "data"


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def random_state(k: int, seed: int, real: bool = True) -> CoeffState:
    rng = np.random.default_rng(seed)
    c = rng.normal(size=2 * k + 1) + 1j * rng.normal(size=2 * k + 1)
    if real:
        c = 0.5 * (c + np.conj(c[::-1]))
    return CoeffState(complex(rng.normal()), c, P)


def standard_driver(scale=0.1, seed=77):
    loads = [exp_loading(scale, r) for r in (0.5, 1.0, 2.0)]
    return LevyDriver(rank=3, loadings=loads, seed=seed)


def test_01_biorthogonality_gram_identity():
    t0 = time.perf_counter()
    gram = dual_gram_matrix(P, 8)
    dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    dt = time.perf_counter() - t0
    report(1, "biorthogonality", dev <= 1e-6 and dt < 5.0,
           f"max gram deviation {dev:.3e} <= 1e-06, {dt:.1f}s < 5s")


def test_02_frame_bounds_two_sided():
    t0 = time.perf_counter()
    k = 32
    lo, hi = frame_lower_constant(P), frame_upper_constant(P)
    worst_lo, worst_hi = np.inf, 0.0
    for seed in range(100):
        s = random_state(k, seed, real=False)
        nsq = norm_alpha_span(s) ** 2
        csq = abs(s.c_star) ** 2 + float(np.sum(np.abs(s.c) ** 2))
        worst_lo = min(worst_lo, nsq / csq)
        worst_hi = max(worst_hi, nsq / csq)
    dt = time.perf_counter() - t0
    ok = worst_lo >= lo * 0.98 and worst_hi <= hi * 1.02 and dt < 30.0
    report(2, "frame bounds", ok,
           f"ratios in [{worst_lo:.4f}, {worst_hi:.4f}] vs "
           f"[{lo:.4f}, {hi:.4f}] with 2% slack, {dt:.1f}s < 30s")


def test_03_operator_norms():
    est = power_iteration_pi_norm(P)
    bound = projector_norm_bound(P)
    rel = abs(est - bound) / bound
    shift_bound = shift_norm_bound(P)
    worst = 0.0
    for seed in range(30):
        s = random_state(16, seed, real=False)
        base = norm_alpha_span(s)
        for t in (0.1, 0.5, 1.0):
            worst = max(worst, norm_alpha_span(shift_coeffs(s, t)) / base)
    ok = rel <= 0.01 and worst <= shift_bound * 1.01
    report(3, "operator norms", ok,
           f"projector rel err {rel:.2e} <= 1%, observed shift norm "
           f"{worst:.4f} <= {shift_bound:.4f} + 1%")


def test_04_commutator_identity():
    n_big = 512
    ms = P.n_range(n_big)
    t_grid = np.linspace(0.0, P.horizon, 32)
    G = eval_g_n(P, ms, t_grid)                       # (2*n_big+1, 32)
    n_pts = 2**14 + 1
    x = np.linspace(0.0, P.horizon, n_pts)
    worst = 0.0
    for n in range(-64, 65):
        h = Curve(0.0, eval_g_n_deriv(P, n, x), P.horizon)
        c = coefficients_fft(h, n_big, P, n_points=n_pts).c
        for k in (4, 16):
            mask = np.abs(ms) > k
            series = c[mask] @ G[mask]                # defect scalar per t
            expected = G[ms == n][0] if abs(n) > k else np.zeros_like(t_grid)
            worst = max(worst, float(np.max(np.abs(series - expected))))
    # spot check that the dedicated series routine agrees
    h9 = Curve(0.0, eval_g_n_deriv(P, 9, x), P.horizon)
    direct = commutator_apply(h9, 4, 0.37, P)
    assert abs(direct - complex(eval_g_n(P, 9, 0.37))) < 1e-10
    report(4, "commutator identity", worst <= 1e-10,
           f"max defect norm {worst:.3e} <= 1e-10 over n in [-64,64], "
           "32 times, k in {4,16}")


def test_05_truncation_rate_bound_and_slope():
    t0 = time.perf_counter()
    f = read_curve_csv(str(DATA / "bump_curve.csv"))
    C1 = compute_C1(f, P)
    n_big = 512
    big = coefficients_fft(f, n_big, P, n_points=2**15 + 1)
    ns = P.n_range(n_big)
    ks = [4, 8, 16, 32, 64, 128]
    errs, bound_ok = [], True
    for k in ks:
        resid = CoeffState(0.0, np.where(np.abs(ns) > k, big.c, 0.0), P)
        err = norm_alpha_span(resid) ** 2
        errs.append(err)
        bound_ok &= err <= C1 / k
    slope = loglog_slope(ks, errs)
    dt = time.perf_counter() - t0
    ok = bound_ok and slope <= -0.9 and dt < 60.0
    report(5, "truncation rate", ok,
           f"err^2 <= C1/k at all k (C1={C1:.3f}), slope {slope:.2f} <= -0.9, "
           f"{dt:.1f}s < 60s")


def test_06_commutator_kernel_norm_bound():
    C2 = compute_C2(P)
    worst = 0.0
    ok = True
    for k in (8, 16, 32, 64):
        for t in (0.0, 0.5 * P.horizon, P.horizon):
            ce = c_kt_norm_sq(P, k, t)
            ok &= ce.norm_sq_bound <= C2 / k
            worst = max(worst, ce.norm_sq_bound * k / C2)
    report(6, "kernel norm bound", ok,
           f"certified ||c_kt||^2 <= C2/k, worst ratio {worst:.3f} <= 1, "
           f"C2={C2:.6f}")


def test_07_semigroup_exactness():
    s = random_state(32, seed=12)
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 9):
        shifted = shift_coeffs(s, float(t))
        x = np.linspace(0.0, 1.0, 257)
        worst = max(worst, float(np.max(np.abs(
            reconstruct(shifted, x) - reconstruct(s, x + t)))))
    report(7, "semigroup exactness", worst <= 1e-8,
           f"sup reconstruction defect {worst:.3e} <= 1e-08 at k=32")


def test_08_mc_convergence_rate():
    t0 = time.perf_counter()
    spec = ModelSpec(f0=smooth_bump(), params=P)
    driver = standard_driver()
    ks = [4, 8, 16, 32, 64]
    rows = convergence_experiment(spec, driver, 0.5, ks, 10000)
    errs = [r["mc_error"] for r in rows]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    dominated = all(r["mc_error"] <= r["bound_A_over_k"] for r in rows)
    slope = loglog_slope(ks, errs)
    dt = time.perf_counter() - t0
    ok = decreasing and dominated and slope <= -0.8 and dt < 300.0
    report(8, "MC convergence", ok,
           f"errors decreasing={decreasing}, A/k bound holds={dominated}, "
           f"slope {slope:.2f} <= -0.8, 1e4 paths CRN, {dt:.0f}s < 300s")


def test_09_delivery_forwards_match_quadrature():
    rng = np.random.default_rng(21)
    s = random_state(8, seed=5)
    worst = 0.0
    for _ in range(20):
        T1, T2 = np.sort(rng.uniform(0.05, P.horizon, size=2))
        if T2 - T1 < 1e-3:
            T2 = min(P.horizon, T1 + 1e-3)
        t = rng.uniform(0.0, T1)
        F = delivery_forward(s, float(t), float(T1), float(T2))
        m = 4001
        xs = np.linspace(T1 - t, T2 - t, m)
        w = _simpson_weights(m, (T2 - T1) / (m - 1))
        Fq = np.sum(w * reconstruct(s, xs)) / (T2 - T1)
        worst = max(worst, abs(F - Fq))
    report(9, "delivery forwards", worst <= 1e-8,
           f"max closed-form vs quadrature gap {worst:.3e} <= 1e-08, "
           "20 random windows")


def test_10_driftless_fixed_maturity_martingale():
    k, d, t_end, n_steps, n_paths = 8, 3, 0.5, 64, 10000
    maturity = 0.75
    driver = standard_driver(seed=13)
    spec = ModelSpec(f0=smooth_bump(), params=P)
    init = coefficients_fft(spec.f0, k, P)
    loads = [coefficients_fft(c, k, P) for c in driver.loadings]
    load_c = np.stack([s.c for s in loads])
    load_star = np.array([s.c_star for s in loads])
    ns = P.n_range(k)
    lam = lambda_n(P, ns)
    dt = t_end / n_steps
    g_dt = eval_g_n(P, ns, np.array([dt]))[:, 0]
    rng = np.random.default_rng(314)
    decay = np.exp(lam * dt)

    U = np.tile(init.c, (n_paths, 1))
    cs = np.full(n_paths, init.c_star, dtype=complex)
    for j in range(n_steps):
        dL = rng.normal(size=(n_paths, d)) * np.sqrt(dt)
        V = U + dL @ load_c
        cs = cs + dL @ load_star + V @ g_dt
        U = decay * V
    F0 = init.c_star + init.c @ eval_g_n(P, ns, np.array([maturity]))[:, 0]
    g_rem = eval_g_n(P, ns, np.array([maturity - t_end]))[:, 0]
    inc = np.real(cs + U @ g_rem - F0)
    se = float(inc.std() / np.sqrt(n_paths))
    m = float(np.abs(inc.mean()))
    report(10, "driftless martingale", m <= 3.0 * se,
           f"|mean increment| {m:.3e} <= 3 x stderr {se:.3e}, 1e4 paths")


def test_11_markovian_suite():
    t0 = time.perf_counter()
    driver = standard_driver(scale=0.05, seed=7)
    spec = ModelSpec(f0=smooth_bump(), params=P)
    field = make_field("mean_revert", driver, P, kappa=0.5,
                       theta=flat_curve(1.2))
    audit = contract_audit(field, P, n_pairs=60, seed=2)
    audit_ok = (audit["lipschitz_b_ratio"] <= 1.0
                and audit["lipschitz_psi_ratio"] <= 1.0
                and audit["growth_ratio"] <= 1.0
                and audit["structure_leak"] == 0.0)

    L = 32
    times = np.linspace(0.0, 1.0, L + 1)
    noise = driver.increments(driver.path_rng(0), times[1], L)
    from fwdapprox.semigroup import shift_curve
    h = [shift_curve(spec.f0, float(t), spec.f0.x_max - float(t))
         for t in times]
    prev = None
    residuals = []
    for _ in range(6):
        nxt = picard_operator_V(h, field, spec, driver, times, noise)
        if prev is not None:
            residuals.append(max(norm_alpha(a - b, P.alpha)
                                 for a, b in zip(nxt, prev)))
        prev, h = h, nxt
    ratios = np.array(residuals[2:]) / np.array(residuals[1:-1])
    picard_ok = bool(np.all(ratios <= 0.6)) and residuals[-1] < residuals[0]

    rows = markovian_convergence_experiment(field, spec, driver, [2, 4, 8], 12,
                                            n_steps=2048, n_x=128)
    errs = [r["mc_error"] for r in rows]
    decreasing = errs[0] > errs[1] > errs[2]
    dt = time.perf_counter() - t0
    ok = audit_ok and picard_ok and decreasing and dt < 600.0
    report(11, "Markovian suite", ok,
           f"audit={audit_ok}, Picard ratios<=0.6 after burn-in "
           f"(max {float(np.max(ratios)):.2f}), sup-error decreasing "
           f"{[f'{e:.2e}' for e in errs]}, {dt:.0f}s < 600s")


def test_12_euler_strong_order_one():
    from scipy import linalg

    spec = ModelSpec(f0=smooth_bump(), params=P)
    driver = standard_driver()
    k, t_end = 2, 0.25
    init = coefficients_fft(spec.f0, k, P)
    x0 = np.concatenate(([init.c_star], init.c))
    exact = linalg.expm(system_matrix(P, k) * t_end) @ x0
    steps = [64, 128, 256, 512, 1024]
    errs = []
    for L in steps:
        path = euler_coefficient_system(spec, driver,
                                        np.linspace(0.0, t_end, L + 1), k,
                                        noise=np.zeros((L, 3)))
        s = path.state(-1)
        errs.append(float(np.max(np.abs(
            np.concatenate(([s.c_star], s.c)) - exact))))
    slope = float(np.polyfit(np.log([t_end / L for L in steps]),
                             np.log(errs), 1)[0])
    report(12, "Euler strong order", 0.8 <= slope <= 1.2,
           f"observed order {slope:.3f} in [0.8, 1.2] at zero noise")
