"""Empirical convergence of the truncated dynamics to the fine-grid solution.

Runs the common-random-numbers Monte Carlo study for the linear model and a
small state-dependent (mean-reverting) model, and prints the observed
error-vs-k tables with the theoretical A/k envelope where available.

Run:  python demos/convergence_study.py
"""
import numpy as np

from fwdapprox import (
    BasisParams,
    LevyDriver,
    ModelSpec,
    contract_audit,
    convergence_experiment,
    exp_loading,
    flat_curve,
    make_field,
    markovian_convergence_experiment,
    smooth_bump,
)
from fwdapprox.cli import loglog_slope

params = BasisParams(alpha=1.0, lam=0.5, horizon=1.0)
driver = LevyDriver(rank=3,
                    loadings=[exp_loading(0.1, 0.5), exp_loading(0.1, 1.0),
                              exp_loading(0.05, 2.0)],
                    seed=1234)
spec = ModelSpec(f0=smooth_bump(), params=params)

print("== linear model: E[sup_x |f_k - f|^2] at t = 0.5 ==")
ks = [4, 8, 16, 32, 64]
rows = convergence_experiment(spec, driver, 0.5, ks, 2000)
print(f"{'k':>4} {'mc_error':>12} {'stderr':>10} {'A/k bound':>12}")
for r in rows:
    print(f"{r['k']:>4} {r['mc_error']:>12.3e} {r['stderr']:>10.2e} "
          f"{r['bound_A_over_k']:>12.3e}")
errs = [r["mc_error"] for r in rows]
print(f"log-log slope vs k: {loglog_slope(ks, errs):.2f} "
      "(1/k theory predicts <= -1 up to MC noise)")
print()

print("== Markovian model: mean reversion towards a flat level ==")
mdriver = LevyDriver(rank=3,
                     loadings=[exp_loading(0.05, 0.5), exp_loading(0.05, 1.0),
                               exp_loading(0.025, 2.0)],
                     seed=7)
field = make_field("mean_revert", mdriver, params, kappa=0.5,
                   theta=flat_curve(1.2))
audit = contract_audit(field, params, n_pairs=40, seed=0)
print("contract audit (all ratios must be <= 1, leak must be 0):")
for key, val in audit.items():
    print(f"  {key}: {val:.3e}")

mrows = markovian_convergence_experiment(field, spec, mdriver, [2, 4, 8], 6,
                                         n_steps=2048, n_x=128)
print(f"{'k':>4} {'mc_error':>12} {'stderr':>10}")
for r in mrows:
    print(f"{r['k']:>4} {r['mc_error']:>12.3e} {r['stderr']:>10.2e}")
merrs = [r["mc_error"] for r in mrows]
print(f"log-log slope vs k: {loglog_slope([2, 4, 8], merrs):.2f}")
