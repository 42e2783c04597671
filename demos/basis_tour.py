"""Tour of the exponential basis and the truncation projector.

Walks through the objects the rest of the library is built on: the damped
complex exponentials g_n, their biorthogonal duals, coefficient extraction,
and the 1/k truncation rate on a smooth curve.

Run:  python demos/basis_tour.py
"""
import numpy as np

from fwdapprox import (
    BasisParams,
    CoeffState,
    coefficients_fft,
    compute_C1,
    dual_gram_matrix,
    eval_g_n,
    frame_lower_constant,
    frame_upper_constant,
    norm_alpha_span,
    smooth_bump,
)

params = BasisParams(alpha=1.0, lam=0.5, horizon=1.0)

print("== basis parameters ==")
print(f"alpha={params.alpha}  lambda={params.lam}  horizon T={params.horizon}")
print(f"mode decay rate lambda + alpha/2 = {params.decay}")
print()

# the dual family is biorthogonal to the basis: the Gram matrix is I
gram = dual_gram_matrix(params, 4)
print("== biorthogonality ==")
print(f"max |<g_m, g_n*> - delta_mn| for |m|,|n| <= 4: "
      f"{np.max(np.abs(gram - np.eye(gram.shape[0]))):.2e}")
print()

# expansions are stable: the norm of a span element is pinched between the
# frame constants times the coefficient norm
lo, hi = frame_lower_constant(params), frame_upper_constant(params)
rng = np.random.default_rng(0)
c = rng.normal(size=17) + 1j * rng.normal(size=17)
s = CoeffState(1.0 + 0j, c, params)
nsq = norm_alpha_span(s) ** 2
csq = abs(s.c_star) ** 2 + float(np.sum(np.abs(c) ** 2))
print("== frame bounds ==")
print(f"{lo:.4f} <= ||sum c_n g_n||^2 / ||c||^2 = {nsq / csq:.4f} <= {hi:.4f}")
print()

# coefficients of a smooth bump decay fast, and discarding modes beyond k
# loses at most C1/k of squared norm
f = smooth_bump()
C1 = compute_C1(f, params)
big = coefficients_fft(f, 256, params, n_points=2**14 + 1)
ns = params.n_range(big.k)
print("== truncation rate on the bump curve ==")
print(f"rate constant C1 = {C1:.4f}")
print(f"{'k':>4} {'residual^2':>12} {'C1/k':>10}")
for k in (4, 8, 16, 32, 64):
    resid = CoeffState(0.0, np.where(np.abs(ns) > k, big.c, 0.0), params)
    print(f"{k:>4} {norm_alpha_span(resid) ** 2:>12.3e} {C1 / k:>10.3e}")
print()

# the basis functions vanish at 0, so the constant element alone carries the
# spot value; g_n(t) reappears in the shift action and the commutator defect
print("== basis values at the origin ==")
print(f"g_n(0) for n in -2..2: "
      f"{np.abs(eval_g_n(params, params.n_range(2), np.array([0.0]))[:, 0])}")
