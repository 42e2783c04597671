"""Simulate truncated forward-curve dynamics and price delivery windows.

Builds a three-factor driver, runs the exact state-variable scheme for the
2k+2 coefficient system (its trajectory: the spot S_k and the factors U at
every time), and prices average-delivery forwards with the closed-form window
weights.

Run:  python demos/simulate_and_price.py
"""
import numpy as np

from fwdapprox import (
    BasisParams,
    LevyDriver,
    ModelSpec,
    delivery_forward,
    exp_loading,
    reconstruct,
    simulate_fk_state,
    smooth_bump,
)

params = BasisParams(alpha=1.0, lam=0.5, horizon=1.0)
driver = LevyDriver(rank=3,
                    loadings=[exp_loading(0.1, 0.5), exp_loading(0.1, 1.0),
                              exp_loading(0.05, 2.0)],
                    seed=42)
spec = ModelSpec(f0=smooth_bump(), params=params)

k = 8
times = np.linspace(0.0, 0.5, 65)
sv = simulate_fk_state(spec, driver, times, k, path_id=0)

print("== spot trajectory (the constant coefficient) ==")
for j in range(0, times.size, 16):
    print(f"t={times[j]:.3f}  spot={sv.S_k[j].real:+.5f}")
print()

# the spot always equals the curve evaluated at zero time to maturity
s_end = sv.state(-1)
print(f"invariant check: |spot - f_k(t, 0)| = "
      f"{abs(sv.S_k[-1] - complex(reconstruct(s_end, 0.0))):.2e}")
print()

print("== curve snapshots ==")
x = np.linspace(0.0, 1.0, 6)
for j in (0, 32, 64):
    vals = np.real(reconstruct(sv.state(j), x))
    print(f"t={times[j]:.3f}  f(t, x): " + "  ".join(f"{v:+.4f}" for v in vals))
print()

# average-delivery forwards over two settlement windows, repriced as the
# state evolves; each price is a linear functional of the coefficients
windows = [(0.6, 0.9), (0.55, 0.75)]
print("== delivery-window forwards ==")
for T1, T2 in windows:
    print(f"window [{T1}, {T2}]:")
    for j in (0, 32, 64):
        t = times[j]
        if t <= T1:
            F = delivery_forward(sv.state(j), float(t), T1, T2)
            print(f"  t={t:.3f}  F(t, {T1}, {T2}) = {F.real:+.5f}")
print()

print("== factor magnitudes at the final time ==")
mags = np.abs(sv.U[-1])
ns = params.n_range(k)
for n, m in zip(ns, mags):
    bar = "#" * int(60 * m / mags.max())
    print(f"n={n:+3d}  |U_n|={m:.4f}  {bar}")
