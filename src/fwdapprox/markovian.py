"""State-dependent (Markovian) coefficients and their truncated dynamics.

A coefficient field supplies drift b(t, f) and noise-operator columns
psi_i(t, f) together with declared Lipschitz constants.  The structure
condition (coefficients may read the curve only on [0, T - t]) is enforced
mechanically: every field evaluation receives the input curve with its
derivative zeroed beyond T - t, so dependence on the tail is impossible by
construction and audits can verify it by perturbation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .basis import (BasisParams, eval_g_n_deriv, frame_lower_constant,
                    frame_upper_constant, projector_norm_bound)
from .dynamics import (LevyDriver, ModelSpec, SimPath, _curve_recursion,
                       _increment, _noise_for, _stable_euler_matrix,
                       _uniform_step)
from .projection import (CoeffState, _fold_fft, coefficients_fft, reconstruct,
                         reconstruct_deriv)
from .space import Curve, _simpson_weights, norm_alpha
from .testcurves import flat_curve

__all__ = [
    "CoefficientField",
    "make_field",
    "projected_coefficients",
    "contract_audit",
    "picard_operator_V",
    "oracle_markovian",
    "simulate_markovian_fk",
    "markovian_convergence_experiment",
]


@dataclass(frozen=True)
class CoefficientField:
    """Drift and noise coefficient functions with declared contract constants.

    b(t, f) returns a curve; psi(t, f) returns one curve per driver factor.
    The declared constants are promises checked by `contract_audit`, not
    inferred.  Implementations must be pure functions of their arguments.
    """

    b: Callable[[float, Curve], Curve]
    psi: Callable[[float, Curve], Sequence[Curve]]
    lipschitz_b: float
    lipschitz_psi: float

    def __post_init__(self) -> None:
        if not (self.lipschitz_b >= 0.0 and self.lipschitz_psi >= 0.0):
            raise ValueError("Lipschitz constants must be nonnegative")


AUDIT_K_SPAN = 8                 # truncation level of the audit's random curves
AUDIT_TIMES = (0.0, 0.3, 0.7)    # times at which the audit evaluates the field


def _masked(f: Curve, t: float, params: BasisParams) -> Curve:
    """Input restriction realising the structure condition."""
    return f.restrict_mask(max(params.horizon - t, 0.0))


def make_field(name: str, driver: LevyDriver, params: BasisParams,
               **kw) -> CoefficientField:
    """Registry of named coefficient fields.

    constant           b = fixed curve (kw b_curve, default zero), psi = loadings
    mean_revert        b(t,f) = kappa (theta - f), psi = loadings
    proportional_vol   b = 0, psi_i(t,f) = sigma0 (1 + tanh(Re f(0)) / 2) loading_i
    """
    loads = tuple(driver.loadings)
    if name == "constant":
        b_curve = kw.get("b_curve")
        if b_curve is None:
            b_curve = flat_curve(0.0, x_max=driver.loadings[0].x_max)
        return CoefficientField(
            b=lambda t, f: b_curve,
            psi=lambda t, f: loads,
            lipschitz_b=max(1e-12, norm_alpha(b_curve, params.alpha)),
            lipschitz_psi=_loads_norm(loads, params))
    if name == "mean_revert":
        kappa = float(kw["kappa"])
        theta = kw["theta"]
        return CoefficientField(
            b=lambda t, f: (theta - f) * kappa,
            psi=lambda t, f: loads,
            lipschitz_b=kappa * (1.0 + norm_alpha(theta, params.alpha)),
            lipschitz_psi=_loads_norm(loads, params))
    if name == "proportional_vol":
        sigma0 = float(kw["sigma0"])

        def psi(t, f):
            s = sigma0 * (1.0 + 0.5 * np.tanh(complex(f.value_at_zero).real))
            return tuple(c * s for c in loads)

        # |d/dv tanh| <= 1 and |f(0) - g(0)| <= sqrt(1 + 1/alpha) ||f - g||
        lip = sigma0 * (1.5 + 0.5 * np.sqrt(1.0 + 1.0 / params.alpha)
                        * _loads_norm(loads, params))
        return CoefficientField(b=lambda t, f: flat_curve(0.0, x_max=loads[0].x_max),
                                psi=psi, lipschitz_b=1e-12,
                                lipschitz_psi=max(lip, sigma0 * 1.5 * _loads_norm(loads, params)))
    raise ValueError(f"unknown coefficient field {name!r}")


def _loads_norm(loads, params) -> float:
    return float(np.sqrt(sum(norm_alpha(c, params.alpha) ** 2 for c in loads)))


def truncation_norm_bound(params: BasisParams) -> float:
    """Uniform bound on the combined localise-and-truncate operator norm.

    Riesz frame bounds give ||Pi_k h|| <= sqrt(B/A) ||h|| on the localised
    subspace uniformly in k, times the localisation norm ||Pi||.
    """
    ratio = frame_upper_constant(params) / frame_lower_constant(params)
    return float(np.sqrt(ratio) * projector_norm_bound(params))


def _span_curve(state: CoeffState, x_max: float, n_points: int) -> Curve:
    x = np.linspace(0.0, x_max, n_points)
    return Curve(state.c_star, reconstruct_deriv(state, x),
                 x_max / (n_points - 1), x_max)


def projected_coefficients(cf: CoefficientField, k: int, params: BasisParams,
                           n_points: int = 2**10 + 1) -> CoefficientField:
    """Pass every field output through the localise-and-truncate projection."""
    bound = truncation_norm_bound(params)

    def bk(t, f):
        out = cf.b(t, f)
        return _span_curve(coefficients_fft(out, k, params), out.x_max, n_points)

    def psik(t, f):
        outs = cf.psi(t, f)
        return tuple(_span_curve(coefficients_fft(c, k, params), c.x_max, n_points)
                     for c in outs)

    return CoefficientField(b=bk, psi=psik,
                            lipschitz_b=cf.lipschitz_b * bound,
                            lipschitz_psi=cf.lipschitz_psi * bound)


def contract_audit(cf: CoefficientField, params: BasisParams, rank: int,
                   n_pairs: int = 100, seed: int = 0) -> dict:
    """Empirical check of the declared Lipschitz, growth and structure promises.

    Random real span curves of level AUDIT_K_SPAN are fed through the masked
    inputs at times drawn from AUDIT_TIMES; reported are the worst observed
    ratios (must be <= 1 for a honest field) and the largest output change
    under tail-only perturbations (must be exactly 0).
    """
    rng = np.random.default_rng(seed)
    pk = BasisParams(params.alpha, params.lam, params.horizon, AUDIT_K_SPAN)
    x_max = 2.0 * params.horizon

    def rand_curve():
        n_c = 2 * AUDIT_K_SPAN + 1
        c = rng.normal(size=n_c) + 1j * rng.normal(size=n_c)
        c = 0.5 * (c + np.conj(c[::-1]))     # hermitian: real curve
        f = _span_curve(CoeffState(complex(rng.normal()), c, pk), x_max, 513)
        # drop the synthesis' rounding-level imaginary part: a real curve
        # builds one spline when another grid resamples it
        return Curve(f.value_at_zero, f.deriv_samples.real, f.grid_step, x_max)

    worst_lip_b = worst_lip_psi = worst_growth = worst_structure = 0.0
    for _ in range(n_pairs):
        f, g = rand_curve(), rand_curve()
        t = float(rng.choice(AUDIT_TIMES))
        fm, gm = _masked(f, t, params), _masked(g, t, params)
        dist = norm_alpha(f - g, params.alpha)
        nb = norm_alpha(cf.b(t, fm) - cf.b(t, gm), params.alpha)
        worst_lip_b = max(worst_lip_b, nb / (cf.lipschitz_b * dist + 1e-300))
        pf, pg = cf.psi(t, fm), cf.psi(t, gm)
        npsi = np.sqrt(sum(norm_alpha(a - b, params.alpha) ** 2
                           for a, b in zip(pf, pg)))
        worst_lip_psi = max(worst_lip_psi, npsi / (cf.lipschitz_psi * dist + 1e-300))
        gb = norm_alpha(cf.b(t, fm), params.alpha)
        worst_growth = max(worst_growth,
                           gb / (cf.lipschitz_b * (1.0 + norm_alpha(f, params.alpha))
                                 + 1e-300))
        # tail-only perturbation: must not change any output
        tail = f.deriv_samples.copy()
        tail[f.grid > params.horizon - t + 1e-9] += rng.normal()
        f_pert = _masked(Curve(f.value_at_zero, tail, f.grid_step, f.x_max), t, params)
        db = norm_alpha(cf.b(t, fm) - cf.b(t, f_pert), params.alpha)
        dpsi = max(norm_alpha(a - b, params.alpha)
                   for a, b in zip(cf.psi(t, fm), cf.psi(t, f_pert)))
        worst_structure = max(worst_structure, db, dpsi)
    return {
        "lipschitz_b_ratio": float(worst_lip_b),
        "lipschitz_psi_ratio": float(worst_lip_psi),
        "growth_ratio": float(worst_growth),
        "structure_leak": float(worst_structure),
    }


def _field_increment(cf: CoefficientField, spec: ModelSpec, t: float,
                     f: Curve, dL_row: np.ndarray, dt: float) -> Curve:
    fm = _masked(f, t, spec.params)
    return _increment(cf.b(t, fm), cf.psi(t, fm), dL_row, dt)


def oracle_markovian(cf: CoefficientField, spec: ModelSpec, driver: LevyDriver,
                     times, noise: np.ndarray | None = None) -> SimPath:
    """Fine-grid curve-space Euler scheme for the state-dependent dynamics.

    f_{j+1} = shift_dt(f_j + b(t_j, f_j) dt + psi(t_j, f_j) dL_j), with the
    pre-step state in the noise term (left-limit evaluation).  Without
    ``noise`` the driver's path 0 supplies the increments.
    """
    times = np.asarray(times, dtype=float)
    dt = _uniform_step(times)
    n_steps = times.size - 1
    dL = _noise_for(driver, dt, n_steps, noise)
    states = _curve_recursion(
        spec.f0, dt, n_steps,
        lambda j, f: _field_increment(cf, spec, times[j], f, dL[j], dt))
    return SimPath(times=times, states=states, noise_record=dL)


def picard_operator_V(h_states: Sequence[Curve], cf: CoefficientField,
                      spec: ModelSpec, driver: LevyDriver, times,
                      noise: np.ndarray) -> list[Curve]:
    """One application of the fixed-point map to a discretised process.

    V(h)(t_j) = shift_{t_j} f0
                + sum_{l<j} shift_{t_j - t_l} (b(t_l, h_l) dt + psi(t_l, h_l) dL_l)

    on the same grid and noise record as h, by the oracle's own recursion.
    """
    times = np.asarray(times, dtype=float)
    dt = _uniform_step(times)
    return _curve_recursion(
        spec.f0, dt, times.size - 1,
        lambda j, f: _field_increment(cf, spec, times[j], h_states[j], noise[j], dt))


def simulate_markovian_fk(cf: CoefficientField, spec: ModelSpec,
                          driver: LevyDriver, times, k: int,
                          noise: np.ndarray | None = None) -> SimPath:
    """Explicit Euler on the 2k+2 coefficient system with state feedback.

    The coefficients b_k, psi_k are evaluated by reconstructing the current
    span curve on the initial curve's grid, feeding it through the masked
    field and re-extracting coefficients; the state therefore stays in the
    span by construction.  Every field output is folded on the initial
    curve's nodes over [0, T], read through its spline if on another grid.
    Without ``noise`` the driver's path 0 supplies the increments.
    """
    p = spec.params
    times = np.asarray(times, dtype=float)
    dt = _uniform_step(times)
    A = _stable_euler_matrix(p, k, dt)
    n_steps = times.size - 1
    dL = _noise_for(driver, dt, n_steps, noise)

    f0 = spec.f0
    xg = f0.grid
    step = f0.grid_step
    n_T = int(round(p.horizon / step))
    if abs(n_T * step - p.horizon) > 1e-9 or n_T % 2 != 0:
        raise ValueError("initial-curve grid must split [0, T] into an even "
                         "number of intervals")
    xT = xg[:n_T + 1]
    w = _simpson_weights(n_T + 1, p.horizon / n_T) * np.exp(p.decay * xT)
    Gd = eval_g_n_deriv(p, p.n_range(k), xg)

    state = coefficients_fft(f0, k, p)
    pk = state.params
    x = np.concatenate(([state.c_star], state.c))
    states = [state]
    for j in range(n_steps):
        t = times[j]
        f_hat = _masked(Curve(complex(x[0]), x[1:] @ Gd, step, f0.x_max), t, p)
        outs = [cf.b(t, f_hat)] + list(cf.psi(t, f_hat))
        scale = np.concatenate(([dt], dL[j]))
        inc = dt * (A @ x)
        for s, out_curve in zip(scale, outs):
            if s != 0.0:
                if abs(out_curve.grid_step - step) < 1e-12:
                    d = out_curve.deriv_samples[:n_T + 1]
                else:
                    d = out_curve.deriv(xT)
                inc[0] += s * complex(out_curve.value_at_zero)
                inc[1:] += s * _fold_fft(w * d, k, p.horizon)
        x = x + inc
        states.append(CoeffState(complex(x[0]), x[1:].copy(), pk))
    return SimPath(times=times, states=states, noise_record=dL)


def markovian_convergence_experiment(cf: CoefficientField, spec: ModelSpec,
                                     driver: LevyDriver,
                                     k_list: Sequence[int], n_paths: int,
                                     n_steps: int = 32, n_x: int = 256,
                                     sup_slices: int = 64) -> list[dict]:
    """MC estimate of E[sup over the (t, x) grid of |fk_hat - f|^2] per k.

    The oracle and every truncation level share each path's noise record.
    The sup is evaluated on at most ``sup_slices`` time slices of the
    simulation grid (evenly strided); refining the slice grid must not move
    the estimate beyond MC noise, which the test-suite checks.
    """
    p = spec.params
    times = np.linspace(0.0, p.horizon, n_steps + 1)
    stride = max(1, n_steps // sup_slices)
    slice_idx = list(range(0, times.size, stride))
    if slice_idx[-1] != times.size - 1:
        slice_idx.append(times.size - 1)
    errs = {int(k): np.empty(n_paths) for k in k_list}
    for pid in range(n_paths):
        noise = _noise_for(driver, times[1], n_steps, None, pid)
        oracle = oracle_markovian(cf, spec, driver, times, noise=noise)
        o_vals = {}
        xs = {}
        for j in slice_idx:
            x = np.linspace(0.0, max(p.horizon - times[j], 0.0), n_x)
            xs[j] = x
            o_vals[j] = oracle.states[j].value(x)
        for k in k_list:
            path = simulate_markovian_fk(cf, spec, driver, times, int(k),
                                         noise=noise)
            worst = 0.0
            for j in slice_idx:
                vals = reconstruct(path.states[j], xs[j])
                worst = max(worst, float(np.max(np.abs(vals - o_vals[j]) ** 2)))
            errs[int(k)][pid] = worst
    return [{
        "k": int(k),
        "mc_error": float(np.mean(errs[int(k)])),
        "stderr": float(np.std(errs[int(k)]) / np.sqrt(n_paths)),
        "n_paths": int(n_paths),
        "seed": int(driver.seed),
    } for k in k_list]

