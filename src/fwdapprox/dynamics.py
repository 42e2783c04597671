"""Forward-curve dynamics with deterministic coefficients.

Contains the finite-rank noise driver, a fine-grid mild-solution oracle, the
exact finite-dimensional state-variable simulation, the explicit Euler scheme
on the coefficient system, delivery-period forwards and the Monte-Carlo
convergence experiment comparing the truncated model to the oracle.

Time stepping is left-Riemann throughout: each step adds the drift and noise
increment evaluated at the left endpoint and then transports by the shift.
In coefficient space the transport is exact (mode n scales by e^{lambda_n dt}),
so the only discretization error is the left-endpoint evaluation.  Being
linear, the exact transport also has a closed form at a single time: the
coefficient image of the mild-solution sum, which the convergence experiment
uses for its final state.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .basis import BasisParams, eval_g_n, lambda_n
from .errors import BadWindow, DomainTooShort, UnstableStep
from .projection import (CoeffState, _period_norm, coefficients_fft,
                         compute_C1, compute_C2)
from .semigroup import _shift, _shift_factors, shift_curve
from .space import Curve

__all__ = [
    "LevyDriver",
    "ModelSpec",
    "SimPath",
    "StateVariables",
    "splitmix64",
    "oracle_mild_solution",
    "simulate_fk_state",
    "euler_coefficient_system",
    "euler_stability_limit",
    "delivery_forward",
    "convergence_experiment",
]

_LAWS = ("gaussian", "variance_gamma", "nig")
CONV_X_POINTS = 1024   # points of [0, T - t_eval] the convergence sup runs over
BOUND_PATHS = 64       # paths whose curvature constants enter the sampled bound


def splitmix64(x: int) -> int:
    """Stateless 64-bit mixer; used to derive per-path RNG streams."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass(frozen=True)
class LevyDriver:
    """Finite-rank square-integrable driver with mean-zero increments.

    Each of the ``rank`` factors carries a loading curve; an increment over dt
    adds sum_i loadings[i] * dL_i with dL_i mean zero and variance dt.  The
    subordinated laws time-change a standard normal, which keeps the mean at
    zero and the variance at the subordinator mean dt.
    """

    rank: int
    loadings: tuple
    increment_law: str = "gaussian"
    law_param: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "loadings", tuple(self.loadings))
        if self.rank < 1 or len(self.loadings) != self.rank:
            raise ValueError("need exactly `rank` loading curves")
        if self.increment_law not in _LAWS:
            raise ValueError(f"unknown increment law {self.increment_law!r}")
        if self.increment_law != "gaussian":
            if self.law_param is None or not (self.law_param > 0.0):
                raise ValueError(f"{self.increment_law} needs a positive law parameter")

    def path_rng(self, path_id: int) -> np.random.Generator:
        return np.random.default_rng((self.seed & 0xFFFFFFFFFFFFFFFF)
                                     ^ splitmix64(path_id))

    def increments(self, rng: np.random.Generator, dt: float,
                   n_steps: int) -> np.ndarray:
        """Matrix (n_steps, rank) of independent mean-zero increments."""
        shape = (n_steps, self.rank)
        if self.increment_law == "gaussian":
            return rng.normal(0.0, np.sqrt(dt), size=shape)
        if self.increment_law == "variance_gamma":
            # Gamma subordinator with mean dt and variance nu*dt
            g = rng.gamma(dt / self.law_param, self.law_param, size=shape)
            return np.sqrt(g) * rng.normal(size=shape)
        # inverse-Gaussian subordinator with mean dt
        ig = rng.wald(dt, self.law_param, size=shape)
        return np.sqrt(ig) * rng.normal(size=shape)


@dataclass(frozen=True)
class ModelSpec:
    """Initial curve, drift and noise-operator weights of the dynamics.

    beta(t) is a curve-valued drift (or None); psi_weights(t) returns the d
    scalar weights applied to the driver's loading curves at time t.
    """

    f0: Curve
    params: BasisParams
    beta: Callable[[float], Curve] | None = None
    psi_weights: Callable[[float], np.ndarray] | None = None

    def weights(self, t: float, rank: int) -> np.ndarray:
        if self.psi_weights is None:
            return np.ones(rank)
        w = np.asarray(self.psi_weights(t), dtype=float)
        if w.shape != (rank,):
            raise ValueError(f"psi weights must have shape ({rank},)")
        return w


@dataclass
class SimPath:
    """One simulated trajectory: grid times, states and the noise used."""

    times: np.ndarray
    states: list
    noise_record: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must start at 0 and increase")


@dataclass
class StateVariables:
    """Spot path S_k (times,) and factor paths U (times, 2k+1)."""

    S_k: np.ndarray
    U: np.ndarray


def _uniform_step(times: np.ndarray) -> float:
    steps = np.diff(times)
    if steps.size == 0 or np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
        raise ValueError("times must form a uniform grid")
    return float(steps[0])


def _noise_for(driver: LevyDriver, dt: float, n_steps: int,
               noise: np.ndarray | None, path_id: int = 0) -> np.ndarray:
    if noise is not None:
        noise = np.asarray(noise, dtype=float)
        if noise.shape != (n_steps, driver.rank):
            raise ValueError(f"noise must have shape ({n_steps}, {driver.rank})")
        return noise
    return driver.increments(driver.path_rng(path_id), dt, n_steps)


def _increment(b: Curve, cols, dL_row: np.ndarray, dt: float) -> Curve:
    """Left-endpoint increment b dt + sum_i cols[i] dL_i; zero noise is skipped."""
    inc = b * dt
    for col, dl in zip(cols, dL_row):
        if dl != 0.0:
            inc = inc + col * dl
    return inc


def _curve_recursion(f0: Curve, dt: float, n_steps: int,
                     increment: Callable[[int, Curve], Curve]) -> list:
    """Mild-solution states f_{j+1} = shift_dt(f_j + increment(j, f_j))."""
    states = [f0]
    for j in range(n_steps):
        states.append(shift_curve(states[-1] + increment(j, states[-1]), dt))
    return states


def oracle_mild_solution(spec: ModelSpec, driver: LevyDriver, times,
                         noise: np.ndarray | None = None,
                         path_id: int = 0) -> SimPath:
    """Fine-grid reference trajectory of curves.

    Recursion f_{j+1} = shift_dt(f_j + beta(t_j) dt + Psi(t_j) dL_j); the
    represented x-range shrinks by dt each step, so f0 must cover
    [0, times[-1] + whatever range the caller needs at the final time].
    """
    times = np.asarray(times, dtype=float)
    dt = _uniform_step(times)
    n_steps = times.size - 1
    dL = _noise_for(driver, dt, n_steps, noise, path_id)

    def increment(j, f):
        t = times[j]
        b = f * 0.0 if spec.beta is None else spec.beta(t)
        return _increment(b, driver.loadings, spec.weights(t, driver.rank) * dL[j], dt)

    return SimPath(times=times, states=_curve_recursion(spec.f0, dt, n_steps, increment),
                   noise_record=dL)


def _projected_inputs(spec: ModelSpec, driver: LevyDriver, times, k: int):
    """Project every input of the linear dynamics on one time grid, once.

    Returns the projected f0; the loadings and the drift at each left
    endpoint times[:-1] (None without drift) as (c_star, c) pairs of shapes
    ((d,), (d, 2k+1)) and ((L,), (L, 2k+1)); and the (L, d) psi weights at
    the left endpoints.
    """
    p = spec.params

    def stacked(curves):
        states = [coefficients_fft(c, k, p) for c in curves]
        return np.array([s.c_star for s in states]), np.stack([s.c for s in states])

    drift = None if spec.beta is None else stacked(spec.beta(t) for t in times[:-1])
    psi = np.stack([spec.weights(t, driver.rank) for t in times[:-1]])
    return coefficients_fft(spec.f0, k, p), stacked(driver.loadings), drift, psi


def _exact_transport(init: CoeffState, loads, drift, weighted: np.ndarray,
                     dt: float, k: int):
    """Yield (c_star, c) after each step of the truncated linear dynamics.

    A step adds the left-endpoint increment (``weighted`` row times the
    loadings, plus dt times the drift) and then shifts exactly by dt.
    ``loads`` and ``drift`` are as returned by `_projected_inputs`;
    ``weighted`` is (..., L, d), psi weights times driver increments, and its
    leading axes are independent paths.  Modes -k..k of the projection are
    kept, so ``k`` may lie below its level.
    """
    k_max = init.k
    sl = slice(k_max - k, k_max + k + 1)
    load_star, load_c = loads[0], loads[1][:, sl]
    g_dt, growth = _shift_factors(init.params, k, dt)
    c_star, c = init.c_star, init.c[sl]
    for j in range(weighted.shape[-2]):
        w = weighted[..., j, :]
        inc_star, inc_c = w @ load_star, w @ load_c
        if drift is not None:
            inc_star = inc_star + dt * drift[0][j]
            inc_c = inc_c + dt * drift[1][j, sl]
        c_star, c = _shift(c_star + inc_star, c + inc_c, g_dt, growth)
        yield c_star, c


def _final_state(init: CoeffState, loads, drift, weighted: np.ndarray,
                 dt: float, k: int):
    """The last (c_star, c) of `_exact_transport`, in closed form.

    The recursion is linear, so at t = L dt, with lag_l = t - t_l and inc_l
    the increment added at step l,

        c(t) = e^{lambda_n t} c_0 + sum_l e^{lambda_n lag_l} inc_l,
        c_star(t) = c_star_0 + g(t).c_0 + sum_l (inc_star_l + g(lag_l).inc_l),

    because g_n(dt) sum_{m<M} e^{lambda_n m dt} = g_n(M dt).  The noise part
    contracts ``weighted`` (..., L, d) over (l, i) with one kernel of 2k+2
    columns, as two real products; the f0 and drift parts are the same for
    every path.
    """
    k_max = init.k
    sl = slice(k_max - k, k_max + k + 1)
    load_star, load_c = loads[0], loads[1][:, sl]
    n_steps, d = weighted.shape[-2:]
    g_lag, growth_lag = _shift_factors(init.params, k, dt * np.arange(n_steps, 0, -1))
    g_t, growth_t = _shift_factors(init.params, k, n_steps * dt)
    c0 = init.c[sl]
    c_star, c = init.c_star + c0 @ g_t, growth_t * c0
    if drift is not None:
        drift_c = dt * drift[1][:, sl]
        c_star = c_star + dt * np.sum(drift[0]) + np.sum(g_lag * drift_c)
        c = c + np.sum(growth_lag * drift_c, axis=0)
    # row (l, i): (load_star_i + g(lag_l).load_c_i, e^{lambda lag_l} load_c_i)
    kernel = np.concatenate([(load_star + g_lag @ load_c.T)[..., None],
                             growth_lag[:, None, :] * load_c], axis=-1)
    kernel = kernel.reshape(n_steps * d, 2 * k + 2)
    w = weighted.reshape(*weighted.shape[:-2], n_steps * d)
    noise = w @ kernel.real + 1j * (w @ kernel.imag)
    return c_star + noise[..., 0], c + noise[..., 1:]


def simulate_fk_state(spec: ModelSpec, driver: LevyDriver, times, k: int,
                      noise: np.ndarray | None = None,
                      path_id: int = 0) -> tuple[SimPath, StateVariables]:
    """Exact simulation of the truncated dynamics via its state variables.

    Mode n follows dU_n = lambda_n U_n dt + dX_n with the linear part solved
    exactly (factor e^{lambda_n dt}); the spot is the constant coefficient,
    which the shift updates through sum_n U_n g_n(dt).  The invariant
    "spot == curve value at 0" holds identically because g_n(0) = 0.
    """
    times = np.asarray(times, dtype=float)
    dt = _uniform_step(times)
    dL = _noise_for(driver, dt, times.size - 1, noise, path_id)
    init, loads, drift, psi = _projected_inputs(spec, driver, times, k)
    states = [init]
    for c_star, c in _exact_transport(init, loads, drift, psi * dL, dt, k):
        states.append(CoeffState(complex(c_star), c, init.params))
    path = SimPath(times=times, states=states, noise_record=dL)
    return path, StateVariables(S_k=np.array([s.c_star for s in states]),
                                U=np.stack([s.c for s in states]))


def euler_stability_limit(params: BasisParams, k: int) -> float:
    """Largest stable explicit-Euler step for the mode-k system."""
    lams = lambda_n(params, params.n_range(k))
    return float(np.min(-2.0 * lams.real / np.abs(lams) ** 2))


def system_matrix(params: BasisParams, k: int) -> np.ndarray:
    """Transport generator on (c_star, c_{-k}..c_k).

    The constant coefficient feeds from every mode with weight 1/sqrt(T) (the
    derivative of g_n at 0) and has no self term; each mode is diagonal with
    eigenvalue lambda_n.
    """
    lams = lambda_n(params, params.n_range(k))
    A = np.zeros((2 * k + 2, 2 * k + 2), dtype=complex)
    A[0, 1:] = 1.0 / np.sqrt(params.horizon)
    A[np.arange(1, 2 * k + 2), np.arange(1, 2 * k + 2)] = lams
    return A


def _stable_euler_matrix(params: BasisParams, k: int, dt: float) -> np.ndarray:
    """`system_matrix`, once dt is checked against the explicit-Euler limit."""
    limit = euler_stability_limit(params, k)
    if dt >= limit:
        raise UnstableStep(f"step {dt} >= stability limit {limit:.3e} for k={k}")
    return system_matrix(params, k)


def euler_coefficient_system(spec: ModelSpec, driver: LevyDriver, times, k: int,
                             noise: np.ndarray | None = None) -> SimPath:
    """Plain explicit Euler on the 2k+2 complex coefficient system.

    Without ``noise`` the driver's path 0 supplies the increments.
    """
    times = np.asarray(times, dtype=float)
    dt = _uniform_step(times)
    A = _stable_euler_matrix(spec.params, k, dt)
    dL = _noise_for(driver, dt, times.size - 1, noise)
    init, loads, drift, psi = _projected_inputs(spec, driver, times, k)
    load_v = np.column_stack(loads)                  # (d, 2k+2)
    drift_v = None if drift is None else np.column_stack(drift)
    x = np.concatenate(([init.c_star], init.c))
    states = [init]
    for j, w in enumerate(psi * dL):
        rate = A @ x
        if drift_v is not None:
            rate = rate + drift_v[j]
        x = x + dt * rate + w @ load_v
        states.append(CoeffState(complex(x[0]), x[1:].copy(), init.params))
    return SimPath(times=times, states=states, noise_record=dL)


def _phi1(z: np.ndarray) -> np.ndarray:
    """phi1(z) = (e^z - 1) / z, by its Taylor series where |z| is tiny."""
    small = np.abs(z) < 1e-5
    safe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0 + z * z / 6.0, np.expm1(safe) / safe)


def delivery_forward(state: CoeffState, t: float, T1: float, T2: float) -> complex:
    """Average of the modeled forward curve over the delivery window [T1, T2].

    Closed form: F = c_star + sum_n G_n c_n with

        G_n = (e^{lambda_n (T1-t)} phi1(lambda_n (T2-T1)) - 1) / (lambda_n sqrt(T)),

    the exact window average of g_n shifted to calendar time t, where
    phi1(z) = (e^z - 1) / z.  This form has no cancellation as the window
    narrows.
    """
    p = state.params
    if not (t <= T1 < T2 <= p.horizon + 1e-12):
        raise BadWindow(f"need t <= T1 < T2 <= {p.horizon}, got ({t}, {T1}, {T2})")
    lams = lambda_n(p, p.n_range(state.k))
    G = (np.exp(lams * (T1 - t)) * _phi1(lams * (T2 - T1)) - 1.0) \
        / (lams * np.sqrt(p.horizon))
    return complex(state.c_star + np.sum(G * state.c))


# -- Monte-Carlo convergence experiment --------------------------------------

def _mild_sum(spec: ModelSpec, driver: LevyDriver, times: np.ndarray,
              weighted: np.ndarray, x: np.ndarray, curve_eval) -> np.ndarray:
    """Closed-form mild solution at t = times[-1] on x, shape (..., n_x):

    f(t, x) = f0(t + x) + dt sum_l beta(t_l)(t - t_l + x)
              + sum_{l, i} weighted[..., l, i] loading_i(t - t_l + x),

    ``weighted`` being psi weights times increments.  ``curve_eval(curve, y)``
    is `Curve.value`, its real part, or `Curve.deriv` for f'.
    """
    dt = float(times[1] - times[0])
    y = (times[-1] - times[:-1])[:, None] + x          # (L, n_x) lagged points
    base = curve_eval(spec.f0, times[-1] + x)
    if spec.beta is not None:
        base = base + dt * np.stack([curve_eval(spec.beta(t), y[j])
                                     for j, t in enumerate(times[:-1])]).sum(axis=0)
    M = np.stack([curve_eval(c, y) for c in driver.loadings])   # (d, L, n_x)
    return base + np.tensordot(weighted, M, axes=([-2, -1], [1, 0]))


def _half_spectrum_values(params: BasisParams, c_star: np.ndarray,
                          c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re(c_star + c @ G) on x for Hermitian states, from modes 0..k only.

    With c_{-n} = conj(c_n) and g_{-n} = conj(g_n) the two modes +-n add up
    to 2 Re(c_n g_n), so the value is one real product

        Re c_star + [Re c_0, Re c_{1..k}, Im c_{1..k}] @ [g_0; 2 Re g_{1..k}; -2 Im g_{1..k}]

    over 2k+1 real columns; ``c`` is (..., 2k+1) on modes -k..k.
    """
    k = (c.shape[-1] - 1) // 2
    G = eval_g_n(params, np.arange(k + 1), x)       # (k+1, n_x), g_0 real
    B = 2.0 * np.concatenate([G.real, -G.imag[1:]])
    B[0] = G[0].real
    a = np.concatenate([c[..., k:].real, c[..., k + 1:].imag], axis=-1)
    return c_star.real[..., None] + a @ B


def _require_real(spec: ModelSpec, driver: LevyDriver, times: np.ndarray) -> None:
    """Raise ValueError unless f0, every loading and every drift curve is real."""
    named = [("f0", spec.f0)]
    named += [(f"loading {i}", c) for i, c in enumerate(driver.loadings)]
    if spec.beta is not None:
        # one check per distinct curve object, as in `_sampled_bound`
        betas = {}
        for t in times[:-1]:
            b = spec.beta(t)
            betas.setdefault(id(b), (f"drift at t={float(t):g}", b))
        named += betas.values()
    for name, c in named:
        if c.deriv_samples.imag.any() or complex(c.value_at_zero).imag != 0.0:
            raise ValueError(f"convergence_experiment needs real curves; {name} "
                             "has an imaginary part")


def convergence_experiment(spec: ModelSpec, driver: LevyDriver, t_eval: float,
                           k_list: Sequence[int], n_paths: int,
                           n_steps: int = 64) -> list[dict]:
    """Mean squared sup-error of the truncated model against the oracle.

    Both solutions are linear in the noise (deterministic coefficients), so
    the oracle at time t_eval is evaluated directly from the mild-solution
    sum and the truncated model by the closed-form coefficient mild sum of
    the exact transport, sharing one noise tensor across every k (common
    random numbers).  The sup is taken over CONV_X_POINTS points of
    [0, T - t_eval].  The reported bound column is the sampled rate constant
    divided by k, built from the projected initial condition, the drift and
    noise loads, and pathwise curvature constants of the oracle solution on
    the first BOUND_PATHS paths.  A t_eval beyond T raises DomainTooShort
    before any other work.

    The inputs must be real curves, as forward prices are: f0, every
    loading and every drift curve, else ValueError.  Their states are then
    Hermitian (c_{-n} = conj(c_n)), so both solutions are real and the error
    is taken in real arithmetic, the model value from the half spectrum
    (modes 0..k, `_half_spectrum_values`).
    """
    p = spec.params
    T = p.horizon
    if t_eval > T + 1e-12:
        raise DomainTooShort(f"t_eval={t_eval} lies beyond the horizon T={T}; "
                             "the error is measured on [0, T - t_eval]")
    dt = t_eval / n_steps
    times = np.linspace(0.0, t_eval, n_steps + 1)
    _require_real(spec, driver, times)
    dL = np.stack([_noise_for(driver, dt, n_steps, None, pid)
                   for pid in range(n_paths)])      # (P, L, d)
    init, loads, drift, psi = _projected_inputs(spec, driver, times,
                                                int(max(k_list)))
    weighted = dL * psi
    x = np.linspace(0.0, T - t_eval, CONV_X_POINTS)
    oracle = _mild_sum(spec, driver, times, weighted, x,
                       lambda c, y: c.value(y).real)

    rows = []
    A_common, C1_mean = _sampled_bound(spec, driver, times, psi,
                                       weighted[:min(BOUND_PATHS, n_paths)])
    for k in k_list:
        c_star, c = _final_state(init, loads, drift, weighted, dt, k)
        vals = _half_spectrum_values(p, c_star, c, x)
        err = np.max((vals - oracle) ** 2, axis=1)
        rows.append({
            "k": int(k),
            "mc_error": float(np.mean(err)),
            "stderr": float(np.std(err) / np.sqrt(n_paths)),
            "bound_A_over_k": float((A_common + 3.0 * (1.0 + 1.0 / p.alpha) * C1_mean) / k),
            "n_paths": int(n_paths),
            "seed": int(driver.seed),
        })
    return rows


def _sampled_bound(spec: ModelSpec, driver: LevyDriver, times: np.ndarray,
                   w_t: np.ndarray, weighted: np.ndarray) -> tuple[float, float]:
    """Sampled rate constant: deterministic part plus mean pathwise curvature.

    Deterministic part: 3 c_alpha^2 C2 (||Pi f0||^2 + integrated noise trace
    + squared integrated drift norm); pathwise part: mean of the curvature
    constant of the oracle curve at times[-1] over the paths of ``weighted``
    (psi weights times increments, (n_sample, L, d)).
    """
    p = spec.params
    dt = float(times[1] - times[0])
    c_alpha_sq = 3.0 * (1.0 + 1.0 / p.alpha)
    C2 = compute_C2(p)

    def pi_norm(h: Curve) -> float:
        return _period_norm(h.value_at_zero, h.deriv, p)

    load_norms = np.array([pi_norm(c) for c in driver.loadings])
    trace_term = float(np.sum(dt * (w_t**2) @ (load_norms**2)))
    drift_term = 0.0
    if spec.beta is not None:
        # one norm per distinct curve object; holding them all keeps ids unique
        betas = [spec.beta(t) for t in times[:-1]]
        norms = {i: pi_norm(b) for i, b in {id(b): b for b in betas}.items()}
        drift_term = sum(dt * norms[id(b)] for b in betas) ** 2
    A_common = c_alpha_sq * C2 * (pi_norm(spec.f0) ** 2 + trace_term + drift_term)

    # pathwise curvature constants of the oracle solution at times[-1]
    n_pts = spec.f0.deriv_samples.shape[0]
    xg = np.linspace(0.0, p.horizon, min(n_pts, 2**12 + 1))
    derivs = _mild_sum(spec, driver, times, weighted, xg, Curve.deriv)
    step = p.horizon / (xg.size - 1)
    c1s = [compute_C1(Curve(0.0, d, step, p.horizon), p) for d in derivs]
    return A_common, float(np.mean(c1s))
