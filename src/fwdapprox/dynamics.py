"""Forward-curve dynamics with deterministic coefficients.

Contains the finite-rank noise driver, a fine-grid mild-solution oracle, the
exact finite-dimensional state-variable simulation, the explicit Euler scheme
on the coefficient system, delivery-period forwards and the Monte-Carlo
convergence experiment comparing the truncated model to the oracle.  The
coefficient schemes return `StateVariables` arrays; every scheme checks its
times and noise by one rule, `_time_grid`.

The Euler loop `_euler_path` and the curve recursion `_curve_recursion` step
any field on arrays: ``field(x_max, n)`` sets it up on a grid once and returns
``outputs(t, value, samples) -> [b or None, psi]``, each a `space._Rows` on
that grid scaled by [dt, dL_j], which a state on fewer nodes cuts to its own;
``samples(m)`` builds the state's derivative on its first m nodes only for a
field that reads it.  `_linear_field` is the linear dynamics, which ignores
the curve; `markovian._masked_field` serves the coefficient fields.

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
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .basis import BasisParams, eval_g_n, eval_g_n_deriv, lambda_n
from .errors import BadWindow, DomainTooShort, UnstableStep
from .projection import (CoeffState, _compute_C1_rows, _fold_grid, _fold_input, _fold_rows,
                         _period_norm, coefficients_fft, compute_C2)
from .semigroup import _node_shift, _shift, _shift_factors, shift_curve
from .space import Curve, _reaches, _rows_on

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
# paths convergence_experiment steps together, so that its memory is one
# chunk's.  At 2,000 paths x 128 steps, 128 or 256 rows give the same bytes
# (one final-state product serves every level) but run no faster
_PATH_CHUNK = 512
_BLOCK_POINTS = 2**16  # points per `_mild_terms` spline evaluation, entries per kernel block
_MASK64, _MASK128 = 2**64 - 1, 2**128 - 1
# numpy's SeedSequence hash (start and step of its two multipliers, its mix)
# and PCG64's LCG multiplier, which `LevyDriver._path_rngs` runs for path_rng
_HASH_A, _MULT_A, _HASH_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
    zero and the variance at the subordinator mean dt.  Path i draws from
    `path_rng(i)`; `_path_rngs` seeds the same streams for many paths in one
    pass.
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
        return np.random.default_rng((self.seed & _MASK64) ^ splitmix64(path_id))

    def _path_rngs(self, ids) -> Iterator[np.random.Generator]:
        """Yield `path_rng(pid)` for each pid of ``ids``, equal draw for draw.

        The streams are seeded in one pass: numpy's `SeedSequence` hash of
        each path's seed and its `generate_state(4, uint64)` run on uint32
        arrays over all ids, PCG64's seeding on Python ints.  One generator
        is reused, so each one yielded is valid until the next is drawn.
        """
        seeds = np.array([(self.seed & _MASK64) ^ splitmix64(pid) for pid in ids], np.uint64)
        h, zero = _HASH_A, np.zeros(seeds.shape, np.uint32)

        def hashmix(v, mult):            # SeedSequence's hashmix; h advances per call
            nonlocal h
            v = v ^ h
            h = h * mult & 0xFFFFFFFF
            v = v * h
            return v ^ (v >> 16)

        pool = [hashmix(w, _MULT_A) for w in (seeds.astype(np.uint32),
                                              (seeds >> 32).astype(np.uint32), zero, zero)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    r = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src], _MULT_A)
                    pool[dst] = r ^ (r >> 16)
        h = _HASH_B
        w = [hashmix(pool[i % 4], _MULT_B).astype(np.uint64) for i in range(8)]
        words = [(w[i] | w[i + 1] << 32).tolist() for i in range(0, 8, 2)]
        bits = np.random.PCG64(0)
        rng = np.random.Generator(bits)
        for s_hi, s_lo, i_hi, i_lo in zip(*words):
            # PCG64's srandom: inc = 2 seq + 1, then two LCG steps from state 0
            # with the seed added between them
            inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
            state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            yield rng

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
    """One curve-space trajectory: grid times, curve states and the noise used."""

    times: np.ndarray
    states: list
    noise_record: np.ndarray

    def __post_init__(self) -> None:
        self.times, _, self.noise_record = _time_grid(self.times, None, self.noise_record)


@dataclass
class StateVariables:
    """Spot path S_k (times,) and factor paths U (times, 2k+1) at level k."""

    S_k: np.ndarray
    U: np.ndarray
    params: BasisParams

    def state(self, j: int) -> CoeffState:
        """The coefficients at grid time j (negative j counts from the end)."""
        return CoeffState(complex(self.S_k[j]), self.U[j], self.params)


def _time_grid(times, driver: LevyDriver | None, noise: np.ndarray | None = None,
               path_id: int = 0) -> tuple[np.ndarray, float, np.ndarray]:
    """(times, dt, dL) of one path: ValueError unless ``times`` are finite, start
    at 0 and rise in uniform steps (within 1e-9 of the first, relative), and
    unless a given ``noise`` is finite with shape (L, driver rank), any rank
    without a driver; without ``noise``, dL is the driver's path ``path_id``."""
    times = np.asarray(times, dtype=float)
    steps = np.diff(times)
    if not (steps.size and np.isfinite(times).all() and times[0] == 0.0 and steps[0] > 0.0
            and np.max(np.abs(steps - steps[0])) <= 1e-9 * steps[0]):
        raise ValueError("times must be finite and rise from 0 in uniform steps")
    dt, n_steps = float(steps[0]), steps.size
    if noise is None:
        return times, dt, driver.increments(driver.path_rng(path_id), dt, n_steps)
    noise = np.asarray(noise, dtype=float)
    d = noise.shape[-1:] if driver is None else (driver.rank,)
    if noise.shape != (n_steps, *d) or not np.isfinite(noise).all():
        raise ValueError(f"noise must be finite with shape {(n_steps, *d)}, not {noise.shape}")
    return times, dt, noise


def _psi_rows(spec: ModelSpec, driver: LevyDriver, times: np.ndarray) -> np.ndarray:
    """The (L, d) psi weights at the left endpoints times[:-1]."""
    return np.stack([spec.weights(t, driver.rank) for t in times[:-1]])


def _linear_field(spec: ModelSpec, driver: LevyDriver):
    """The linear dynamics as a field that ignores the curve: beta(t) (None
    without drift) and the raw loadings; the psi weights scale the noise
    instead (dL * `_psi_rows`), as in `_exact_transport`.  The loadings are
    read onto the grid once; beta(t), a new curve at each t, at every step."""
    def on_grid(x_max: float, n: int):
        loads = _rows_on(driver.loadings, x_max, n)

        def outputs(t, value, samples):
            return [None if spec.beta is None else _rows_on([spec.beta(t)], x_max, n), loads]

        return outputs

    return on_grid


def _curve_recursion(f0: Curve, times: np.ndarray, dt: float, noise: np.ndarray,
                     field, reads: Sequence[Curve] | None = None) -> Iterator[Curve]:
    """Yield the states f_0..f_L on ``times``, f_{j+1} = shift_dt(f_j + the
    field's outputs at t_j scaled by [dt, noise_j]); the field reads f_j, or
    reads[j] if given, on f_j's nodes (DomainTooShort unless it covers f_j's
    range).

    Each state is shifted as by `shift_curve`.  When dt is a node of f0's
    grid it slices (`semigroup._node_shift`), so every state lies on f0's
    first nodes, the field is set up on f0's grid once and each step builds
    one `Curve`, the state it yields; otherwise it runs through the spline
    of the pre-shift curve onto a new grid, and the field is set up again on
    each.  The outputs lie on the set-up grid and are cut to the state's
    nodes; terms scaled by zero are skipped; an output that covers less of
    the range cuts the state to its last node; the step sums its terms, each
    scaled into one buffer made per set-up, into an array of its own, which
    the next state's samples view.  Only the current state is held, so a
    caller that keeps what it needs of each state as it appears runs in
    memory independent of L.
    """
    f, m = f0, f0._node_index(dt)
    outputs, term = field(f0.x_max, f0.deriv_samples.shape[0]), np.empty_like(f0.deriv_samples)
    yield f0
    for j, (t, row) in enumerate(zip(times[:-1], noise.tolist())):
        grid = x_max, n = f.x_max, f.deriv_samples.shape[0]
        if j and m is None:
            outputs, term = field(*grid), np.empty(n, np.complex128)
        h = f if reads is None else reads[j]
        if not h._covers(x_max):
            raise DomainTooShort(f"state {j} read by the field covers [0, {h.x_max}], "
                                 f"not [0, {x_max}]")
        parts = outputs(t, h.value_at_zero, lambda cut: h._deriv_on(*grid)[:cut])
        v, inc = 0.0, np.zeros(n, np.complex128)
        for part, scales in zip(parts, ((dt,), row)):
            if part is None or not any(scales):
                continue
            x_max, n = min(x_max, part.x_max), min(n, part.samples.shape[-1])
            inc_n, term_n = inc[:n], term[:n]
            for vi, di, s in zip(part.values.tolist(), part.samples, scales):
                if s != 0.0:
                    v += vi * s
                    inc_n += np.multiply(di[:n], s, out=term_n)
        inc = inc[:n]
        inc += f.deriv_samples[:n]
        if m is None:
            f = shift_curve(Curve(f.value_at_zero + v, inc, x_max), dt)
        else:
            f = _node_shift(f.value_at_zero + v, inc, x_max, m, x_max - dt)
        yield f


def oracle_mild_solution(spec: ModelSpec, driver: LevyDriver, times,
                         noise: np.ndarray | None = None,
                         path_id: int = 0) -> SimPath:
    """Fine-grid reference trajectory of curves.

    Recursion f_{j+1} = shift_dt(f_j + beta(t_j) dt + Psi(t_j) dL_j); the
    represented x-range shrinks by dt each step, so f0 must cover
    [0, times[-1] + whatever range the caller needs at the final time].
    """
    times, dt, dL = _time_grid(times, driver, noise, path_id)
    states = _curve_recursion(spec.f0, times, dt, dL * _psi_rows(spec, driver, times),
                              _linear_field(spec, driver))
    return SimPath(times=times, states=list(states), noise_record=dL)


def _drift_curves(spec: ModelSpec, times: np.ndarray):
    """beta(t_l) per left endpoint, and the distinct curves as (first t_l, curve)."""
    betas = [] if spec.beta is None else [spec.beta(t) for t in times[:-1]]
    distinct = {}
    for t, b in zip(times, betas):   # the list keeps every id in use
        distinct.setdefault(id(b), (t, b))
    return betas, list(distinct.values())


def _projected_inputs(spec: ModelSpec, driver: LevyDriver, times, betas, k: int):
    """Project every input of the linear dynamics on one time grid, once.

    ``betas`` are the drift curves at the left endpoints times[:-1]
    (`_drift_curves`).  Returns the projected f0; the loadings and the drift
    (None without drift) as (c_star, c) pairs of shapes ((d,), (d, 2k+1))
    and ((L,), (L, 2k+1)); and the (L, d) psi weights at the left endpoints.
    """
    p = spec.params

    def stacked(curves):
        states = [coefficients_fft(c, k, p) for c in curves]
        return np.array([s.c_star for s in states]), np.stack([s.c for s in states])

    drift = stacked(betas) if betas else None
    return (coefficients_fft(spec.f0, k, p), stacked(driver.loadings), drift,
            _psi_rows(spec, driver, times))


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


def _final_state(init: CoeffState, loads, drift, dt: float, k_list, lag):
    """The last state of `_exact_transport` at each level of ``k_list`` in
    closed form: a function of ``weighted`` (..., n_steps, d) that yields per
    level (Re c_star, [Re c_0..c_k, Im c_1..c_k]), the real coordinates that
    `_half_spectrum` reads.  ``lag`` is `semigroup._shift_factors` at init's
    level for the lags n_steps dt, ..., dt.

    The recursion is linear, so at t = L dt, with lag_l = t - t_l and inc_l
    the increment added at step l,

        c(t) = e^{lambda_n t} c_0 + sum_l e^{lambda_n lag_l} inc_l,
        c_star(t) = c_star_0 + g(t).c_0 + sum_l (inc_star_l + g(lag_l).inc_l),

    because g_n(dt) sum_{m<M} e^{lambda_n m dt} = g_n(M dt).  The f0 and
    drift parts are one constant per level.  Mode n's noise part is the same
    at every level k >= |n|; only c_star's sums over the level's modes, so one
    real kernel on rows (l, i), built here once, serves all levels: a column
    Re(load_star_i + g(lag_l).load_c_i) per level, then Re and Im of
    e^{lambda_n lag_l} load_c_i for modes 0..K and 1..K, K = max(k_list).
    A call makes one product with it, and each level gathers its columns.
    """
    (load_star, load_c), k0, km, n_lev = loads, init.k, max(k_list), len(k_list)
    stars, levels = [], []
    for i, k in enumerate(k_list):
        sl = slice(k0 - k, k0 + k + 1)
        g_lag, growth_lag = (np.ascontiguousarray(f[:, sl]) for f in lag)
        c_star, c = init.c_star + init.c[sl] @ g_lag[0], growth_lag[0] * init.c[sl]
        if drift is not None:
            drift_c = dt * drift[1][:, sl]
            c_star = c_star + dt * np.sum(drift[0]) + np.sum(g_lag * drift_c)
            c = c + np.sum(growth_lag * drift_c, axis=0)
        stars.append((load_star + g_lag @ load_c[:, sl].T).real)
        cols = np.r_[n_lev:n_lev + k + 1, n_lev + km + 1:n_lev + km + k + 1]
        levels.append((c_star.real, cols, np.concatenate([c[k:].real, c[k + 1:].imag])))
    modes = lag[1][:, None, k0:k0 + km + 1] * load_c[:, k0:k0 + km + 1]
    kernel = np.dstack([*stars, modes.real, modes.imag[..., 1:]]).reshape(-1, n_lev + 2 * km + 1)

    def final(weighted: np.ndarray):
        noise = weighted.reshape(*weighted.shape[:-2], kernel.shape[0]) @ kernel
        for i, (star, cols, a) in enumerate(levels):
            yield star + noise[..., i], noise[..., cols] + a

    return final


def simulate_fk_state(spec: ModelSpec, driver: LevyDriver, times, k: int,
                      noise: np.ndarray | None = None,
                      path_id: int = 0) -> StateVariables:
    """Exact simulation of the truncated dynamics via its state variables.

    Mode n follows dU_n = lambda_n U_n dt + dX_n with the linear part solved
    exactly (factor e^{lambda_n dt}); the spot is the constant coefficient,
    which the shift updates through sum_n U_n g_n(dt).  The invariant
    "spot == curve value at 0" holds identically because g_n(0) = 0.
    """
    times, dt, dL = _time_grid(times, driver, noise, path_id)
    init, loads, drift, psi = _projected_inputs(spec, driver, times,
                                                _drift_curves(spec, times)[0], k)
    S_k, U = zip((init.c_star, init.c),
                 *_exact_transport(init, loads, drift, psi * dL, dt, k))
    return StateVariables(np.array(S_k), np.stack(U), init.params)


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


def _euler_intervals(f0: Curve, k: int, params: BasisParams) -> int:
    """The count of f0's grid intervals on [0, T], where the Euler loop folds;
    ValueError unless T is a node (`Curve._node_index`), the count is even
    and 2k+1 modes fit."""
    n_T = f0._node_index(params.horizon)
    if n_T is None or n_T % 2 != 0:
        raise ValueError("initial-curve grid must split [0, T] into an even "
                         "number of intervals")
    if 2 * k + 1 > n_T:
        raise ValueError(f"{2 * k + 1} modes alias on f0's {n_T} intervals over [0, T]")
    return n_T


def _euler_path(spec: ModelSpec, times: np.ndarray, dt: float, noise: np.ndarray,
                k: int, field) -> StateVariables:
    """Explicit Euler on the 2k+2 coefficient system fed by a field.

    The field is set up once on the fold grid, f0's nodes over [0, T]; at t_j
    its outputs (drift and one noise column per factor) are derivative
    samples there, each folded (`projection._fold_rows`) and scaled by dt
    or noise_j.  They must cover [0, T] (else DomainTooShort); a None output
    and a term scaled by zero are skipped.  The state's span derivative is
    built only when the field reads it, on the nodes it asks for (the masked
    field's, below T - t_j) by a product over those columns; BLAS may round
    a column apart from a wider product's, so the states can differ from
    folding the span `Curve` in their last bits.  A step makes the FFTs
    the folds pin and the states' arithmetic: its spectra go into one array
    made per path, the scaled folds are summed after the transport's
    increment in their order (one `add.accumulate`), and the next state is
    written into the path's array.
    """
    p = spec.params
    limit = euler_stability_limit(p, k)
    if dt >= limit:
        raise UnstableStep(f"step {dt} >= stability limit {limit:.3e} for k={k}")
    A = system_matrix(p, k)

    f0 = spec.f0
    n = _euler_intervals(f0, k, p) + 1
    # the fold weights as complex numbers, like the samples they weight: a
    # real operand would be cast to complex at every step
    x_fold, w, e = _fold_grid(n, p)
    grid = x_fold, w + 0j, e + 0j
    Gd = eval_g_n_deriv(p, p.n_range(k), f0.grid[:n])
    outputs = field(p.horizon, n)

    init = coefficients_fft(f0, k, p)
    xs = np.empty((times.size, 2 * k + 2), np.complex128)
    xs[0, 0], xs[0, 1:] = init.c_star, init.c
    # per output, the rows last folded, their values and fold inputs: an
    # output that ignores the state (the loadings) is the very rows the field
    # set up at every step, so its inputs are formed once.  They are still
    # folded at every step, into spectra made once per path; the ROADMAP's
    # fold memo drops those FFTs once the benchmark counts fold inputs
    # instead of FFT calls
    folded, formed = [None, None], [None, None]
    spectra = np.empty((1 + noise.shape[-1], n - 1), np.complex128)
    for j, (t, row) in enumerate(zip(times[:-1], noise.tolist())):
        x = xs[j]
        parts = outputs(t, complex(x[0]), lambda m: x[1:] @ Gd[:, :m])
        inc = dt * (A @ x)
        inc_star, scales, inputs = complex(inc[0]), [], []
        for i, (part, part_scales) in enumerate(zip(parts, ((dt,), row))):
            if part is None:
                continue
            if part is not folded[i]:
                if not _reaches(part.x_max, p.horizon):
                    raise DomainTooShort(f"field output at t={t:g} covers "
                                         f"[0, {part.x_max}], not [0, T]")
                folded[i] = part
                formed[i] = [(value, _fold_input(d, grid))
                             for value, d in zip(part.values.tolist(), part.samples)]
            for s, (value, a) in zip(part_scales, formed[i]):
                if s != 0.0:
                    inc_star += s * value
                    scales.append(s)
                    inputs.append(a)
        inc[0] = inc_star
        if inputs:
            # the scaled folds after the transport, summed in order by one accumulate
            rows = _fold_rows(inputs, k, p.horizon, spectra)
            rows *= np.array(scales)[:, None]
            rows[0] += inc[1:]
            inc[1:] = np.add.accumulate(rows)[-1]
        np.add(x, inc, out=xs[j + 1])
    return StateVariables(xs[:, 0], xs[:, 1:], init.params)


def euler_coefficient_system(spec: ModelSpec, driver: LevyDriver, times, k: int,
                             noise: np.ndarray | None = None) -> StateVariables:
    """Plain explicit Euler on the 2k+2 complex coefficient system: the
    Markovian Euler loop on the field that ignores the curve (`_linear_field`).
    Without ``noise`` the driver's path 0 supplies the increments.
    """
    times, dt, dL = _time_grid(times, driver, noise)
    return _euler_path(spec, times, dt, dL * _psi_rows(spec, driver, times), k,
                       _linear_field(spec, driver))


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
    narrows.  `simulate` stacks the G_n per window (`_window_weights`).
    """
    p = state.params
    if not (t <= T1 < T2 <= p.horizon + 1e-12):
        raise BadWindow(f"need t <= T1 < T2 <= {p.horizon}, got ({t}, {T1}, {T2})")
    return complex(state.c_star + np.sum(_window_weights(p, t, T1, T2) * state.c))


@lru_cache(maxsize=512)
def _window_weights(params: BasisParams, t: float, T1: float, T2: float) -> np.ndarray:
    """The read-only weights G_n, n = -k..k, of `delivery_forward` at level params.k;
    the memo holds at most 512 of them."""
    lams = lambda_n(params, params.n_range())
    G = (np.exp(lams * (T1 - t)) * _phi1(lams * (T2 - T1)) - 1.0) \
        / (lams * np.sqrt(params.horizon))
    G.flags.writeable = False
    return G


# -- Monte-Carlo convergence experiment --------------------------------------

def _lagged(times, x, dt, curve_eval):
    """(at, m): at(c, j0, j1) = curve_eval(c, y[j0:j1]), y[l] = t - t_l + x.  If the
    rows are exactly one grid's windows, m = dt / x's step apart (row l's first
    n_x - m points are row l+1's last), it evaluates the rows' distinct points
    and views them; else m = n_x and at(c, j0, j1, cols) evaluates y[j0:j1, cols]
    alone.  The windows are tested about _BLOCK_POINTS entries of y at a time."""
    lag, n = times[-1] - times[:-1], x.size
    L, m, r = lag.size, max(1, np.searchsorted(x, x[0] + dt)), max(1, _BLOCK_POINTS // n)
    head, tail = lag[:-1, None], lag[1:, None]
    if m < n and all(np.array_equal(head[j:j + r] + x[:n - m], tail[j:j + r] + x[m:])
                     for j in range(0, L - 1, r)):
        u = np.concatenate([lag[-1] + x, (lag[-2::-1, None] + x[-m:]).ravel()])
        rows = lambda v: np.lib.stride_tricks.sliding_window_view(v, n)[::-m]
        return lambda c, j0, j1: rows(curve_eval(c, u[(L - j1) * m:(L - 1 - j0) * m + n])), m
    return lambda c, j0, j1, cols=slice(None): curve_eval(c, lag[j0:j1, None] + x[cols]), n


def _mild_terms(spec: ModelSpec, driver: LevyDriver, times: np.ndarray, betas,
                x: np.ndarray, curve_eval) -> tuple[np.ndarray, Callable]:
    """The closed-form mild solution at t = times[-1] on x,

    f(t, x) = f0(t + x) + dt sum_l beta(t_l)(t - t_l + x)
              + sum_{l, i} weighted[..., l, i] loading_i(t - t_l + x),

    as its noise-free part ``base`` (n_x,) and ``kernel(c0, c1)``, columns
    c0..c1 of its loading kernel K (L, d, n_x), K[l, i] = loading_i(t - t_l + x):
    the paths of ``weighted`` (psi weights times increments, (..., L, d)) are
    ``base + np.tensordot(weighted, K, axes=2)``.  ``betas`` are beta(t_l) and
    ``curve_eval(curve, y)`` is `Curve.value`, its real part, or `Curve.deriv`.
    Each loading, or run of one drift, is evaluated on about _BLOCK_POINTS
    distinct points at a time: those of one grid, here, for every block to
    view, if the rows are exactly its windows (`_lagged`), else a block's own.
    The drift rows are summed in order, about _BLOCK_POINTS entries at a time.
    """
    dt, L, n = float(times[1] - times[0]), times.size - 1, x.size
    at, m = _lagged(times, x, dt, curve_eval)
    lags = max(1, (_BLOCK_POINTS - n) // m + 1)
    base = curve_eval(spec.f0, times[-1] + x)
    if betas:
        s = [j for j in range(L) if j % lags == 0 or betas[j] is not betas[j - 1]] + [L]
        total, r = [], max(1, _BLOCK_POINTS // n)
        for a, b in zip(s, s[1:]):
            rows = at(betas[a], a, b)
            for j in range(0, b - a, r):   # the partial sum heads each block
                total = [np.add.reduce(np.concatenate([*total, rows[j:j + r]]), keepdims=True)]
        base = base + dt * total[0][0]
    held = [[at(c, l0, min(l0 + lags, L)) for l0 in range(0, L, lags)]
            for c in driver.loadings] if m < n else None

    def kernel(c0: int, c1: int) -> np.ndarray:
        out = np.empty((L, driver.rank, c1 - c0), base.dtype)
        step = lags if held else max(1, _BLOCK_POINTS // (c1 - c0))
        for i, c in enumerate(driver.loadings):
            for b, l0 in enumerate(range(0, L, step)):
                l1 = min(l0 + step, L)
                out[l0:l1, i] = held[i][b][:, c0:c1] if held else at(c, l0, l1, slice(c0, c1))
        return out

    return base, kernel


def _half_spectrum(G: np.ndarray):
    """Re(c_star + c @ G) on x for Hermitian states of level k, from modes
    0..k only, as a function of (Re c_star, a), a the real coordinates
    [Re c_0, Re c_{1..k}, Im c_{1..k}] (..., 2k+1) that `_final_state`
    yields; ``G`` is (k+1, n_x), the rows g_0..g_k on x (`eval_g_n`), g_0 real.

    With c_{-n} = conj(c_n) and g_{-n} = conj(g_n) the two modes +-n add up
    to 2 Re(c_n g_n), so the value is one real product

        Re c_star + a @ [g_0; 2 Re g_{1..k}; -2 Im g_{1..k}]

    over 2k+1 real columns, its basis rows built here once.  The values go
    into ``out`` (..., n_x) when given, as the product's output, and c_star
    is added there in place, which rounds as the allocating sum does.
    """
    B = 2.0 * np.concatenate([G.real, -G.imag[1:]])
    B[0] = G[0].real

    def values(c_star: np.ndarray, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.matmul(a, B, out=out)
        out += c_star[..., None]
        return out

    return values


def _require_real(spec: ModelSpec, driver: LevyDriver, drifts) -> None:
    """Raise ValueError unless f0, every loading and every distinct drift is real."""
    named = [("f0", spec.f0)]
    named += [(f"loading {i}", c) for i, c in enumerate(driver.loadings)]
    named += [(f"drift at t={float(t):g}", b) for t, b in drifts]
    for name, c in named:
        if c.deriv_samples.imag.any() or complex(c.value_at_zero).imag != 0.0:
            raise ValueError(f"convergence_experiment needs real curves; {name} "
                             "has an imaginary part")


def convergence_experiment(spec: ModelSpec, driver: LevyDriver, t_eval: float,
                           k_list: Sequence[int], n_paths: int,
                           n_steps: int = 64) -> list[dict]:
    """Mean squared sup-error of the truncated model against the oracle.

    Both solutions are linear in the noise (deterministic coefficients), so
    the oracle at t_eval is the mild-solution sum and the model the closed
    form of the exact transport.  The paths are stepped in chunks of
    _PATH_CHUNK, each path on its own stream (`LevyDriver.path_rng`, seeded
    for the chunk in one pass by `LevyDriver._path_rngs`, each generator
    valid until the next is drawn), so memory does not grow with n_paths;
    every k reads the chunk's noise (common random numbers), and only the
    per-path sup-errors (len(k_list), n_paths) are kept, which `_mc_rows`
    summarises.  The noise, the oracle and each level's error go into one
    (P, L, d) and two (P, CONV_X_POINTS) arrays made once per run,
    P = min(_PATH_CHUNK, n_paths), a partial last chunk using their first
    rows.  A chunk makes one product for the oracle with its whole
    (L, d, CONV_X_POINTS) kernel, built first, and one for every level's
    final state (`_final_state`), then per level one value product into the
    error array (`_half_spectrum`'s ``out``).  The sup is taken over CONV_X_POINTS points
    of [0, T - t_eval].  Each row adds bound_A_over_k, the sampled rate
    constant over k, from the projected initial condition, the drift and
    noise loads and pathwise curvature constants of the oracle on the first
    BOUND_PATHS paths, drawn before the chunks (`_sampled_bound`, whose
    arrays do not grow with L x its grid).  A t_eval beyond T raises
    DomainTooShort before any other work.

    The inputs must be real curves, as forward prices are: f0, every
    loading and every drift curve, else ValueError.  Their states are then
    Hermitian (c_{-n} = conj(c_n)), so the error is taken in real
    arithmetic, from modes 0..k.  The basis is evaluated once, at the
    largest level, and each level takes its modes.
    """
    p = spec.params
    T = p.horizon
    if t_eval > T + 1e-12:
        raise DomainTooShort(f"t_eval={t_eval} lies beyond the horizon T={T}; "
                             "the error is measured on [0, T - t_eval]")
    dt = t_eval / n_steps
    times = np.linspace(0.0, t_eval, n_steps + 1)
    betas, drifts = _drift_curves(spec, times)
    _require_real(spec, driver, drifts)
    k_max = int(max(k_list))
    init, loads, drift, psi = _projected_inputs(spec, driver, times, betas, k_max)

    def weighted(ids, out: np.ndarray) -> np.ndarray:
        """psi weights times the increments of paths ``ids``, written into the
        first len(ids) rows of ``out`` (P, L, d) and returned as that view."""
        out = out[:len(ids)]
        for row, rng in zip(out, driver._path_rngs(ids)):
            row[...] = driver.increments(rng, dt, n_steps)
        out *= psi
        return out

    x = np.linspace(0.0, T - t_eval, CONV_X_POINTS)
    base, kernel = _mild_terms(spec, driver, times, betas, x,
                               lambda c, y: c.value(y).real)
    # whole, as every chunk reads it, and first, so a run too large for it stops at once
    kernel = kernel(0, x.size).reshape(-1, x.size)
    n_bound = min(BOUND_PATHS, n_paths)
    A_common, C1_mean = _sampled_bound(
        spec, driver, times, betas, drifts, psi,
        weighted(range(n_bound), np.empty((n_bound, *psi.shape))))
    # the basis factors once, at the largest level; each level takes its modes
    lag = _shift_factors(p, k_max, dt * np.arange(n_steps, 0, -1))
    G = eval_g_n(p, np.arange(k_max + 1), x)
    final = _final_state(init, loads, drift, dt, k_list, lag)
    spectra = [_half_spectrum(G[:k + 1]) for k in k_list]
    errs = np.empty((len(k_list), n_paths))
    rows = min(_PATH_CHUNK, n_paths)
    noise, buf, oracles = np.empty((rows, *psi.shape)), *np.empty((2, rows, x.size))
    for start in range(0, n_paths, _PATH_CHUNK):
        chunk = slice(start, min(start + _PATH_CHUNK, n_paths))
        w = weighted(range(chunk.start, chunk.stop), noise)
        oracle = np.dot(w.reshape(len(w), -1), kernel, out=oracles[:len(w)])
        oracle += base
        for err, values, state in zip(errs, spectra, final(w)):
            e = values(*state, out=buf[:len(w)])
            e -= oracle
            err[chunk] = np.square(e, out=e).max(1)

    A = A_common + 3.0 * (1.0 + 1.0 / p.alpha) * C1_mean
    return [dict(row, bound_A_over_k=float(A / row["k"]))
            for row in _mc_rows(errs, k_list, driver.seed)]


def _mc_rows(errs: np.ndarray, k_list: Sequence[int], seed: int) -> list[dict]:
    """The rows of both convergence experiments: per k, the mean of its per-path
    sup-errors ``errs`` (len(k_list), n_paths), std / sqrt(n_paths), n_paths and seed."""
    n = errs.shape[1]
    return [{"k": int(k), "mc_error": float(np.mean(e)), "stderr": float(np.std(e) / np.sqrt(n)),
             "n_paths": int(n), "seed": int(seed)} for e, k in zip(errs, k_list)]


def _sampled_bound(spec: ModelSpec, driver: LevyDriver, times: np.ndarray, betas, drifts,
                   w_t: np.ndarray, weighted: np.ndarray) -> tuple[float, float]:
    """Sampled rate constant: deterministic part plus mean pathwise curvature.

    Deterministic part: 3 c_alpha^2 C2 (||Pi f0||^2 + integrated noise trace
    + squared integrated drift norm); pathwise part: mean of the curvature
    constant of the oracle curve at times[-1] over the paths of ``weighted``
    (psi weights times increments, (n_sample, L, d)); ``betas``, ``drifts``: `_drift_curves`.
    The paths' derivatives are contracted a block of about _BLOCK_POINTS
    kernel entries at a time, bit for bit the whole product, so no array
    holds L x n_x entries; the constants come from one row-wise pass over
    them (`projection._compute_C1_rows`), bit for bit `compute_C1` of each.
    """
    p = spec.params
    dt = float(times[1] - times[0])
    c_alpha_sq = 3.0 * (1.0 + 1.0 / p.alpha)
    C2 = compute_C2(p)

    def pi_norm(h: Curve) -> float:
        return _period_norm(h.value_at_zero, h.deriv, p)

    load_norms = np.array([pi_norm(c) for c in driver.loadings])
    trace_term = float(np.sum(dt * (w_t**2) @ (load_norms**2)))
    norms = {id(b): pi_norm(b) for _, b in drifts}     # one per distinct curve
    drift_term = sum((dt * norms[id(b)] for b in betas), 0.0) ** 2
    A_common = c_alpha_sq * C2 * (pi_norm(spec.f0) ** 2 + trace_term + drift_term)

    # pathwise curvature constants of the oracle solution at times[-1]
    n_pts = spec.f0.deriv_samples.shape[0]
    xg = np.linspace(0.0, p.horizon, min(n_pts, 2**12 + 1))
    base, kernel = _mild_terms(spec, driver, times, betas, xg, Curve.deriv)
    # blocks a multiple of 4 columns wide, the last at least 2: a one-column
    # product, or a one-path product's block that starts off a multiple of 4,
    # runs another BLAS path or tail and rounds apart from the whole product
    n_x, (P, L, d) = xg.size, weighted.shape
    derivs = np.empty((P, n_x), np.result_type(weighted, base))
    w = weighted.reshape(P, L * d).astype(derivs.dtype)      # cast once, not per block
    edges = [*range(0, n_x - 1, 4 * max(1, _BLOCK_POINTS // (4 * L * d))), n_x]
    for c0, c1 in zip(edges, edges[1:]):
        derivs[:, c0:c1] = np.dot(w, kernel(c0, c1).reshape(L * d, c1 - c0))
    del w
    derivs += base
    return A_common, float(np.mean(_compute_C1_rows(derivs, p)))
