"""State-dependent (Markovian) coefficients and their truncated dynamics.

A coefficient field supplies drift b(t, f) and noise-operator columns
psi_i(t, f) together with declared Lipschitz constants.  The structure
condition (coefficients may read the curve only on [0, T - t]) is enforced
mechanically: every field evaluation receives the input curve with its
derivative zeroed beyond T - t, so dependence on the tail is impossible by
construction and audits can verify it by perturbation.  The scheme, the oracle
and the Picard map step one masked field (`_masked_field`) and differ only in
the state it reads.

Fields are stepped on arrays: set up on a grid of [0, x_max], a field's
outputs are values at zero (m,) and derivative samples (m, n) on that grid
(`space._Rows`), whatever part of it the state holds.  Registry fields define
each output once in that form (`_output`), read their fixed curves onto the
grid once per set-up and read the state only on the nodes below T - t;
their `Curve` callables are built from it and carry it as ``on_grid``.
Other fields run through one adapter (`_masked_field`).  In both, a field
output lies on its input's grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from .basis import (BasisParams, eval_g_n, eval_g_n_deriv, frame_lower_constant,
                    frame_upper_constant, projector_norm_bound)
from .dynamics import (LevyDriver, ModelSpec, SimPath, StateVariables, _curve_recursion,
                       _euler_intervals, _euler_path, _mc_rows, _time_grid)
from .projection import CoeffState, coefficients_fft, reconstruct_deriv
from .space import Curve, _mask_start, _Rows, _rows_on, norm_alpha
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
# f0's nodes past T the experiment's oracle keeps: the not-a-knot spline's end
# condition moves a slope this far away by about (2 - sqrt(3))^64 ~ 2e-37 relative
_ORACLE_MARGIN = 64


def _input_cut(t: float, params: BasisParams) -> float:
    """The structure condition's cut: a field at time t reads [0, T - t]."""
    return max(params.horizon - t, 0.0)


def _masked(f: Curve, t: float, params: BasisParams) -> Curve:
    """Input restriction realising the structure condition."""
    return f.restrict_mask(_input_cut(t, params))


def make_field(name: str, driver: LevyDriver, params: BasisParams,
               **kw) -> CoefficientField:
    """Registry of named coefficient fields.

    constant           b = fixed curve (kw b_curve, default zero), psi = loadings
    mean_revert        b(t,f) = kappa (theta - f), psi = loadings
    proportional_vol   b = 0, psi_i(t,f) = sigma0 (1 + tanh(Re f(0)) / 2) loading_i

    Each output is defined once, on arrays (`_output`); its ``b``/``psi``
    is the `Curve` form of that definition.  Every loading, ``theta`` and
    ``b_curve`` must cover [0, T], else DomainTooShort.
    """
    loads = tuple(driver.loadings)
    named = {f"loading {i}": c for i, c in enumerate(loads)}
    named.update((key, kw[key]) for key in ("theta", "b_curve") if kw.get(key) is not None)
    for what, c in named.items():
        c._require(params.horizon, what, "T")
    # the zero drift: two nodes over the loadings' range, so no norm of it is finer
    zero = flat_curve(0.0, x_max=loads[0].x_max, n_points=2)
    if name == "constant":
        b_curve = zero if kw.get("b_curve") is None else kw["b_curve"]
        return CoefficientField(
            b=_output((b_curve,), single=True),
            psi=_output(loads),
            lipschitz_b=max(1e-12, norm_alpha(b_curve, params.alpha)),
            lipschitz_psi=_loads_norm(loads, params))
    if name == "mean_revert":
        kappa = float(kw["kappa"])
        theta = kw["theta"]

        def drift(rows):
            # kappa (theta - 0) where the mask zeroes the state
            masked, at_zero = rows.samples * kappa, rows.values.tolist()

            def step(t, value, samples, m):
                d = masked.copy()
                head = d[:, :m]                    # rows may end before node m
                np.subtract(rows.samples[:, :head.shape[1]], samples(head.shape[1]), out=head)
                head *= kappa
                # Python's complex arithmetic rounds as numpy's does
                return _Rows(np.array([(v - value) * kappa for v in at_zero]), d, rows.x_max)

            return step

        return CoefficientField(
            b=_output((theta,), drift, single=True),
            psi=_output(loads),
            lipschitz_b=kappa * (1.0 + norm_alpha(theta, params.alpha)),
            lipschitz_psi=_loads_norm(loads, params))
    if name == "proportional_vol":
        sigma0 = float(kw["sigma0"])

        def vol(rows):
            def step(t, value, samples, m):
                s = sigma0 * (1.0 + 0.5 * np.tanh(complex(value).real))
                return _Rows(rows.values * s, rows.samples * s, rows.x_max)

            return step

        # |d/dv tanh| <= 1 and |f(0) - g(0)| <= sqrt(1 + 1/alpha) ||f - g||
        lip = sigma0 * (1.5 + 0.5 * np.sqrt(1.0 + 1.0 / params.alpha)
                        * _loads_norm(loads, params))
        return CoefficientField(b=_output((zero,), single=True),
                                psi=_output(loads, vol), lipschitz_b=1e-12,
                                lipschitz_psi=max(lip, sigma0 * 1.5 * _loads_norm(loads, params)))
    raise ValueError(f"unknown coefficient field {name!r}")


def _output(curves: Sequence[Curve], setup=None, single: bool = False):
    """One field output defined on arrays, as its public `Curve` callable.

    ``setup(rows)`` takes ``curves`` read onto a grid (`space._rows_on`) once
    and returns ``step(t, value, samples, m) -> space._Rows`` on that grid,
    for a state with value at zero ``value`` whose derivative is
    ``samples(m)`` on the grid's first m nodes and zero beyond them; a step
    that reads no derivative builds none.  Without ``setup`` the
    outputs are ``curves``.  The array form rides on the callable as its
    ``on_grid`` attribute (so wrappers made with `functools.wraps` keep it,
    and the schemes run the wrapped output, never the wrapper's body: such a
    wrapper must return the wrapped outputs unchanged):
    ``on_grid(x_max, n)`` sets the output up on the grid of [0, x_max] with
    n nodes and returns its step; without ``setup`` the step returns the very
    rows it read.  The `Curve` form runs the same step on f's own grid, its
    outputs on the rows' range, or returns ``curves`` themselves; ``single``
    unpacks its one output.  The `Curve` form keeps the set-up of its last
    grid, keyed by the input's (x_max, n), so calls on one grid read
    ``curves`` once and memory holds one set-up.
    """
    def on_grid(x_max: float, n: int):
        rows = _rows_on(curves, x_max, n)
        return (lambda t, value, samples, m: rows) if setup is None else setup(rows)

    last = {}

    def curve_form(t: float, f: Curve):
        if setup is None:
            outs = tuple(curves)
        else:
            grid = x_max, n = f.x_max, f.deriv_samples.shape[0]
            if grid not in last:
                last.clear()
                last[grid] = on_grid(x_max, n)
            rows = last[grid](t, f.value_at_zero, lambda m: f.deriv_samples[:m], n)
            outs = tuple(Curve(v, d, rows.x_max) for v, d in zip(rows.values, rows.samples))
        return outs[0] if single else outs

    curve_form.on_grid = on_grid
    return curve_form


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
    return Curve(state.c_star, reconstruct_deriv(state, x), x_max)


def projected_coefficients(cf: CoefficientField, k: int, params: BasisParams,
                           n_points: int = 2**10 + 1) -> CoefficientField:
    """Pass every field output through the localise-and-truncate projection."""
    bound = truncation_norm_bound(params)

    def project(c: Curve) -> Curve:
        return _span_curve(coefficients_fft(c, k, params), c.x_max, n_points)

    return CoefficientField(b=lambda t, f: project(cf.b(t, f)),
                            psi=lambda t, f: tuple(map(project, cf.psi(t, f))),
                            lipschitz_b=cf.lipschitz_b * bound,
                            lipschitz_psi=cf.lipschitz_psi * bound)


def contract_audit(cf: CoefficientField, params: BasisParams, *,
                   n_pairs: int = 100, seed: int = 0) -> dict:
    """Empirical check of the declared Lipschitz, growth and structure promises.

    Random real span curves of level AUDIT_K_SPAN on 513 nodes are fed
    through the masked inputs at times drawn from AUDIT_TIMES; reported are
    the worst observed ratios (must be <= 1 for a honest field) and the
    largest output change under tail-only perturbations (must be exactly 0).
    A registry field answers on its input's grid, as the schemes read it.
    The distance between one output object and itself (a loading or a
    fixed drift a field returns as it is) is 0.0, without a difference curve.
    """
    rng = np.random.default_rng(seed)
    x_max = 2.0 * params.horizon
    # g_n' of level AUDIT_K_SPAN on 513 nodes, built once
    gd = eval_g_n_deriv(params, params.n_range(AUDIT_K_SPAN), np.linspace(0.0, x_max, 513))

    def rand_curve():
        n_c = 2 * AUDIT_K_SPAN + 1
        c = rng.normal(size=n_c) + 1j * rng.normal(size=n_c)
        c = 0.5 * (c + np.conj(c[::-1]))     # hermitian: real curve
        # drop the synthesis' rounding-level imaginary part
        return Curve(complex(rng.normal()), (c @ gd).real, x_max)

    def gap(a: Curve, b: Curve) -> float:
        return 0.0 if a is b else norm_alpha(a - b, params.alpha)

    worst_lip_b = worst_lip_psi = worst_growth = worst_structure = 0.0
    for _ in range(n_pairs):
        f, g = rand_curve(), rand_curve()
        t = float(rng.choice(AUDIT_TIMES))
        fm, gm = _masked(f, t, params), _masked(g, t, params)
        dist = gap(f, g)
        bf, pf = cf.b(t, fm), cf.psi(t, fm)
        nb = gap(bf, cf.b(t, gm))
        worst_lip_b = max(worst_lip_b, nb / (cf.lipschitz_b * dist + 1e-300))
        npsi = np.sqrt(sum(gap(a, b) ** 2 for a, b in zip(pf, cf.psi(t, gm))))
        worst_lip_psi = max(worst_lip_psi, npsi / (cf.lipschitz_psi * dist + 1e-300))
        gb = norm_alpha(bf, params.alpha)
        worst_growth = max(worst_growth,
                           gb / (cf.lipschitz_b * (1.0 + norm_alpha(f, params.alpha))
                                 + 1e-300))
        # tail-only perturbation of exactly the nodes the mask zeroes:
        # must not change any output
        tail = f.deriv_samples.copy()
        tail[f._masked_from(_input_cut(t, params)):] += rng.normal()
        f_pert = _masked(Curve(f.value_at_zero, tail, f.x_max), t, params)
        db = gap(bf, cf.b(t, f_pert))
        dpsi = max(gap(a, b) for a, b in zip(pf, cf.psi(t, f_pert)))
        worst_structure = max(worst_structure, db, dpsi)
    return {
        "lipschitz_b_ratio": float(worst_lip_b),
        "lipschitz_psi_ratio": float(worst_lip_psi),
        "growth_ratio": float(worst_growth),
        "structure_leak": float(worst_structure),
    }


def _masked_field(cf: CoefficientField, params: BasisParams):
    """The field as both loops read it, at the state masked beyond T - t.

    ``on_grid(x_max, n)`` sets the field up on the grid of [0, x_max] with n
    nodes and returns ``outputs(t, value, samples) -> [b, psi]``, each a
    `space._Rows` on that grid, for a state on its first nodes with value at
    zero ``value`` and derivative ``samples(m)`` on its first m nodes.  The
    field reads ``samples`` of the nodes below T - t alone (the Euler loop
    builds no others); the masked state is zero beyond them.  A field whose
    ``b`` and ``psi`` carry their array form (`_output`) runs it on the count
    m of those nodes; any other goes through one adapter, which builds the
    masked state `Curve` on the grid, its samples padded with zeros, calls
    ``b`` and ``psi`` and reads each output on the grid's nodes
    (`space._rows_on`): for a registry field, its array form's bit for bit.
    """
    forms = [getattr(fn, "on_grid", None) for fn in (cf.b, cf.psi)]

    def on_grid(x_max: float, n: int):
        if None in forms:
            def outputs(t, value, samples):
                head = samples(_mask_start(x_max, n, _input_cut(t, params)))
                d = np.zeros(n, head.dtype)
                d[:head.shape[0]] = head
                fm = Curve(value, d, x_max)
                return [_rows_on([cf.b(t, fm)], x_max, n), _rows_on(cf.psi(t, fm), x_max, n)]

            return outputs
        b_step, psi_step = (form(x_max, n) for form in forms)

        def outputs(t, value, samples):
            m = _mask_start(x_max, n, _input_cut(t, params))
            return [b_step(t, value, samples, m), psi_step(t, value, samples, m)]

        return outputs

    return on_grid


def oracle_markovian(cf: CoefficientField, spec: ModelSpec, driver: LevyDriver,
                     times, noise: np.ndarray | None = None) -> SimPath:
    """Fine-grid curve-space Euler scheme for the state-dependent dynamics.

    f_{j+1} = shift_dt(f_j + b(t_j, f_j) dt + psi(t_j, f_j) dL_j), with the
    pre-step state in the noise term (left-limit evaluation).  Without
    ``noise`` the driver's path 0 supplies the increments.  Every state is
    kept, for tests and the Picard map; `markovian_convergence_experiment`
    streams the same states instead and holds one at a time.
    """
    times, dt, dL = _time_grid(times, driver, noise)
    states = _curve_recursion(spec.f0, times, dt, dL, _masked_field(cf, spec.params))
    return SimPath(times=times, states=list(states), noise_record=dL)


def picard_operator_V(h_states: Sequence[Curve], cf: CoefficientField,
                      spec: ModelSpec, driver: LevyDriver, times,
                      noise: np.ndarray) -> list[Curve]:
    """One application of the fixed-point map to a discretised process.

    V(h)(t_j) = shift_{t_j} f0
                + sum_{l<j} shift_{t_j - t_l} (b(t_l, h_l) dt + psi(t_l, h_l) dL_l)

    on the same grid and noise record as h, by the oracle's own recursion;
    ValueError unless h holds one state per time.
    """
    times, dt, noise = _time_grid(times, driver, noise)
    if len(h_states) != times.size:
        raise ValueError(f"{len(h_states)} states for {times.size} times")
    return list(_curve_recursion(spec.f0, times, dt, noise,
                                 _masked_field(cf, spec.params), h_states))


def simulate_markovian_fk(cf: CoefficientField, spec: ModelSpec,
                          driver: LevyDriver, times, k: int,
                          noise: np.ndarray | None = None) -> StateVariables:
    """Explicit Euler on the 2k+2 coefficient system with state feedback.

    b_k, psi_k are the masked field's outputs at the span derivative on the
    initial curve's nodes below T - t, folded back into coefficients over
    [0, T] (`dynamics._euler_path`); the state stays in the span by
    construction.  Without ``noise`` the driver's path 0 supplies the
    increments.
    """
    times, dt, dL = _time_grid(times, driver, noise)
    return _euler_path(spec, times, dt, dL, k, _masked_field(cf, spec.params))


def markovian_convergence_experiment(cf: CoefficientField, spec: ModelSpec,
                                     driver: LevyDriver,
                                     k_list: Sequence[int], n_paths: int,
                                     n_steps: int = 32, n_x: int = 256,
                                     sup_slices: int = 64) -> list[dict]:
    """MC estimate of E[sup over the (t, x) grid of |fk_hat - f|^2] per k.

    The oracle and every truncation level share each path's noise record,
    drawn by the time-grid rule (`dynamics._time_grid`).
    The sup runs over n_x points of [0, T - t_j] at every
    max(1, n_steps // sup_slices)-th step and the last; refining the slices
    must not move the estimate beyond MC noise, which the test-suite checks.  The oracle's
    states are streamed (`dynamics._curve_recursion`) and read at the slices
    as they appear, each level's only at the slices, and of the paths only
    the sup-errors (len(k_list), n_paths) are kept, summarised by
    `dynamics._mc_rows`.  Each slice evaluates the basis once, at the largest
    level, for every level's rows -k..k.
    f0's grid must suit every k, checked first at max(k_list): the rule
    (`dynamics._euler_intervals`) only tightens as k grows; and it must hold
    a node past T, else DomainTooShort: the oracle's last state keeps one.
    A field whose ``b`` and ``psi`` carry their array form reads below T - t,
    and the slices read [0, T - t_j], so the oracle steps f0 cut to its
    nodes up to T and _ORACLE_MARGIN beyond: at a node dt on a grid whose
    step is a power of two the sup values keep their bits, elsewhere they
    move by rounding or, off the nodes, by the spline shifts' resampling.
    Any other field may read its input anywhere and keeps f0's whole range.
    """
    p, km, f0 = spec.params, max(k_list), spec.f0
    n_T = _euler_intervals(f0, int(km), p)
    f0._require_node_past(p.horizon, "f0", "T")
    if all(hasattr(fn, "on_grid") for fn in (cf.b, cf.psi)):
        n = n_T + 1 + _ORACLE_MARGIN
        if n < f0.deriv_samples.shape[0]:
            f0 = Curve(f0.value_at_zero, f0.deriv_samples[:n], (n - 1) * f0.grid_step)
    times = np.linspace(0.0, p.horizon, n_steps + 1)
    slices = sorted({*range(0, n_steps + 1, max(1, n_steps // sup_slices)), n_steps})
    on_slice = np.isin(np.arange(n_steps + 1), slices)
    xs = [np.linspace(0.0, max(p.horizon - times[j], 0.0), n_x) for j in slices]
    errs = np.zeros((len(k_list), n_paths))
    for pid in range(n_paths):
        _, dt, noise = _time_grid(times, driver, path_id=pid)
        oracle = compress(_curve_recursion(f0, times, dt, noise, _masked_field(cf, p)), on_slice)
        o_vals = [f.value(x) for f, x in zip(oracle, xs)]
        paths = (simulate_markovian_fk(cf, spec, driver, times, k, noise=noise) for k in k_list)
        levels = [(path.S_k[slices], path.U[slices]) for path in paths]
        for i, (x, o) in enumerate(zip(xs, o_vals)):
            g = eval_g_n(p, p.n_range(km), x)
            errs[:, pid] = np.maximum(errs[:, pid], [
                np.max(np.abs(c_star[i] + c[i] @ g[km - k:km + k + 1] - o) ** 2)
                for k, (c_star, c) in zip(k_list, levels)])
    return _mc_rows(errs, k_list, driver.seed)
