import collections
import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwdapprox import dynamics, markovian, space
from fwdapprox.basis import BasisParams
from fwdapprox.dynamics import LevyDriver, ModelSpec, euler_coefficient_system
from fwdapprox.errors import DomainTooShort, UnstableStep
from fwdapprox.markovian import (
    CoefficientField,
    contract_audit,
    make_field,
    markovian_convergence_experiment,
    oracle_markovian,
    picard_operator_V,
    projected_coefficients,
    simulate_markovian_fk,
)
from fwdapprox.projection import CoeffState, coefficients_fft, reconstruct
from fwdapprox.semigroup import shift_curve
from fwdapprox.space import Curve, norm_alpha
from fwdapprox.testcurves import exp_loading, flat_curve, seasonal_curve, smooth_bump

P = BasisParams(alpha=1.0, lam=0.5, horizon=1.0)


def make_driver(seed=11, scale=0.05):
    loads = [exp_loading(scale, r) for r in (0.5, 1.0, 2.0)]
    return LevyDriver(rank=3, loadings=loads, seed=seed)


def make_spec():
    return ModelSpec(f0=smooth_bump(), params=P)


def test_registry_unknown_field():
    with pytest.raises(ValueError):
        make_field("quadratic", make_driver(), P)


def test_contract_audit_passes_for_registry_fields():
    drv = make_driver()
    theta = flat_curve(1.2)
    for name, kw in (("constant", {}),
                     ("mean_revert", {"kappa": 0.5, "theta": theta}),
                     ("mean_revert", {"kappa": 0.0, "theta": theta}),
                     ("proportional_vol", {"sigma0": 0.2})):
        field = make_field(name, drv, P, **kw)
        audit = contract_audit(field, P, n_pairs=40, seed=3)
        assert audit["lipschitz_b_ratio"] <= 1.0, (name, audit)
        assert audit["lipschitz_psi_ratio"] <= 1.0, (name, audit)
        assert audit["growth_ratio"] <= 1.0, (name, audit)
        assert audit["structure_leak"] == 0.0, (name, audit)


# contract_audit(..., n_pairs=50, seed=7) on make_driver(): the audit's
# random curves, and the order it draws them in, fix these dicts bit for bit.
# The fields answer on the random curves' own 513 nodes
_AUDIT_PINNED = {
    "mean_revert": ({"kappa": 0.5, "theta": flat_curve(1.2)},
                    {"lipschitz_b_ratio": 0.4016651641014532, "lipschitz_psi_ratio": 0.0,
                     "growth_ratio": 0.3743807589632313, "structure_leak": 0.0}),
    "constant": ({"b_curve": seasonal_curve(0.1)},
                 {"lipschitz_b_ratio": 0.0, "lipschitz_psi_ratio": 0.0,
                  "growth_ratio": 0.2698115814224893, "structure_leak": 0.0}),
    "proportional_vol": ({"sigma0": 0.2},
                         {"lipschitz_b_ratio": 0.0, "lipschitz_psi_ratio": 0.01261147793170926,
                          "growth_ratio": 0.0, "structure_leak": 0.0}),
}


@pytest.mark.parametrize("name", sorted(_AUDIT_PINNED))
def test_contract_audit_is_pinned(name):
    kw, want = _AUDIT_PINNED[name]
    assert contract_audit(make_field(name, make_driver(), P, **kw), P,
                          n_pairs=50, seed=7) == want


def _built_curves(monkeypatch, field) -> list:
    """The node counts of the curves `contract_audit` builds and of the
    splines it fits, for ``field``, as ([curves], [splines])."""
    curves, splines = [], []
    post_init, spline = Curve.__post_init__, space.CubicSpline

    def recording_curve(self):
        post_init(self)
        curves.append(self.deriv_samples.shape[0])

    def recording_spline(x, y, *args, **kwargs):
        splines.append(len(x))
        return spline(x, y, *args, **kwargs)

    monkeypatch.setattr(Curve, "__post_init__", recording_curve)
    monkeypatch.setattr(space, "CubicSpline", recording_spline)
    contract_audit(field, P, n_pairs=5)
    monkeypatch.undo()
    return curves, splines


def test_contract_audit_fits_no_spline_to_rounding_noise(monkeypatch):
    # a field answers on its input's grid: the audit's random curves, the
    # only ones on its 513 nodes, are never read through a spline, so none
    # is fit to a rounding-level imaginary part of their synthesis either
    # (the field's own 4097-node curves are, once each)
    for name, kw in (("mean_revert", {"kappa": 0.5, "theta": flat_curve(1.2)}),
                     ("proportional_vol", {"sigma0": 0.2})):
        curves, splines = _built_curves(monkeypatch, make_field(name, make_driver(), P, **kw))
        assert 513 in curves, name
        assert 513 not in splines, name


def test_contract_audit_builds_no_curve_finer_than_its_own(monkeypatch):
    # the audit's cost does not follow theta's resolution: at 2^20 + 1
    # points every curve it builds lies on its own 513 nodes or the
    # loadings' 257 (theta's spline is built once, for the read)
    loads = [exp_loading(0.05, r, n_points=257) for r in (0.5, 1.0, 2.0)]
    drv = LevyDriver(rank=3, loadings=loads, seed=11)
    field = make_field("mean_revert", drv, P, kappa=0.5,
                       theta=seasonal_curve(1.2, n_points=2**20 + 1))
    curves, splines = _built_curves(monkeypatch, field)
    assert max(curves) == 513
    assert splines == [2**20 + 1]


def test_contract_audit_evaluates_each_field_output_once_per_input():
    # each pair has three inputs (f, g and f with a perturbed tail); b and
    # psi run once on each, and the audit reports what it did before
    base = make_field("mean_revert", make_driver(), P, kappa=0.5,
                      theta=flat_curve(1.2))
    calls = {"b": 0, "psi": 0}

    def b(t, f):
        calls["b"] += 1
        return base.b(t, f)

    def psi(t, f):
        calls["psi"] += 1
        return base.psi(t, f)

    counted = CoefficientField(b=b, psi=psi, lipschitz_b=base.lipschitz_b,
                               lipschitz_psi=base.lipschitz_psi)
    audit = contract_audit(counted, P, n_pairs=10)
    assert calls == {"b": 30, "psi": 30}
    assert audit == contract_audit(base, P, n_pairs=10)


def test_contract_audit_sets_each_output_up_once_per_grid(monkeypatch):
    # the audit calls each output 150 times on its one 513-node grid: the
    # Curve form keeps that grid's set-up, so it reads the field's curves once
    calls = collections.Counter()

    def counted(curves, x_max, n):
        calls[tuple(map(id, curves)), x_max, n] += 1
        return space._rows_on(curves, x_max, n)

    monkeypatch.setattr(markovian, "_rows_on", counted)
    for name, (kw, _) in sorted(_AUDIT_PINNED.items()):
        calls.clear()
        contract_audit(make_field(name, make_driver(), P, **kw), P, n_pairs=50, seed=7)
        assert set(calls.values()) <= {1}, (name, calls)
        # mean_revert's drift and proportional_vol's psi are set up on the grid
        assert len(calls) == (name != "constant"), (name, calls)


def test_contract_audit_takes_no_norm_finer_than_its_own(monkeypatch):
    # with a loading at 2^20 + 1 nodes, a loading a field returns as it is is
    # at distance 0.0 from itself, with no difference curve on its nodes
    drv = LevyDriver(rank=1, loadings=[exp_loading(0.05, 1.0, n_points=2**20 + 1)], seed=11)
    fields = [make_field("mean_revert", drv, P, kappa=0.5, theta=flat_curve(1.2)),
              make_field("constant", drv, P, b_curve=seasonal_curve(0.1, n_points=257))]
    sizes, rule = [], space._alpha_rule

    def counted(n, x_max, alpha):
        sizes.append(n)
        return rule(n, x_max, alpha)

    monkeypatch.setattr(space, "_alpha_rule", counted)
    for field in fields:
        contract_audit(field, P, n_pairs=5)
    assert sizes and max(sizes) <= 513


def test_proportional_vol_reads_f0_without_building_splines():
    drv = make_driver()
    field = make_field("proportional_vol", drv, P, sigma0=0.2)
    f = smooth_bump(value_at_zero=0.3)
    outs = field.psi(0.0, f)
    assert f._spline_cache == {}
    s = 0.2 * (1.0 + 0.5 * np.tanh(0.3))
    for out, load in zip(outs, drv.loadings):
        np.testing.assert_array_equal(out.deriv_samples, load.deriv_samples * s)


def test_projected_field_is_constant_independent_of_state():
    drv = make_driver()
    field = make_field("constant", drv, P, b_curve=flat_curve(0.3))
    pf = projected_coefficients(field, 4, P)
    f, g = smooth_bump(), flat_curve(2.0)
    out_f = pf.b(0.1, f)
    out_g = pf.b(0.1, g)
    assert norm_alpha(out_f - out_g, P.alpha) < 1e-12
    assert pf.lipschitz_b >= field.lipschitz_b


def test_nested_projections_collapse():
    drv = make_driver()
    theta = flat_curve(1.2)
    field = make_field("mean_revert", drv, P, kappa=0.5, theta=theta)
    pts = 2**12 + 1
    p2 = projected_coefficients(field, 2, P, n_points=pts)
    p8 = projected_coefficients(field, 8, P, n_points=pts)
    p2_of_p8 = projected_coefficients(p8, 2, P, n_points=pts)
    f = smooth_bump()
    a = p2.b(0.2, f)
    b = p2_of_p8.b(0.2, f)
    assert norm_alpha(a - b, P.alpha) < 1e-7


def test_constant_field_matches_linear_euler_system():
    drv = make_driver()
    spec = make_spec()
    field = make_field("constant", drv, P)
    L = 512
    times = np.linspace(0, 0.25, L + 1)
    noise = drv.increments(drv.path_rng(0), times[1], L)
    mk = simulate_markovian_fk(field, spec, drv, times, 2, noise=noise)
    le = euler_coefficient_system(spec, drv, times, 2, noise=noise)
    x = np.linspace(0, 0.75, 33)
    diff = np.max(np.abs(reconstruct(mk.state(-1), x)
                         - reconstruct(le.state(-1), x)))
    assert diff < 1e-8


def test_mean_revert_zero_noise_flat_scalar_ode():
    # with flat initial curve and flat theta the input mask is inert, all
    # oscillating modes stay zero and the spot solves c' = kappa (theta0 - c)
    drv = make_driver()
    c0, theta0, kappa = 0.8, 1.5, 0.8
    spec = ModelSpec(f0=flat_curve(c0), params=P)
    field = make_field("mean_revert", drv, P, kappa=kappa,
                       theta=flat_curve(theta0))
    k, t_end, L = 2, 1.0, 2048
    times = np.linspace(0, t_end, L + 1)
    mk = simulate_markovian_fk(field, spec, drv, times, k,
                               noise=np.zeros((L, 3)))
    final = mk.state(-1)
    exact = theta0 + (c0 - theta0) * np.exp(-kappa * t_end)
    assert complex(final.c_star) == pytest.approx(exact, abs=5e-4)
    assert np.max(np.abs(final.c)) < 1e-12


def test_markovian_unstable_step():
    drv = make_driver()
    spec = make_spec()
    field = make_field("constant", drv, P)
    with pytest.raises(UnstableStep):
        simulate_markovian_fk(field, spec, drv, np.linspace(0, 1, 33), 8)


def test_markovian_hermitian_symmetry():
    drv = make_driver()
    spec = make_spec()
    theta = flat_curve(1.2)
    field = make_field("mean_revert", drv, P, kappa=0.5, theta=theta)
    L = 1024
    times = np.linspace(0, 0.5, L + 1)
    mk = simulate_markovian_fk(field, spec, drv, times, 2)
    assert max(mk.state(j).hermitian_defect() for j in range(L + 1)) < 1e-10


def test_picard_trivial_field_returns_transport():
    drv = make_driver()
    spec = make_spec()
    zero = CoefficientField(
        b=lambda t, f: flat_curve(0.0),
        psi=lambda t, f: tuple(c * 0.0 for c in drv.loadings),
        lipschitz_b=1e-9, lipschitz_psi=1e-9)
    times = np.linspace(0, 0.5, 9)
    noise = drv.increments(drv.path_rng(0), times[1], 8)
    h = [shift_curve(spec.f0, t, spec.f0.x_max - t) for t in times]
    v = picard_operator_V(h, zero, spec, drv, times, noise)
    for t, curve in zip(times, v):
        x = np.linspace(0, 0.5, 17)
        assert np.allclose(curve.value(x), spec.f0.value(t + x), atol=1e-8)


def test_picard_iteration_contracts_geometrically():
    drv = make_driver()
    spec = make_spec()
    theta = flat_curve(1.2)
    field = make_field("mean_revert", drv, P, kappa=0.5, theta=theta)
    L = 32
    times = np.linspace(0, 1.0, L + 1)
    noise = drv.increments(drv.path_rng(0), times[1], L)
    euler_path = oracle_markovian(field, spec, drv, times, noise=noise)
    h = [shift_curve(spec.f0, t, spec.f0.x_max - t) for t in times]
    residuals = []
    for _ in range(5):
        h = picard_operator_V(h, field, spec, drv, times, noise)
        r = max(norm_alpha(h[j] - euler_path.states[j], P.alpha)
                for j in range(len(h)))
        residuals.append(r)
    ratios = np.array(residuals[1:]) / np.array(residuals[:-1])
    assert np.all(ratios < 0.8)


def test_convergence_experiment_decreasing_and_slice_stable():
    drv = make_driver()
    spec = make_spec()
    theta = flat_curve(1.2)
    field = make_field("mean_revert", drv, P, kappa=0.5, theta=theta)
    rows = markovian_convergence_experiment(field, spec, drv, [2, 4, 8], 4,
                                            n_steps=2048, n_x=101)
    errs = [r["mc_error"] for r in rows]
    assert errs[0] > errs[1] > errs[2]
    # refining the sup time grid must not move the estimate beyond MC noise
    fine = markovian_convergence_experiment(field, spec, drv, [4], 4,
                                            n_steps=2048, n_x=101,
                                            sup_slices=128)
    assert fine[0]["mc_error"] <= errs[1] * 1.05 + 3 * rows[1]["stderr"]


def _full_range_errors(field, spec, drv, k_list, L, n_x):
    """The one-path experiment's mc_error per k, read off the whole trajectory
    of `oracle_markovian`, which steps f0's full range, at the experiment's
    slices (every L // 64-th time and the last)."""
    p = spec.params
    times = np.linspace(0.0, p.horizon, L + 1)
    noise = drv.increments(drv.path_rng(0), times[1], L)
    oracle = oracle_markovian(field, spec, drv, times, noise=noise)
    slices = sorted({*range(0, L + 1, max(1, L // 64)), L})
    errors = []
    for k in k_list:
        path = simulate_markovian_fk(field, spec, drv, times, k, noise=noise)
        worst = 0.0
        for j in slices:
            x = np.linspace(0.0, max(p.horizon - times[j], 0.0), n_x)
            err = np.abs(reconstruct(path.state(j), x) - oracle.states[j].value(x)) ** 2
            worst = max(worst, float(np.max(err)))
        errors.append(worst)
    return errors


def test_convergence_experiment_row_equals_the_materialised_oracle():
    # the experiment streams the oracle; its sup must be bit for bit the one
    # read off the whole trajectory at the same slices
    drv = make_driver()
    spec = make_spec()
    field = make_field("mean_revert", drv, P, kappa=0.5, theta=flat_curve(1.2))
    L, n_x = 128, 33
    rows = markovian_convergence_experiment(field, spec, drv, [1, 2], 1,
                                            n_steps=L, n_x=n_x)
    assert [r["mc_error"] for r in rows] == _full_range_errors(field, spec, drv, [1, 2], L, n_x)


def test_convergence_experiment_memory_does_not_grow_with_steps():
    # holding the oracle's trajectory would grow the peak with n_steps x grid
    drv = make_driver()
    spec = make_spec()
    field = make_field("mean_revert", drv, P, kappa=0.5, theta=flat_curve(1.2))

    def peak(n_steps):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        markovian_convergence_experiment(field, spec, drv, [1], 1,
                                         n_steps=n_steps, n_x=65)
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        peak(64)            # refills the spline LU memo under tracing
        small, large = peak(64), peak(256)
    finally:
        tracemalloc.stop()
    assert large <= 1.1 * small, (small, large)


@pytest.mark.parametrize("t_end, L", [(1.0, 32), (0.5, 30)], ids=["node", "off-node"])
def test_oracle_is_exact_fixed_point_of_picard_map(t_end, L):
    # dt = 1/32 is 64 nodes of f0's grid, so the recursion slices; 1/60 is
    # no node, so it shifts through the spline and sets the field up again on
    # every grid, for the oracle and the Picard map alike
    drv = make_driver()
    spec = make_spec()
    field = make_field("mean_revert", drv, P, kappa=0.5, theta=flat_curve(1.2))
    times = np.linspace(0, t_end, L + 1)
    noise = drv.increments(drv.path_rng(0), times[1], L)
    oracle = oracle_markovian(field, spec, drv, times, noise=noise)
    v = picard_operator_V(oracle.states, field, spec, drv, times, noise)
    assert len(v) == len(oracle.states)
    for a, b in zip(v, oracle.states):
        assert a.value_at_zero == b.value_at_zero
        assert (a.grid_step, a.x_max) == (b.grid_step, b.x_max)
        np.testing.assert_array_equal(a.deriv_samples, b.deriv_samples)


def test_picard_state_short_of_the_recursion_range_raises():
    # the field reads each given state on the recursion's own nodes, so a
    # state stored on less of the range says so instead of misaligning
    drv, spec = make_driver(), make_spec()
    times = np.linspace(0, 0.5, 9)
    noise = drv.increments(drv.path_rng(0), times[1], 8)
    h = [shift_curve(spec.f0, t, 0.5) for t in times]
    field = make_field("mean_revert", drv, P, kappa=0.5, theta=flat_curve(1.2))
    with pytest.raises(DomainTooShort, match=r"state 0 read by the field covers \[0, 0\.5\]"):
        picard_operator_V(h, field, spec, drv, times, noise)


def test_off_grid_field_output_is_projected_like_on_grid_one():
    # theta on a twice finer grid makes the drift output land off the
    # initial curve's grid; its projection must use the same quadrature
    drv = make_driver()
    spec = make_spec()
    times = np.linspace(0, 0.25, 129)
    noise = drv.increments(drv.path_rng(0), times[1], 128)
    on, off = (simulate_markovian_fk(
        make_field("mean_revert", drv, P, kappa=0.5,
                   theta=smooth_bump(1.2, n_points=n)),
        spec, drv, times, 4, noise=noise) for n in (4097, 8193))
    assert np.max(np.abs(on.S_k - off.S_k)) <= 1e-13
    assert np.max(np.abs(on.U - off.U)) <= 1e-13


@pytest.mark.parametrize("scheme", ["markovian", "linear"])
@pytest.mark.parametrize("short", ["drift", "loading"])
def test_field_output_short_of_the_horizon_raises(scheme, short):
    # on the initial curve's grid step but stored on [0, 0.5] only, T = 1
    cut = dict(x_max=0.5, n_points=1025)
    curve = flat_curve(0.1, **cut) if short == "drift" else exp_loading(0.05, 1.0, **cut)
    loads = [exp_loading(0.05, 0.5), curve if short == "loading" else exp_loading(0.05, 1.0)]
    drv = LevyDriver(rank=2, loadings=loads, seed=11)
    b = curve if short == "drift" else flat_curve(0.0)
    times = np.linspace(0, 0.25, 129)
    with pytest.raises(DomainTooShort, match=r"covers \[0, 0\.5\]"):
        if scheme == "markovian":
            simulate_markovian_fk(make_field("constant", drv, P, b_curve=b),
                                  make_spec(), drv, times, 2)
        else:
            euler_coefficient_system(ModelSpec(f0=smooth_bump(), params=P,
                                               beta=lambda t: b), drv, times, 2)


def test_convergence_experiment_checks_the_grid_before_the_oracle(monkeypatch):
    # 33 modes do not fit on f0's 32 intervals over [0, T]; the experiment
    # says so before it runs a single oracle path
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(markovian, "_curve_recursion", oracle)
    drv = make_driver()
    spec = ModelSpec(f0=smooth_bump(n_points=65), params=P)
    with pytest.raises(ValueError, match="33 modes alias"):
        markovian_convergence_experiment(make_field("constant", drv, P), spec, drv,
                                         [2, 16], 1, n_steps=8192)


@pytest.mark.parametrize("scheme", ["markovian", "linear"])
@pytest.mark.parametrize("n_points", [4096, 4095])   # 2047.5 and 2047 intervals
def test_initial_grid_must_split_the_horizon_evenly(scheme, n_points):
    drv = make_driver()
    spec = ModelSpec(f0=smooth_bump(n_points=n_points), params=P)
    times = np.linspace(0, 0.25, 129)
    with pytest.raises(ValueError, match="even number of intervals"):
        if scheme == "markovian":
            simulate_markovian_fk(make_field("constant", drv, P), spec, drv, times, 2)
        else:
            euler_coefficient_system(spec, drv, times, 2)


_FIELDS = {   # case: (registry name, keywords)
    "constant": ("constant", {}),
    "constant_b": ("constant", {"b_curve": seasonal_curve(0.1)}),
    "mean_revert": ("mean_revert", {"kappa": 0.5, "theta": seasonal_curve(1.2)}),
    "mean_revert_0": ("mean_revert", {"kappa": 0.0, "theta": flat_curve(1.2)}),
    "proportional_vol": ("proportional_vol", {"sigma0": 0.2}),
    "linear": ("constant", {"b_curve": seasonal_curve(0.1)}),
    # theta ends at 1.7, off f0's grid: the drift's rows stop short of f0's range
    "mean_revert_short": ("mean_revert", {"kappa": 0.5, "theta": seasonal_curve(1.2, x_max=1.7)}),
}


def _curve_form(field):
    """The field with its b and psi stripped of the array form: the adapter runs it."""
    return CoefficientField(b=lambda t, f: field.b(t, f), psi=lambda t, f: field.psi(t, f),
                            lipschitz_b=field.lipschitz_b, lipschitz_psi=field.lipschitz_psi)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(sorted(_FIELDS)), n_points=st.sampled_from([257, 4097]),
       t=st.sampled_from(markovian.AUDIT_TIMES + (1.0, 1.3)),
       seed=st.integers(0, 2**32 - 1))
def test_array_form_equals_curve_form(case, n_points, t, seed):
    # every registry field and the linear one define their outputs once, on
    # arrays; the Curve callables and the adapter that feeds them the masked
    # state must give the same outputs bit for bit, on any grid of f0: the
    # Curve form answers on its input's grid, as the array form does
    drv = make_driver()
    name, kw = _FIELDS[case]
    field = make_field(name, drv, P, **kw)
    rng = np.random.default_rng(seed)
    pk = BasisParams(P.alpha, P.lam, P.horizon, markovian.AUDIT_K_SPAN)
    c = rng.normal(size=pk.n_range().size) + 1j * rng.normal(size=pk.n_range().size)
    state = CoeffState(complex(rng.normal()), 0.5 * (c + np.conj(c[::-1])), pk)
    f = markovian._span_curve(state, 2.0, n_points)
    grid = (f.x_max, n_points)
    if case == "linear":
        b = kw["b_curve"]
        arrays = dynamics._linear_field(ModelSpec(f0=f, params=P, beta=lambda t: b), drv)
    else:
        arrays = markovian._masked_field(field, P)
    got = arrays(*grid)(t, f.value_at_zero, lambda m: f.deriv_samples[:m])
    want = markovian._masked_field(_curve_form(field), P)(*grid)(
        t, f.value_at_zero, lambda m: f.deriv_samples[:m])
    for a, b in zip(got, want, strict=True):
        assert a.x_max == b.x_max and a.samples.shape == b.samples.shape
        assert a.values.tobytes() == b.values.tobytes()
        assert a.samples.tobytes() == b.samples.tobytes()


@pytest.mark.parametrize("t_end, L", [(1.0, 64), (0.5, 30)], ids=["node", "off-node"])
@pytest.mark.parametrize("case", sorted(_FIELDS))
def test_adapter_oracle_equals_array_form_oracle(case, t_end, L):
    # the adapter builds the masked state `Curve` on the grid the field was
    # set up on (f0's, when dt = 1/64 is a node; each state's own at dt = 1/60)
    # and reads the outputs back onto it; for every registry field, its
    # curves on f0's grid or not, the oracle must not tell the two forms apart
    drv, spec = make_driver(), make_spec()
    name, kw = _FIELDS[case]
    field = make_field(name, drv, P, **kw)
    times = np.linspace(0, t_end, L + 1)
    noise = drv.increments(drv.path_rng(0), times[1], L)
    want = oracle_markovian(field, spec, drv, times, noise=noise).states
    got = oracle_markovian(_curve_form(field), spec, drv, times, noise=noise).states
    for a, b in zip(got, want, strict=True):
        assert (a.value_at_zero, a.x_max) == (b.value_at_zero, b.x_max)
        assert a.deriv_samples.tobytes() == b.deriv_samples.tobytes()


@pytest.mark.parametrize("m", [1, 4, 16])
@pytest.mark.parametrize("case", sorted(_FIELDS))
def test_convergence_experiment_rows_equal_the_full_range_oracle(case, m):
    # a registry field reads below T - t and the slices read [0, T - t_j], so
    # the experiment's oracle steps f0 only up to T and _ORACLE_MARGIN nodes
    # beyond; on a grid of step 2^-9, with dt m nodes, its rows must be the
    # full-range oracle's bit for bit
    drv = make_driver()
    spec = ModelSpec(f0=smooth_bump(n_points=1025), params=P)
    name, kw = _FIELDS[case]
    field = make_field(name, drv, P, **kw)
    rows = markovian_convergence_experiment(field, spec, drv, [1], 1, n_steps=512 // m, n_x=33)
    assert [r["mc_error"] for r in rows] == _full_range_errors(field, spec, drv, [1], 512 // m, 33)


def test_convergence_experiment_rows_near_the_full_range_oracle_off_a_binary_step():
    # on f0's 3,001 nodes over [0, 2.3] (horizon 1.15) the cut grid's nodes
    # and steps round apart from the full grid's, and the rows may move by
    # rounding only
    p = BasisParams(alpha=1.0, lam=0.5, horizon=1.15)
    drv = make_driver()
    spec = ModelSpec(f0=smooth_bump(x_max=2.3, n_points=3001), params=p)
    field = make_field("mean_revert", drv, p, kappa=0.5, theta=seasonal_curve(1.2))
    rows = markovian_convergence_experiment(field, spec, drv, [2, 4], 1, n_steps=300, n_x=33)
    want = _full_range_errors(field, spec, drv, [2, 4], 300, 33)
    np.testing.assert_allclose([r["mc_error"] for r in rows], want, rtol=1e-9, atol=0.0)


def test_experiment_oracle_keeps_every_slice_value_bit_for_bit(monkeypatch):
    # the cut's end condition reaches 64 nodes in by about 2e-37 relative, so
    # every value a slice can read is the full-range oracle's; a margin of 8
    # nodes moves some by about 1e-14, one of 4 by 4e-10
    drv, spec = make_driver(), make_spec()
    field = make_field("mean_revert", drv, P, kappa=0.5, theta=seasonal_curve(1.2))
    L, n_x = 128, 256
    times = np.linspace(0.0, P.horizon, L + 1)
    xs = [np.linspace(0.0, P.horizon - t, n_x) for t in times]
    got, recursion = [], dynamics._curve_recursion

    def read(*args, **kwargs):
        for j, f in enumerate(recursion(*args, **kwargs)):
            got.append(f.value(xs[j]))
            yield f

    monkeypatch.setattr(markovian, "_curve_recursion", read)
    markovian_convergence_experiment(field, spec, drv, [1], 1, n_steps=L, n_x=n_x)
    monkeypatch.undo()
    noise = drv.increments(drv.path_rng(0), times[1], L)
    oracle = oracle_markovian(field, spec, drv, times, noise=noise)
    for a, f, x in zip(got, oracle.states, xs, strict=True):
        assert a.tobytes() == f.value(x).tobytes()


def _oracle_state_sizes(monkeypatch, field, spec, drv) -> list:
    """The node counts of the states the experiment's oracle streams."""
    sizes, recursion = [], dynamics._curve_recursion

    def counted(*args, **kwargs):
        for f in recursion(*args, **kwargs):
            sizes.append(f.deriv_samples.shape[0])
            yield f

    monkeypatch.setattr(markovian, "_curve_recursion", counted)
    markovian_convergence_experiment(field, spec, drv, [1], 1, n_steps=64, n_x=17)
    monkeypatch.undo()
    return sizes


def test_experiment_oracle_holds_f0_up_to_its_margin_past_the_horizon(monkeypatch):
    # the oracle of a registry field holds f0's nodes up to T (n_T = 2048)
    # and 64 beyond; the adapter of a plain callable keeps f0's whole range
    drv, spec = make_driver(), make_spec()
    n_T = spec.f0._node_index(P.horizon)
    field = make_field("mean_revert", drv, P, kappa=0.5, theta=seasonal_curve(1.2))
    assert max(_oracle_state_sizes(monkeypatch, field, spec, drv)) == n_T + 65
    assert max(_oracle_state_sizes(monkeypatch, _curve_form(field), spec, drv)) == 4097


# sha256 of the states of the Euler loop, the oracle and the Picard map,
# recorded before their steps were cut down to the pinned folds and one Curve
# per state, at one BLAS thread: the span product of a state-dependent field
# rounds apart between thread counts (mean_revert's at k = 2 too).  Euler:
# k = 2 and 64 steps over [0, 0.5] (64 over [0, 1] break k = 2's stability
# limit, 1.26e-2); oracle and Picard map: 64 steps over [0, 1], where dt is
# a node of f0's grid, and 30 over [0, 0.5], where it is not.  A zero drift
# (mean_revert_0) adds only zeros, so it shares constant's states.
# mean_revert_short's came later, from the registry form before a field's
# Curve form answered on its input's grid (its plain copy differed then)
_LOOP_SHA256 = {  # case: (Euler, oracle on the nodes, oracle off them)
    "constant": ("81b9fed27977a0e60cc755a40dd999300e57178b541dae0948b8f10fbf58e7b5",
                 "f6ea3963bb1673fc5f94cfd929abeae88264cb4e120282aa4fec37cbb0d3c6e5",
                 "811673bf6207938c4e7d72e7a1876473287f737e49bdeb1e5aaacc2eea2551b3"),
    "constant_b": ("f1cab084cf852d3d247ed19adb852ab1824edfb5632bd95e19b0294be4513a39",
                   "09401a2938a8c9dc48a5e5cb37e85897579e5bee57a9f111fe4fcc7c00a3d290",
                   "738448bf1daa8450fd575d96293968ec28222be3f720d74a91d7d5946cad4204"),
    "mean_revert": ("ea9b07ea9fe5aba6c5c0653f95b825ac0c6d86c283a7a17318f2f7b07c261a71",
                    "3a1283d0ccce9b0f43823417ccc8df4d4f34a1fb61e35cc627f64c42e6f24ae8",
                    "138bfa4bb6015752e25147d91fb438a41860ed9ff0cdaa00ab0d1e90c364e7f0"),
    "proportional_vol": ("4891f0dd47ad4b299215aafc3f8a2aa1fd068be3270d62525b6ac79c37a2a6ac",
                         "029411eae3f0e2b8f1c33bc749e62793ba37584ff0c2d7612b0a437718a638f9",
                         "667d710fe260027196e8cff77fdd41eb5ccab0da4be6782900a091e727c6c64f"),
    "mean_revert_short": ("4d14d014f6fa2019ba7b74048188722e62e0f7058a78d0eaa265a4a5179e6b07",
                          "704b5da57e6248c94cacb2f4b553267107987c293b7bca03fb074aa0ee3786ed",
                          "7d0d6c96df3c38e8bc6960004e45e1f739b3e24fe8e75c31bdc12d7aa2fb1b39"),
}
_LOOP_SHA256.update(mean_revert_0=_LOOP_SHA256["constant"], linear=_LOOP_SHA256["constant_b"])


def _states_sha256(states) -> str:
    h = hashlib.sha256()
    for f in states:
        h.update(np.array([f.value_at_zero, f.x_max]).tobytes())
        h.update(f.deriv_samples.tobytes())
    return h.hexdigest()


def _loop_hashes(case: str, form: str) -> list:
    """(label, want, got) of every state hash of one `_FIELDS` case: the
    registry field (form "array") or its plain-callable copy ("plain"), and
    for "linear" also the linear dynamics' scheme and oracle."""
    drv, spec = make_driver(), make_spec()
    name, kw = _FIELDS[case]
    field = make_field(name, drv, P, **kw)
    if form == "plain":
        field = _curve_form(field)
    lin = ModelSpec(f0=spec.f0, params=P, beta=lambda t: kw["b_curve"]) if case == "linear" else None
    euler, *oracles = _LOOP_SHA256[case]
    times = np.linspace(0.0, 0.5, 65)
    noise = drv.increments(drv.path_rng(0), times[1], 64)
    paths = {"euler": simulate_markovian_fk(field, spec, drv, times, 2, noise=noise)}
    if lin is not None:
        paths["linear euler"] = euler_coefficient_system(lin, drv, times, 2, noise=noise)
    got = [(label, euler, hashlib.sha256(path.S_k.tobytes() + path.U.tobytes()).hexdigest())
           for label, path in paths.items()]
    for step, want, (t_end, L) in zip(["node", "off-node"], oracles, [(1.0, 64), (0.5, 30)]):
        times = np.linspace(0.0, t_end, L + 1)
        noise = drv.increments(drv.path_rng(0), times[1], L)
        states = oracle_markovian(field, spec, drv, times, noise=noise).states
        got.append((f"oracle {step}", want, _states_sha256(states)))
        got.append((f"picard {step}", want, _states_sha256(
            picard_operator_V(states, field, spec, drv, times, noise))))
        if lin is not None:
            mild = dynamics.oracle_mild_solution(lin, drv, times, noise=noise)
            got.append((f"linear oracle {step}", want, _states_sha256(mild.states)))
    return got


@pytest.fixture(scope="module")
def loop_hashes():
    """`_loop_hashes` of every case and form, from a fresh interpreter at one BLAS thread."""
    src = str(Path(markovian.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")) if p)}
    code = ("import json, test_markovian as t; print(json.dumps({f'{c} {f}': t._loop_hashes(c, f) "
            "for c in t._FIELDS for f in ('array', 'plain')}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if out.returncode:
        pytest.fail(out.stderr)
    return json.loads(out.stdout)


@pytest.mark.parametrize("form", ["array", "plain"])
@pytest.mark.parametrize("case", sorted(_FIELDS))
def test_loops_keep_their_states_bit_for_bit(loop_hashes, case, form):
    for label, want, got in loop_hashes[f"{case} {form}"]:
        assert got == want, label


def test_oracle_builds_one_curve_per_state(monkeypatch):
    # on a node step the oracle slices each state out of its step's sum and
    # builds no Curve but the one it yields
    drv, spec = make_driver(), make_spec()
    field = make_field("mean_revert", drv, P, kappa=0.5, theta=seasonal_curve(1.2))
    built, init = {}, space.Curve.__init__

    def counting_init(self, *args, **kwargs):
        built[L] += 1
        init(self, *args, **kwargs)

    for L in (64, 128):
        times = np.arange(L + 1) / 2048.0
        noise = drv.increments(drv.path_rng(0), times[1], L)
        built[L] = 0
        with monkeypatch.context() as m:
            m.setattr(space.Curve, "__init__", counting_init)
            states = dynamics._curve_recursion(spec.f0, times, times[1], noise,
                                               markovian._masked_field(field, P))
            assert sum(1 for _ in states) == L + 1
    assert built[128] - built[64] == 128 - 64


def _passthrough(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


def test_wrapped_field_keeps_the_array_path(monkeypatch):
    # a field re-wrapped as the benchmark's tracer does it (functools.wraps
    # through dataclasses.replace) must still run its array form: the same
    # states, no Curve built per step, and 1 + rank folds per step, each one
    # np.fft.fft call made from projection.py
    drv, spec = make_driver(), make_spec()
    field = make_field("mean_revert", drv, P, kappa=0.5, theta=flat_curve(1.2))
    wrapped = dataclasses.replace(field, b=_passthrough(field.b), psi=_passthrough(field.psi))
    counts = {"curves": 0, "ffts": 0}
    init, fft = space.Curve.__init__, np.fft.fft

    def counting_init(self, *args, **kwargs):
        counts["curves"] += 1
        init(self, *args, **kwargs)

    def counting_fft(*args, **kwargs):
        counts["ffts"] += sys._getframe(1).f_code.co_filename.endswith("projection.py")
        return fft(*args, **kwargs)

    built = {}
    for L in (64, 128):
        times = np.arange(L + 1) / 2048.0
        noise = drv.increments(drv.path_rng(0), times[1], L)
        want = simulate_markovian_fk(field, spec, drv, times, 2, noise=noise)
        with monkeypatch.context() as m:
            m.setattr(space.Curve, "__init__", counting_init)
            m.setattr(np.fft, "fft", counting_fft)
            counts.update(curves=0, ffts=0)
            got = simulate_markovian_fk(wrapped, spec, drv, times, 2, noise=noise)
        assert np.array_equal(got.S_k, want.S_k) and np.array_equal(got.U, want.U)
        assert counts["ffts"] == (1 + drv.rank) * L
        built[L] = counts["curves"]
    assert built[64] == built[128]


@pytest.mark.parametrize("case", ["constant_b", "mean_revert", "proportional_vol"])
def test_markovian_scheme_makes_one_fft_per_fold_input(monkeypatch, case):
    # the benchmark counts 1 + rank FFTs per Euler step (the drift and one
    # column per factor); with f0's projection memoised, the scheme makes no
    # other np.fft.fft call, wherever it comes from
    drv, spec = make_driver(), make_spec()
    name, kw = _FIELDS[case]
    field = make_field(name, drv, P, **kw)
    L, k = 64, 2
    times = np.arange(L + 1) / 2048.0
    noise = drv.increments(drv.path_rng(0), times[1], L)
    coefficients_fft(spec.f0, k, P)
    calls, fft = [], np.fft.fft

    def counting_fft(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    simulate_markovian_fk(field, spec, drv, times, k, noise=noise)
    assert len(calls) == (1 + drv.rank) * L


@pytest.mark.parametrize("case", ["constant", "constant_b", "mean_revert", "proportional_vol"])
def test_schemes_write_into_no_array_they_are_given(case):
    # the loops sum in place only into arrays they make: f0, the field's
    # curves and every state the oracle yields keep their samples through
    # the scheme, the oracle and the Picard map
    drv, spec = make_driver(), make_spec()
    name, kw = _FIELDS[case]
    field = make_field(name, drv, P, **kw)
    held = [spec.f0, *drv.loadings, *(c for c in kw.values() if isinstance(c, Curve))]
    before = [c.deriv_samples.copy() for c in held]
    L = 64
    times = np.arange(L + 1) / 2048.0
    noise = drv.increments(drv.path_rng(0), times[1], L)
    states = dynamics._curve_recursion(spec.f0, times, times[1], noise,
                                       markovian._masked_field(field, P))
    yielded = [(f, f.deriv_samples.copy()) for f in states]
    simulate_markovian_fk(field, spec, drv, times, 2, noise=noise)
    oracle = oracle_markovian(field, spec, drv, times, noise=noise)
    picard_operator_V(oracle.states, field, spec, drv, times, noise)
    simulate_markovian_fk(field, spec, drv, times, 2, noise=noise)
    for c, d in zip(held, before, strict=True):
        assert c.deriv_samples.tobytes() == d.tobytes()
    for (f, d), g in zip(yielded, oracle.states, strict=True):
        assert f.deriv_samples.tobytes() == d.tobytes() == g.deriv_samples.tobytes()


def test_shared_slice_basis_equals_per_level_reconstruct():
    # the experiment evaluates each slice's basis once, at the largest level,
    # and reconstructs level k from its rows -k..k; its rows must equal a
    # loop that reconstructs every level on its own.  A strongly damped basis
    # (lam + alpha/2 = 25) keeps 64 steps over [0, 1] stable up to k = 4
    p = BasisParams(alpha=1.0, lam=24.5, horizon=1.0)
    drv = make_driver()
    spec = ModelSpec(f0=smooth_bump(), params=p)
    field = make_field("mean_revert", drv, p, kappa=0.5, theta=seasonal_curve(1.2))
    L, n_x, ks, n_paths = 64, 17, [1, 2, 4], 2
    rows = markovian_convergence_experiment(field, spec, drv, ks, n_paths, n_steps=L, n_x=n_x)
    times = np.linspace(0.0, p.horizon, L + 1)
    errs = {k: np.empty(n_paths) for k in ks}
    for pid in range(n_paths):
        noise = drv.increments(drv.path_rng(pid), times[1], L)
        oracle = oracle_markovian(field, spec, drv, times, noise=noise)
        for k in ks:
            path = simulate_markovian_fk(field, spec, drv, times, k, noise=noise)
            worst = 0.0
            for j in range(L + 1):
                x = np.linspace(0.0, max(p.horizon - times[j], 0.0), n_x)
                err = np.abs(reconstruct(path.state(j), x) - oracle.states[j].value(x)) ** 2
                worst = max(worst, float(np.max(err)))
            errs[k][pid] = worst
    assert [row["k"] for row in rows] == ks
    for row in rows:
        assert row["mc_error"] == float(np.mean(errs[row["k"]]))
        assert row["stderr"] == float(np.std(errs[row["k"]]) / np.sqrt(n_paths))


def _full_width(field):
    """The array field fed the span derivative on every fold node, cut to the
    nodes it asks for after the product."""
    def on_grid(x_max, n):
        outputs = field(x_max, n)
        return lambda t, value, samples: outputs(t, value, lambda m: samples(n)[:m])

    return on_grid


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(k=st.sampled_from([1, 2, 4, 8]), seed=st.integers(0, 2**32 - 1))
def test_span_product_over_the_kept_nodes_moves_states_by_rounding_only(k, seed):
    # the Euler loop builds the span derivative only on the nodes below
    # T - t_j; BLAS may round those columns apart from a full-width product's
    # by a few ulps, which moves the states by no more than 1e-15 of their size
    drv = make_driver(seed=seed)
    spec = ModelSpec(f0=smooth_bump(n_points=1025), params=P)
    field = make_field("mean_revert", drv, P, kappa=0.5, theta=seasonal_curve(1.2))
    dt = 2.0 ** -np.ceil(np.log2(1.1 / dynamics.euler_stability_limit(P, k)))
    times = np.arange(round(P.horizon / dt) + 1) * dt
    noise = drv.increments(drv.path_rng(0), dt, times.size - 1)
    got = simulate_markovian_fk(field, spec, drv, times, k, noise=noise)
    want = dynamics._euler_path(spec, times, dt, noise, k,
                                _full_width(markovian._masked_field(field, P)))
    x_got = np.column_stack([got.S_k, got.U])
    x_want = np.column_stack([want.S_k, want.U])
    assert np.max(np.abs(x_got - x_want)) <= 1e-15 * np.max(np.abs(x_want))
