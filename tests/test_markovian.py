import numpy as np
import pytest

from fwdapprox import space
from fwdapprox.basis import BasisParams
from fwdapprox.dynamics import LevyDriver, ModelSpec, euler_coefficient_system
from fwdapprox.errors import UnstableStep
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
from fwdapprox.projection import reconstruct
from fwdapprox.semigroup import shift_curve
from fwdapprox.space import norm_alpha
from fwdapprox.testcurves import exp_loading, flat_curve, smooth_bump

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
        audit = contract_audit(field, P, drv.rank, n_pairs=40, seed=3)
        assert audit["lipschitz_b_ratio"] <= 1.0, (name, audit)
        assert audit["lipschitz_psi_ratio"] <= 1.0, (name, audit)
        assert audit["growth_ratio"] <= 1.0, (name, audit)
        assert audit["structure_leak"] == 0.0, (name, audit)


def test_contract_audit_fits_no_spline_to_rounding_noise(monkeypatch):
    # the audit's random curves are real; resampling one for theta - f must
    # not fit a spline to a rounding-level imaginary part of its synthesis
    built = []
    spline = space.CubicSpline

    def recording(x, y, *args, **kwargs):
        built.append(float(np.max(np.abs(y))))
        return spline(x, y, *args, **kwargs)

    monkeypatch.setattr(space, "CubicSpline", recording)
    field = make_field("mean_revert", make_driver(), P, kappa=0.5,
                       theta=flat_curve(1.2))
    contract_audit(field, P, 3, n_pairs=5)
    assert built, "the audit resamples its curves onto theta's grid"
    assert sum(m < 1e-12 for m in built) == 0


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
    diff = np.max(np.abs(reconstruct(mk.states[-1], x)
                         - reconstruct(le.states[-1], x)))
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
    final = mk.states[-1]
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
    assert max(s.hermitian_defect() for s in mk.states) < 1e-10


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


def test_oracle_is_exact_fixed_point_of_picard_map():
    drv = make_driver()
    spec = make_spec()
    field = make_field("mean_revert", drv, P, kappa=0.5, theta=flat_curve(1.2))
    L = 32
    times = np.linspace(0, 1.0, L + 1)
    noise = drv.increments(drv.path_rng(0), times[1], L)
    oracle = oracle_markovian(field, spec, drv, times, noise=noise)
    v = picard_operator_V(oracle.states, field, spec, drv, times, noise)
    assert len(v) == len(oracle.states)
    for a, b in zip(v, oracle.states):
        assert a.value_at_zero == b.value_at_zero
        assert (a.grid_step, a.x_max) == (b.grid_step, b.x_max)
        np.testing.assert_array_equal(a.deriv_samples, b.deriv_samples)


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
    for a, b in zip(on.states, off.states):
        assert abs(a.c_star - b.c_star) <= 1e-13
        assert np.max(np.abs(a.c - b.c)) <= 1e-13
