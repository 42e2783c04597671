import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import linalg

from fwdapprox.basis import BasisParams, eval_g_n, lambda_n
from fwdapprox.dynamics import (
    LevyDriver,
    ModelSpec,
    _exact_transport,
    _final_state,
    _half_spectrum_values,
    convergence_experiment,
    delivery_forward,
    euler_coefficient_system,
    euler_stability_limit,
    oracle_mild_solution,
    simulate_fk_state,
    splitmix64,
    system_matrix,
)
from fwdapprox.errors import BadWindow, DomainTooShort, UnstableStep
from fwdapprox.markovian import make_field, simulate_markovian_fk
from fwdapprox.projection import CoeffState, coefficients_fft, reconstruct, reconstruct_deriv
from fwdapprox.space import Curve, _simpson_weights
from fwdapprox.testcurves import exp_loading, flat_curve, seasonal_curve, smooth_bump

P = BasisParams(alpha=1.0, lam=0.5, horizon=1.0)


def make_driver(law="gaussian", param=None, seed=7, scale=0.1):
    loads = [exp_loading(scale, r) for r in (0.5, 1.0, 2.0)]
    return LevyDriver(rank=3, loadings=loads, increment_law=law,
                      law_param=param, seed=seed)


def make_spec(beta_level=None):
    beta = None
    if beta_level is not None:
        b = flat_curve(beta_level)
        beta = lambda t: b
    return ModelSpec(f0=smooth_bump(), params=P, beta=beta)


def test_splitmix64_is_stable_and_spread():
    assert splitmix64(0) == splitmix64(0)
    vals = {splitmix64(i) for i in range(100)}
    assert len(vals) == 100


def test_driver_validation():
    with pytest.raises(ValueError):
        make_driver(law="cauchy")
    with pytest.raises(ValueError):
        make_driver(law="variance_gamma")  # missing parameter
    with pytest.raises(ValueError):
        LevyDriver(rank=2, loadings=[flat_curve(1.0)])


@pytest.mark.parametrize("law,param", [("gaussian", None),
                                       ("variance_gamma", 0.3),
                                       ("nig", 0.5)])
def test_increments_mean_zero_unit_variance_rate(law, param):
    drv = make_driver(law, param)
    dt = 0.05
    inc = drv.increments(np.random.default_rng(0), dt, 20000)
    assert abs(inc.mean()) < 3 * inc.std() / np.sqrt(inc.size)
    assert inc.var() == pytest.approx(dt, rel=0.05)


def test_path_streams_reproducible_and_distinct():
    drv = make_driver()
    a = drv.increments(drv.path_rng(3), 0.1, 4)
    b = drv.increments(drv.path_rng(3), 0.1, 4)
    c = drv.increments(drv.path_rng(4), 0.1, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_oracle_pure_transport():
    spec = make_spec()
    drv = make_driver()
    times = np.linspace(0, 0.5, 33)
    path = oracle_mild_solution(spec, drv, times, noise=np.zeros((32, 3)))
    x = np.linspace(0, 1.0, 65)
    assert np.allclose(path.states[-1].value(x), spec.f0.value(0.5 + x),
                       atol=1e-7)


def test_oracle_constant_drift():
    spec = make_spec(beta_level=0.2)
    drv = make_driver()
    times = np.linspace(0, 0.5, 65)
    path = oracle_mild_solution(spec, drv, times, noise=np.zeros((64, 3)))
    x = np.linspace(0, 1.0, 33)
    # constant drift integrates exactly: f(t,x) = f0(t+x) + b0 t
    expected = spec.f0.value(0.5 + x) + 0.2 * 0.5
    assert np.allclose(path.states[-1].value(x), expected, atol=1e-7)


def test_state_sim_zero_noise_closed_form():
    spec = make_spec()
    drv = make_driver()
    t_end = 0.5
    times = np.linspace(0, t_end, 33)
    path, sv = simulate_fk_state(spec, drv, times, k=6,
                                 noise=np.zeros((32, 3)))
    init = coefficients_fft(spec.f0, 6, P)
    lams = lambda_n(P, P.n_range(6))
    assert np.allclose(sv.U[-1], init.c * np.exp(lams * t_end), atol=1e-12)
    g_t = eval_g_n(P, P.n_range(6), np.array([t_end]))[:, 0]
    expected_spot = init.c_star + np.sum(g_t * init.c)
    assert sv.S_k[-1] == pytest.approx(expected_spot, abs=1e-12)


def test_spot_equals_curve_at_zero():
    spec = make_spec(beta_level=0.1)
    drv = make_driver()
    times = np.linspace(0, 0.5, 17)
    path, sv = simulate_fk_state(spec, drv, times, k=4)
    for j, s in enumerate(path.states):
        assert abs(complex(reconstruct(s, 0.0)) - sv.S_k[j]) < 1e-10


def test_state_sim_starts_at_initial_spot():
    spec = make_spec()
    drv = make_driver()
    _, sv = simulate_fk_state(spec, drv, np.linspace(0, 0.1, 3), k=4,
                              noise=np.zeros((2, 3)))
    assert sv.S_k[0] == pytest.approx(complex(spec.f0.value(0.0)))


def test_hermitian_symmetry_preserved():
    spec = make_spec(beta_level=0.05)
    drv = make_driver()
    path, _ = simulate_fk_state(spec, drv, np.linspace(0, 0.5, 33), k=8)
    assert max(s.hermitian_defect() for s in path.states) < 1e-10


def test_factor_is_ou_with_known_stationary_variance():
    # a single mode with constant noise coefficient is a complex OU process;
    # its stationary variance is sigma^2 / (2 decay) up to O(dt)
    rng = np.random.default_rng(1)
    sigma, dt, n_paths = 0.3, 1.0 / 64, 10000
    lam = lambda_n(P, 3)
    U = np.zeros(n_paths, dtype=complex)
    for _ in range(1500):
        U = np.exp(lam * dt) * (U + sigma * np.sqrt(dt) * rng.normal(size=n_paths))
    target = sigma**2 / (2.0 * P.decay)
    assert np.var(U) == pytest.approx(target, rel=0.06)


def test_system_matrix_structure():
    A = system_matrix(P, 2)
    assert A[0, 0] == 0.0
    assert np.allclose(A[0, 1:], 1.0)  # 1/sqrt(T) with T = 1
    assert np.allclose(np.diag(A)[1:], lambda_n(P, P.n_range(2)))
    # constant-row increment: with only mode n active, the spot drifts at
    # c_n/sqrt(T), the slope of g_n at 0
    x = np.zeros(6, dtype=complex)
    x[4] = 2.0  # mode n = +1
    assert (A @ x)[0] == pytest.approx(2.0)


def test_euler_unstable_step_raises():
    spec = make_spec()
    drv = make_driver()
    with pytest.raises(UnstableStep):
        euler_coefficient_system(spec, drv, np.linspace(0, 0.5, 9), k=8)
    assert euler_stability_limit(P, 2) == pytest.approx(
        2.0 / (1.0 + (4 * np.pi) ** 2), rel=1e-12)


def test_euler_converges_to_exact_exponential():
    # zero noise, zero drift: the system is linear and the Euler error
    # against the matrix exponential shrinks linearly in dt
    spec = make_spec()
    drv = make_driver()
    k, t_end = 2, 0.25
    init = coefficients_fft(spec.f0, k, P)
    x0 = np.concatenate(([init.c_star], init.c))
    A = system_matrix(P, k)
    exact = linalg.expm(A * t_end) @ x0
    errs = []
    for L in (64, 128, 256, 512):
        path = euler_coefficient_system(spec, drv, np.linspace(0, t_end, L + 1),
                                        k, noise=np.zeros((L, 3)))
        s = path.states[-1]
        got = np.concatenate(([s.c_star], s.c))
        errs.append(np.max(np.abs(got - exact)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 0.8) and np.all(rates < 1.2)


def test_euler_tracks_exact_state_sim_under_shared_noise():
    spec = make_spec()
    drv = make_driver()
    k, t_end = 2, 0.25
    diffs = []
    for L in (128, 256, 512):
        noise = drv.increments(drv.path_rng(0), t_end / L, L)
        ep = euler_coefficient_system(spec, drv, np.linspace(0, t_end, L + 1),
                                      k, noise=noise)
        sp, _ = simulate_fk_state(spec, drv, np.linspace(0, t_end, L + 1),
                                  k, noise=noise)
        x = np.linspace(0, 0.75, 65)
        diffs.append(np.max(np.abs(reconstruct(ep.states[-1], x)
                                   - reconstruct(sp.states[-1], x))))
    assert diffs[0] > diffs[1] > diffs[2]


def test_delivery_forward_matches_quadrature():
    pk = BasisParams(1.0, 0.5, 1.0, 8)
    rng = np.random.default_rng(9)
    c = rng.normal(size=17) + 1j * rng.normal(size=17)
    c = 0.5 * (c + np.conj(c[::-1]))
    s = CoeffState(1.2 + 0j, c, pk)
    t, T1, T2 = 0.2, 0.45, 0.8
    F = delivery_forward(s, t, T1, T2)
    xs = np.linspace(T1 - t, T2 - t, 4001)
    w = _simpson_weights(4001, (T2 - T1) / 4000)
    Fq = np.sum(w * reconstruct(s, xs)) / (T2 - T1)
    assert abs(F - Fq) < 1e-10


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.2, 3.0), lam=st.floats(0.1, 2.0),
       T=st.floats(0.5, 2.0), k=st.integers(0, 8),
       start=st.floats(0.0, 1.0), end=st.floats(0.0, 1.0),
       width=st.floats(0.0, 1.0, exclude_min=True),
       seed=st.integers(0, 2**32 - 1))
def test_delivery_forward_matches_quadrature_for_random_parameters(
        alpha, lam, T, k, start, end, width, seed):
    # closed-form window average against Simpson quadrature of reconstruct
    # over x in [T1 - t, T2 - t], for any t <= T1 < T2 <= T
    pk = BasisParams(alpha, lam, T, k)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=2 * k + 1) + 1j * rng.normal(size=2 * k + 1)
    s = CoeffState(complex(rng.normal()), c, pk)
    t, T1 = min(start, end) * T, max(start, end) * T
    T2 = T1 + width * (T - T1)
    assume(T1 < T2)
    F = delivery_forward(s, t, T1, T2)
    xs = np.linspace(T1 - t, T2 - t, 4001)
    w = _simpson_weights(4001, (T2 - T1) / 4000)
    Fq = np.sum(w * reconstruct(s, xs)) / (T2 - T1)
    assert abs(F - Fq) <= 1e-11 * (abs(s.c_star) + np.sum(np.abs(c)))


def test_delivery_forward_window_limit_and_constant():
    pk = BasisParams(1.0, 0.5, 1.0, 4)
    rng = np.random.default_rng(2)
    c = rng.normal(size=9) + 0j
    s = CoeffState(0.9 + 0j, c, pk)
    # T2 -> T1: the average collapses to the point value f_k(t, T1 - t)
    F = delivery_forward(s, 0.1, 0.6, 0.6 + 1e-6)
    assert abs(F - complex(reconstruct(s, 0.5))) < 1e-5
    # pure constant state: any window returns the constant
    const = CoeffState(2.5 + 0j, np.zeros(9), pk)
    assert delivery_forward(const, 0.0, 0.2, 0.9) == pytest.approx(2.5)


def test_delivery_forward_bad_windows():
    pk = BasisParams(1.0, 0.5, 1.0, 1)
    s = CoeffState(1.0, np.zeros(3), pk)
    with pytest.raises(BadWindow):
        delivery_forward(s, 0.5, 0.4, 0.8)   # t > T1
    with pytest.raises(BadWindow):
        delivery_forward(s, 0.1, 0.6, 0.6)   # empty window
    with pytest.raises(BadWindow):
        delivery_forward(s, 0.1, 0.6, 1.4)   # beyond horizon


def test_oracle_mc_mean_matches_zero_noise_run():
    spec = make_spec(beta_level=0.1)
    drv = make_driver(scale=0.05)
    times = np.linspace(0, 0.25, 9)
    x = np.linspace(0, 0.5, 9)
    ref = oracle_mild_solution(spec, drv, times, noise=np.zeros((8, 3)))
    ref_vals = ref.states[-1].value(x).real
    n_paths = 400
    vals = np.empty((n_paths, x.size))
    for pid in range(n_paths):
        path = oracle_mild_solution(spec, drv, times, path_id=pid)
        vals[pid] = path.states[-1].value(x).real
    se = vals.std(axis=0) / np.sqrt(n_paths)
    assert np.all(np.abs(vals.mean(axis=0) - ref_vals) <= 3 * se + 1e-12)


def test_convergence_experiment_structure():
    spec = make_spec()
    drv = make_driver()
    rows = convergence_experiment(spec, drv, 0.5, [4, 8, 16], 200)
    errs = [r["mc_error"] for r in rows]
    assert errs[0] > errs[1] > errs[2]
    for r in rows:
        assert r["mc_error"] <= r["bound_A_over_k"]
        assert r["stderr"] > 0.0
        assert r["n_paths"] == 200


@pytest.mark.parametrize("width", [1e-8, 1e-10])
def test_delivery_forward_narrow_window_has_no_cancellation(width):
    pk = BasisParams(1.0, 0.5, 1.0, 8)
    rng = np.random.default_rng(9)
    c = rng.normal(size=17) + 1j * rng.normal(size=17)
    c = 0.5 * (c + np.conj(c[::-1]))
    s = CoeffState(1.2 + 0j, c, pk)
    t, T1 = 0.1, 0.6
    F = delivery_forward(s, t, T1, T1 + width)
    assert abs(F - complex(reconstruct(s, T1 - t + 0.5 * width))) < 1e-12


def test_bound_does_not_depend_on_stored_range_of_f0():
    # the bound uses the full norm of the localised f0, which reads f0 on
    # [0, T] only, so storing f0 further out must not move it
    drv = LevyDriver(rank=2, loadings=[exp_loading(0.1, 0.5),
                                       exp_loading(0.05, 2.0)], seed=3)
    bounds = []
    for x_max, n_points in ((2.0, 4097), (4.0, 8193)):
        spec = ModelSpec(f0=smooth_bump(x_max=x_max, n_points=n_points), params=P)
        rows = convergence_experiment(spec, drv, 0.5, [4], 16, n_steps=16)
        bounds.append(rows[0]["bound_A_over_k"])
    assert bounds[1] == pytest.approx(bounds[0], rel=1e-12)


def hermitian(rng, shape):
    """Random complex array whose last axis satisfies c_{-n} = conj(c_n)."""
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (c + np.conj(c[..., ::-1]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.2, 3.0), lam=st.floats(0.1, 2.0),
       T=st.floats(0.5, 2.0), frac=st.floats(0.0, 1.0, exclude_min=True),
       k=st.integers(0, 32), extra=st.integers(0, 3), L=st.integers(1, 64),
       n_paths=st.integers(1, 4), d=st.integers(1, 3), with_drift=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_final_state_equals_last_transport_step(alpha, lam, T, frac, k, extra, L,
                                                n_paths, d, with_drift, seed):
    # the closed-form state at t = L dt against L steps of the exact
    # transport, from a projection at level k + extra (modes -k..k kept)
    rng = np.random.default_rng(seed)
    kk = k + extra
    pk = BasisParams(alpha, lam, T, kk)
    init = CoeffState(complex(rng.normal()), hermitian(rng, 2 * kk + 1), pk)
    loads = rng.normal(size=d) + 0j, hermitian(rng, (d, 2 * kk + 1))
    drift = None
    if with_drift:
        drift = rng.normal(size=L) + 0j, hermitian(rng, (L, 2 * kk + 1))
    weighted = rng.normal(size=(n_paths, L, d))
    dt = frac * T / L

    *_, (c_star, c) = _exact_transport(init, loads, drift, weighted, dt, k)
    got_star, got = _final_state(init, loads, drift, weighted, dt, k)

    sl = slice(extra, extra + 2 * k + 1)
    inc_star, inc = weighted @ loads[0], weighted @ loads[1][:, sl]
    if with_drift:
        inc_star, inc = inc_star + dt * drift[0], inc + dt * drift[1][:, sl]
    scale = (abs(init.c_star) + np.sum(np.abs(init.c[sl]))
             + np.sum(np.abs(inc_star), axis=-1) + np.sum(np.abs(inc), axis=(-2, -1)))
    assert np.all(np.abs(got_star - c_star) <= 1e-12 * scale)
    assert np.all(np.max(np.abs(got - c), axis=-1) <= 1e-12 * scale)
    # a real curve stays real: c_{-n} = conj(c_n) and c_star real
    assert np.all(np.max(np.abs(got - np.conj(got[:, ::-1])), axis=-1) <= 1e-12 * scale)
    assert np.all(np.abs(got_star.imag) <= 1e-12 * scale)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.2, 3.0), lam=st.floats(0.1, 2.0), T=st.floats(0.5, 2.0),
       k=st.integers(0, 32), n_paths=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_half_spectrum_value_equals_full_spectrum(alpha, lam, T, k, n_paths, seed):
    # modes 0..k of a Hermitian state give the real value of all 2k+1 modes
    rng = np.random.default_rng(seed)
    pk = BasisParams(alpha, lam, T)
    c_star = rng.normal(size=n_paths) + 0j
    c = hermitian(rng, (n_paths, 2 * k + 1))
    x = np.concatenate([[0.0, T], rng.uniform(0.0, T, size=31)])
    full = (c_star[:, None] + c @ eval_g_n(pk, pk.n_range(k), x)).real
    half = _half_spectrum_values(pk, c_star, c, x)
    scale = np.abs(c_star) + np.sum(np.abs(c), axis=-1)
    assert half.dtype == np.float64
    assert np.all(np.max(np.abs(half - full), axis=-1) <= 1e-12 * scale)


@pytest.mark.parametrize("which", ["f0", "f0-value", "loading", "drift"])
def test_convergence_experiment_rejects_complex_curves(which):
    bump, drift = smooth_bump(), flat_curve(0.05)
    complex_bump = bump * (1.0 + 0.5j)
    if which == "f0-value":
        complex_bump = Curve(1.0 + 1e-3j, bump.deriv_samples, bump.grid_step, bump.x_max)
    drv = make_driver()
    if which == "loading":
        drv = LevyDriver(rank=3, loadings=list(drv.loadings[:2]) + [complex_bump],
                         seed=7)
    f0 = complex_bump if which.startswith("f0") else bump
    beta = (lambda t: drift * 1j) if which == "drift" else (lambda t: drift)
    spec = ModelSpec(f0=f0, params=P, beta=beta)
    with pytest.raises(ValueError, match="imaginary part"):
        convergence_experiment(spec, drv, 0.5, [4], 2, n_steps=4)


def test_convergence_experiment_names_t_eval_beyond_the_horizon():
    # the curves cover [0, 4], so the failure lies in t_eval > T, not the range
    grid = dict(x_max=4.0, n_points=513)
    drv = LevyDriver(rank=1, loadings=[exp_loading(0.1, 1.0, **grid)], seed=7)
    spec = ModelSpec(f0=smooth_bump(**grid), params=P)
    with pytest.raises(DomainTooShort, match=r"t_eval=1\.5 lies beyond the horizon T=1\.0"):
        convergence_experiment(spec, drv, 1.5, [4], 2, n_steps=4)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.2, 3.0), lam=st.floats(0.1, 2.0), T=st.floats(0.5, 2.0),
       k=st.integers(0, 16), frac=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
def test_every_coefficient_scheme_preserves_hermitian_symmetry(alpha, lam, T, k,
                                                               frac, seed):
    # real inputs stay real: c_{-n} = conj(c_n) and c_star real at every
    # step of the exact transport, linear Euler and the Markovian scheme
    pk = BasisParams(alpha, lam, T)
    n_steps = 8
    dt = frac * euler_stability_limit(pk, k)
    times = dt * np.arange(n_steps + 1)
    grid = dict(x_max=2.0 * T, n_points=1025)   # [0, T] splits into 512 steps
    b = seasonal_curve(0.05, **grid)
    drv = LevyDriver(rank=2, loadings=[exp_loading(0.1, 0.5, **grid),
                                       exp_loading(0.05, 2.0, **grid)], seed=seed)
    spec = ModelSpec(f0=smooth_bump(**grid), params=pk, beta=lambda t: b)
    noise = drv.increments(drv.path_rng(0), dt, n_steps)
    paths = [simulate_fk_state(spec, drv, times, k, noise=noise)[0],
             euler_coefficient_system(spec, drv, times, k, noise=noise),
             simulate_markovian_fk(make_field("constant", drv, pk, b_curve=b),
                                   spec, drv, times, k, noise=noise)]
    for path in paths:
        for s in path.states:
            scale = abs(s.c_star) + np.sum(np.abs(s.c))
            assert s.hermitian_defect() <= 1e-12 * scale
