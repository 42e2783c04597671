import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import linalg

from fwdapprox import dynamics
from fwdapprox.basis import BasisParams, eval_g_n, lambda_n
from fwdapprox.dynamics import (
    LevyDriver,
    ModelSpec,
    _euler_intervals,
    _exact_transport,
    _final_state,
    _half_spectrum,
    _phi1,
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
from fwdapprox.markovian import (make_field, oracle_markovian, picard_operator_V,
                                 simulate_markovian_fk)
from fwdapprox.projection import CoeffState, coefficients_fft, reconstruct, reconstruct_deriv
from fwdapprox.semigroup import _shift_factors, shift_curve
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


# sha256 of path 513's increments (64 steps of 0.01, make_driver's three
# loadings) at seed 2015 under each law, recorded with numpy 2.4.6: a numpy
# whose SeedSequence, PCG64 seeding or samplers draw another stream fails here
STREAM_SHA256 = {
    "gaussian": "21cb3dd61932621c1006a4dfc37088dc9d1590e0a192b6d904c952ec1f52a2d2",
    "variance_gamma": "8fade161d74b6bcef9dfc71546f469e6efbea0246fb0249cc13da09552be4a92",
    "nig": "307f393bb7631f15ea3286fc0cbd17c285458a8dfcf77658f0ba0b5f11c91f9a",
}
_LAW_PARAMS = {"gaussian": None, "variance_gamma": 0.2, "nig": 0.5}


@pytest.mark.parametrize("law", sorted(STREAM_SHA256))
def test_path_stream_golden(law):
    drv = make_driver(law, _LAW_PARAMS[law], seed=2015)
    inc = drv.increments(drv.path_rng(513), 0.01, 64)
    assert hashlib.sha256(inc.tobytes()).hexdigest() == STREAM_SHA256[law]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(law=st.sampled_from(sorted(_LAW_PARAMS)),
       seed=st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
       chunk=st.integers(0, 2**11), back=st.integers(0, 16), n_ids=st.integers(0, 40),
       n_steps=st.integers(1, 9))
def test_path_rngs_equal_path_rng_draw_for_draw(law, seed, chunk, back, n_ids, n_steps):
    # the one-pass seeding gives each path the stream of path_rng: its state,
    # every draw and the state after them, for ids up to 2^20 that run across
    # a multiple of the path chunk when n_ids > back
    drv = make_driver(law, _LAW_PARAMS[law], seed=seed)
    start = max(dynamics._PATH_CHUNK * chunk - back, 0)
    ids = range(start, start + n_ids)
    got = 0
    for pid, rng in zip(ids, drv._path_rngs(ids)):
        want = drv.path_rng(pid)
        assert rng.bit_generator.state == want.bit_generator.state
        assert drv.increments(rng, 0.01, n_steps).tobytes() == \
            drv.increments(want, 0.01, n_steps).tobytes()
        assert rng.bit_generator.state == want.bit_generator.state
        got += 1
    assert got == n_ids


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


def test_loading_that_ends_off_the_grid_keeps_the_oracle_on_f0s_grid():
    # a loading on [0, 1.7] covers f0's nodes up to 1.69970703125 only; the
    # oracle cuts its state to that last node, so every state keeps f0's step
    # and the final one matches the closed-form mild sum as well as a loading
    # on f0's whole range does.  A cut to 1.7 itself on that node count would
    # stretch the step by 2e-4 and put the final state 7e-5 off
    spec = make_spec()
    times = np.linspace(0, 0.5, 17)
    for x_max in (1.7, 2.0):
        drv = LevyDriver(rank=1, loadings=[exp_loading(0.1, 1.0, x_max=x_max)], seed=7)
        path = oracle_mild_solution(spec, drv, times)
        assert all(f.grid_step == pytest.approx(spec.f0.grid_step, rel=1e-12)
                   for f in path.states)
        f = path.states[-1]
        base, kernel = dynamics._mild_terms(spec, drv, times, [], f.grid, Curve.value)
        want = base + np.tensordot(path.noise_record, kernel(0, f.grid.size), axes=2)
        assert np.max(np.abs(f.values_on_grid() - want)) < 1e-7


def test_state_sim_zero_noise_closed_form():
    spec = make_spec()
    drv = make_driver()
    t_end = 0.5
    times = np.linspace(0, t_end, 33)
    sv = simulate_fk_state(spec, drv, times, k=6,
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
    sv = simulate_fk_state(spec, drv, times, k=4)
    for j in range(times.size):
        s = sv.state(j)
        assert abs(complex(reconstruct(s, 0.0)) - sv.S_k[j]) < 1e-10


def test_state_sim_starts_at_initial_spot():
    spec = make_spec()
    drv = make_driver()
    sv = simulate_fk_state(spec, drv, np.linspace(0, 0.1, 3), k=4,
                           noise=np.zeros((2, 3)))
    assert sv.S_k[0] == pytest.approx(complex(spec.f0.value(0.0)))


def test_hermitian_symmetry_preserved():
    spec = make_spec(beta_level=0.05)
    drv = make_driver()
    path = simulate_fk_state(spec, drv, np.linspace(0, 0.5, 33), k=8)
    assert max(path.state(j).hermitian_defect() for j in range(33)) < 1e-10


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


@pytest.mark.parametrize("x_max, n", [(2.0, 513), (800.0, 9)])    # steps 1/256 and 100
@pytest.mark.parametrize("off", [0.0, 4e-10, 4e-8])                # in steps
def test_horizon_is_a_node_where_shift_curve_slices(x_max, n, off):
    # one node test, counting in steps: T is a node for the Euler loop exactly
    # when a shift by T slices the samples.  In x, off = 4e-8 on step 1/256 is
    # 1.6e-10 and off = 4e-10 on step 100 is 4e-8, so an absolute 1e-9 would
    # decide both the other way
    f0 = Curve(0.5, np.random.default_rng(3).normal(size=n), x_max)
    i = (n - 1) // 2
    T = (i + off) * f0.grid_step
    node = i if off < 1e-9 else None
    assert f0._node_index(T) == node
    p = BasisParams(alpha=1.0, lam=0.5, horizon=T)
    if node is None:
        with pytest.raises(ValueError, match="even number of intervals"):
            _euler_intervals(f0, 1, p)
    else:
        assert _euler_intervals(f0, 1, p) == i
    g = shift_curve(f0, T)
    sliced = np.array_equal(g.deriv_samples, f0.deriv_samples[i:i + g.deriv_samples.size])
    assert sliced is (node is not None)


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
        s = path.state(-1)
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
        sp = simulate_fk_state(spec, drv, np.linspace(0, t_end, L + 1),
                               k, noise=noise)
        x = np.linspace(0, 0.75, 65)
        diffs.append(np.max(np.abs(reconstruct(ep.state(-1), x)
                                   - reconstruct(sp.state(-1), x))))
    assert diffs[0] > diffs[1] > diffs[2]


def test_delivery_forward_matches_quadrature():
    rng = np.random.default_rng(9)
    c = rng.normal(size=17) + 1j * rng.normal(size=17)
    c = 0.5 * (c + np.conj(c[::-1]))
    s = CoeffState(1.2 + 0j, c, P)
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
    pk = BasisParams(alpha, lam, T)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=2 * k + 1) + 1j * rng.normal(size=2 * k + 1)
    s = CoeffState(complex(rng.normal()), c, pk)
    t, T1 = min(start, end) * T, max(start, end) * T
    T2 = T1 + width * (T - T1)
    assume(T1 < T2)
    F = delivery_forward(s, t, T1, T2)
    if (T2 - T1) / 4000 < np.finfo(float).tiny:
        # the quadrature step underflows (T2 - T1 can be 5e-324); a window
        # that narrow averages to the point value
        Fq = complex(reconstruct(s, T1 - t))
    else:
        xs = np.linspace(T1 - t, T2 - t, 4001)
        w = _simpson_weights(4001, (T2 - T1) / 4000)
        Fq = np.sum(w * reconstruct(s, xs)) / (T2 - T1)
    assert abs(F - Fq) <= 1e-11 * (abs(s.c_star) + np.sum(np.abs(c)))


def test_delivery_forward_weights_are_exact():
    # the window weights give the closed form bit for bit, on the first call
    # and on repeats
    rng = np.random.default_rng(4)
    lams = lambda_n(P, P.n_range(6))
    for t, T1, T2 in [(0.0, 0.6, 0.9), (0.25, 0.5, 0.75), (0.0, 0.6, 0.9)]:
        c = rng.normal(size=13) + 1j * rng.normal(size=13)
        s = CoeffState(complex(rng.normal()), c, P)
        G = (np.exp(lams * (T1 - t)) * _phi1(lams * (T2 - T1)) - 1.0) \
            / (lams * np.sqrt(P.horizon))
        assert delivery_forward(s, t, T1, T2) == complex(s.c_star + np.sum(G * c))


def test_delivery_forward_window_limit_and_constant():
    rng = np.random.default_rng(2)
    c = rng.normal(size=9) + 0j
    s = CoeffState(0.9 + 0j, c, P)
    # T2 -> T1: the average collapses to the point value f_k(t, T1 - t)
    F = delivery_forward(s, 0.1, 0.6, 0.6 + 1e-6)
    assert abs(F - complex(reconstruct(s, 0.5))) < 1e-5
    # pure constant state: any window returns the constant
    const = CoeffState(2.5 + 0j, np.zeros(9), P)
    assert delivery_forward(const, 0.0, 0.2, 0.9) == pytest.approx(2.5)


def test_delivery_forward_bad_windows():
    s = CoeffState(1.0, np.zeros(3), P)
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


def test_convergence_experiment_evaluates_each_drift_curve_once():
    # one beta(t) per left endpoint, read by the realness check, the bound,
    # the oracle and the projected model alike
    calls = []
    b = flat_curve(0.05)
    spec = dataclasses.replace(make_spec(), beta=lambda t: calls.append(t) or b)
    convergence_experiment(spec, make_driver(), 0.5, [4], 8, n_steps=64)
    assert len(calls) == 64


def test_convergence_experiment_memory_does_not_grow_with_paths():
    # the paths are stepped in chunks: holding every path's noise, oracle and
    # model values would grow the peak fourfold from 2 to 8 chunks
    spec = make_spec()
    drv = make_driver()

    def peak(n_paths):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        convergence_experiment(spec, drv, 0.5, [4], n_paths, n_steps=4)
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        peak(2 * dynamics._PATH_CHUNK)      # fills the projection memos under tracing
        small, large = peak(2 * dynamics._PATH_CHUNK), peak(8 * dynamics._PATH_CHUNK)
    finally:
        tracemalloc.stop()
    assert large <= 1.1 * small, (small, large)


# tracemalloc peak of the run below, measured with one error buffer and one
# oracle buffer per run and the bound contracted in column blocks; the test
# allows 1 MB above it
CONVERGENCE_PEAK_MB = 19.46


def test_convergence_experiment_peak_memory():
    # 512 paths x 128 steps, k = 4..64: the peak is the chunk loop's, its
    # noise, oracle and error buffers, the oracle's (128, 3, 1024) kernel and
    # the final states; the bound's complex derivative kernel (128 x 3 x 4097,
    # 25 MB) is never held whole
    spec, drv = make_spec(beta_level=0.05), make_driver()

    def peak():
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        convergence_experiment(spec, drv, 0.5, [4, 8, 16, 32, 64], 512, n_steps=128)
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        peak()                              # fills the projection memos under tracing
        got = peak()
    finally:
        tracemalloc.stop()
    assert got <= (CONVERGENCE_PEAK_MB + 1.0) * 1e6, got


def test_sampled_bound_memory_does_not_grow_with_steps():
    # the bound's kernel is built and contracted a block of columns at a time
    # and its window test and drift sum run a block of lags at a time, so its
    # peak at 64 paths stays flat from 256 to 1,024 steps; a whole kernel or
    # lag grid grows it about fourfold
    spec, drv = make_spec(beta_level=0.05), make_driver()

    def peak(n_steps):
        times = np.linspace(0.0, 0.5, n_steps + 1)
        betas, drifts = dynamics._drift_curves(spec, times)
        psi = dynamics._psi_rows(spec, drv, times)
        w = np.random.default_rng(0).normal(0.0, np.sqrt(0.5 / n_steps), (64, n_steps, 3))
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dynamics._sampled_bound(spec, drv, times, betas, drifts, psi, w)
        return tracemalloc.get_traced_memory()[1] - start

    tracemalloc.start()
    try:
        peak(256)                           # fills the projection memos under tracing
        small, large = peak(256), peak(1024)
    finally:
        tracemalloc.stop()
    assert large <= 1.2 * small, (small, large)


def test_convergence_experiment_rows_do_not_depend_on_the_chunk(monkeypatch):
    # two full chunks and a partial one, against the smallest chunk the bound
    # allows and one chunk of every path; BLAS may round rows of products of
    # other sizes differently, so the errors agree to rounding, while the
    # bound reads the same first BOUND_PATHS paths either way
    spec = make_spec(beta_level=0.05)
    drv = make_driver()
    n_paths = 2 * dynamics._PATH_CHUNK + 37
    runs = []
    for chunk in (dynamics.BOUND_PATHS, n_paths):
        monkeypatch.setattr(dynamics, "_PATH_CHUNK", chunk)
        runs.append(convergence_experiment(spec, drv, 0.5, [2, 4], n_paths, n_steps=8))
    for small, whole in zip(*runs):
        assert small["bound_A_over_k"] == whole["bound_A_over_k"]
        assert (small["k"], small["n_paths"], small["seed"]) == \
            (whole["k"], whole["n_paths"], whole["seed"])
        for key in ("mc_error", "stderr"):
            assert small[key] == pytest.approx(whole[key], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("width", [1e-8, 1e-10])
def test_delivery_forward_narrow_window_has_no_cancellation(width):
    rng = np.random.default_rng(9)
    c = rng.normal(size=17) + 1j * rng.normal(size=17)
    c = 0.5 * (c + np.conj(c[::-1]))
    s = CoeffState(1.2 + 0j, c, P)
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


def _per_lag_mild_terms(spec, driver, times, betas, x, curve_eval):
    """`_mild_terms` as the lag-blocked fill on every row's own points, each
    drift evaluated on its own row."""
    dt = float(times[1] - times[0])
    y = (times[-1] - times[:-1])[:, None] + x          # (L, n_x) lagged points
    base = curve_eval(spec.f0, times[-1] + x)
    if betas:
        base = base + dt * np.stack([curve_eval(b, y[j])
                                     for j, b in enumerate(betas)]).sum(axis=0)
    kernel = np.empty((y.shape[0], driver.rank, x.size), base.dtype)
    lags = max(1, dynamics._BLOCK_POINTS // x.size)
    for l0 in range(0, y.shape[0], lags):
        for i, c in enumerate(driver.loadings):
            kernel[l0:l0 + lags, i] = curve_eval(c, y[l0:l0 + lags])
    return base, kernel


@pytest.mark.parametrize("grid", ["bound", "error", "off"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(horizon=st.sampled_from([0.5, 1.0, 2.0, 0.7, 1.3]), log_n=st.integers(2, 10),
       n_int=st.integers(1, 1100), steps=st.integers(0, 47), m_raw=st.integers(0, 63),
       frac=st.floats(0.01, 1.0), from_t=st.booleans(),
       drift=st.sampled_from(["none", "flat", "piecewise", "varying"]),
       block=st.sampled_from([2**16, 1000, 97, 40]), deriv=st.booleans())
def test_windowed_lag_rows_equal_per_lag_evaluation(grid, horizon, log_n, n_int, steps,
                                                    m_raw, frac, from_t, drift, block,
                                                    deriv):
    # "bound": x the bound's [0, T], dt m of its steps; "error": x the error's
    # [0, T - t_eval] at t_eval = T / 2, dt m of its steps; "off": any step
    # count, t_eval and x range, mostly not commensurate.  Each with no drift,
    # one flat curve, two curves in runs, or a new curve at every step.  base
    # and kernel, whole and in column blocks, equal the per-lag fill bit for
    # bit, and on the commensurate dyadic grids the rows are taken as windows
    m = None
    if grid == "off":
        t_eval, n_steps = frac * horizon, 1 + steps
        x_end = horizon - t_eval if from_t else horizon
    else:
        horizon = horizon if horizon in (0.5, 1.0, 2.0) else 1.0   # dyadic
        n_int = 2**log_n
        if grid == "bound":
            n_steps = 1 + steps % n_int
            m = 1 + m_raw % (n_int // n_steps)
            t_eval, x_end = m * n_steps * horizon / n_int, horizon
        else:
            n_steps = 2 ** (steps % (log_n + 1))
            m, t_eval = n_int // n_steps, 0.5 * horizon
            x_end = horizon - t_eval
    x = np.linspace(0.0, x_end, n_int + 1)
    times = np.linspace(0.0, t_eval, n_steps + 1)
    curves = dict(x_max=2.0 * horizon, n_points=257)
    b1, b2 = flat_curve(0.05, **curves), seasonal_curve(0.03, **curves)
    beta = {"none": None, "flat": lambda t: b1,
            "piecewise": lambda t: b1 if t < 0.5 * t_eval else b2,
            "varying": lambda t: seasonal_curve(0.05 + t, damp=1.0 + t, **curves)}[drift]
    spec = ModelSpec(f0=smooth_bump(**curves), params=BasisParams(1.0, 0.5, horizon),
                     beta=beta)
    drv = LevyDriver(rank=3, loadings=[exp_loading(0.1, r, **curves) for r in (0.5, 1.0, 2.0)])
    betas, _ = dynamics._drift_curves(spec, times)
    curve_eval = Curve.deriv if deriv else (lambda c, y: c.value(y).real)
    with mock.patch.object(dynamics, "_BLOCK_POINTS", block):
        base, kernel = dynamics._mild_terms(spec, drv, times, betas, x, curve_eval)
        want = _per_lag_mild_terms(spec, drv, times, betas, x, curve_eval)
        cols = [(0, x.size), (0, 1), (x.size // 3, x.size - 1), (x.size - 2, x.size)]
        got = [base, *(kernel(c0, c1) for c0, c1 in cols)]
        want = [want[0], *(want[1][..., c0:c1] for c0, c1 in cols)]
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()
    if m is not None:
        assert dynamics._lagged(times, x, float(times[1] - times[0]), curve_eval)[1] == m


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(paths=st.integers(1, 6), steps=st.integers(1, 40), rank=st.integers(1, 3),
       width=st.sampled_from([1, 2, 4, 8, 3, 5, 17, 64]), extra=st.integers(0, 3),
       windowed=st.booleans(),
       log_n=st.integers(2, 12), aligned=st.booleans(), n_blocks=st.integers(0, 40),
       tail=st.integers(0, 5), m_raw=st.integers(0, 63), frac=st.floats(0.01, 1.0),
       drift=st.sampled_from(["none", "fixed", "varying"]))
def blocked_bound_equals_whole_product(paths, steps, rank, width, extra, windowed, log_n,
                                       aligned, n_blocks, tail, m_raw, frac, drift):
    """The bound's derivatives, contracted in column blocks 4 x ``width``
    wide (_BLOCK_POINTS is 4 x width + extra kernel rows), and its base equal
    the whole kernel's np.tensordot and the drift rows' sum at once, bit for
    bit.  Windowed: dyadic lags, m steps of x's grid apart; else any step
    count and t_eval, and often n_x one above a multiple of the block width."""
    if windowed:
        n_int = 2**log_n
        n_steps = 2 ** (steps % (log_n + 1))
        t_eval = (1 + m_raw % (n_int // n_steps)) * n_steps / n_int
    else:
        n_steps, t_eval = steps, frac
        n_int = 4 * width * n_blocks + tail if aligned else 4 * n_blocks + tail + 1
    assume(1 <= n_int <= 4096)
    times = np.linspace(0.0, t_eval, n_steps + 1)
    curves = dict(x_max=2.0, n_points=257)
    b1 = seasonal_curve(0.03, **curves)
    beta = {"none": None, "fixed": lambda t: b1,
            "varying": lambda t: seasonal_curve(0.05 + t, damp=1.0 + t, **curves)}[drift]
    spec = ModelSpec(f0=smooth_bump(x_max=2.0, n_points=n_int + 1), params=P, beta=beta)
    drv = LevyDriver(rank=rank, loadings=[exp_loading(0.1, r, **curves)
                                          for r in (0.5, 1.0, 2.0)[:rank]])
    betas, drifts = dynamics._drift_curves(spec, times)
    w = np.random.default_rng(steps).normal(size=(paths, n_steps, rank))
    x = np.linspace(0.0, 1.0, n_int + 1)
    seen = []
    with mock.patch.object(dynamics, "_BLOCK_POINTS", (4 * width + extra) * n_steps * rank), \
            mock.patch.object(dynamics, "_compute_C1_rows",
                              lambda d, p: seen.append(d.copy()) or [0.0] * len(d)):
        dynamics._sampled_bound(spec, drv, times, betas, drifts,
                                dynamics._psi_rows(spec, drv, times), w)
        base = dynamics._mild_terms(spec, drv, times, betas, x, Curve.deriv)[0]
        want_base, kernel = _per_lag_mild_terms(spec, drv, times, betas, x, Curve.deriv)
    want = np.tensordot(w, kernel, axes=2)
    want += want_base
    assert (base == want_base).all()
    assert seen[0].dtype == want.dtype and (seen[0] == want).all()
    if windowed:
        assert dynamics._lagged(times, x, float(times[1] - times[0]), Curve.deriv)[1] < x.size


def test_bound_column_blocks_equal_the_whole_product():
    # at one BLAS thread, in a fresh interpreter: a one-path product is a
    # gemv, which splits its columns over the threads, so at two threads
    # blocks and the whole product can round the split's columns apart
    tests = Path(__file__).resolve().parent
    src = Path(dynamics.__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        str(p) for p in (src, tests, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-c", "import test_dynamics as t; "
                          "t.blocked_bound_equals_whole_product()"],
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-4000:]


def hermitian(rng, shape):
    """Random complex array whose last axis satisfies c_{-n} = conj(c_n)."""
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return 0.5 * (c + np.conj(c[..., ::-1]))


def half(c):
    """The real coordinates [Re c_0..c_k, Im c_1..c_k] of states c on modes -k..k."""
    k = c.shape[-1] // 2
    return np.concatenate([c[..., k:].real, c[..., k + 1:].imag], axis=-1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.2, 3.0), lam=st.floats(0.1, 2.0),
       T=st.floats(0.5, 2.0), frac=st.floats(0.0, 1.0, exclude_min=True),
       k_list=st.lists(st.integers(0, 32), min_size=1, max_size=5, unique=True).map(sorted),
       extra=st.integers(0, 3), L=st.integers(1, 64),
       n_paths=st.integers(1, 4), d=st.integers(1, 3), with_drift=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_final_state_equals_last_transport_step(alpha, lam, T, frac, k_list, extra, L,
                                                n_paths, d, with_drift, seed):
    # the closed-form state at t = L dt, every level of an ascending k_list
    # from one product, against L steps of the exact transport at that
    # level, from a projection at level max(k_list) + extra (modes -k..k kept)
    rng = np.random.default_rng(seed)
    kk = max(k_list) + extra
    pk = BasisParams(alpha, lam, T)
    init = CoeffState(complex(rng.normal()), hermitian(rng, 2 * kk + 1), pk)
    loads = rng.normal(size=d) + 0j, hermitian(rng, (d, 2 * kk + 1))
    drift = None
    if with_drift:
        drift = rng.normal(size=L) + 0j, hermitian(rng, (L, 2 * kk + 1))
    weighted = rng.normal(size=(n_paths, L, d))
    dt = frac * T / L

    lag = _shift_factors(pk, kk, dt * np.arange(L, 0, -1))
    states = list(_final_state(init, loads, drift, dt, k_list, lag)(weighted))
    assert len(states) == len(k_list)
    for k, (got_star, got) in zip(k_list, states):
        sl = slice(kk - k, kk + k + 1)
        level_loads = loads[0], loads[1][:, sl]
        level_drift = None if drift is None else (drift[0], drift[1][:, sl])
        *_, (c_star, c) = _exact_transport(CoeffState(init.c_star, init.c[sl], pk),
                                           level_loads, level_drift, weighted, dt)
        inc_star, inc = weighted @ loads[0], weighted @ loads[1][:, sl]
        if with_drift:
            inc_star, inc = inc_star + dt * drift[0], inc + dt * drift[1][:, sl]
        scale = (abs(init.c_star) + np.sum(np.abs(init.c[sl]))
                 + np.sum(np.abs(inc_star), axis=-1) + np.sum(np.abs(inc), axis=(-2, -1)))
        assert got_star.dtype == got.dtype == np.float64 and got.shape == (n_paths, 2 * k + 1)
        assert np.all(np.abs(got_star - c_star.real) <= 1e-12 * scale)
        # a real curve stays real: c_star real, and the modes -k..k that the
        # half spectrum gives with c_{-n} = conj(c_n) are the transport's
        pos = got[:, :k + 1] + 1j * np.pad(got[:, k + 1:], ((0, 0), (1, 0)))
        full = np.concatenate([np.conj(pos[:, :0:-1]), pos], axis=-1)
        assert np.all(np.max(np.abs(full - c), axis=-1) <= 1e-12 * scale)
        assert np.all(np.abs(c_star.imag) <= 1e-12 * scale)


def _per_level_final_state(init, loads, drift, dt, k, lag, weighted):
    """Level k's final state as the closed form made it one level at a time:
    its own complex kernel of 2k+2 columns, contracted as two real products."""
    k_max = init.k
    sl = slice(k_max - k, k_max + k + 1)
    load_star, load_c = loads[0], loads[1][:, sl]
    d = load_star.shape[0]
    g_lag, growth_lag = (np.ascontiguousarray(f[:, sl]) for f in lag)
    n_steps, c0 = g_lag.shape[0], init.c[sl]
    c_star, c = init.c_star + c0 @ g_lag[0], growth_lag[0] * c0
    if drift is not None:
        drift_c = dt * drift[1][:, sl]
        c_star = c_star + dt * np.sum(drift[0]) + np.sum(g_lag * drift_c)
        c = c + np.sum(growth_lag * drift_c, axis=0)
    kernel = np.concatenate([(load_star + g_lag @ load_c.T)[..., None],
                             growth_lag[:, None, :] * load_c], axis=-1)
    kernel = kernel.reshape(n_steps * d, 2 * k + 2)
    real, imag = np.ascontiguousarray(kernel.real), np.ascontiguousarray(kernel.imag)
    w = weighted.reshape(*weighted.shape[:-2], n_steps * d)
    noise = w @ real + 1j * (w @ imag)
    return (c_star + noise[..., 0]).real, half(c + noise[..., 1:])


@pytest.mark.parametrize("rows", [512, 464])
def test_one_final_state_product_equals_the_per_level_products_bit_for_bit(rows):
    # the benchmark's converge shape: chunks of 512 and 464 rows (2,000
    # paths), 128 steps of a rank-3 driver with drift, k = 4..64.  One
    # product for every level gives each level's per-level bytes
    spec, drv = make_spec(beta_level=0.05), make_driver()
    t_eval, n_steps, k_list = 0.5, 128, [4, 8, 16, 32, 64]
    times, dt = np.linspace(0.0, t_eval, n_steps + 1), t_eval / n_steps
    betas, _ = dynamics._drift_curves(spec, times)
    init, loads, drift, psi = dynamics._projected_inputs(spec, drv, times, betas, max(k_list))
    lag = _shift_factors(P, max(k_list), dt * np.arange(n_steps, 0, -1))
    weighted = np.random.default_rng(rows).normal(0.0, np.sqrt(dt), (rows, n_steps, 3)) * psi
    states = _final_state(init, loads, drift, dt, k_list, lag)(weighted)
    for k, (c_star, a) in zip(k_list, states):
        want_star, want = _per_level_final_state(init, loads, drift, dt, k, lag, weighted)
        assert c_star.tobytes() == want_star.tobytes(), k
        assert a.shape == want.shape and a.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("k_list", [[4], [2, 4, 8, 16, 32]], ids=["1-level", "5-levels"])
def test_convergence_experiment_contracts_each_chunk_once_for_the_model(monkeypatch, k_list):
    # every level's final state comes from one product of the chunk's noise:
    # the noise handed to the final state records each numpy operation on it,
    # so a product per level, or per real and imaginary part, fails the count
    used = []

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            used.append(ufunc.__name__)
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

        def __array_function__(self, func, types, args, kwargs):
            used.append(func.__name__)
            return func(*(np.asarray(x) if isinstance(x, Recorded) else x for x in args),
                        **kwargs)

    def spied(*args):
        final = real_final_state(*args)
        return lambda weighted: final(weighted.view(Recorded))

    spec, drv, n_paths = make_spec(beta_level=0.05), make_driver(), dynamics._PATH_CHUNK + 37
    want = convergence_experiment(spec, drv, 0.5, k_list, n_paths, n_steps=8)
    real_final_state = dynamics._final_state
    monkeypatch.setattr(dynamics, "_final_state", spied)
    got = convergence_experiment(spec, drv, 0.5, k_list, n_paths, n_steps=8)
    assert used == ["matmul", "matmul"]         # one per chunk of the two
    assert got == want


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
    got = _half_spectrum(eval_g_n(pk, np.arange(k + 1), x))(c_star.real, half(c))
    scale = np.abs(c_star) + np.sum(np.abs(c), axis=-1)
    assert got.dtype == np.float64
    assert np.all(np.max(np.abs(got - full), axis=-1) <= 1e-12 * scale)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(k=st.integers(0, 64), n_paths=st.integers(1, 6), spare=st.integers(0, 3),
       n_x=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_half_spectrum_writes_into_a_given_buffer(k, n_paths, spare, n_x, seed):
    # the values go into ``out``, a prefix of the run's error buffer when the
    # last chunk is partial, bit for bit as the allocating call makes them;
    # the state and the rest of the buffer stay as they were
    rows = n_paths + spare
    rng = np.random.default_rng(seed)
    values = _half_spectrum(eval_g_n(P, np.arange(k + 1), np.linspace(0.0, 0.5, n_x)))
    c_star = rng.normal(size=n_paths)
    c = half(hermitian(rng, (n_paths, 2 * k + 1)))
    inputs = c_star.copy(), c.copy()
    buf = np.full((rows, n_x), 7.0)
    got = values(c_star, c, out=buf[:n_paths])
    assert np.shares_memory(got, buf) and got.shape == (n_paths, n_x)
    assert np.array_equal(got, values(c_star, c))
    assert np.array_equal(buf[:n_paths], got) and np.all(buf[n_paths:] == 7.0)
    assert np.array_equal(c_star, inputs[0]) and np.array_equal(c, inputs[1])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.2, 3.0), lam=st.floats(0.1, 2.0), T=st.floats(0.5, 2.0),
       k=st.integers(0, 64), extra=st.integers(0, 64), L=st.integers(1, 160),
       frac=st.floats(0.0, 1.0, exclude_min=True), n_x=st.integers(1, 1100))
def test_each_level_slices_the_largest_levels_basis_bit_for_bit(alpha, lam, T, k, extra, L,
                                                                frac, n_x):
    # convergence_experiment evaluates g_n(lag) and e^{lambda_n lag} once, at
    # its largest level, and g_0..g_k on the sup grid once; each level's modes
    # of those are bit for bit what the level evaluates alone, so its kernel,
    # basis rows and outputs are too
    k_max = k + extra
    p = BasisParams(alpha, lam, T)
    dt = frac * T / L
    lags = dt * np.arange(L, 0, -1)
    sl = slice(k_max - k, k_max + k + 1)
    for whole, own in zip(_shift_factors(p, k_max, lags), _shift_factors(p, k, lags)):
        assert whole[:, sl].tobytes() == own.tobytes()
    for whole, own in zip(_shift_factors(p, k_max, lags), _shift_factors(p, k, L * dt)):
        assert whole[0, sl].tobytes() == own.tobytes()      # lag_0 = t
    x = np.linspace(0.0, T, n_x)
    G = eval_g_n(p, np.arange(k_max + 1), x)
    assert G[:k + 1].tobytes() == eval_g_n(p, np.arange(k + 1), x).tobytes()


def test_convergence_experiment_evaluates_the_basis_once_per_run(monkeypatch):
    # the largest level's basis serves every level: one evaluation on the sup
    # grid and one of the lag factors, whatever the number of levels
    calls = []

    def counted(fn):
        def call(*args):
            out = fn(*args)
            calls.append((fn.__name__, np.shape(out)))
            return out
        return call

    for name in ("eval_g_n", "_shift_factors"):
        monkeypatch.setattr(dynamics, name, counted(getattr(dynamics, name)))
    convergence_experiment(make_spec(), make_driver(), 0.5, [2, 4, 8, 16], 4, n_steps=8)
    # _shift_factors returns (g, growth), each (n_steps, 2 k_max + 1)
    assert sorted(calls) == [("_shift_factors", (2, 8, 33)),
                             ("eval_g_n", (17, dynamics.CONV_X_POINTS))]


@pytest.mark.parametrize("which", ["f0", "f0-value", "loading", "drift"])
def test_convergence_experiment_rejects_complex_curves(which):
    bump, drift = smooth_bump(), flat_curve(0.05)
    complex_bump = bump * (1.0 + 0.5j)
    if which == "f0-value":
        complex_bump = Curve(1.0 + 1e-3j, bump.deriv_samples, bump.x_max)
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


@pytest.mark.parametrize("x_max", [1.25, 1.2])
def test_convergence_experiment_names_a_drift_short_of_the_bound_range(x_max):
    # the bound reads a drift first used at t on [0, t_eval - t + T]: from
    # t = 0.25 on, with t_eval = 0.5 and T = 1, [0, 1.25] is enough and
    # [0, 1.2] is refused by name before any input is projected
    b1, b2 = flat_curve(0.05), flat_curve(0.03, x_max=x_max)
    spec = ModelSpec(f0=smooth_bump(), params=P, beta=lambda t: b1 if t < 0.25 else b2)
    if x_max == 1.25:
        assert len(convergence_experiment(spec, make_driver(), 0.5, [4], 2, n_steps=4)) == 1
        return
    with pytest.raises(DomainTooShort, match=r"^drift at t=0\.25 covers \[0, 1\.2\], short "
                       r"of \[0, t_eval - t \+ T\] = \[0, 1\.25\]$"):
        convergence_experiment(spec, make_driver(), 0.5, [4], 2, n_steps=4)


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
    paths = [simulate_fk_state(spec, drv, times, k, noise=noise),
             euler_coefficient_system(spec, drv, times, k, noise=noise),
             simulate_markovian_fk(make_field("constant", drv, pk, b_curve=b),
                                   spec, drv, times, k, noise=noise)]
    for path in paths:
        for j in range(times.size):
            s = path.state(j)
            scale = abs(s.c_star) + np.sum(np.abs(s.c))
            assert s.hermitian_defect() <= 1e-12 * scale


@pytest.mark.parametrize("run", [simulate_fk_state, euler_coefficient_system])
def test_psi_weights_scale_the_noise_at_the_left_endpoint(run):
    # Psi(t) = sum_i w_i(t) loading_i: weighting the loadings by w(t_j) is
    # the same as weighting the increments dL_j
    drv = make_driver()
    b = seasonal_curve(0.05)
    weights = lambda t: np.array([1.0 + t, 0.5 - t, 2.0 * np.cos(3.0 * t)])
    plain = ModelSpec(f0=smooth_bump(), params=P, beta=lambda t: b)
    weighted = ModelSpec(f0=smooth_bump(), params=P, beta=lambda t: b,
                         psi_weights=weights)
    L = 128
    times = np.linspace(0, 0.25, L + 1)
    noise = drv.increments(drv.path_rng(0), times[1], L)
    scaled = noise * np.stack([weights(t) for t in times[:-1]])
    got = run(weighted, drv, times, 4, noise=noise)
    want = run(plain, drv, times, 4, noise=scaled)
    for a, ref in ((got.S_k, want.S_k), (got.U, want.U)):
        assert np.max(np.abs(a - ref)) <= 1e-12 * np.max(np.abs(ref))


def _schemes():
    """Every scheme by name, as run(times, noise) on the default inputs at k = 2."""
    drv, spec = make_driver(), make_spec()
    field = make_field("constant", drv, P)
    return {
        "simulate_fk_state": lambda t, n: simulate_fk_state(spec, drv, t, 2, noise=n),
        "euler_coefficient_system":
            lambda t, n: euler_coefficient_system(spec, drv, t, 2, noise=n),
        "oracle_mild_solution": lambda t, n: oracle_mild_solution(spec, drv, t, noise=n),
        "simulate_markovian_fk":
            lambda t, n: simulate_markovian_fk(field, spec, drv, t, 2, noise=n),
        "oracle_markovian": lambda t, n: oracle_markovian(field, spec, drv, t, noise=n),
        "picard_operator_V":
            lambda t, n: picard_operator_V([spec.f0] * len(t), field, spec, drv, t, n),
    }


_TIMES = np.linspace(0.0, 0.05, 9)      # a stable Euler step at k = 2
_NAN_TIME = _TIMES.copy()
_NAN_TIME[3] = np.nan
_NAN_NOISE = np.zeros((8, 3))
_NAN_NOISE[5, 1] = np.inf


@pytest.mark.parametrize("times, noise, bad", [
    pytest.param(np.zeros(9), np.zeros((8, 3)), "times", id="zero-step"),
    pytest.param(_NAN_TIME, np.zeros((8, 3)), "times", id="nan-time"),
    pytest.param(0.5 + _TIMES, np.zeros((8, 3)), "times", id="starts-at-0.5"),
    pytest.param(-_TIMES, np.zeros((8, 3)), "times", id="decreasing"),
    pytest.param(_TIMES, _NAN_NOISE, "noise", id="non-finite-noise"),
    pytest.param(_TIMES, np.zeros((8, 2)), "noise", id="noise-of-rank-d-1"),
    pytest.param(_TIMES, np.zeros((9, 3)), "noise", id="noise-one-step-long"),
])
@pytest.mark.parametrize("scheme", list(_schemes()))
def test_every_scheme_checks_its_time_grid_and_noise(scheme, times, noise, bad):
    # one time-grid rule: finite times rising from 0 in uniform steps, and a
    # finite (L, d) noise record.  Unchecked, a zero step freezes the state, a
    # NaN time gives NaN states and Picard reads d - 1 loadings of (L, d - 1)
    with pytest.raises(ValueError, match=f"{bad} must be"):
        _schemes()[scheme](times, noise)


def test_picard_needs_one_state_per_time():
    drv, spec = make_driver(), make_spec()
    with pytest.raises(ValueError, match="8 states for 9 times"):
        picard_operator_V([spec.f0] * 8, make_field("constant", drv, P), spec, drv,
                          _TIMES, np.zeros((8, 3)))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.2, 3.0), lam=st.floats(0.1, 2.0), T=st.floats(0.5, 2.0),
       k=st.integers(0, 16), seed=st.integers(0, 2**32 - 1), drift=st.booleans())
def test_linear_schemes_are_the_markovian_ones_on_the_constant_field(alpha, lam, T, k,
                                                                     seed, drift):
    # the linear dynamics is the field that ignores the curve: on the constant
    # field, linear Euler and the linear oracle are the Markovian scheme and
    # oracle bit for bit.  About 30 % of the increments are zero and one
    # loading is stored on a shorter range, so a path that added a zero-noise
    # term would cut the oracle's range where the other path does not
    pk = BasisParams(alpha, lam, T)
    n_steps = 8
    dt = min(0.5 * euler_stability_limit(pk, k), T / (2 * n_steps))
    times = dt * np.arange(n_steps + 1)
    grid = dict(x_max=2.0 * T, n_points=1025)     # [0, T] splits into 512 steps
    short = dict(x_max=1.5 * T, n_points=769)     # the same step on [0, 1.5 T]
    b = seasonal_curve(0.05, **grid) if drift else flat_curve(0.0, **grid)
    drv = LevyDriver(rank=3, loadings=[exp_loading(0.1, 0.5, **grid),
                                       exp_loading(0.05, 2.0, **short),
                                       exp_loading(0.08, 1.0, **grid)], seed=seed)
    spec = ModelSpec(f0=smooth_bump(**grid), params=pk,
                     beta=(lambda t: b) if drift else None)
    noise = drv.increments(drv.path_rng(0), dt, n_steps)
    noise[np.random.default_rng(seed).random(noise.shape) < 0.3] = 0.0
    field = make_field("constant", drv, pk, b_curve=b)
    linear = euler_coefficient_system(spec, drv, times, k, noise=noise)
    markov = simulate_markovian_fk(field, spec, drv, times, k, noise=noise)
    assert np.array_equal(linear.S_k, markov.S_k) and np.array_equal(linear.U, markov.U)
    linear = oracle_mild_solution(spec, drv, times, noise=noise)
    markov = oracle_markovian(field, spec, drv, times, noise=noise)
    for a, c in zip(linear.states, markov.states, strict=True):
        assert (a.value_at_zero, a.x_max) == (c.value_at_zero, c.x_max)
        assert np.array_equal(a.deriv_samples, c.deriv_samples)
