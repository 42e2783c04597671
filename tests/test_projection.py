import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fwdapprox.basis import (
    BasisParams,
    cut,
    eval_g_n,
    eval_g_n_deriv,
    projector_norm_bound,
)
from fwdapprox.cli import _K_MAX
from fwdapprox.errors import DomainTooShort, NotSmoothEnough
from fwdapprox.projection import (
    COEFF_POINTS,
    CoeffState,
    _compute_C1_rows,
    _fold_grid,
    _fold_input,
    _fold_rows,
    _synth_fft,
    c_kt_norm_sq,
    coefficient,
    coefficients_fft,
    commutator_apply,
    compute_C1,
    compute_C2,
    norm_alpha_span,
    power_iteration_pi_norm,
    project_pi,
    reconstruct,
    reconstruct_deriv,
)
from fwdapprox.space import Curve, norm_alpha, read_curve_csv
from fwdapprox.testcurves import exp_loading, flat_curve, seasonal_curve, smooth_bump

P = BasisParams(alpha=1.0, lam=0.5, horizon=1.0)
DATA = Path(__file__).resolve().parent.parent / "data"


def basis_curve(n, x_max=1.0, n_points=2**12 + 1):
    x = np.linspace(0.0, x_max, n_points)
    return Curve(0.0, eval_g_n_deriv(P, n, x), x_max)


def test_coeff_state_validation_and_access():
    s = CoeffState(1.0, np.arange(5, dtype=complex), P)
    assert s.coeff(-2) == 0.0 + 0j
    assert s.coeff(2) == 4.0 + 0j
    assert s.coeff(7) == 0.0
    with pytest.raises(ValueError):   # the level is read off c: 2k + 1 entries
        CoeffState(0.0, np.zeros(4), P)


def test_coeff_state_json_roundtrip():
    s = CoeffState(1.5 + 0.0j, np.exp(1j * np.arange(5)), P)
    t = CoeffState.from_json(s.to_json())
    assert t.params == s.params
    assert np.allclose(t.c, s.c)
    assert complex(t.c_star) == pytest.approx(complex(s.c_star))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.2, 3.0), lam=st.floats(0.1, 2.0), T=st.floats(0.5, 2.0),
       k=st.integers(0, 2048), seed=st.integers(0, 2**32 - 1))
@example(alpha=1.0, lam=0.5, T=1.0, k=0, seed=0)
@example(alpha=1.0, lam=0.5, T=1.0, k=2048, seed=0)    # 4,097 coefficients
def test_coeff_state_level_is_read_off_its_coefficients(alpha, lam, T, k, seed):
    # the level of 2k + 1 coefficients is k, and the JSON text, whose "k" is
    # that level, reads back to the same text; an even count, a 2-D array and
    # a "k" that disagrees with c are each refused
    params = BasisParams(alpha, lam, T)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=2 * k + 1) + 1j * rng.normal(size=2 * k + 1)
    s = CoeffState(complex(rng.normal(), rng.normal()), c, params)
    assert s.k == (len(c) - 1) // 2 == k
    text = s.to_json()
    assert CoeffState.from_json(text).to_json() == text
    for bad in (c[1:], c[None, :]):
        with pytest.raises(ValueError):
            CoeffState(s.c_star, bad, params)
    d = json.loads(text)
    with pytest.raises(ValueError):
        CoeffState.from_json(json.dumps(dict(d, k=k + 1)))


def test_hermitian_defect():
    real_state = CoeffState(1.0, np.array([1 - 1j, 0.5, 1 + 1j]), P)
    assert real_state.hermitian_defect() < 1e-15
    bad = CoeffState(1.0, np.array([1 + 1j, 0.5, 1 + 1j]), P)
    assert bad.hermitian_defect() > 1.0


def test_coefficient_biorthogonality():
    # extracting mode n from basis element g_m gives the Kronecker delta
    for m in (0, 2, -3):
        h = basis_curve(m)
        for n in range(-4, 5):
            c = coefficient(h, n, P)
            assert abs(c - (1.0 if n == m else 0.0)) < 1e-9


def test_fft_matches_scalar_quadrature():
    # the fold reads h' through the spline (step 1/2048) and, for a curve on
    # the fold's own step 1/4096, straight from the samples
    for f in (smooth_bump(), smooth_bump(x_max=1.0)):
        s = coefficients_fft(f, 6, P)
        for n in (-6, -1, 0, 3):
            assert s.coeff(n) == pytest.approx(
                coefficient(f, n, P, n_points=2**12 + 1), abs=1e-12)
        assert complex(s.c_star) == pytest.approx(complex(f.value(0.0)))


@pytest.mark.parametrize("v0", [1.0, -0.0, 0.5 - 0.25j, complex(-0.0, -0.0)])
def test_coefficients_fft_reads_value_at_zero_without_antiderivative(v0):
    # c_star is h(0) as stored; no quartic antiderivative is built for it, and
    # the result is Curve.value's at 0 to the bit, signs of zero included
    h = smooth_bump(value_at_zero=v0)
    s = coefficients_fft(h, 4, P)
    assert "anti" not in h._spline_cache
    assert repr(s.c_star) == repr(complex(h.value(0.0)))


def test_project_pi_replicates_derivative():
    f = smooth_bump()
    g = project_pi(f, P)
    x = np.array([0.3, 1.3])
    d = g.deriv(x)
    # second period carries the damping factor e^{-decay T}
    assert d[1] == pytest.approx(d[0] * np.exp(-P.decay), rel=1e-6)
    assert complex(g.value(0.0)) == pytest.approx(complex(f.value(0.0)))
    short = smooth_bump(x_max=0.5)
    with pytest.raises(DomainTooShort):
        project_pi(short, P)


def test_reconstruct_roundtrip_on_span():
    rng = np.random.default_rng(3)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    s = CoeffState(0.7 + 0j, c, P)
    x = np.linspace(0, 1, 2**12 + 1)
    f = Curve(s.c_star, reconstruct_deriv(s, x), 1.0)
    t = coefficients_fft(f, 4, P)
    assert np.max(np.abs(t.c - s.c)) < 1e-9
    assert complex(t.c_star) == pytest.approx(complex(s.c_star))
    # values agree too
    xs = np.linspace(0, 1, 33)
    assert np.allclose(reconstruct(s, xs), f.value(xs), atol=1e-9)


def test_commutator_matches_closed_form():
    # the defect of truncation-then-shift on basis elements is g_n(t) times
    # the constant element, only for discarded modes
    t = 0.37
    for n, k in ((9, 4), (3, 4), (20, 16)):
        h = basis_curve(n)
        got = commutator_apply(h, k, t, P)
        expected = eval_g_n(P, n, t) if abs(n) > k else 0.0
        assert abs(got - expected) < 1e-10


def test_compute_C1_bounds_truncation_error():
    f = smooth_bump()
    C1 = compute_C1(f, P)
    assert C1 > 0.0
    big = coefficients_fft(f, 256, P, n_points=2**14 + 1)
    ns = P.n_range(256)
    for k in (4, 16, 64):
        resid = CoeffState(0.0, np.where(np.abs(ns) > k, big.c, 0.0), P)
        assert norm_alpha_span(resid) ** 2 <= C1 / k


def test_compute_C1_zero_for_constant_derivative():
    # f' constant: no curvature, only the boundary term remains
    f = Curve.from_deriv_fn(lambda x: np.full_like(x, 0.5), 1.0, x_max=1.0)
    C1 = compute_C1(f, P)
    w = np.exp(P.decay)
    expected = 0.5**2 * abs(w - 1.0) ** 2 / (np.pi**2 * P.damping_factor)
    assert C1 == pytest.approx(expected, rel=1e-6)


def test_compute_C1_rejects_rough_data():
    rng = np.random.default_rng(1)
    f = Curve(0.0, rng.normal(size=2**12 + 1), 1.0)
    with pytest.raises(NotSmoothEnough):
        compute_C1(f, P)


@pytest.mark.parametrize("n", [4098, 4099, 8195])
def test_compute_C1_where_the_half_grid_has_an_even_count(n):
    # quadratures on 4099 and 8195 nodes check against 2050 and 4098 nodes,
    # an even count, on which composite Simpson needs the end correction
    ref = compute_C1(smooth_bump(x_max=1.0, n_points=4097), P)
    assert compute_C1(smooth_bump(x_max=1.0, n_points=n), P) == pytest.approx(ref, rel=1e-5)


def smooth_rows(rng, m, n, T):
    """m smooth derivative rows on the n nodes of [0, T]: random damped waves."""
    x = np.linspace(0.0, T, n)
    a, w, r, phase = (rng.uniform(lo, hi, size=(m, 1)) for lo, hi in
                      ((-1.0, 1.0), (0.5, 12.0), (-2.0, 2.0), (0.0, 6.3)))
    return a * np.exp(r * x) * np.cos(w * x + phase)


@pytest.mark.parametrize("n", [256, 257, 4096, 4097, 4098, 4099, 5001])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(m=st.integers(1, 5), alpha=st.floats(0.2, 3.0), lam=st.floats(0.1, 2.0),
       T=st.floats(0.5, 2.0), seed=st.integers(0, 2**32 - 1))
def test_compute_C1_rows_equal_compute_C1_row_by_row(n, m, alpha, lam, T, seed):
    # node counts below, at and above the quadrature's 4097, odd and even: the
    # rows off it are resampled through each curve's spline first
    rng = np.random.default_rng(seed)
    p = BasisParams(alpha, lam, T)
    rows = smooth_rows(rng, m, n, T)
    assert _compute_C1_rows(rows, p) == [compute_C1(Curve(0.0, d, T), p) for d in rows]


@pytest.mark.parametrize("n", [4096, 4097, 4098, 5001])
@pytest.mark.parametrize("rough", [0, 2])
def test_compute_C1_rows_reject_one_rough_row(n, rough):
    # noise among smooth rows fails the half-resolution check.  On far fewer
    # nodes than the quadrature's, the spline smooths noise out, as it does
    # for compute_C1
    rng = np.random.default_rng(n)
    rows = smooth_rows(rng, 3, n, 1.0)
    _compute_C1_rows(rows, P)
    rows[rough] = rng.normal(size=n)
    with pytest.raises(NotSmoothEnough):
        _compute_C1_rows(rows, P)


def test_compute_C2_frozen_value():
    # T / (pi^2 (1 - e^{-2 lam T})) at T=1, lam=0.5
    assert compute_C2(P) == pytest.approx(0.16028775243460777, rel=1e-12)


def test_c_kt_bound_and_monotone_tail():
    C2 = compute_C2(P)
    for k in (8, 32):
        for t in (0.0, 0.5, 1.0):
            ce = c_kt_norm_sq(P, k, t)
            assert ce.norm_sq_bound <= C2 / k
    # larger k discards less
    a = c_kt_norm_sq(P, 8, 0.5).norm_sq_bound
    b = c_kt_norm_sq(P, 64, 0.5).norm_sq_bound
    assert b < a


def test_power_iteration_matches_projector_norm():
    est = power_iteration_pi_norm(P)
    assert est == pytest.approx(projector_norm_bound(P), rel=1e-4)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.2, 3.0), lam_T=st.floats(3.2e-3, 2.0), T=st.floats(0.25, 4.0))
# the far corner: 2,160 periods, where alpha * y reaches 2.6e4
@example(alpha=3.0, lam_T=3.2e-3, T=4.0)
def test_power_iteration_matches_projector_norm_for_random_parameters(alpha, lam_T, T):
    params = BasisParams(alpha, lam_T / T, T)
    est = power_iteration_pi_norm(params)
    assert abs(est - projector_norm_bound(params)) <= 0.01 * projector_norm_bound(params)


def test_norm_alpha_span_matches_direct_quadrature():
    rng = np.random.default_rng(5)
    c = rng.normal(size=7) + 1j * rng.normal(size=7)
    s = CoeffState(0.3 + 0j, c, P)
    # brute force: evaluate the span derivative far out and integrate
    x = np.linspace(0, 25, 2**16 + 1)
    d = reconstruct_deriv(s, x)
    val = np.trapezoid(np.abs(d) ** 2 * np.exp(x), x)
    direct = np.sqrt(abs(s.c_star) ** 2 + val)
    assert norm_alpha_span(s) == pytest.approx(direct, rel=1e-5)


def test_coefficients_fft_refuses_aliased_modes():
    # 2k + 1 modes need at least as many DFT bins as grid intervals
    f = smooth_bump()
    with pytest.raises(ValueError):
        coefficients_fft(f, 2048, P)
    s = coefficients_fft(f, 2047, P)
    assert s.c.shape == (4095,)


# curves smooth on the fold's grid, their parameters drawn at random
SMOOTH_CURVES = st.one_of(
    st.builds(smooth_bump, st.floats(-1.0, 2.0), st.floats(0.0, 1.5), st.floats(0.05, 0.6)),
    st.builds(exp_loading, st.floats(0.01, 1.0), st.floats(0.1, 5.0)),
    st.builds(seasonal_curve, st.floats(-1.0, 2.0), st.floats(0.01, 1.0), st.floats(0.1, 2.0),
              st.floats(0.0, 3.0)),
    st.builds(flat_curve, st.floats(-1.0, 2.0)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(h=SMOOTH_CURVES, k=st.integers(1, _K_MAX))
def test_coefficients_up_to_the_largest_k_match_a_fold_on_16x_the_intervals(h, k):
    # Simpson's alternating weights make mode n read a third of the spectrum
    # at n +- N/2, an error that grows with k/N.  The default grid holds
    # N = 8k intervals at k = 512 and the fold keeps N >= 8k above it, so at
    # every k, and at _K_MAX, each coefficient lies within twice the default
    # grid's largest error at k = 512 of the same fold on 16 x 4,096
    # intervals (plus 1e-14 of the integrand's size, for rounding).  A fold
    # on fewer intervals above k = 512 (N >= 4k or 2k) misses this bound
    ref = coefficients_fft(h, _K_MAX, P, n_points=16 * (COEFF_POINTS - 1) + 1).c
    scale = np.max(np.abs(h.deriv(np.linspace(0.0, P.horizon, COEFF_POINTS)))) * np.exp(P.decay)
    default = np.max(np.abs(coefficients_fft(h, 512, P).c - ref[_K_MAX - 512:_K_MAX + 513]))
    tol = 2.0 * default + 1e-14 * scale
    for kk in (k, _K_MAX):
        err = np.abs(coefficients_fft(h, kk, P).c - ref[_K_MAX - kk:_K_MAX + kk + 1])
        assert np.max(err) <= tol, (kk, np.max(err), tol)


def test_coefficients_fft_memo_key_covers_every_input():
    # one curve folded under every input the result depends on, in shuffled
    # order and twice over, equals a fold of a fresh copy bit for bit
    h = smooth_bump()
    inputs = [(k, n_points, BasisParams(alpha, lam, horizon))
              for k in (2, 5) for n_points in (2**8 + 1, 2**10 + 1)
              for alpha in (0.5, 1.0) for lam in (0.25, 0.5) for horizon in (1.0, 1.5)]
    order = np.random.default_rng(0).permutation(2 * len(inputs)) % len(inputs)
    for i in order:
        k, n_points, params = inputs[i]
        got = coefficients_fft(h, k, params, n_points)
        fresh = Curve(h.value_at_zero, h.deriv_samples.copy(), h.x_max)
        want = coefficients_fft(fresh, k, params, n_points)
        assert got.params == want.params
        assert got.c_star == want.c_star
        assert got.c.tobytes() == want.c.tobytes()
    assert coefficients_fft(h, 2, P) is coefficients_fft(h, 2, P)


def test_coefficients_fft_memo_is_read_only_and_skips_failed_calls():
    h = smooth_bump()
    s = coefficients_fft(h, 4, P)
    with pytest.raises(ValueError):
        s.c[0] = 1.0
    short = smooth_bump(x_max=0.5)
    for _ in range(2):  # a call that raised stored nothing, so it raises again
        with pytest.raises(DomainTooShort):
            coefficients_fft(short, 4, P)
    assert short._spline_cache.keys() <= {"deriv"}


@pytest.mark.parametrize("k", [2, 8])
@pytest.mark.parametrize("make", [
    lambda: read_curve_csv(str(DATA / "bump_curve.csv")),
    smooth_bump,
    lambda: exp_loading(0.05, 2.0),
], ids=["bump_csv", "smooth_bump", "exp_loading"])
def test_fold_of_on_grid_samples_matches_coefficients_fft(make, k):
    # the one fold of coefficients_fft and the Euler loop, on a curve's own
    # samples, against the independent Simpson sum of every mode, which keeps
    # the x = T node rather than folding it onto x = 0
    curve = make()
    n_T = 2048
    assert curve.grid_step == pytest.approx(P.horizon / n_T)
    grid = _fold_grid(n_T + 1, P)
    spectra = np.empty((1, n_T), dtype=np.complex128)
    got = _fold_rows([_fold_input(curve.deriv_samples[:n_T + 1], grid)], k, P.horizon,
                     spectra)[0]
    want = [coefficient(curve, n, P, n_points=n_T + 1) for n in range(-k, k + 1)]
    assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.2, 3.0), lam=st.floats(0.1, 2.0),
       T=st.floats(0.5, 2.0), k=st.integers(0, 64),
       n_points=st.integers(2, 129), seed=st.integers(0, 2**32 - 1))
def test_fft_synthesis_matches_reconstruct_deriv(alpha, lam, T, k, n_points, seed):
    # the grid derivative of a span element from one DFT, including 2k + 1
    # modes on fewer bins, where modes that agree on the grid share a bin
    p = BasisParams(alpha, lam, T)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=2 * k + 1) + 1j * rng.normal(size=2 * k + 1)
    x = np.linspace(0.0, T, n_points)
    got = _synth_fft(c, n_points, p)
    want = reconstruct_deriv(CoeffState(0.0, c, p), x)
    scale = np.sum(np.abs(c)) * np.exp(-p.decay * x) / np.sqrt(T)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_commutator_apply_broadcasts_over_t():
    h = basis_curve(9)
    ts = np.linspace(0.0, 1.0, 5)
    got = commutator_apply(h, 4, ts, P)
    assert got.shape == ts.shape
    assert isinstance(commutator_apply(h, 4, 0.25, P), complex)
    for t, g in zip(ts, got):
        assert g == commutator_apply(h, 4, float(t), P)


def _fold_input_reference(d, grid):
    """The fold input as three fresh arrays: w * d * e, then x = T onto x = 0."""
    _, w, e = grid
    a = w * d * e
    folded = a[..., :-1].copy()
    folded[..., 0] += a[..., -1]
    return folded


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(half=st.integers(1, 200), is_complex=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_fold_input_writes_only_its_own_array(half, is_complex, seed):
    # the fold forms its input in place, in the one array it makes; the
    # caller's samples (a curve's, or a row of a field's output shared
    # across steps) stay as they were, and the input is the three-array one
    # bit for bit
    n = 2 * half + 1
    grid = _fold_grid(n, P)
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) + (1j * rng.normal(size=n) if is_complex else 0.0)
    before = d.copy()
    got = _fold_input(d, grid)
    assert d.tobytes() == before.tobytes()
    want = _fold_input_reference(before, grid)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()
