import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fwdapprox.basis import (
    BasisParams,
    apply_A,
    cut,
    eval_e_n,
    eval_e_n_star,
    eval_g_n,
    eval_g_n_deriv,
    eval_g_n_star,
    eval_g_star,
    frame_lower_constant,
    frame_upper_constant,
    lambda_n,
    projector_norm_bound,
    shift_norm_bound,
)
from fwdapprox.projection import CoeffState

P = BasisParams(alpha=1.0, lam=0.5, horizon=1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        BasisParams(alpha=-1.0, lam=0.5, horizon=1.0)
    with pytest.raises(ValueError):
        BasisParams(alpha=1.0, lam=0.0, horizon=1.0)
    with pytest.raises(ValueError):   # a level is 2k + 1 coefficients, never even
        CoeffState(0.0, np.zeros(2), P)


def test_lambda_n_values():
    # decay = lam + alpha/2 = 1, so lambda_0 = -1
    assert lambda_n(P, 0) == pytest.approx(-1.0)
    ln = lambda_n(P, 3)
    assert ln.real == pytest.approx(-1.0)
    assert ln.imag == pytest.approx(6.0 * np.pi)
    arr = lambda_n(P, np.arange(-2, 3))
    assert arr.shape == (5,)
    assert np.conj(arr[0]) == pytest.approx(arr[-1])


def test_cut_reduces_modulo_horizon():
    assert cut(0.3, 1.0) == pytest.approx(0.3)
    assert cut(1.0, 1.0) == 0.0
    assert cut(2.7, 1.0) == pytest.approx(0.7)
    # just below a multiple maps to 0, not to T - eps
    assert cut(3.0 - 1e-15, 1.0) == 0.0
    x = cut(np.array([0.0, 0.5, 1.5, 2.0]), 1.0)
    assert np.allclose(x, [0.0, 0.5, 0.5, 0.0])


def test_g_star_is_one():
    assert eval_g_star(0.0) == 1.0
    assert np.all(eval_g_star(np.linspace(0, 5, 7)) == 1.0)


def test_g_n_vanishes_at_zero_and_matches_formula():
    for n in (-3, 0, 2):
        assert abs(eval_g_n(P, n, 0.0)) == 0.0
    # g_0(1) = (e^{-1} - 1)/(-1) = 1 - e^{-1}
    assert eval_g_n(P, 0, 1.0).real == pytest.approx(1.0 - np.exp(-1.0))
    # derivative is exp(lambda_n x)/sqrt(T)
    x = np.linspace(0, 2, 9)
    d = eval_g_n_deriv(P, 2, x)
    assert np.allclose(d, np.exp(lambda_n(P, 2) * x))


def test_g_n_broadcast_shapes():
    ns = np.arange(-2, 3)
    x = np.linspace(0, 1, 11)
    assert eval_g_n(P, ns, x).shape == (5, 11)
    assert eval_g_n_deriv(P, ns, x).shape == (5, 11)
    assert eval_e_n(P, ns, x).shape == (5, 11)


def test_e_n_star_damping_and_jump():
    # e_n^* carries the weight (1 - e^{-2 lam T}) e^{2 lam cut(x)}
    v0 = eval_e_n_star(P, 0, 0.2)
    expected = (1 - np.exp(-1.0)) * np.exp(0.2) * eval_e_n(P, 0, 0.2)
    assert v0 == pytest.approx(expected)
    # one-sided values at the period boundary differ (weight resets)
    left = eval_e_n_star(P, 1, 1.0, local=1.0)
    right = eval_e_n_star(P, 1, 1.0, local=0.0)
    assert abs(left - right) > 0.1


def test_e_n_star_over_an_array_of_modes_equals_per_mode_calls():
    # the dual Gram evaluates every mode in one call; each row must be the
    # per-mode value bit for bit, with the cut computed or supplied
    params = BasisParams(alpha=0.7, lam=0.3, horizon=2.0)
    ns = np.arange(-8, 9)
    u = np.linspace(0.0, 2.0, 33)
    y = 2.0 * 3 + u
    for local in (None, u):
        rows = eval_e_n_star(params, ns, y, local=local)
        each = np.stack([eval_e_n_star(params, int(n), y, local=local) for n in ns])
        assert np.array_equal(rows, each)


def test_g_n_star_vanishes_at_zero_and_integrates_e_n_star():
    assert eval_g_n_star(P, 3, 0.0) == 0.0
    # numeric integral of e^{-y alpha/2} e_n^*(y) against the closed form
    xs = np.linspace(0.0, 0.9, 2001)
    integrand = np.exp(-0.5 * xs) * eval_e_n_star(P, 2, xs)
    approx = np.trapezoid(integrand, xs)
    assert eval_g_n_star(P, 2, 0.9) == pytest.approx(approx, abs=1e-6)


def test_g_n_star_across_periods():
    # geometric per-period accumulation: compare against brute-force quadrature
    xs = np.linspace(0.0, 2.5, 200001)
    integrand = np.exp(-0.5 * xs) * eval_e_n_star(P, 1, xs)
    approx = np.trapezoid(integrand, xs)
    assert eval_g_n_star(P, 1, 2.5) == pytest.approx(approx, abs=1e-5)


def test_apply_A_damps_and_periodises():
    f = lambda u: np.sin(2 * np.pi * u)
    x = np.array([0.25, 1.25, 2.25])
    vals = apply_A(f, x, P)
    base = np.sin(np.pi / 2)
    assert np.allclose(vals, base * np.exp(-0.5 * x))


def test_frame_and_norm_constants():
    q = np.exp(-1.0)
    assert frame_lower_constant(P) == pytest.approx(q / (1 - q))
    assert frame_upper_constant(P) == pytest.approx(1 / (1 - q))
    assert projector_norm_bound(P) == pytest.approx(np.sqrt(1 / (1 - q)))
    assert shift_norm_bound(P) == pytest.approx(np.sqrt(2.0))
    p2 = BasisParams(alpha=4.0, lam=0.5, horizon=1.0)
    assert shift_norm_bound(p2) == pytest.approx(np.sqrt(0.5))


# -- the shared kernels against the formulas they replaced --------------------
# Each reference is the earlier per-function body, kept verbatim: the mode
# kernel and the period split must give its bytes, shape and return type.

def _ref_cut(x, horizon):
    x = np.asarray(x, dtype=float)
    ratio = x / horizon
    m = np.floor(ratio)
    m = np.where(ratio - m > 1.0 - 1e-12, m + 1.0, m)
    out = x - m * horizon
    out = np.clip(out, 0.0, None)
    return float(out) if out.ndim == 0 else out


def _ref_g_n(params, n, x):
    ln = np.asarray(lambda_n(params, n))
    x = np.asarray(x, dtype=float)
    if ln.ndim and x.ndim:
        out = np.expm1(ln[..., None] * x[None, ...]) / (ln[..., None] * np.sqrt(params.horizon))
    else:
        out = np.expm1(ln * x) / (ln * np.sqrt(params.horizon))
    return out if (ln.ndim or x.ndim) else complex(out)


def _ref_g_n_deriv(params, n, x):
    ln = np.asarray(lambda_n(params, n))
    x = np.asarray(x, dtype=float)
    if ln.ndim and x.ndim:
        out = np.exp(ln[..., None] * x[None, ...]) / np.sqrt(params.horizon)
    else:
        out = np.exp(ln * x) / np.sqrt(params.horizon)
    return out if (ln.ndim or x.ndim) else complex(out)


def _ref_e_n(params, n, x):
    n = np.asarray(n)
    x = np.asarray(x, dtype=float)
    expo = 2.0j * np.pi * n / params.horizon - params.lam
    if n.ndim and x.ndim:
        out = np.exp(expo[..., None] * x[None, ...]) / np.sqrt(params.horizon)
    else:
        out = np.exp(expo * x) / np.sqrt(params.horizon)
    return out if (n.ndim or x.ndim) else complex(out)


def _ref_g_n_star(params, n, x):
    T = params.horizon
    x = np.asarray(x, dtype=float)
    m = np.floor_divide(x, T)
    m = np.where(x / T - m > 1.0 - 1e-12, m + 1.0, m)
    u = np.clip(x - m * T, 0.0, None)
    mu = lambda_n(params, n) + 2.0 * params.lam
    scale = params.damping_factor / np.sqrt(T)
    r = np.exp(-params.decay * T)
    if abs(mu) < 1e-14:
        seg_full = T
        seg_part = u.astype(complex)
    else:
        seg_full = np.expm1(mu * T) / mu
        seg_part = np.expm1(mu * u) / mu
    geom = (1.0 - r**m) / (1.0 - r)
    out = scale * (geom * seg_full + r**m * seg_part)
    return out if out.ndim else complex(out)


def _same(fn, ref, *args):
    """fn(*args) and ref(*args) give the same bytes, shape and type, or
    raise the same error (a 2-d x broadcasts against the modes only where
    its leading size matches theirs)."""
    try:
        want = ref(*args)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            fn(*args)
        return
    got = fn(*args)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@st.composite
def _points(draw, horizon):
    """Points of [0, 6T]: random ones, multiples of T and one ulp either side."""
    multiples = [m * horizon for m in range(7)]
    edges = multiples + [np.nextafter(v, np.inf) for v in multiples] \
        + [np.nextafter(v, -np.inf) for v in multiples[1:]]
    pick = st.one_of(st.sampled_from(edges),
                     st.floats(0.0, 6.0 * horizon, allow_nan=False))
    return np.array(draw(st.lists(pick, min_size=1, max_size=40)))


def _shaped(draw, values, dtype):
    """``values`` as a scalar, a 0-d array, a 1-d array or a 2-d column."""
    form = draw(st.sampled_from(["scalar", "0-d", "1-d", "column"]))
    if form == "scalar":
        return dtype(values[0])
    if form == "0-d":
        return np.asarray(values[0], dtype=dtype)
    return np.asarray(values, dtype=dtype).reshape((-1, 1) if form == "column" else -1)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(),
       horizon=st.one_of(st.sampled_from([1.0, 0.1, 1.0 / 3.0, 0.7, 2.5, 12.0]),
                         st.floats(0.01, 20.0)),
       rates=st.sampled_from([(1.0, 0.5), (0.7, 0.3), (2.0, 0.05), (0.4, 1.5)]))
def test_mode_kernel_and_period_split_equal_the_per_function_formulas(data, horizon, rates):
    params = BasisParams(alpha=rates[0], lam=rates[1], horizon=horizon)
    x = _shaped(data.draw, data.draw(_points(horizon)), float)
    ns = data.draw(st.lists(st.integers(-64, 64), min_size=1, max_size=9))
    n = _shaped(data.draw, ns, int)
    for fn, ref in ((eval_g_n, _ref_g_n), (eval_g_n_deriv, _ref_g_n_deriv),
                    (eval_e_n, _ref_e_n)):
        _same(fn, ref, params, n, x)
    _same(cut, _ref_cut, x, horizon)
    # g_n^* takes one mode; n = 0 at alpha = 2 lam runs its mu = 0 branch
    n0 = data.draw(st.sampled_from([ns[0], 0, np.int64(ns[0]), np.asarray(ns[0])]))
    _same(eval_g_n_star, _ref_g_n_star, params, n0, x)
