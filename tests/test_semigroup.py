import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

from fwdapprox.basis import BasisParams, eval_g_n, lambda_n
from fwdapprox.dynamics import system_matrix
from fwdapprox.errors import DomainTooShort
from fwdapprox.projection import CoeffState, reconstruct
from fwdapprox.semigroup import (_shift, _shift_factors, adjoint_on_dual,
                                 shift_coeffs, shift_curve)
from fwdapprox.testcurves import smooth_bump

P = BasisParams(alpha=1.0, lam=0.5, horizon=1.0)


def random_state(k, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=2 * k + 1) + 1j * rng.normal(size=2 * k + 1)
    return CoeffState(complex(rng.normal()), c, P)


def test_shift_curve_translates_values():
    f = smooth_bump()
    g = shift_curve(f, 0.5)
    x = np.linspace(0, 1.2, 33)
    assert np.allclose(g.value(x), f.value(0.5 + x), atol=1e-8)
    assert g.x_max == pytest.approx(f.x_max - 0.5)


def test_shift_curve_off_grid_time():
    f = smooth_bump()
    t = 0.2371  # not a multiple of the grid step
    g = shift_curve(f, t, 1.0)
    x = np.linspace(0, 1.0, 17)
    assert np.allclose(g.value(x), f.value(t + x), atol=1e-8)


def test_shift_curve_domain_exhaustion():
    f = smooth_bump(x_max=1.0)
    with pytest.raises(DomainTooShort):
        shift_curve(f, 0.6, 0.8)
    with pytest.raises(DomainTooShort):
        shift_curve(f, f.x_max - 0.1 * f.grid_step)
    with pytest.raises(ValueError):
        shift_curve(f, -0.1)


def test_shift_coeffs_is_exact_on_basis_elements():
    # U_t g_n = e^{lambda_n t} g_n + g_n(t) g_*
    k, t = 5, 0.41
    c = np.zeros(2 * k + 1, dtype=complex)
    c[k + 3] = 1.0  # g_3
    s = shift_coeffs(CoeffState(0.0, c, P), t)
    assert complex(s.c_star) == pytest.approx(complex(eval_g_n(P, 3, t)))
    assert s.coeff(3) == pytest.approx(np.exp(lambda_n(P, 3) * t))
    off = [s.coeff(n) for n in range(-k, k + 1) if n != 3]
    assert np.max(np.abs(off)) == 0.0


def test_shift_coeffs_matches_translated_reconstruction():
    s = random_state(8, seed=2)
    for t in (0.0, 0.17, 0.9):
        shifted = shift_coeffs(s, t)
        x = np.linspace(0, 1.0, 101)
        assert np.allclose(reconstruct(shifted, x), reconstruct(s, x + t),
                           atol=1e-11)


def test_shift_coeffs_semigroup_property():
    s = random_state(6, seed=4)
    a = shift_coeffs(shift_coeffs(s, 0.2), 0.3)
    b = shift_coeffs(s, 0.5)
    assert complex(a.c_star) == pytest.approx(complex(b.c_star), abs=1e-12)
    assert np.allclose(a.c, b.c, atol=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.2, 3.0), lam=st.floats(0.1, 2.0),
       T=st.floats(0.5, 2.0), k=st.integers(0, 16),
       a=st.floats(0.0, 2.0), b=st.floats(0.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_shift_coeffs_semigroup_for_random_parameters(alpha, lam, T, k, a, b, seed):
    # U_b U_a = U_{a+b}, with shifts of up to two horizons each
    pk = BasisParams(alpha, lam, T)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=2 * k + 1) + 1j * rng.normal(size=2 * k + 1)
    s = CoeffState(complex(rng.normal()), c, pk)
    two = shift_coeffs(shift_coeffs(s, a * T), b * T)
    one = shift_coeffs(s, (a + b) * T)
    scale = abs(s.c_star) + np.sum(np.abs(c))
    assert abs(two.c_star - one.c_star) <= 1e-12 * scale
    assert np.max(np.abs(two.c - one.c)) <= 1e-12 * scale


def test_adjoint_eigenvalue():
    t = 0.6
    for n in (-4, 0, 7):
        assert adjoint_on_dual(P, n, t) == pytest.approx(
            np.exp(np.conj(lambda_n(P, n)) * t))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.2, 3.0), lam=st.floats(0.1, 2.0),
       T=st.floats(0.5, 2.0), k=st.integers(0, 8),
       frac=st.floats(0.0, 1.0, exclude_min=True),
       seed=st.integers(0, 2**32 - 1))
def test_exact_step_is_generator_exponential(alpha, lam, T, k, frac, seed):
    # the transport step shared by every exact scheme is exp(A dt) on the
    # (c_star, c_{-k}..c_k) system, A the generator from system_matrix
    p = BasisParams(alpha, lam, T)
    dt = frac * T
    rng = np.random.default_rng(seed)
    x = rng.normal(size=2 * k + 2) + 1j * rng.normal(size=2 * k + 2)
    c_star, c = _shift(x[0], x[1:], *_shift_factors(p, k, dt))
    want = linalg.expm(system_matrix(p, k) * dt) @ x
    err = np.max(np.abs(np.concatenate(([c_star], c)) - want))
    assert err <= 1e-12 * np.max(np.abs(x))
