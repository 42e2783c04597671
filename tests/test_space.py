import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

from fwdapprox.basis import BasisParams
from fwdapprox.errors import DomainTooShort
from fwdapprox.space import (
    Curve,
    dual_gram_matrix,
    inner_product_alpha,
    norm_alpha,
    read_curve_csv,
    sup_norm_bound,
    theta,
    theta_inv,
    write_curve_csv,
)
from fwdapprox.testcurves import flat_curve, smooth_bump

P = BasisParams(alpha=1.0, lam=0.5, horizon=1.0)


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve(0.0, np.zeros(1), 1.0, 1.0)
    with pytest.raises(ValueError):
        Curve(0.0, np.zeros(5), 0.3, 1.0)  # step * (n-1) != x_max


def test_value_integrates_derivative():
    f = Curve.from_deriv_fn(lambda x: np.cos(x), 2.0, x_max=2.0)
    x = np.linspace(0, 2, 17)
    assert np.allclose(f.value(x), 2.0 + np.sin(x), atol=1e-10)
    assert np.allclose(f.deriv(x), np.cos(x), atol=1e-12)


def test_domain_errors():
    f = Curve.from_deriv_fn(lambda x: x, 0.0, x_max=1.0)
    with pytest.raises(DomainTooShort):
        f.value(1.5)
    with pytest.raises(DomainTooShort):
        f.resample(f.grid_step, 2.0)


@pytest.mark.parametrize("x", [-0.5, 1.5], ids=["below-zero", "beyond-x_max"])
@pytest.mark.parametrize("method", ["value", "deriv"])
def test_domain_error_names_the_stored_range(method, x):
    # a point below zero is not "beyond x_max": both messages name [0, x_max]
    f = Curve.from_deriv_fn(lambda y: y, 0.0, x_max=1.0, n_points=65)
    with pytest.raises(DomainTooShort, match=r"outside \[0, x_max\], x_max=1\.0"):
        getattr(f, method)(np.array([0.25, x]))


def both_splines(f, x):
    """f' and f at x from a spline of the real and one of the imaginary part."""
    re = CubicSpline(f.grid, f.deriv_samples.real)
    im = CubicSpline(f.grid, f.deriv_samples.imag)
    deriv = re(x) + 1j * im(x)
    value = f.value_at_zero + re.antiderivative()(x) + 1j * im.antiderivative()(x)
    return deriv, value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 300), x_max=st.floats(0.1, 5.0), v0=st.floats(-10.0, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_real_curve_single_spline_equals_both_splines(n, x_max, v0, seed):
    # a real curve skips the spline of its zero imaginary part; every value
    # must stay bitwise what the two-spline evaluation gives
    rng = np.random.default_rng(seed)
    f = Curve(v0, rng.normal(size=n), x_max / (n - 1), x_max)
    x = np.concatenate([f.grid, rng.uniform(0.0, x_max, size=17)])
    deriv, value = both_splines(f, x)
    assert np.array_equal(f.deriv(x), deriv)
    assert np.array_equal(f.value(x), value)
    assert not f.deriv(x).imag.any() and not f.value(x).imag.any()


def test_complex_curve_keeps_its_imaginary_part():
    x_max, n = 2.0, 129
    grid = np.linspace(0.0, x_max, n)
    f = Curve(0.5 - 0.25j, np.cos(3.0 * grid) + 1j * np.sin(2.0 * grid),
              x_max / (n - 1), x_max)
    x = np.linspace(0.0, x_max, 37)
    deriv, value = both_splines(f, x)
    assert np.array_equal(f.deriv(x), deriv)
    assert np.array_equal(f.value(x), value)
    assert np.allclose(f.deriv(x).imag, np.sin(2.0 * x), atol=1e-6)
    assert np.allclose(f.value(x).imag, -0.25 + (1.0 - np.cos(2.0 * x)) / 2.0,
                       atol=1e-6)


def test_inner_product_closed_form():
    # f' = e^{-x}, alpha = 1: int e^{-2x} e^{x} dx over [0, 30] ~ 1
    f = Curve.from_deriv_fn(lambda x: np.exp(-x), 1.0, x_max=30.0,
                            n_points=2**14 + 1)
    ip = inner_product_alpha(f, f, 1.0)
    assert ip.real == pytest.approx(1.0 * 1.0 + 1.0, rel=1e-8)
    assert norm_alpha(f, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-8)


def test_inner_product_constant_curve():
    g = flat_curve(3.0)
    assert inner_product_alpha(g, g, 1.0) == pytest.approx(9.0)


def test_inner_product_resamples_mismatched_grids():
    f = Curve.from_deriv_fn(lambda x: x, 0.0, x_max=1.0, n_points=101)
    g = Curve.from_deriv_fn(lambda x: x, 0.0, x_max=1.0, n_points=201)
    # the mismatch is bridged by resampling onto the finer grid
    ip = inner_product_alpha(f, g, 1.0)
    assert ip.real > 0.0


def test_resample_same_step_is_truncation():
    f = smooth_bump()
    g = f.resample(f.grid_step, 1.0)
    n = g.deriv_samples.shape[0]
    assert np.array_equal(g.deriv_samples, f.deriv_samples[:n])


def test_restrict_mask_zeroes_tail():
    f = smooth_bump()
    g = f.restrict_mask(0.5)
    assert np.all(g.deriv_samples[f.grid > 0.5 + 1e-12] == 0.0)
    assert np.array_equal(g.deriv_samples[f.grid <= 0.5],
                          f.deriv_samples[f.grid <= 0.5])


def test_arithmetic():
    f = smooth_bump()
    g = flat_curve(2.0)
    h = f + 2.0 * g - g
    assert complex(h.value_at_zero) == pytest.approx(3.0)
    assert np.allclose(h.deriv_samples, f.deriv_samples)


def test_sup_norm_bound_dominates_grid_sup():
    f = smooth_bump()
    chk = sup_norm_bound(f, 1.0)
    assert chk.grid_sup <= chk.bound


def test_theta_roundtrip():
    f = smooth_bump()
    z, h = theta(f, 1.0)
    g = theta_inv(z, h, 1.0, f.grid_step, f.x_max)
    assert np.allclose(g.deriv_samples, f.deriv_samples)
    assert complex(g.value_at_zero) == complex(f.value_at_zero)
    # the isometry preserves the norm by construction
    energy = np.abs(h) ** 2
    quad = simpson(energy, dx=f.grid_step)
    assert abs(z) ** 2 + quad == pytest.approx(norm_alpha(f, 1.0) ** 2, rel=1e-10)


def test_csv_roundtrip():
    f = smooth_bump(n_points=257)
    buf = io.StringIO()
    write_curve_csv(f, buf)
    buf.seek(0)
    g = read_curve_csv(buf)
    assert np.allclose(g.deriv_samples, f.deriv_samples)
    assert g.x_max == pytest.approx(f.x_max)


def test_csv_rejects_bad_header_and_nonuniform_grid():
    with pytest.raises(ValueError):
        read_curve_csv(io.StringIO("a,b,c\n0,0,0\n"))
    bad = "x,f,fprime\n0.0,0.0,1.0\n0.1,0.1,1.0\n0.35,0.3,1.0\n"
    with pytest.raises(ValueError):
        read_curve_csv(io.StringIO(bad))


def test_dual_gram_identity_small():
    gram = dual_gram_matrix(P, 2)
    assert np.max(np.abs(gram - np.eye(5))) < 1e-8
