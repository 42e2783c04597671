import io
import tracemalloc

import numpy as np
import pytest
import scipy.interpolate
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import simpson

from fwdapprox import space
from fwdapprox.basis import BasisParams, eval_e_n_star, eval_g_n_deriv
from fwdapprox.cli import load_curve
from fwdapprox.errors import DomainTooShort
from fwdapprox.projection import coefficients_fft, compute_C1, project_pi
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
from fwdapprox.semigroup import shift_curve
from fwdapprox.testcurves import flat_curve, smooth_bump

P = BasisParams(alpha=1.0, lam=0.5, horizon=1.0)


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve(0.0, np.zeros(1), 1.0)
    # the step is derived from x_max and the sample count; it is not an argument
    with pytest.raises(TypeError):
        Curve(0.0, np.zeros(5), 0.25, 1.0)
    # the nodes of [0, x_max] increase only for a finite x_max > 0
    for x_max in (0.0, -2.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite x_max > 0"):
            Curve(0.0, np.zeros(3), x_max)


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
    assert f._spline_cache == {}    # the range is checked before a spline is built


def both_splines(f, x):
    """f' and f at x from a spline of the real and one of the imaginary part."""
    re = space.CubicSpline(f.grid, f.deriv_samples.real)
    im = space.CubicSpline(f.grid, f.deriv_samples.imag)
    deriv = re(x) + 1j * im(x)
    value = f.value_at_zero + re.antiderivative()(x) + 1j * im.antiderivative()(x)
    return deriv, value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 300), x_max=st.floats(0.1, 5.0), v0=st.floats(-10.0, 10.0),
       seed=st.integers(0, 2**32 - 1), complex_samples=st.booleans())
def test_real_curve_single_spline_equals_both_splines(n, x_max, v0, seed,
                                                      complex_samples):
    # a curve builds one spline: real for real samples, complex otherwise;
    # every value must stay bitwise what the two-spline evaluation gives
    rng = np.random.default_rng(seed)
    d = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_samples else 0.0)
    f = Curve(v0, d, x_max)
    x = np.concatenate([f.grid, rng.uniform(0.0, x_max, size=17)])
    deriv, value = both_splines(f, x)
    assert np.array_equal(f.deriv(x), deriv)
    assert np.array_equal(f.value(x), value)
    if not complex_samples:
        assert not f.deriv(x).imag.any() and not f.value(x).imag.any()


def test_complex_curve_builds_one_spline(monkeypatch):
    built = []
    spline = space.CubicSpline

    def recording(x, y):
        built.append(y.dtype)
        return spline(x, y)

    monkeypatch.setattr(space, "CubicSpline", recording)
    grid = np.linspace(0.0, 2.0, 129)
    f = Curve(0.5, np.cos(grid) + 1j * np.sin(grid), 2.0)
    x = np.linspace(0.0, 2.0, 37)
    f.deriv(x)
    f.value(x)
    assert built == [np.complex128]


def test_complex_curve_keeps_its_imaginary_part():
    x_max, n = 2.0, 129
    grid = np.linspace(0.0, x_max, n)
    f = Curve(0.5 - 0.25j, np.cos(3.0 * grid) + 1j * np.sin(2.0 * grid), x_max)
    x = np.linspace(0.0, x_max, 37)
    deriv, value = both_splines(f, x)
    assert np.array_equal(f.deriv(x), deriv)
    assert np.array_equal(f.value(x), value)
    assert np.allclose(f.deriv(x).imag, np.sin(2.0 * x), atol=1e-6)
    assert np.allclose(f.value(x).imag, -0.25 + (1.0 - np.cos(2.0 * x)) / 2.0,
                       atol=1e-6)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.one_of(st.sampled_from([2, 3, 4, 5]), st.integers(6, 4097)),
       x_max=st.floats(0.05, 20.0), rough=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_spline_matches_scipy_not_a_knot(n, x_max, rough, seed):
    # scipy's CubicSpline (not-a-knot, extrapolating) is the oracle for f' and
    # f = f(0) + int f', at the nodes, at random points and just past the ends
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, x_max, n)
    if rough:
        d = rng.normal(scale=rng.uniform(0.1, 100.0), size=n)
    else:
        d = np.cos(rng.uniform(0.5, 6.0) * grid / x_max + rng.uniform(0, 2 * np.pi))
    v0 = rng.normal()
    f = Curve(v0, d, x_max)
    x = np.concatenate([grid, rng.uniform(0.0, x_max, size=257),
                        [-1e-12, x_max + 1e-9]])
    ref = scipy.interpolate.CubicSpline(grid, d)
    scale = np.max(np.abs(d))
    assert np.max(np.abs(f.deriv(x) - ref(x))) <= 1e-12 * scale
    value = v0 + ref.antiderivative()(x)
    assert np.max(np.abs(f.value(x) - value)) <= 1e-12 * max(scale * x_max, abs(v0))
    # one point at a time takes a scalar path with the same arithmetic
    for j in (0, n // 2, n - 1, n, n + 1, -2, -1):
        assert f.deriv(x[j]) == f.deriv(x)[j] and f.value(x[j]) == f.value(x)[j]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spline_rejects_non_finite_samples(bad):
    grid = np.linspace(0.0, 1.0, 9)
    y = np.cos(grid)
    y[4] = bad
    with pytest.raises(ValueError, match="finite"):
        space.CubicSpline(grid, y)
    # a curve holding such a sample, or a non-finite imaginary part only, is
    # refused when it is built, as is a non-finite value at zero
    d = np.cos(grid).astype(complex)
    d.imag = y
    for value, samples in ((0.0, y), (0.0, d), (complex(bad, 0.0), np.cos(grid)),
                           (complex(1.0, bad), np.cos(grid))):
        with pytest.raises(ValueError, match="must be finite"):
            Curve(value, samples, 1.0)


def test_spline_rejects_a_grid_that_does_not_increase():
    # a curve stored on [0, 0] has no spline (as with scipy's CubicSpline)
    with pytest.raises(ValueError, match="increase"):
        Curve(0.0, np.ones(5), 0.0).deriv(0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 64, 257, 1000, 1001])
def test_inner_product_matches_scipy_simpson(n):
    # odd counts take composite Simpson, even ones scipy's end correction
    x_max = 2.0
    grid = np.linspace(0.0, x_max, n)
    f = Curve(0.3 + 0.1j, np.cos(3.0 * grid) + 1j * grid, x_max)
    g = Curve(-1.2, np.exp(-grid), x_max)
    for a, b in ((f, g), (f, f), (g, g)):
        integrand = a.deriv_samples * np.conj(b.deriv_samples) * np.exp(0.7 * grid)
        want = a.value_at_zero * np.conj(b.value_at_zero) + simpson(integrand, dx=a.grid_step)
        assert abs(inner_product_alpha(a, b, 0.7) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 1000, 1001])
def test_inner_product_memo_is_read_only_and_exact(n):
    # exp(alpha x) and the Simpson rule are memoised per grid and alpha: every
    # call, the first and the memoised ones, equals the quadrature that builds
    # both afresh bit for bit, and no caller can write into them
    grid = np.linspace(0.0, 1.5, n)
    f = Curve(0.3 + 0.1j, np.cos(3.0 * grid) + 1j * grid, 1.5)
    g = Curve(-1.2, np.exp(-grid), 1.5)
    space._alpha_rule.cache_clear()
    for a, b in ((f, g), (g, f), (f, g)):
        integrand = a.deriv_samples * np.conj(b.deriv_samples) * np.exp(0.7 * grid)
        want = complex(a.value_at_zero * np.conj(b.value_at_zero)
                       + integrand @ space._simpson_rule(n, a.grid_step))
        assert inner_product_alpha(a, b, 0.7) == want
    assert space._alpha_rule.cache_info().misses == 1
    for arr in space._alpha_rule(n, 1.5, 0.7):
        assert not arr.flags.writeable


@pytest.mark.parametrize("spec", [{"kind": "seasonal", "n_points": 1000},
                                  {"kind": "bump", "n_points": 4096},
                                  {"kind": "flat", "level": 1.2, "n_points": 1000}])
def test_norm_of_config_curve_with_even_point_count(spec):
    # a curve spec may ask for an even n_points; its norm is scipy's simpson
    f = load_curve(spec, None)
    assert f.deriv_samples.size % 2 == 0
    energy = np.abs(f.deriv_samples) ** 2 * np.exp(1.0 * f.grid)
    want = np.sqrt(abs(f.value_at_zero) ** 2 + simpson(energy, dx=f.grid_step))
    assert norm_alpha(f, 1.0) == pytest.approx(want, rel=1e-14)


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


def test_align_keeps_an_operand_on_the_common_grid():
    # the common grid is the finer step over the shorter range; an operand
    # already on it is kept as it is, and only the other one is resampled
    fine_short = Curve.from_deriv_fn(np.cos, 0.5, x_max=1.0, n_points=201)
    coarse_long = Curve.from_deriv_fn(np.sin, 1.0, x_max=2.0, n_points=201)
    fine_long = Curve.from_deriv_fn(np.exp, 2.0, x_max=2.0, n_points=401)
    for f, g in ((fine_short, coarse_long), (coarse_long, fine_short),
                 (fine_short, fine_long), (fine_long, coarse_long), (fine_long, fine_long)):
        x_max, step = min(f.x_max, g.x_max), min(f.grid_step, g.grid_step)
        for got, c in zip(space._align(f, g), (f, g)):
            assert (got is c) == space._on_grid(c, x_max, step)
            want = c.resample(step, x_max)
            assert (got.value_at_zero, got.x_max) == (want.value_at_zero, want.x_max)
            assert np.array_equal(got.deriv_samples, want.deriv_samples)


@pytest.mark.parametrize("short, covers", [(5e-10, True), (2e-9, False)])
def test_every_range_check_is_the_one_range_test(short, covers):
    # f covers [0, T] when x_max reaches T within 1e-9, the margin every
    # spline read allows; each check that needs [0, T] asks this one test
    h = Curve.from_deriv_fn(lambda x: np.exp(-x), 0.5, x_max=1.0 - short, n_points=1025)
    assert h._covers(1.0) is covers
    for check in (lambda: project_pi(h, P), lambda: coefficients_fft(h, 4, P),
                  lambda: compute_C1(h, P), lambda: h.resample(h.grid_step, 1.0),
                  lambda: shift_curve(h, 0.25, 0.75)):
        if covers:
            check()
        else:
            with pytest.raises(DomainTooShort):
                check()


def test_resample_same_step_is_truncation():
    f = smooth_bump()
    g = f.resample(f.grid_step, 1.0)
    n = g.deriv_samples.shape[0]
    assert np.array_equal(g.deriv_samples, f.deriv_samples[:n])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 3000), x_max=st.floats(1e-3, 50.0), frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_resample_at_its_own_step_truncates_only_on_its_nodes(n, x_max, frac, seed):
    # to any node of its own grid, a curve resamples by cutting its samples
    rng = np.random.default_rng(seed)
    f = Curve(rng.normal(), rng.normal(size=n), x_max)
    assert f.grid_step == x_max / (n - 1)
    j = 1 + int(frac * (n - 2))
    for g, kept in ((f.resample(f.grid_step), n), (f.resample(f.grid_step, f.grid[j]), j + 1)):
        assert g.value_at_zero == f.value_at_zero
        assert np.array_equal(g.deriv_samples, f.deriv_samples[:kept])
    assert g.x_max == f.grid[j]
    # to an end between its nodes, the new nodes are not its own: the spline
    g = f.resample(f.grid_step, f.grid[j] - 0.3 * f.grid_step)
    assert np.array_equal(g.deriv_samples, f.deriv(g.grid))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 3000), x_max=st.floats(1e-3, 50.0), m=st.integers(2, 3000),
       frac=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
def test_on_grid_read_is_the_derivative_at_the_nodes(n, x_max, m, frac, seed):
    # the samples on the curve's own nodes, the spline on any others: either
    # way f' there, exact but for the last own node (the spline's end value)
    rng = np.random.default_rng(seed)
    f = Curve(rng.normal(), rng.normal(size=n), x_max)
    assert np.array_equal(f._deriv_on(x_max, n), f.deriv_samples)
    scale = np.max(np.abs(f.deriv_samples))
    for end, count in ((x_max, n), (frac * x_max, m)):
        got, want = f._deriv_on(end, count), f.deriv(np.linspace(0.0, end, count))
        assert np.array_equal(got[:-1], want[:-1])
        assert abs(got[-1] - want[-1]) <= 1e-14 * scale


def test_restrict_mask_zeroes_tail():
    f = smooth_bump()
    g = f.restrict_mask(0.5)
    assert np.all(g.deriv_samples[f.grid > 0.5 + 1e-12] == 0.0)
    assert np.array_equal(g.deriv_samples[f.grid <= 0.5],
                          f.deriv_samples[f.grid <= 0.5])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 5000), x_max=st.floats(1e-3, 50.0),
       frac=st.floats(-0.5, 1.5), on_node=st.booleans(), nudge=st.integers(-2, 2))
def test_restrict_mask_cuts_where_the_grid_does(n, x_max, frac, on_node, nudge):
    # the cut index is found without the grid; it must mask what grid > cut does
    f = Curve(1.0, np.ones(n), x_max)
    grid = np.linspace(0.0, x_max, n)
    x_cut = frac * x_max
    if on_node:     # at a node's own threshold, give or take a few ulps
        x_cut = grid[int(np.clip(frac, 0.0, 1.0) * (n - 1))] - 1e-12
        for _ in range(abs(nudge)):
            x_cut = float(np.nextafter(x_cut, np.sign(nudge) * np.inf))
    g = f.restrict_mask(x_cut)
    assert np.array_equal(g.deriv_samples == 0.0, grid > x_cut + 1e-12)


@pytest.mark.parametrize("x_cut, masked", [(np.nan, 0), (np.inf, 0), (-np.inf, 5),
                                           (-1.0, 5), (0.0, 4), (1.0, 0)])
def test_restrict_mask_extreme_cuts(x_cut, masked):
    g = Curve(1.0, np.ones(5), 1.0).restrict_mask(x_cut)
    assert np.count_nonzero(g.deriv_samples == 0.0) == masked


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
    g = theta_inv(z, h, 1.0, f.x_max)
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


def test_csv_column_numpy_refuses_is_parsed_cell_by_cell():
    # a column numpy reads at once is read as float() reads each cell; one it
    # refuses (a spaced exponent, "1+0j") is read cell by cell as before, to
    # the same bits, and a cell no parser reads gives that parser's error
    buf = io.StringIO()
    write_curve_csv(smooth_bump(n_points=257), buf)
    plain = read_curve_csv(io.StringIO(buf.getvalue()))
    rows = [line.split(",") for line in buf.getvalue().splitlines()]
    j = next(i for i, r in enumerate(rows[1:], start=1) if float(r[2]) != 0.0)
    rows[j][2] = f"{float(rows[j][2]):.16e}".replace("e", " e")   # 17 digits: exact
    rows[3][1] += "+0j"

    def read(rows):
        return read_curve_csv(io.StringIO("".join(",".join(r) + "\n" for r in rows)))

    g = read(rows)
    assert complex(g.value_at_zero) == complex(plain.value_at_zero)
    assert np.array_equal(g.deriv_samples, plain.deriv_samples)
    for col, message in ((0, "could not convert string to float: 'abc'"),
                         (1, r"complex\(\) arg is a malformed string"),
                         (2, r"complex\(\) arg is a malformed string")):
        bad = [list(r) for r in rows]
        bad[4][col] = "abc"
        with pytest.raises(ValueError, match=message):
            read(bad)


def test_csv_rejects_bad_header_and_nonuniform_grid():
    with pytest.raises(ValueError):
        read_curve_csv(io.StringIO("a,b,c\n0,0,0\n"))
    bad = "x,f,fprime\n0.0,0.0,1.0\n0.1,0.1,1.0\n0.35,0.3,1.0\n"
    with pytest.raises(ValueError):
        read_curve_csv(io.StringIO(bad))
    # a curve's grid starts at 0: an offset file would be read shifted
    offset = "x,f,fprime\n0.5,1.0,1.0\n1.0,1.5,1.0\n1.5,2.0,1.0\n2.0,2.5,1.0\n"
    with pytest.raises(ValueError, match=r"must start at x = 0, not 0\.5"):
        read_curve_csv(io.StringIO(offset))
    # an x column that does not increase gives no range [0, x_max]
    for rows in ("0,1,0\n0,1,0\n", "0,1,0\n-1,1,0\n-2,1,0\n"):
        with pytest.raises(ValueError, match="finite x_max > 0"):
            read_curve_csv(io.StringIO("x,f,fprime\n" + rows))
    # a row short of its three cells is named, a blank last line included
    for rows, row in (("0,1,0\n0.5,1\n1,1,0\n", 3), ("0,1,0\n1,1,0\n\n", 4)):
        with pytest.raises(ValueError, match=rf"row {row} needs the 3 cells"):
            read_curve_csv(io.StringIO("x,f,fprime\n" + rows))
    # and so is a row past its three cells: a shifted column is not read silently
    for rows, row in (("0,1,0,7\n1,1,0\n", 2), ("0,1,0\n1,1,0,junk\n2,1,0\n", 3)):
        with pytest.raises(ValueError, match=rf"row {row} needs the 3 cells x,f,fprime, has 4"):
            read_curve_csv(io.StringIO("x,f,fprime\n" + rows))
    # the curve keeps f(0) and fprime, so an f column they contradict is named
    # at its first wrong row, here f(2) = -5 on a flat fprime
    for rows, row in (("0,1,0\n1,1,0\n2,-5,0\n", 4), ("0,0,1\n1,1.5,1\n2,2.5,1\n", 3)):
        with pytest.raises(ValueError, match=rf"row {row} has f = .*, but f\(0\) plus the "
                                             r"integral of fprime is"):
            read_curve_csv(io.StringIO("x,f,fprime\n" + rows))
    # within 1e-6 max(1, max|f|) of the integral, the file is read
    assert read_curve_csv(io.StringIO("x,f,fprime\n0,1,0\n1,1.0000005,0\n")).x_max == 1.0


def test_dual_gram_identity_small():
    gram = dual_gram_matrix(P, 2)
    assert np.max(np.abs(gram - np.eye(5))) < 1e-8


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.2, 3.0), lam_T=st.floats(3.2e-3, 2.0), T=st.floats(0.25, 4.0),
       k=st.integers(1, 4))
# the far corner: 4,029 periods, where alpha * y reaches 4.8e4
@example(alpha=3.0, lam_T=3.2e-3, T=4.0, k=4)
def test_dual_gram_is_the_identity_for_random_parameters(alpha, lam_T, T, k):
    # biorthogonality <g_m, g_n^*> = delta_mn within test_01's tolerance
    gram = dual_gram_matrix(BasisParams(alpha, lam_T / T, T), k)
    assert np.max(np.abs(gram - np.eye(2 * k + 1))) <= 1e-6


def full_array_gram(params, n_max):
    """The dual Gram as one product over every period's nodes at once."""
    T = params.horizon
    q = np.exp(-2.0 * params.lam * T)
    n_periods = max(2, int(np.ceil(np.log(space.GRAM_TAIL_TOL * (1.0 - q)) / np.log(q))) + 1)
    u = np.linspace(0.0, T, space.GRAM_PTS_PER_PERIOD + 1)
    y = (T * np.arange(n_periods))[:, None] + u[None, :]
    uu = np.broadcast_to(u, y.shape).ravel()
    w = space._simpson_weights(space.GRAM_PTS_PER_PERIOD + 1, T / space.GRAM_PTS_PER_PERIOD)
    weight = (w[None, :] * np.exp(params.alpha * y)).ravel()
    ns = params.n_range(n_max)
    gm = eval_g_n_deriv(params, ns, y.ravel())
    dual = np.exp(-0.5 * params.alpha * y.ravel())[None, :] * np.stack(
        [eval_e_n_star(params, int(n), y.ravel(), local=uu) for n in ns])
    return (gm * weight[None, :]) @ np.conj(dual).T


@pytest.mark.parametrize("n_max", [2, 8])
@pytest.mark.parametrize("alpha, lam, T", [(1.0, 0.5, 1.0), (0.7, 0.15, 2.0)])
def test_dual_gram_equals_the_full_array_reference(alpha, lam, T, n_max):
    # period p's integral is q^p times period 0's, so period 0 times
    # sum_p q^p is the full product over every period's nodes up to rounding
    params = BasisParams(alpha, lam, T)
    gram = dual_gram_matrix(params, n_max)
    assert np.max(np.abs(gram - full_array_gram(params, n_max))) <= 1e-14


def test_dual_gram_memory_is_flat_in_the_period_count():
    # 23 and 45 periods: one period's blocks at a time, not every period's
    def peak(lam_T):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dual_gram_matrix(BasisParams(1.0, lam_T, 1.0), 8)
        return tracemalloc.get_traced_memory()[1] - start

    assert space._gram_periods(BasisParams(1.0, 0.25, 1.0)) \
        >= 1.9 * space._gram_periods(BasisParams(1.0, 0.5, 1.0))
    tracemalloc.start()
    try:
        small, large = peak(0.5), peak(0.25)
    finally:
        tracemalloc.stop()
    assert large <= 1.1 * small, (small, large)


@pytest.mark.parametrize("lam, n_periods", [(0.5, 23), (0.01, 1234)])
def test_dual_gram_evaluates_one_period_whatever_the_period_count(monkeypatch, lam, n_periods):
    # one call each for the primal and the dual on period 0's nodes, however
    # many periods the tail rule asks for
    params = BasisParams(1.0, lam, 1.0)
    assert space._gram_periods(params) == n_periods
    calls = {"eval_e_n_star": 0, "eval_g_n_deriv": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(space, name, counted(name, getattr(space, name)))
    gram = dual_gram_matrix(params, 8)
    assert calls == {"eval_e_n_star": 1, "eval_g_n_deriv": 1}
    assert np.max(np.abs(gram - np.eye(17))) <= 1e-6


def test_dual_gram_refuses_more_than_its_period_cap():
    # lambda * horizon >= 3.15e-3 keeps the tail within GRAM_MAX_PERIODS
    assert space._gram_periods(BasisParams(1.0, 3.15e-3, 1.0)) == space.GRAM_MAX_PERIODS
    for lam in (3.14e-3, 1e-6, 1e-300):
        with pytest.raises(ValueError, match=r"below about 3\.15e-3"):
            dual_gram_matrix(BasisParams(1.0, lam, 1.0), 2)
