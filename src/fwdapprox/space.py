"""Weighted curve space: grid representation, inner product and isometry.

A curve f is stored through its value at zero and samples of its derivative
on a uniform grid; the inner product is

    <f, g> = f(0) conj(g(0)) + int_0^infty f'(x) conj(g'(x)) e^{alpha x} dx

realised by composite quadrature over the represented range.  Derivative
storage is deliberate: every coefficient formula and norm downstream consumes
f', and recovering values by (spline) integration avoids differentiation
noise.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

from .basis import BasisParams, eval_e_n_star, eval_g_n_deriv
from .errors import DomainTooShort

__all__ = [
    "Curve",
    "inner_product_alpha",
    "norm_alpha",
    "sup_norm_bound",
    "SupNormCheck",
    "theta",
    "theta_inv",
    "read_curve_csv",
    "write_curve_csv",
    "dual_gram_matrix",
    "segmented_grid",
]

DEFAULT_POINTS = 2**12 + 1  # resolves |n| <= 128 oscillations at >= 16 pts/period for T=1
# dual Gram quadrature: Simpson points per period, relative tail neglected
GRAM_PTS_PER_PERIOD = 2048
GRAM_TAIL_TOL = 1e-9


@dataclass(frozen=True)
class Curve:
    """A curve represented by f(0) and uniform samples of f' on [0, x_max].

    Values and derivatives between the nodes come from a cubic spline of the
    real part and one of the imaginary part.  A real curve (every sample's
    imaginary part zero, as for real forward prices) builds only the real
    spline; its imaginary part is then exactly zero, so the results are the
    same to the bit.
    """

    value_at_zero: complex
    deriv_samples: np.ndarray
    grid_step: float
    x_max: float
    _spline_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = np.asarray(self.deriv_samples, dtype=np.complex128)
        object.__setattr__(self, "deriv_samples", d)
        n = d.shape[0]
        if n < 2:
            raise ValueError("need at least two derivative samples")
        if abs(self.grid_step * (n - 1) - self.x_max) > 1e-9 * max(1.0, self.x_max):
            raise ValueError("grid_step * (len - 1) must equal x_max")

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.x_max, self.deriv_samples.shape[0])

    @classmethod
    def from_deriv_fn(
        cls,
        deriv_fn: Callable[[np.ndarray], np.ndarray],
        value_at_zero: complex = 0.0,
        x_max: float = 2.0,
        n_points: int = DEFAULT_POINTS,
    ) -> "Curve":
        x = np.linspace(0.0, x_max, n_points)
        return cls(complex(value_at_zero), np.asarray(deriv_fn(x), dtype=np.complex128),
                   x_max / (n_points - 1), x_max)

    def _spline(self) -> CubicSpline:
        sp = self._spline_cache.get("deriv")
        if sp is None:
            g, d = self.grid, self.deriv_samples
            sp = (CubicSpline(g, d.real),
                  CubicSpline(g, d.imag) if d.imag.any() else None)
            self._spline_cache["deriv"] = sp
        return sp

    def _antideriv(self):
        sp = self._spline_cache.get("anti")
        if sp is None:
            re, im = self._spline()
            sp = (re.antiderivative(), None if im is None else im.antiderivative())
            self._spline_cache["anti"] = sp
        return sp

    def deriv(self, x) -> np.ndarray:
        """Cubic-spline evaluation of f' at arbitrary points inside the grid."""
        x = np.asarray(x, dtype=float)
        if np.any(x > self.x_max + 1e-9) or np.any(x < -1e-12):
            raise DomainTooShort("requested derivative outside [0, x_max], "
                                 f"x_max={self.x_max}")
        re, im = self._spline()
        return re(x) + (0j if im is None else 1j * im(x))

    def value(self, x) -> np.ndarray:
        """f(x) = f(0) + int_0^x f'(y) dy via the spline antiderivative."""
        x = np.asarray(x, dtype=float)
        if np.any(x > self.x_max + 1e-9) or np.any(x < -1e-12):
            raise DomainTooShort("requested value outside [0, x_max], "
                                 f"x_max={self.x_max}")
        re, im = self._antideriv()
        return self.value_at_zero + re(x) + (0j if im is None else 1j * im(x))

    def values_on_grid(self) -> np.ndarray:
        return self.value(self.grid)

    def resample(self, grid_step: float, x_max: float | None = None) -> "Curve":
        """Cubic resampling of the derivative onto a new uniform grid."""
        x_max = self.x_max if x_max is None else x_max
        if x_max > self.x_max + 1e-9:
            raise DomainTooShort("cannot resample beyond the stored range")
        n = int(round(x_max / grid_step)) + 1
        if abs(grid_step - self.grid_step) < 1e-12 * max(1.0, self.grid_step):
            # same step, shorter range: plain truncation of the samples
            return Curve(self.value_at_zero, self.deriv_samples[:n],
                         x_max / (n - 1), x_max)
        x = np.linspace(0.0, x_max, n)
        return Curve(self.value_at_zero, self.deriv(x), x_max / (n - 1), x_max)

    def restrict_mask(self, x_cut: float) -> "Curve":
        """Zero the derivative beyond x_cut (curve frozen at its x_cut value)."""
        d = self.deriv_samples.copy()
        d[self.grid > x_cut + 1e-12] = 0.0
        return Curve(self.value_at_zero, d, self.grid_step, self.x_max)

    def __add__(self, other: "Curve") -> "Curve":
        a, b = _align(self, other)
        return Curve(a.value_at_zero + b.value_at_zero,
                     a.deriv_samples + b.deriv_samples, a.grid_step, a.x_max)

    def __sub__(self, other: "Curve") -> "Curve":
        a, b = _align(self, other)
        return Curve(a.value_at_zero - b.value_at_zero,
                     a.deriv_samples - b.deriv_samples, a.grid_step, a.x_max)

    def __mul__(self, c) -> "Curve":
        return Curve(self.value_at_zero * c, self.deriv_samples * c,
                     self.grid_step, self.x_max)

    __rmul__ = __mul__


def _align(f: Curve, g: Curve) -> tuple[Curve, Curve]:
    """Both curves on one grid: the finer step over the shorter range."""
    same = (abs(f.grid_step - g.grid_step) < 1e-12
            and abs(f.x_max - g.x_max) < 1e-12)
    if same:
        return f, g
    x_max = min(f.x_max, g.x_max)
    step = min(f.grid_step, g.grid_step)
    return f.resample(step, x_max), g.resample(step, x_max)


def inner_product_alpha(f: Curve, g: Curve, alpha: float) -> complex:
    """f(0) conj(g(0)) + weighted Simpson quadrature of f' conj(g') over the grid.

    Curves on different grids are first resampled onto a common one.
    """
    f, g = _align(f, g)
    x = f.grid
    integrand = f.deriv_samples * np.conj(g.deriv_samples) * np.exp(alpha * x)
    return complex(f.value_at_zero * np.conj(g.value_at_zero)
                   + simpson(integrand, dx=f.grid_step))


def norm_alpha(f: Curve, alpha: float) -> float:
    return float(np.sqrt(max(inner_product_alpha(f, f, alpha).real, 0.0)))


class SupNormCheck(NamedTuple):
    bound: float
    grid_sup: float


def sup_norm_bound(f: Curve, alpha: float) -> SupNormCheck:
    """Embedding bound sqrt(1 + 1/alpha) * ||f|| next to the observed grid sup."""
    bound = float(np.sqrt(1.0 + 1.0 / alpha) * norm_alpha(f, alpha))
    sup = float(np.max(np.abs(f.values_on_grid())))
    return SupNormCheck(bound=bound, grid_sup=sup)


def theta(f: Curve, alpha: float) -> tuple[complex, np.ndarray]:
    """Isometry f -> (f(0), e^{alpha x / 2} f') onto C x L2."""
    return complex(f.value_at_zero), f.deriv_samples * np.exp(0.5 * alpha * f.grid)


def theta_inv(z: complex, h: np.ndarray, alpha: float,
              grid_step: float, x_max: float) -> Curve:
    """Inverse isometry: value z plus the reweighted derivative samples."""
    h = np.asarray(h, dtype=np.complex128)
    x = np.linspace(0.0, x_max, h.shape[0])
    return Curve(complex(z), h * np.exp(-0.5 * alpha * x), grid_step, x_max)


# -- CSV interchange ---------------------------------------------------------

def write_curve_csv(f: Curve, path_or_buf) -> None:
    """Write `x,f,fprime` rows (values recovered from the spline integral)."""
    own = isinstance(path_or_buf, (str, bytes))
    handle = open(path_or_buf, "w", newline="") if own else path_or_buf
    try:
        w = csv.writer(handle, lineterminator="\n")
        w.writerow(["x", "f", "fprime"])
        vals = f.values_on_grid()
        for x, v, d in zip(f.grid, vals, f.deriv_samples):
            w.writerow([repr(float(x)), _fmt(v), _fmt(d)])
    finally:
        if own:
            handle.close()


def _fmt(z: complex) -> str:
    z = complex(z)
    return repr(z.real) if z.imag == 0.0 else repr(z)


def _parse(s: str) -> complex:
    return complex(s.replace(" ", ""))


def read_curve_csv(path_or_buf) -> Curve:
    own = isinstance(path_or_buf, (str, bytes))
    handle = open(path_or_buf, "r", newline="") if own else path_or_buf
    try:
        rows = list(csv.reader(handle))
    finally:
        if own:
            handle.close()
    if not rows or [c.strip() for c in rows[0]] != ["x", "f", "fprime"]:
        raise ValueError("expected header 'x,f,fprime'")
    x = np.array([float(r[0]) for r in rows[1:]])
    vals = np.array([_parse(r[1]) for r in rows[1:]])
    deriv = np.array([_parse(r[2]) for r in rows[1:]])
    if not all(np.all(np.isfinite(a)) for a in (x, vals, deriv)):
        raise ValueError("curve CSV holds a non-finite number")
    steps = np.diff(x)
    if steps.size == 0 or np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, x[-1]):
        raise ValueError("curve CSV must use a uniform grid")
    return Curve(complex(vals[0]), deriv, float(steps[0]), float(x[-1]))


# -- segmented quadrature against the biorthogonal system --------------------

def segmented_grid(params: BasisParams) -> tuple[np.ndarray, np.ndarray, int]:
    """Period-blocked quadrature grid for integrands that decay like e^{-2 lam T}
    per period and may jump at period boundaries.

    Returns (y, u, n_periods): global points and their period-local offsets,
    both of shape (n_periods, GRAM_PTS_PER_PERIOD + 1).  The block count is
    chosen so the neglected geometric tail is below GRAM_TAIL_TOL relatively.
    """
    T = params.horizon
    q = np.exp(-2.0 * params.lam * T)
    n_periods = max(2, int(np.ceil(np.log(GRAM_TAIL_TOL * (1.0 - q)) / np.log(q))) + 1)
    u = np.linspace(0.0, T, GRAM_PTS_PER_PERIOD + 1)
    starts = T * np.arange(n_periods)
    y = starts[:, None] + u[None, :]
    uu = np.broadcast_to(u, y.shape)
    return y, uu, n_periods


def _simpson_weights(n_points: int, dx: float) -> np.ndarray:
    if n_points % 2 == 0:
        raise ValueError("composite Simpson needs an odd point count")
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dx / 3.0)


def dual_gram_matrix(params: BasisParams, n_max: int) -> np.ndarray:
    """Gram matrix <g_m, g_n^*> for |m|, |n| <= n_max by blockwise Simpson.

    The dual derivative jumps at period boundaries, so each period is
    integrated as a closed smooth segment with one-sided boundary values.
    Biorthogonality predicts the identity matrix.
    """
    y, u, _ = segmented_grid(params)
    dx = params.horizon / GRAM_PTS_PER_PERIOD
    w = _simpson_weights(GRAM_PTS_PER_PERIOD + 1, dx)
    weight = (w[None, :] * np.exp(params.alpha * y)).ravel()

    ns = params.n_range(n_max)
    # primal derivatives e^{lambda_m y} / sqrt(T)
    gm = eval_g_n_deriv(params, ns, y.ravel())
    # dual derivatives e^{-alpha y / 2} e_n^*(y), period-local cut
    dual = np.exp(-0.5 * params.alpha * y.ravel())[None, :] * np.stack(
        [eval_e_n_star(params, int(n), y.ravel(), local=u.ravel()) for n in ns]
    )
    gram = (gm * weight[None, :]) @ np.conj(dual).T
    return gram
