"""Weighted curve space: grid representation, inner product and isometry.

A curve f is stored through its value at zero and samples of its derivative
on the uniform grid np.linspace(0, x_max, n); the inner product is

    <f, g> = f(0) conj(g(0)) + int_0^infty f'(x) conj(g'(x)) e^{alpha x} dx

realised by composite quadrature over the represented range.  Derivative
storage is deliberate: every coefficient formula and norm downstream consumes
f', and recovering values by (spline) integration avoids differentiation
noise.
"""
from __future__ import annotations

import csv
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .basis import BasisParams, eval_e_n_star, eval_g_n_deriv
from .errors import DomainTooShort, NonFinite

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
]

DEFAULT_POINTS = 2**12 + 1  # resolves |n| <= 128 oscillations at >= 16 pts/period for T=1
# dual Gram quadrature: Simpson points per period, relative tail neglected
GRAM_PTS_PER_PERIOD = 2048
GRAM_TAIL_TOL = 1e-9
# the most periods the dual Gram integrates over (lambda * horizon >= ~3.15e-3)
GRAM_MAX_PERIODS = 2**12
# how far past x_max a read or a covered range [0, x] may reach; a node past x lies further
_RANGE_TOL = 1e-9


# -- uniform-grid cubic spline -----------------------------------------------

class _PiecewisePoly:
    """Piecewise polynomial on uniform breakpoints x_0 < ... < x_{n-1}.

    Row i of ``c[p]`` holds segment i's coefficients in powers of (x - x_i),
    highest first, of part p: one real part, or a real and an imaginary one.
    A point lies in segment i when x_i <= x < x_{i+1} (the last segment
    includes x_{n-1}); points outside [x_0, x_{n-1}] use the end segments.
    """

    def __init__(self, x: np.ndarray, c: np.ndarray) -> None:
        self.x, self.c = x, c
        self._inv_h = (x.size - 1) / (x[-1] - x[0])
        # segment i's bounds; NaN at the two ends, which no point compares
        # beyond, so the end segments reach out to +-inf
        self._lo, self._hi = x[:-1].copy(), x[1:].copy()
        self._lo[0] = self._hi[-1] = np.nan

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # the segment from the grid step, corrected by one where rounding put
        # x on the wrong side of a node; fmin/fmax keep NaN in range (it stays NaN)
        i = np.fmax(np.fmin((x - self.x[0]) * self._inv_h, self.x.size - 2),
                    0.0).astype(np.intp)
        i -= x < self._lo.take(i)
        i += x >= self._hi.take(i)
        t = x - self.x.take(i)
        c = self.c.take(i, axis=1)  # far quicker than fancy indexing here
        r = c[..., 0] * t
        for j in range(1, self.c.shape[-1] - 1):
            r += c[..., j]
            r *= t
        r += c[..., -1]
        return r[0] if len(r) == 1 else r[0] + 1j * r[1]


@lru_cache(maxsize=8)
def _not_a_knot_lu(n: int):
    """The data-free part of the not-a-knot slope solve on n >= 4 uniform nodes.

    With secants m_i = (y_{i+1} - y_i) / h the slopes s solve

        s_0 + 2 s_1 = (5 m_0 + m_1) / 2,
        s_{i-1} + 4 s_i + s_{i+1} = 3 (m_{i-1} + m_i),
        2 s_{n-2} + s_{n-1} = (m_{n-3} + 5 m_{n-2}) / 2.

    Its LU factors (no pivoting; every pivot is at least 3/7) make both
    triangular sweeps first-order recurrences y_i = q_i + g_i y_{i-1}, which
    recursive doubling runs in log2(n) array steps: at span s,
    q_i += G_i q_{i-s} with G_i the product of the s multipliers g_i ... g_{i-s+1}.
    Returns 1/pivots and the (s, G[s:]) levels of the forward sweep and of the
    backward sweep in reversed order, dropping the levels where G underflows
    to zero.
    """
    d = np.empty(n)
    d[0], d[1] = 1.0, 2.0
    # the interior pivots d_i = 4 - 1/d_{i-1} reach their fixed point, 2 + sqrt(3),
    # within a few dozen rows; from there on the recurrence repeats it exactly
    i = 2
    while i < n - 1 and d[i - 1] != d[i - 2]:
        d[i] = 4.0 - 1.0 / d[i - 1]
        i += 1
    d[i:n - 1] = d[i - 1]
    d[n - 1] = 1.0 - 2.0 / d[n - 2]
    sub = np.ones(n - 1)  # A[i, i-1] for i >= 1
    sub[-1] = 2.0
    sup = np.ones(n - 1)  # A[i, i+1] for i <= n-2
    sup[0] = 2.0
    lower = np.concatenate(([0.0], -sub / d[:-1]))
    upper = np.concatenate(([0.0], (-sup / d[:-1])[::-1]))
    return 1.0 / d, _doubling_levels(lower), _doubling_levels(upper)


def _doubling_levels(g: np.ndarray) -> list:
    levels, s = [], 1
    while s < g.size and g[s:].any():
        levels.append((s, g[s:].copy()))
        g[s:] = g[s:] * g[:-s]  # g[:s] is zero: the chain ends at y_0
        s *= 2
    return levels


class CubicSpline(_PiecewisePoly):
    """Not-a-knot cubic interpolant of real or complex samples y on a uniform grid x.

    The first and second segments at each end share one cubic; two points
    give the line and three the parabola through them.  Evaluation outside
    [x_0, x_{n-1}] extends the end cubics.  Complex samples run the same
    recurrences on the real and on the imaginary part, so each part is bit
    for bit the spline of that part alone, and the values are complex.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        y = np.asarray(y)
        if not np.isfinite(y).all():
            raise ValueError("spline samples must be finite")
        x = np.asarray(x, dtype=float)
        if not np.diff(x).min() > 0.0:
            raise ValueError("spline nodes must increase")
        parts = (y.real, y.imag) if np.iscomplexobj(y) else (y.astype(float),)
        super().__init__(x, np.stack([self._segments(x, part) for part in parts]))

    @staticmethod
    def _segments(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        n, dx = y.size, np.diff(x)
        m = np.diff(y) / dx
        if n == 2:
            s = np.array([m[0], m[0]])
        elif n == 3:
            s = np.array([1.5 * m[0] - 0.5 * m[1], 0.5 * (m[0] + m[1]),
                          1.5 * m[1] - 0.5 * m[0]])
        else:
            inv_d, forward, backward = _not_a_knot_lu(n)
            s = np.empty(n)
            s[0] = 0.5 * (5.0 * m[0] + m[1])
            s[1:-1] = 3.0 * (m[:-1] + m[1:])
            s[-1] = 0.5 * (m[-2] + 5.0 * m[-1])
            for span, g in forward:
                s[span:] += g * s[:-span]
            s *= inv_d
            rev = s[::-1].copy()  # contiguous: the sweep runs twice as fast
            for span, g in backward:
                rev[span:] += g * rev[:-span]
            s = rev[::-1]
        # Hermite form of each segment from its end values and slopes
        t = (s[:-1] + s[1:] - 2.0 * m) / dx
        return np.stack([t / dx, (m - s[:-1]) / dx - t, s[:-1], y[:-1]], axis=1)

    def antiderivative(self) -> _PiecewisePoly:
        """The piecewise quartic F with F' = self and F(x_0) = 0."""
        c = self.c / np.array([4.0, 3.0, 2.0, 1.0])
        dx = np.diff(self.x)
        area = (((c[..., 0] * dx + c[..., 1]) * dx + c[..., 2]) * dx + c[..., 3]) * dx
        base = np.pad(np.cumsum(area[..., :-1], axis=-1), ((0, 0), (1, 0)))
        return _PiecewisePoly(self.x, np.concatenate([c, base[..., None]], axis=-1))


@dataclass(frozen=True)
class Curve:
    """A curve represented by f(0) and samples of f' on the grid of [0, x_max].

    The nodes are np.linspace(0, x_max, n), n >= 2, with x_max finite and
    positive, and f(0) and every sample are finite (else `NonFinite`, a
    ValueError): the grid starts at 0, its step ``grid_step`` x_max / (n - 1).
    Values and derivatives between the nodes come from one cubic spline and
    its antiderivative, real when every sample's imaginary part is zero (as
    for forward prices).

    A curve must not be mutated after construction, its samples included:
    the spline and every projection (`projection.coefficients_fft`) are
    memoised on it in ``_spline_cache``.  Arithmetic returns new curves.
    """

    value_at_zero: complex
    deriv_samples: np.ndarray
    x_max: float
    _spline_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = np.asarray(self.deriv_samples, dtype=np.complex128)
        object.__setattr__(self, "deriv_samples", d)
        if d.shape[0] < 2:
            raise ValueError("need at least two derivative samples")
        if not 0.0 < self.x_max < np.inf:
            raise ValueError(f"a curve's nodes must increase from 0 to a finite "
                             f"x_max > 0, not to {self.x_max}")
        if not (np.isfinite(self.value_at_zero) and np.isfinite(d).all()):
            raise NonFinite("a curve's value at zero and derivative samples must be finite")

    @property
    def grid_step(self) -> float:
        return self.x_max / (len(self.deriv_samples) - 1)

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
        return cls(complex(value_at_zero), np.asarray(deriv_fn(x), dtype=np.complex128), x_max)

    def _spline(self) -> CubicSpline:
        sp = self._spline_cache.get("deriv")
        if sp is None:
            d = self.deriv_samples
            sp = self._spline_cache["deriv"] = CubicSpline(
                self.grid, d if d.imag.any() else d.real)
        return sp

    def _antideriv(self):
        sp = self._spline_cache.get("anti")
        if sp is None:
            sp = self._spline_cache["anti"] = self._spline().antiderivative()
        return sp

    def _require(self, x: float, what, why: str = "") -> None:
        """DomainTooShort unless the curve is stored on [0, x] (`space._require`)."""
        _require(self.x_max, x, what, why)

    def _require_node_past(self, x: float, what: str, why: str) -> None:
        """DomainTooShort unless a node, the last one x_max, lies more than 1e-9 past x."""
        if not self.x_max > x + _RANGE_TOL:
            raise DomainTooShort(f"{what} covers [0, {self.x_max}] and needs a node past "
                                 f"{why} = {x}")

    def _node_index(self, t: float) -> int | None:
        """The i with t = i * grid_step, counting in steps (within 1e-9 of
        one), or None when t is not a node.  The range is not checked here:
        that is `_require`'s test."""
        m = t / self.grid_step
        i = round(m)
        return int(i) if abs(m - i) < 1e-9 else None

    def _in_domain(self, x, what: str) -> np.ndarray:
        """x as floats, or DomainTooShort if a point lies outside [0, x_max]."""
        x = np.asarray(x, dtype=float)
        if np.any(x > self.x_max + _RANGE_TOL) or np.any(x < -1e-12):
            raise DomainTooShort(f"requested {what} outside [0, x_max], x_max={self.x_max}")
        return x

    def deriv(self, x) -> np.ndarray:
        """Cubic-spline evaluation of f' at arbitrary points inside the grid."""
        x = self._in_domain(x, "derivative")
        return self._spline()(x) + 0j

    def value(self, x) -> np.ndarray:
        """f(x) = f(0) + int_0^x f'(y) dy via the spline antiderivative."""
        x = self._in_domain(x, "value")
        return self.value_at_zero + self._antideriv()(x) + 0j

    def values_on_grid(self) -> np.ndarray:
        return self.value(self.grid)

    def _deriv_on(self, x_max: float, n: int) -> np.ndarray:
        """f' on the n nodes of [0, x_max] that this curve covers: the samples
        on this curve's step, else the spline.  All n unless the curve stops
        short of x_max, then the nodes up to its own x_max."""
        if _same_step(x_max / (n - 1), self.grid_step):
            return self.deriv_samples[:n]
        x = np.linspace(0.0, x_max, n)
        return self.deriv(x[:_first_node_beyond(x_max, n, self.x_max + _RANGE_TOL)])

    def resample(self, grid_step: float, x_max: float | None = None) -> "Curve":
        """f' on the grid of [0, x_max] nearest ``grid_step`` (`_deriv_on`), as a new curve."""
        x_max = self.x_max if x_max is None else x_max
        self._require(x_max, "a resampled curve")
        return Curve(self.value_at_zero,
                     self._deriv_on(x_max, _node_count(x_max, grid_step)), x_max)

    def _masked_from(self, x_cut: float) -> int:
        """The first node `restrict_mask(x_cut)` zeroes (`_mask_start`)."""
        return _mask_start(self.x_max, self.deriv_samples.shape[0], x_cut)

    def restrict_mask(self, x_cut: float) -> "Curve":
        """Zero the derivative beyond x_cut (curve frozen at its x_cut value)."""
        d = self.deriv_samples.copy()
        d[self._masked_from(x_cut):] = 0.0
        return Curve(self.value_at_zero, d, self.x_max)

    def __add__(self, other: "Curve") -> "Curve":
        a, b = _align(self, other)
        return Curve(a.value_at_zero + b.value_at_zero,
                     a.deriv_samples + b.deriv_samples, a.x_max)

    def __sub__(self, other: "Curve") -> "Curve":
        a, b = _align(self, other)
        return Curve(a.value_at_zero - b.value_at_zero,
                     a.deriv_samples - b.deriv_samples, a.x_max)

    def __mul__(self, c) -> "Curve":
        return Curve(self.value_at_zero * c, self.deriv_samples * c, self.x_max)

    __rmul__ = __mul__


def _require(x_max: float, x: float, what, why: str = "") -> None:
    """DomainTooShort, "<what> covers [0, x_max], short of [0, <why>] = [0, x]", unless
    x_max reaches x within 1e-9, the margin every read (`Curve._in_domain`) allows.
    ``what`` may be a callable that names it, so a step loop builds no text."""
    if not x <= x_max + _RANGE_TOL:
        raise DomainTooShort(f"{what() if callable(what) else what} covers [0, {x_max}], "
                             f"short of [0, {f'{why}] = [0, ' if why else ''}{x}]")


def _mask_start(x_max: float, n: int, x_cut: float) -> int:
    """The first node of the grid of [0, x_max] with n nodes that a mask at
    x_cut zeroes: the first beyond x_cut + 1e-12."""
    return _first_node_beyond(x_max, n, x_cut + 1e-12)


def _same_step(a: float, b: float) -> bool:
    """Whether two grid steps are one: within 1e-12, relative above a step of 1."""
    d = abs(a - b)
    return d < 1e-12 or d < 1e-12 * max(a, b)     # the first test decides the usual case


def _on_grid(c: Curve, x_max: float, step: float) -> bool:
    """Whether c is stored on the grid of [0, x_max] at ``step``: one step
    (`_same_step`) and one range, within 1e-12."""
    return _same_step(c.grid_step, step) and abs(c.x_max - x_max) < 1e-12


def _node_count(x_max: float, step: float) -> int:
    """The node count of the uniform grid of [0, x_max] nearest ``step``."""
    return int(round(x_max / step)) + 1


def _first_node_beyond(x_max: float, n: int, cut: float) -> int:
    """The first index i with grid[i] > cut on the grid of `Curve.grid`, n if none.

    Node i of np.linspace(0, x_max, n) is i * (x_max / (n - 1)), the last
    one x_max, so the index is read off the step and corrected against the
    nodes themselves without building the grid.
    """
    if not cut < x_max:          # no node lies beyond (a NaN cut masks nothing)
        return n
    if cut < 0.0:                # every node, 0 included, lies beyond
        return 0
    step = x_max / (n - 1)
    i = min(int(cut // step) + 1, n - 1)
    while i > 0 and (i - 1) * step > cut:    # node i - 1 lies below the last
        i -= 1
    while i < n - 1 and i * step <= cut:     # the last node, x_max, lies beyond
        i += 1
    return i


def _align(f: Curve, g: Curve) -> tuple[Curve, Curve]:
    """Both curves on their common grid, the finer step over the shorter
    range: an operand already on it (`_on_grid`) is kept, the other resampled."""
    x_max, step = min(f.x_max, g.x_max), min(f.grid_step, g.grid_step)
    return tuple(c if _on_grid(c, x_max, step) else c.resample(step, x_max)
                 for c in (f, g))


class _Rows(NamedTuple):
    """Curves on one grid of [0, x_max]: values at zero (m,), derivative rows
    (m, n) and the range [0, x_max] that every row covers."""

    values: np.ndarray
    samples: np.ndarray
    x_max: float


def _rows_on(curves, x_max: float, n: int) -> _Rows:
    """``curves`` read onto the grid of [0, x_max] with n nodes (`Curve._deriv_on`),
    every row cut to the m nodes that all of them cover; the rows' range ends
    at the last of those, so a cut keeps the grid's step."""
    reads = [c._deriv_on(x_max, n) for c in curves]
    m = min(r.shape[0] for r in reads)
    return _Rows(np.array([c.value_at_zero for c in curves], dtype=np.complex128),
                 np.stack([r[:m] for r in reads]),
                 x_max if m == n else (m - 1) * (x_max / (n - 1)))


def inner_product_alpha(f: Curve, g: Curve, alpha: float) -> complex:
    """f(0) conj(g(0)) + weighted Simpson quadrature of f' conj(g') over the grid.

    Curves on different grids are first resampled onto a common one.  An even
    point count gets `_simpson_rule`'s end correction.
    """
    f, g = _align(f, g)
    w, rule = _alpha_rule(len(f.deriv_samples), f.x_max, alpha)
    integrand = f.deriv_samples * np.conj(g.deriv_samples) * w
    return complex(f.value_at_zero * np.conj(g.value_at_zero) + integrand @ rule)


@lru_cache(maxsize=8)
def _alpha_rule(n, x_max, alpha):
    """exp(alpha x) and `_simpson_rule` on n nodes of [0, x_max], read-only."""
    r = np.exp(alpha * np.linspace(0.0, x_max, n)), _simpson_rule(n, x_max / (n - 1))
    r[0].flags.writeable = r[1].flags.writeable = False
    return r


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


def theta_inv(z: complex, h: np.ndarray, alpha: float, x_max: float) -> Curve:
    """Inverse isometry: value z plus the reweighted derivative samples."""
    h = np.asarray(h, dtype=np.complex128)
    x = np.linspace(0.0, x_max, h.shape[0])
    return Curve(complex(z), h * np.exp(-0.5 * alpha * x), x_max)


# -- CSV interchange ---------------------------------------------------------

def _opened(path_or_buf, mode: str):
    """A path (str, bytes or os.PathLike) opened in `mode` and closed on exit,
    or the caller's buffer, left open."""
    if isinstance(path_or_buf, (str, bytes, os.PathLike)):
        return open(path_or_buf, mode, newline="")
    return nullcontext(path_or_buf)


def write_curve_csv(f: Curve, path_or_buf) -> None:
    """Write `x,f,fprime` rows (values recovered from the spline integral)."""
    with _opened(path_or_buf, "w") as handle:
        w = csv.writer(handle, lineterminator="\n")
        w.writerow(["x", "f", "fprime"])
        vals = f.values_on_grid()
        for x, v, d in zip(f.grid, vals, f.deriv_samples):
            w.writerow([repr(float(x)), _fmt(v), _fmt(d)])


def _fmt(z: complex) -> str:
    z = complex(z)
    return repr(z.real) if z.imag == 0.0 else repr(z)


def _parse_column(cells, real: bool) -> np.ndarray:
    """All cells at once, or one by one where numpy refuses one ("1 e5", "1+0j")."""
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return np.array([float(c) if real else complex(c.replace(" ", "")) for c in cells])


def read_curve_csv(path_or_buf) -> Curve:
    """Read `x,f,fprime` rows: the x column must be a uniform grid from 0 that
    increases (`Curve`'s x_max > 0), every row must hold exactly the three
    cells, and the f column must be f(0) plus the integral of fprime (the
    curve's `value`) within 1e-6 max(1, max|f|)."""
    with _opened(path_or_buf, "r") as handle:
        rows = list(csv.reader(handle))
    if not rows or [c.strip() for c in rows[0]] != ["x", "f", "fprime"]:
        raise ValueError("expected header 'x,f,fprime'")
    for i, r in enumerate(rows[1:], start=2):
        if len(r) != 3:
            raise ValueError(f"curve CSV row {i} needs the 3 cells x,f,fprime, has {len(r)}")
    cols = list(zip(*rows[1:])) or [()] * 3
    x, vals, deriv = (_parse_column(c, i == 0) for i, c in enumerate(cols))
    if not all(np.all(np.isfinite(a)) for a in (x, vals, deriv)):
        raise ValueError("curve CSV holds a non-finite number")
    steps = np.diff(x)
    if steps.size == 0 or np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, x[-1]):
        raise ValueError("curve CSV must use a uniform grid")
    if abs(x[0]) > 1e-9 * max(1.0, x[-1]):
        raise ValueError(f"curve CSV grid must start at x = 0, not {float(x[0])}")
    curve = Curve(complex(vals[0]), deriv, float(x[-1]))
    # the curve keeps f(0) and fprime only, so an f column that disagrees with
    # them would go unread.  A spline that overflows gives non-finite values,
    # which no row fails here: the caller's overflow check names them
    with np.errstate(over="ignore", invalid="ignore"):
        integral = curve.values_on_grid()
        bad = np.flatnonzero(np.abs(vals - integral) > 1e-6 * max(1.0, np.max(np.abs(vals))))
    if bad.size:
        i = bad[0]
        raise ValueError(f"curve CSV row {i + 2} has f = {_fmt(vals[i])}, but f(0) plus the "
                         f"integral of fprime is {_fmt(integral[i])}")
    return curve


# -- segmented quadrature against the biorthogonal system --------------------

def _gram_periods(params: BasisParams) -> int:
    """Periods the dual Gram integrates over: enough that the neglected
    geometric tail, which falls by e^{-2 lam T} a period, is below
    GRAM_TAIL_TOL relatively.

    Raises ValueError when that takes more than GRAM_MAX_PERIODS periods,
    which is when lambda * horizon is below about 3.15e-3.
    """
    q = np.exp(-2.0 * params.lam * params.horizon)
    # q rounds to one below lambda T ~ 1e-16, where no count suffices
    n = np.inf if q == 1.0 else np.ceil(np.log(GRAM_TAIL_TOL * (1.0 - q)) / np.log(q)) + 1
    if n > GRAM_MAX_PERIODS:
        raise ValueError(f"lambda * horizon = {params.lam * params.horizon:.6g} is below "
                         f"about 3.15e-3: the dual Gram's tail would need {n:.6g} periods, "
                         f"more than {GRAM_MAX_PERIODS}")
    return max(2, int(n))


def _simpson_weights(n_points: int, dx: float) -> np.ndarray:
    if n_points % 2 == 0:
        raise ValueError("composite Simpson needs an odd point count")
    w = np.ones(n_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dx / 3.0)


def _simpson_rule(n_points: int, dx: float) -> np.ndarray:
    """Simpson weights on any n_points >= 2 uniform nodes.

    Composite Simpson for an odd count.  For an even count, Simpson on the
    first n_points - 1 nodes plus Cartwright's correction for the last
    interval, (-1, 8, 5) dx / 12 on the last three nodes; the trapezoid for
    two.
    """
    if n_points == 2:
        return np.array([0.5 * dx, 0.5 * dx])
    if n_points % 2:
        return _simpson_weights(n_points, dx)
    w = np.zeros(n_points)
    w[:-1] = _simpson_weights(n_points - 1, dx)
    w[-3:] += np.array([-1.0, 8.0, 5.0]) * (dx / 12.0)
    return w


def dual_gram_matrix(params: BasisParams, n_max: int) -> np.ndarray:
    """Gram matrix <g_m, g_n^*> for |m|, |n| <= n_max by Simpson over periods.

    The dual derivative jumps at period boundaries, so each period [pT, (p+1)T)
    is a closed smooth segment with one-sided boundary values, integrated on
    the same GRAM_PTS_PER_PERIOD + 1 nodes u.  Their integrals differ by one
    factor: at y = pT + u the primal derivative e^{lambda_m y} gains
    e^{-(lam + alpha/2) pT}, the dual e_n(y) gains e^{-lam pT} (the
    2 pi i n / T phases are T-periodic, and the cut is u on every period),
    and the weights e^{alpha y} e^{-alpha y / 2} gain e^{alpha pT / 2}.
    Period p is therefore exactly q^p times period 0, q = e^{-2 lam T}, and
    the Gram is period 0's times sum_{p < n_periods} q^p, with n_periods
    from `_gram_periods`.  No factor grows with p (e^{alpha y} alone would
    overflow past alpha y ~ 709), so memory and time are one
    period's (2 n_max + 1, GRAM_PTS_PER_PERIOD + 1) blocks whatever the
    period count.  A tail that needs more than GRAM_MAX_PERIODS periods is a
    ValueError, raised before any quadrature.  Biorthogonality predicts the
    identity matrix.
    """
    T = params.horizon
    n_periods = _gram_periods(params)
    u = np.linspace(0.0, T, GRAM_PTS_PER_PERIOD + 1)
    w = _simpson_weights(GRAM_PTS_PER_PERIOD + 1, T / GRAM_PTS_PER_PERIOD)
    ns = params.n_range(n_max)
    # primal derivatives e^{lambda_m u} / sqrt(T), weighted
    gm = eval_g_n_deriv(params, ns, u) * (w * np.exp(params.alpha * u))
    # dual derivatives e^{-alpha u / 2} e_n^*(u); local=u keeps the left limit at u = T
    dual = np.exp(-0.5 * params.alpha * u) * eval_e_n_star(params, ns, u, local=u)
    q = np.exp(-2.0 * params.lam * T)
    return (gm @ np.conj(dual).T) * np.sum(q ** np.arange(n_periods))
