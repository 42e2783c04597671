"""Localisation projector, truncation projector and coefficient transforms.

The coefficient of mode n is the weighted Fourier-type integral

    <h, g_n^*> = T^{-1/2} int_0^T h'(x) exp((lam + alpha/2 - 2 pi i n / T) x) dx

which only reads h on [0, T]: under the isometry onto C x L2 the weighted
derivative of a localised curve is a damped periodisation, whose period-zero
restriction e^{(lam + alpha/2) x} h'(x) is paired with the plain Fourier
modes.  Both directions between a curve and its coefficients are one DFT on
the uniform grid x_j = jT/N over [0, T]:

- fold (curve -> coefficients): on the nodes, Simpson weights w_j and damping
  of ``_fold_grid``, ``_fold_input`` forms w_j h'(x_j) e^{(lam + alpha/2) x_j}
  with x = T folded onto x = 0, and ``_fold_rows`` gives every mode -k..k at
  once by one DFT per input, as ``coefficients_fft`` and the Euler loop fold
  (``coefficient`` is one mode's Simpson sum on the default grid's nodes);
- synthesis (coefficients -> grid derivative, ``_synth_fft``, the adjoint):
  sum_n c_n g_n'(x_j) = e^{-(lam + alpha/2) x_j} T^{-1/2} sum_n c_n
  e^{2 pi i n j / N}, so the span derivative on the grid costs one FFT
  instead of a (2k + 1) x (N + 1) matrix of exponentials.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (
    BasisParams,
    cut,
    eval_g_n,
    eval_g_n_deriv,
    frame_upper_constant,
    lambda_n,
)
from .errors import DomainTooShort, NonFinite, NotSmoothEnough
from .space import Curve, _simpson_rule, _simpson_weights

__all__ = [
    "CoeffState",
    "CommutatorElement",
    "project_pi",
    "coefficient",
    "coefficients_fft",
    "reconstruct",
    "reconstruct_deriv",
    "commutator_apply",
    "compute_C1",
    "compute_C2",
    "c_kt_norm_sq",
    "norm_alpha_span",
    "power_iteration_pi_norm",
    "N_MAX",
]

N_MAX = 512  # series truncation horizon; tails certified by the 1/n^2 bound
COEFF_POINTS = 2**12 + 1
PERIOD_POINTS = 2**13 + 1  # Simpson nodes of the one-period norm quadrature


@dataclass(frozen=True)
class CoeffState:
    """Coefficients (c_star, c_{-k}..c_k) of a curve in the truncated span."""

    c_star: complex
    c: np.ndarray
    params: BasisParams

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=np.complex128)
        object.__setattr__(self, "c", c)
        if c.shape != (2 * self.params.k + 1,):
            raise ValueError(f"need {2 * self.params.k + 1} coefficients, got {c.shape}")

    @property
    def k(self) -> int:
        return self.params.k

    def coeff(self, n: int) -> complex:
        if abs(n) > self.k:
            return 0.0
        return complex(self.c[n + self.k])

    def hermitian_defect(self) -> float:
        """Max deviation from c_{-n} = conj(c_n) and real c_star."""
        sym = np.max(np.abs(self.c - np.conj(self.c[::-1])))
        return float(max(sym, abs(complex(self.c_star).imag)))

    def to_json(self) -> str:
        return json.dumps(self._as_dict())

    def _as_dict(self) -> dict:
        p, c_star = self.params, complex(self.c_star)
        return {"alpha": p.alpha, "lambda": p.lam, "T": p.horizon, "k": p.k,
                "c_star": [c_star.real, c_star.imag],
                "c": [[z.real, z.imag] for z in self.c.tolist()]}

    @classmethod
    def from_json(cls, text: str) -> "CoeffState":
        d = json.loads(text)
        params = BasisParams(alpha=d["alpha"], lam=d["lambda"],
                             horizon=d["T"], k=int(d["k"]))
        c = np.array([complex(re, im) for re, im in d["c"]])
        return cls(complex(*d["c_star"]), c, params)


@dataclass(frozen=True)
class CommutatorElement:
    """Size certificate for the commutator defect at (k, t)."""

    t: float
    k: int
    norm_sq_bound: float


def project_pi(h: Curve, params: BasisParams) -> Curve:
    """Localisation projector: identity on [0, T], damped periodic replication
    of the derivative beyond T, on h's own grid.

    The output derivative at y is e^{-(lam + alpha/2)(y - cut(y))} h'(cut(y)),
    which has jumps at multiples of T; downstream quadrature of projected
    curves should be period-aware when high accuracy is needed.
    """
    if not h._covers(params.horizon):
        raise DomainTooShort("curve must cover [0, T] to be localised")
    y = h.grid
    u = cut(y, params.horizon)
    d = np.exp(-params.decay * (y - u)) * h.deriv(u)
    return Curve(h.value_at_zero, d, h.x_max)


def coefficient(h: Curve, n: int, params: BasisParams,
                n_points: int = COEFF_POINTS) -> complex:
    """Single-mode coefficient by composite Simpson on ``n_points`` nodes of
    [0, T], by default those of `coefficients_fft`'s default grid."""
    T = params.horizon
    xi = params.lam + 0.5 * params.alpha - 2.0j * np.pi * n / T
    scale = 1.0 / np.sqrt(T)
    x = np.linspace(0.0, T, n_points)
    w = _simpson_weights(n_points, T / (n_points - 1))
    return complex(scale * np.sum(w * h.deriv(x) * np.exp(xi * x)))


def _fold_rows(inputs, k: int, horizon: float, spectra: np.ndarray) -> np.ndarray:
    """Modes -k..k, as rows (len(inputs), 2k+1), of folded inputs on N points
    each (`_fold_input`), by one DFT per input into the first rows of
    ``spectra`` (complex, N columns), which a caller that folds at every step
    makes once.  Modes beyond the DFT's N bins would alias onto kept ones, so
    2k + 1 > N raises."""
    n = inputs[0].shape[-1]
    if 2 * k + 1 > n:
        raise ValueError(f"{2 * k + 1} modes alias on a {n}-interval grid; "
                         "use more coefficient points")
    spectra = spectra[:len(inputs)]
    for a, spectrum in zip(inputs, spectra):
        np.fft.fft(a, out=spectrum)  # index n holds sum a_j e^{-2 pi i n j / N}
    return spectra[:, _mode_bins(k, n)] / math.sqrt(horizon)


@lru_cache(maxsize=64)
def _mode_bins(k: int, n: int) -> np.ndarray:
    """The read-only DFT bins (-k..k) mod n of the modes; at most 64 are memoised."""
    bins = np.arange(-k, k + 1) % n
    bins.flags.writeable = False
    return bins


def _fold_grid(n_points: int, params: BasisParams):
    """The fold's nodes x_j of [0, T], Simpson weights w_j and e^{(lam + alpha/2) x_j}."""
    T = params.horizon
    x = np.linspace(0.0, T, n_points)
    return x, _simpson_weights(n_points, T / (n_points - 1)), np.exp(params.decay * x)


def _fold_input(d: np.ndarray, grid) -> np.ndarray:
    """The folded input of `_fold_rows` from h' on the nodes of ``grid``
    (`_fold_grid`): w_j h'(x_j) e^{(lam + alpha/2) x_j} with the x = T sample
    added onto x = 0, which it aliases for every mode frequency.  It writes
    only into the array it makes."""
    _, w, e = grid
    a = w * d
    a *= e
    a[0] += a[-1]
    return a[:-1]


def _synth_fft(c: np.ndarray, n_points: int, params: BasisParams) -> np.ndarray:
    """Span derivative sum_n c_n g_n'(x_j) on the grid x_j = jT/N, j = 0..N.

    The adjoint of the fold: g_n'(x_j) = e^{-(lam + alpha/2) x_j}
    e^{2 pi i n j / N} / sqrt(T), so c_n goes into DFT bin (-n) mod N and one
    DFT supplies every sample.  Modes that share a bin (2k + 1 > N) add there,
    which is exact because they agree on the grid.  The x = T sample equals
    the x = 0 one before the damping.
    """
    n = n_points - 1
    k = (c.shape[-1] - 1) // 2
    bins = np.zeros(n, dtype=np.complex128)
    np.add.at(bins, -np.arange(-k, k + 1) % n, c)
    spectrum = np.fft.fft(bins)  # index j holds sum c_n e^{2 pi i n j / N}
    x = np.linspace(0.0, params.horizon, n_points)
    return (np.exp(-params.decay * x) / np.sqrt(params.horizon)
            * np.append(spectrum, spectrum[0]))


def coefficients_fft(h: Curve, k: int, params: BasisParams,
                     n_points: int = COEFF_POINTS) -> CoeffState:
    """Localise-and-truncate map h -> h(0) g_* + sum_{|n|<=k} <h, g_n^*> g_n.

    Localisation leaves h untouched on [0, T] and preserves h(0), and the
    coefficient integral reads nothing else, so no intermediate projected
    curve is built.  All modes come from one weighted FFT that matches the
    scalar quadrature exactly (same Simpson weights): the n-independent factor
    h'(x) e^{(lam + alpha/2) x} is formed once and the DFT supplies every mode.
    The N = n_points - 1 intervals bound k (2k + 1 > N raises ValueError); the
    fold runs on at least 8k of them, rounded up to a power of two, because
    Simpson's alternating weights make mode n read a third of bin n +- N/2.

    The result is memoised on ``h`` (in ``Curve._spline_cache``, beside its
    spline; curves are immutable) under every input it depends on, (k,
    n_points, alpha, lam, T), so a curve projected again, as f0 and the
    loadings are on every simulated path, folds once.  Its ``c`` is read-only:
    every caller shares it.  A call that raises stores nothing.
    """
    key = ("coefficients_fft", k, n_points, params.alpha, params.lam, params.horizon)
    state = h._spline_cache.get(key)
    if state is None:
        T = params.horizon
        if not h._covers(T):
            raise DomainTooShort("coefficient extraction needs the curve on [0, T]")
        if 2 * k + 1 <= n_points - 1 < 8 * k:     # `_fold_rows` refuses more modes
            n_points = 2 ** (8 * k - 1).bit_length() + 1
        grid = _fold_grid(n_points, params)
        spectra = np.empty((1, n_points - 1), dtype=np.complex128)
        c = _fold_rows([_fold_input(h._deriv_on(T, n_points), grid)], k, T, spectra)[0]
        c.flags.writeable = False
        p = BasisParams(params.alpha, params.lam, params.horizon, k)
        # h(0) as stored; + 0j gives it the signs of zero of h.value(0.0)
        state = h._spline_cache[key] = CoeffState(complex(h.value_at_zero) + 0j, c, p)
    return state


def reconstruct(s: CoeffState, x) -> np.ndarray | complex:
    """Evaluate c_star + sum_n c_n g_n(x) at the requested points."""
    x = np.asarray(x, dtype=float)
    g = eval_g_n(s.params, s.params.n_range(s.k), np.atleast_1d(x))
    out = s.c_star + s.c @ g
    return complex(out[0]) if x.ndim == 0 else out


def reconstruct_deriv(s: CoeffState, x) -> np.ndarray | complex:
    x = np.asarray(x, dtype=float)
    g = eval_g_n_deriv(s.params, s.params.n_range(s.k), np.atleast_1d(x))
    out = s.c @ g
    return complex(out[0]) if x.ndim == 0 else out


def commutator_apply(h: Curve, k: int, t, params: BasisParams) -> np.ndarray | complex:
    """Scalar the commutator maps h to (times the constant curve) at each t.

    Computed from the basis expansion: sum over |n| > k of g_n(t) <h, g_n^*>,
    truncated at N_MAX.  h is projected once for all t.
    """
    t = np.asarray(t, dtype=float)
    state = coefficients_fft(h, N_MAX, params, n_points=2**14 + 1)
    ns = params.n_range(N_MAX)
    mask = np.abs(ns) > k
    g_t = eval_g_n(params, ns[mask], np.atleast_1d(t))
    # one contiguous row per t, so each sum runs in the same order as for one t
    out = np.sum(np.ascontiguousarray(g_t.T) * state.c[mask], axis=-1)
    return complex(out[0]) if t.ndim == 0 else out


def compute_C1(f: Curve, params: BasisParams) -> float:
    """Rate constant of the 1/k truncation bound for twice-differentiable data.

    Integrating the coefficient integral by parts gives, with the weight
    w(x) = e^{(lam + alpha/2) x},

        C1 = T * (|f'(T) w(T) - f'(0)|^2 + (int_0^T |f''| w dx)^2)
             / (pi^2 (1 - e^{-2 lam T}))

    and ||f - Pi_k f||^2 <= C1 / k.  f'' is obtained by centred differences of
    f' on the max(4097, n) nodes of [0, T], made odd, where f stores n
    samples (one-sided second order at the boundary): the one-curve case of
    `_compute_C1_rows`.
    """
    T = params.horizon
    if not f._covers(T):
        raise DomainTooShort("curve must cover [0, T]")
    return _compute_C1_rows(f._deriv_on(T, _c1_points(f.deriv_samples.shape[0]))[None],
                            params)[0]


def _c1_points(n: int) -> int:
    """The node count of `compute_C1`'s quadrature for f' stored on n nodes:
    at least COEFF_POINTS, and odd."""
    npts = max(COEFF_POINTS, n)
    return npts + 1 - npts % 2


def _compute_C1_rows(d: np.ndarray, params: BasisParams) -> list[float]:
    """`compute_C1` of Curve(0, row, T) for each row of ``d`` (m, n), f' on
    the n nodes of [0, T], bit for bit, in one pass over the rows.

    Rows on fewer than 4097 nodes, or on an even count, are first resampled
    to `_c1_points(n)` nodes through each curve's spline, as `compute_C1`
    reads them.  The differences and
    quadratures then run on the whole block (each sum reduces one contiguous
    row, as for one curve) and the closing scalars are formed per row in
    `compute_C1`'s arithmetic.  One rough row raises NotSmoothEnough.  The
    half-resolution check runs on (npts + 1) / 2 nodes, an even count when
    npts is 3 mod 4, which takes `space._simpson_rule`'s end correction.
    """
    T = params.horizon
    d = np.asarray(d, dtype=np.complex128)
    npts = _c1_points(d.shape[-1])
    if npts != d.shape[-1]:
        d = np.stack([Curve(0.0, row, T)._deriv_on(T, npts) for row in d])
    _, w, weight = _fold_grid(npts, params)
    h = T / (npts - 1)
    d2 = np.gradient(d, h, axis=-1, edge_order=2)
    integrals = np.sum(w * np.abs(d2) * weight, axis=-1).tolist()
    # refinement sanity check: recompute the curvature at half resolution;
    # for genuinely twice-differentiable data the two quadratures agree
    half = slice(None, None, 2)
    d2_half = np.gradient(d[:, half], 2 * h, axis=-1, edge_order=2)
    w_half = _simpson_rule((npts - 1) // 2 + 1, 2 * h)   # end-corrected if even
    halves = np.sum(w_half * np.abs(d2_half) * weight[half], axis=-1).tolist()
    growth = np.exp(T * params.decay)
    denom = np.pi**2 * params.damping_factor
    c1s = []
    for row, integral, integral_half in zip(d, integrals, halves):
        if integral > 1e-8 and abs(integral - integral_half) > 0.25 * integral:
            raise NotSmoothEnough("second-derivative quadrature did not stabilise")
        boundary = abs(row[-1] * growth - row[0]) ** 2
        c1s.append(float(T * (boundary + integral**2) / denom))
    return c1s


def compute_C2(params: BasisParams) -> float:
    """Rate constant T / (pi^2 (1 - e^{-2 lam T})) of the commutator kernel."""
    return float(params.horizon / (np.pi**2 * params.damping_factor))


def c_kt_norm_sq(params: BasisParams, k: int, t: float) -> CommutatorElement:
    """Certified upper estimate of the squared norm of the commutator kernel.

    Truncated series C * sum_{k < |n| <= N_MAX} |g_n(t)|^2 plus the geometric
    1/n^2 tail bound beyond N_MAX.
    """
    T = params.horizon
    C = frame_upper_constant(params)
    ns = params.n_range(N_MAX)
    mask = np.abs(ns) > k
    g_t = eval_g_n(params, ns[mask], np.array([float(t)]))[:, 0]
    series = float(np.sum(np.abs(g_t) ** 2))
    tail = (1.0 + np.exp(-(2.0 * params.lam + params.alpha) * t)) * T / (np.pi**2 * N_MAX)
    return CommutatorElement(t=float(t), k=k,
                             norm_sq_bound=float(C * (series + tail)))


def _period_norm(value_at_zero: complex, deriv, params: BasisParams) -> float:
    """Norm of a span element or a localised curve Pi h from one period.

    Their weighted derivative energy over [mT, (m+1)T] is e^{-2 lam m T} times
    that over [0, T], so the full integral is the one-period quadrature (on
    PERIOD_POINTS nodes) divided by (1 - e^{-2 lam T}).  ``deriv`` maps
    points of [0, T] to h'.  A norm beyond the float range is `NonFinite`.
    """
    x = np.linspace(0.0, params.horizon, PERIOD_POINTS)
    d = deriv(x)
    w = _simpson_weights(PERIOD_POINTS, params.horizon / (PERIOD_POINTS - 1))
    with np.errstate(over="ignore", invalid="ignore"):    # an overflow is checked below
        energy = float(np.sum(w * np.abs(d) ** 2 * np.exp(params.alpha * x)))
    try:
        norm = float(np.sqrt(abs(value_at_zero) ** 2 + energy / params.damping_factor))
    except OverflowError:        # Python's float ** 2 raises where numpy's gives inf
        norm = math.inf
    if not math.isfinite(norm):
        raise NonFinite(f"a curve's norm over one period overflowed ({norm})")
    return norm


def norm_alpha_span(s: CoeffState) -> float:
    """Norm of a span element by quadrature over one period.

    The derivative on the quadrature grid comes from one FFT (``_synth_fft``).
    """
    return _period_norm(s.c_star, lambda x: _synth_fft(s.c, x.size, s.params),
                        s.params)


def power_iteration_pi_norm(params: BasisParams) -> float:
    """Operator-norm estimate of the localisation projector by power iteration.

    Curves are discretised as (value, per-period derivative blocks) with
    duplicated period-boundary nodes so the projector's one-sided limits are
    represented exactly; the iteration runs on the weighted adjoint square.
    It takes 50 steps from a seed-0 random start, on 256 intervals per period
    over enough periods that the neglected tail weight is below 1e-6.

    Pi reads block 0 only and its adjoint writes block 0 only, so the state
    is (value, block 0).  Block m of Pi W is e^{-(lam + alpha/2) m T} W_0
    under the weights w_j e^{alpha (u_j + m T)}, so the adjoint square pairs
    W_0 with w_j e^{alpha u_j} e^{-2 lam m T}.  Those stay bounded; the
    block weights alone overflow once alpha T n_periods passes about 709.
    """
    n_iter, pts_per_period = 50, 256
    T = params.horizon
    q = np.exp(-2.0 * params.lam * T)
    n_periods = max(3, int(np.ceil(np.log(1e-6) / np.log(q))) + 1)
    u = np.linspace(0.0, T, pts_per_period + 1)
    w = _simpson_weights(pts_per_period + 1, T / pts_per_period)
    # weighted quadrature weights of block 0, and the pair weights of block m
    block_w = w * np.exp(params.alpha * u)
    pair_w = block_w[None, :] * q ** np.arange(n_periods)[:, None]

    rng = np.random.default_rng(0)
    h0 = rng.normal()
    W = rng.normal(size=pts_per_period + 1)  # block 0 of the random start

    est = 0.0
    for _ in range(n_iter):
        # Pi* Pi: block 0 paired against every block of Pi W
        W = np.sum(pair_w * W, axis=0) / block_w
        nrm = np.sqrt(abs(h0) ** 2 + np.sum(block_w * np.abs(W) ** 2))
        h0, W = h0 / nrm, W / nrm
        est = nrm
    return float(np.sqrt(est))
