"""Damped complex-exponential Riesz basis and its biorthogonal system.

All functions are closed-form and vectorised over ``x`` (and, where it makes
sense, over the mode index ``n``: g_n, g_n' and e_n share `_modes`, `cut` and
g_n^* share `_period_split`).  All are pure, so concurrent use is safe.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisParams",
    "lambda_n",
    "cut",
    "eval_g_star",
    "eval_g_n",
    "eval_g_n_deriv",
    "eval_e_n",
    "eval_e_n_star",
    "eval_g_n_star",
    "apply_A",
    "projector_norm_bound",
    "shift_norm_bound",
    "frame_lower_constant",
    "frame_upper_constant",
]


@dataclass(frozen=True)
class BasisParams:
    """Parameters (alpha, lambda, T) of the basis plus the truncation level k.

    alpha : exponential weight rate of the curve space (1/time, > 0)
    lam : damping rate of the basis exponentials (1/time, > 0)
    horizon : localisation horizon T (time, > 0)
    k : truncation level, modes n = -k..k are kept (>= 0)
    """

    alpha: float
    lam: float
    horizon: float
    k: int = 0

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not (self.lam > 0.0):
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not (self.horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.k < 0:
            raise ValueError(f"k must be nonnegative, got {self.k}")

    @property
    def decay(self) -> float:
        """Common decay rate lambda + alpha/2 of every basis mode."""
        return self.lam + 0.5 * self.alpha

    @property
    def damping_factor(self) -> float:
        """1 - exp(-2*lambda*T), the constant behind every frame bound."""
        return -np.expm1(-2.0 * self.lam * self.horizon)

    def n_range(self, k: int | None = None) -> np.ndarray:
        """Mode indices -k..k as an integer array."""
        kk = self.k if k is None else k
        return np.arange(-kk, kk + 1)


def lambda_n(params: BasisParams, n) -> np.ndarray | complex:
    """Exponent 2*pi*i*n/T - lambda - alpha/2 of mode n (vectorised in n)."""
    n = np.asarray(n)
    val = 2.0j * np.pi * n / params.horizon - params.decay
    return complex(val) if val.ndim == 0 else val


def _period_split(x, horizon: float):
    """Period m = floor(x/T) of each x and offset x - mT >= 0 in it; a ratio
    within 1e-12 below an integer belongs to that period, so multiples of T
    map to offset 0 rather than to a value just below T."""
    x = np.asarray(x, dtype=float)
    ratio = x / horizon
    m = np.floor(ratio)
    m = np.where(ratio - m > 1.0 - 1e-12, m + 1.0, m)
    return m, np.clip(x - m * horizon, 0.0, None)


def cut(x, horizon: float):
    """Reduce x >= 0 modulo the horizon into [0, T) (`_period_split`)."""
    out = _period_split(x, horizon)[1]
    return float(out) if out.ndim == 0 else out


def eval_g_star(x):
    """The constant basis element: identically one."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    return float(out) if out.ndim == 0 else out


def _modes(a, x, f, divisor):
    """f(a x) / divisor(a) for mode exponents ``a`` at points ``x``: over modes
    x points when both are arrays, broadcast otherwise; a 0-d result is a
    complex.  The division runs in place, so no third array is held."""
    a = np.asarray(a)
    x = np.asarray(x, dtype=float)
    if a.ndim and x.ndim:
        a, x = a[..., None], x[None, ...]
    out = f(a * x)
    out /= divisor(a)
    return out if out.ndim else complex(out)


def eval_g_n(params: BasisParams, n, x):
    """Basis element (exp(lambda_n x) - 1) / (lambda_n sqrt(T)).

    Broadcasts over ``n`` and ``x``.
    """
    return _modes(lambda_n(params, n), x, np.expm1, lambda a: a * np.sqrt(params.horizon))


def eval_g_n_deriv(params: BasisParams, n, x):
    """Derivative exp(lambda_n x) / sqrt(T) of the basis element."""
    return _modes(lambda_n(params, n), x, np.exp, lambda a: np.sqrt(params.horizon))


def eval_e_n(params: BasisParams, n, x):
    """Underlying L2 Riesz basis element exp((2*pi*i*n/T - lambda) x)/sqrt(T)."""
    expo = 2.0j * np.pi * np.asarray(n) / params.horizon - params.lam
    return _modes(expo, x, np.exp, lambda a: np.sqrt(params.horizon))


def eval_e_n_star(params: BasisParams, n, x, local=None):
    """Biorthogonal element (1 - e^{-2 lam T}) e^{2 lam cut(x)} e_n(x).

    ``local`` optionally supplies cut(x) directly; the caller uses this to pin
    one-sided values at period boundaries where e^{2 lam cut} jumps.
    """
    x = np.asarray(x, dtype=float)
    u = cut(x, params.horizon) if local is None else np.asarray(local, dtype=float)
    damp = params.damping_factor * np.exp(2.0 * params.lam * u)
    return damp * eval_e_n(params, n, x)


def eval_g_n_star(params: BasisParams, n: int, x):
    """Biorthogonal curve-space element, integral of e^{-y alpha/2} e_n^*(y).

    The integrand is exponential on each period [mT, (m+1)T), so the
    antiderivative is evaluated exactly segment by segment and the geometric
    per-period factors are summed in closed form.
    """
    T = params.horizon
    m, u = _period_split(x, T)

    mu = lambda_n(params, n) + 2.0 * params.lam  # exponent of the integrand
    scale = params.damping_factor / np.sqrt(T)
    r = np.exp(-params.decay * T)  # per-period geometric factor

    if abs(mu) < 1e-14:
        seg_full = T
        seg_part = u.astype(complex)
    else:
        seg_full = np.expm1(mu * T) / mu
        seg_part = np.expm1(mu * u) / mu
    # sum_{j<m} r^j = (1 - r^m)/(1 - r)
    geom = (1.0 - r**m) / (1.0 - r)
    out = scale * (geom * seg_full + r**m * seg_part)
    return out if out.ndim else complex(out)


def apply_A(f, x, params: BasisParams):
    """Damped periodisation e^{-lambda x} f(cut(x)) of a function on [0, T)."""
    x = np.asarray(x, dtype=float)
    vals = np.asarray(f(cut(x, params.horizon)))
    out = np.exp(-params.lam * x) * vals
    return out if out.ndim else complex(out)


def frame_lower_constant(params: BasisParams) -> float:
    """Lower frame constant e^{-2 lam T} / (1 - e^{-2 lam T})."""
    return np.exp(-2.0 * params.lam * params.horizon) / params.damping_factor


def frame_upper_constant(params: BasisParams) -> float:
    """Upper frame constant 1 / (1 - e^{-2 lam T})."""
    return 1.0 / params.damping_factor


def projector_norm_bound(params: BasisParams) -> float:
    """Operator norm sqrt(1/(1 - e^{-2 lam T})) of the localisation projector."""
    return float(np.sqrt(frame_upper_constant(params)))


def shift_norm_bound(params: BasisParams) -> float:
    """Uniform operator-norm bound sqrt(2 (1 ^ alpha^{-1})) of the shift."""
    return float(np.sqrt(2.0 * min(1.0, 1.0 / params.alpha)))
