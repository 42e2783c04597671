"""Left-shift semigroup on curves and its exact action on coefficients.

Coefficient-space shifting is the normative implementation: the truncated
span is invariant under the shift, each mode is scaled by e^{lambda_n t} and
the constant picks up sum_n c_n g_n(t).  Grid shifting of sampled curves is
kept for the fine-grid oracle.
"""
from __future__ import annotations

import numpy as np

from .basis import BasisParams, eval_g_n, lambda_n
from .errors import DomainTooShort
from .projection import CoeffState
from .space import Curve, _node_count

__all__ = ["shift_curve", "shift_coeffs", "adjoint_on_dual"]


def shift_curve(f: Curve, t: float, x_max_out: float | None = None) -> Curve:
    """(shift_t f)(x) = f(t + x) on [0, x_max_out], at f's step.

    f must cover [0, t + x_max_out] (`Curve._require`) and leave at least one
    step of it, else DomainTooShort.  When t is a node of f's grid
    (`Curve._node_index`), the samples are sliced and the value at zero adds
    the trapezoid sum of the skipped ones (`_node_shift`), so the nodes stay
    f's; off the grid, both come from the spline and its antiderivative on
    the nodes of [0, x_max_out].  The curve-space recursion
    (`dynamics._curve_recursion`) shifts every state through here.
    """
    if t < 0.0:
        raise ValueError("shift time must be nonnegative")
    if x_max_out is None:
        x_max_out = f.x_max - t
    f._require(t + x_max_out, "a curve to shift", "t + x")
    m = f._node_index(t)
    if m is not None:
        return _node_shift(f.value_at_zero, f.deriv_samples, f.x_max, m, x_max_out)
    n = _shifted_nodes(x_max_out, f.grid_step, t, f.x_max)
    x = np.linspace(0.0, x_max_out, n)
    return Curve(complex(f.value(t)), f.deriv(t + x), x_max_out)


def _node_shift(value_at_zero: complex, d: np.ndarray, x_max: float, m: int,
                x_max_out: float) -> Curve:
    """`shift_curve` by m steps of the curve with f(0) = ``value_at_zero`` and
    f' = ``d`` on the grid of [0, x_max], without building that curve: the
    samples from node m on, onto [0, x_max_out], whose nodes it must hold."""
    step = x_max / (d.shape[0] - 1)
    n = _shifted_nodes(x_max_out, step, m * step, x_max)
    # np.trapezoid(d[:m + 1], dx=step), term for term, without its set-up
    head = (step * (d[1:m + 1] + d[:m]) / 2.0).sum() if m else 0.0
    return Curve(complex(value_at_zero + head), d[m:m + n], x_max_out)


def _shifted_nodes(x_max_out: float, step: float, t: float, x_max: float) -> int:
    """The node count of [0, x_max_out] at ``step`` after a shift by t of [0,
    x_max]; DomainTooShort below two."""
    n = _node_count(x_max_out, step)
    if n < 2:
        raise DomainTooShort(f"shift by {t} leaves less than one grid step of "
                             f"[0, {x_max}]")
    return n


def _shift_factors(params: BasisParams, k: int, t):
    """g_n(t) and e^{lambda_n t} for n = -k..k, the two factors of the shift.

    Broadcasts over an array of ``t``: each factor has shape t.shape + (2k+1,),
    and a scalar ``t`` gives two (2k+1,) arrays.
    """
    t = np.asarray(t, dtype=float)
    ns = params.n_range(k)
    ts = np.atleast_1d(t)
    g_t = np.ascontiguousarray(np.moveaxis(eval_g_n(params, ns, ts), 0, -1))
    growth = np.exp(np.multiply.outer(ts, lambda_n(params, ns)))
    return (g_t[0], growth[0]) if t.ndim == 0 else (g_t, growth)


def _shift(c_star, c, g_t: np.ndarray, growth: np.ndarray):
    """Exact shift U_t g_n = e^{lambda_n t} g_n + g_n(t) g_* of (c_star, c).

    ``c`` may carry leading path axes, with ``c_star`` matching them.
    """
    return c_star + c @ g_t, c * growth


def shift_coeffs(s: CoeffState, t: float) -> CoeffState:
    """Exact shift action on a coefficient state."""
    if t < 0.0:
        raise ValueError("shift time must be nonnegative")
    c_star, c = _shift(s.c_star, s.c, *_shift_factors(s.params, s.k, t))
    return CoeffState(complex(c_star), c, s.params)


def adjoint_on_dual(params: BasisParams, n: int, t: float) -> complex:
    """Eigenvalue e^{conj(lambda_n) t} of the adjoint shift on the dual element."""
    if t < 0.0:
        raise ValueError("shift time must be nonnegative")
    return complex(np.exp(np.conj(lambda_n(params, n)) * t))
