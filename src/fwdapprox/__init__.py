"""Arbitrage-free finite-dimensional approximation of forward-curve dynamics.

The library represents forward curves in an exponentially weighted Sobolev
space, expands them in a Riesz basis of damped complex exponentials, and
simulates both a fine-grid reference solution and the exactly-solvable
truncated dynamics, together with the operator bounds and convergence-rate
experiments that certify the approximation.
"""

from .basis import (
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
from .dynamics import (
    LevyDriver,
    ModelSpec,
    SimPath,
    StateVariables,
    convergence_experiment,
    delivery_forward,
    euler_coefficient_system,
    euler_stability_limit,
    oracle_mild_solution,
    simulate_fk_state,
    splitmix64,
)
from .errors import (
    BadWindow,
    ConfigError,
    DomainTooShort,
    FwdApproxError,
    NonFinite,
    NotSmoothEnough,
    UnstableStep,
)
from .markovian import (
    CoefficientField,
    contract_audit,
    make_field,
    markovian_convergence_experiment,
    oracle_markovian,
    picard_operator_V,
    projected_coefficients,
    simulate_markovian_fk,
)
from .projection import (
    CoeffState,
    CommutatorElement,
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
from .semigroup import adjoint_on_dual, shift_coeffs, shift_curve
from .space import (
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
from .testcurves import exp_loading, flat_curve, seasonal_curve, smooth_bump

__version__ = "0.1.0"
