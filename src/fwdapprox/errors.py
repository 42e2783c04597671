"""Exception types shared across the library."""

__all__ = ["FwdApproxError", "DomainTooShort", "NotSmoothEnough", "UnstableStep",
           "NonFinite", "BadWindow", "ConfigError"]


class FwdApproxError(Exception):
    """Base class for all library-specific errors."""


class DomainTooShort(FwdApproxError):
    """A curve's grid does not cover the range an operation needs."""


class NotSmoothEnough(FwdApproxError):
    """A curvature quadrature failed to stabilise under grid refinement."""


class UnstableStep(FwdApproxError):
    """The explicit Euler step size violates the linear stability bound."""


class NonFinite(FwdApproxError, ValueError):
    """A curve or a result would hold a NaN or inf, as after an overflow."""


class BadWindow(FwdApproxError):
    """A delivery window violates the ordering t <= T1 < T2 <= horizon."""


class ConfigError(FwdApproxError):
    """An experiment configuration failed validation."""
