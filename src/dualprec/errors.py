"""Exception types shared across the package."""


class DualPrecError(Exception):
    """Base class for all dualprec errors."""


class DimensionError(DualPrecError):
    """Shapes or dimension bookkeeping are inconsistent."""


class ValidationError(DualPrecError):
    """An input violates a documented invariant (norms, enums, budgets)."""


class NumericsError(DualPrecError):
    """Non-finite input, loss of positive definiteness, or a zero vector
    where a nonzero one is required."""


class ConvergenceError(DualPrecError):
    """Iteration budget exhausted before the requested tolerance.

    Carries the best iterate seen and its KKT certificate so callers can
    inspect or emit a partial result.
    """

    def __init__(self, message, best_q=None, certificate=None, partial=None):
        super().__init__(message)
        self.best_q = best_q
        self.certificate = certificate
        self.partial = partial


class SingularTransformError(DualPrecError):
    """The power-transform linear system is singular or too ill-conditioned
    to trust (condition number above `duality.COND_LIMIT`)."""


class InfeasibleTransformError(DualPrecError):
    """The power transform produced a negative power, meaning the supplied
    MSE tuple is not achievable."""
