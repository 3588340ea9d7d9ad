"""Exception types shared across the package."""


class SingularPointError(ValueError):
    """Evaluation requested exactly at a singular point of a closed form."""


class DivisionSingularityError(ZeroDivisionError):
    """An algebraic identity requires dividing by a coefficient that is zero."""


class NearSingularityError(ValueError):
    """Input too close to the singular set of a transform (here: Dom Phi)."""


class BudgetExceededError(RuntimeError):
    """Quadrature budget exhausted, or a rounding bound above the requested
    tolerance.

    Carries the partial result and its error estimate.
    """

    def __init__(self, message, partial=None, error_estimate=None):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate


class ConstructionFailedError(RuntimeError):
    """A geometric construction could not satisfy its invariants."""
