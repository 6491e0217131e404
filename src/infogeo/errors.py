"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter or evaluation point lies outside the valid domain
    (non-positive scale parameter, finite-difference step crossing the
    domain boundary, non-SPD metric, ...)."""


class NumericalAbort(RuntimeError):
    """An integration had to stop before reaching its target (step size
    underflow, a right-hand side not finite at the start).  Carries
    whatever partial result exists."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
