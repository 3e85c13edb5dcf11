"""Exception types shared across the package."""


class ConstraintViolationError(ValueError):
    """A vector or matrix violates a structural constraint (e.g. constant modulus)."""


class EstimationFailureError(RuntimeError):
    """An estimator could not produce the requested number of results.

    ``partial`` carries whatever was recovered before the failure.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class DegenerateCombinerError(RuntimeError):
    """The null-space projector annihilated the candidate combiner columns."""


class InfeasibleResultError(RuntimeError):
    """A solver stopped without reaching feasibility.

    ``last_iterate`` carries the final iterate for inspection.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate
