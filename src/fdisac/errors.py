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
    """The null-space projector annihilated the candidate combiner columns.

    ``failed`` marks the matrices of the input stack that degenerated (a 0-d
    array for a single matrix); ``combiner`` is the stack's result with each
    failed matrix's unprojected candidate in its place.
    """

    def __init__(self, message, failed=None, combiner=None):
        super().__init__(message)
        self.failed = failed
        self.combiner = combiner


class InfeasibleResultError(RuntimeError):
    """A solver stopped without reaching feasibility."""
