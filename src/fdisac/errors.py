"""Exception types shared across the package."""


class ConstraintViolationError(ValueError):
    """A vector or matrix violates a structural constraint (e.g. constant modulus)."""


class EstimationFailureError(RuntimeError):
    """An estimator could not produce the requested number of results."""


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
    """A solver stopped without reaching feasibility.

    ``errors`` holds per problem of a stack (leading axes flattened) None or
    that problem's own error; ``result`` is zero at the failed problems, and
    ``info``, if the solver was asked for it, is its info for the whole stack.
    """

    def __init__(self, message, errors=(), result=None, info=None):
        super().__init__(message)
        self.errors = errors
        self.result = result
        self.info = info
