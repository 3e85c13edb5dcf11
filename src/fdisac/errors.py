"""Exception types shared across the package."""


class EstimationFailureError(RuntimeError):
    """An estimator could not produce the requested number of results."""


class DegenerateCombinerError(RuntimeError):
    """The null-space projector annihilated the candidate combiner columns."""


class InfeasibleResultError(RuntimeError):
    """A solver stopped without reaching feasibility."""
