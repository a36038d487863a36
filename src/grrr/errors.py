"""Exception types shared across the package."""


class GrrrError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GrrrError):
    """An input is outside the mathematical domain of an operation
    (probabilities off [0, 1], NaN/Inf, boundary proportions where interior
    ones are required, infeasible moments, ...)."""


class DatasetError(GrrrError):
    """A dataset file or table failed validation. Messages carry line numbers
    where applicable."""


class ResourceLimitError(GrrrError):
    """A computation would exceed a configured resource cap.

    No computation in this package raises it. It is kept because the
    benchmark's tracer (``perfbench/tracing.py``) imports it, and goes with
    the benchmark change of ROADMAP direction 2.
    """


class ConvergenceError(GrrrError):
    """A likelihood fit's standard errors are undefined: the observed
    information at its optimum is not positive definite. The optimiser and
    the quadrature report non-convergence through flags, not this error."""
