"""Exception hierarchy shared by all chaincombine modules.

Two error families matter for callers: validation failures (bad shapes,
non-finite values, degenerate inputs) and numerical failures (a
covariance that cannot be inverted).  Each class carries, as
``exit_code``, the exit code the CLI returns for it.
"""


class ChainCombineError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ValidationError(ChainCombineError):
    """Input data or arguments violate a documented precondition."""


class DimensionMismatch(ValidationError):
    """Array sizes disagree with the claimed (d, T, M) dimensions."""


class NonFiniteValue(ValidationError):
    """A NaN or infinity was found where finite reals are required."""


class DegenerateChain(ValidationError):
    """A chain (or component) has zero variance where spread is required."""


class NonPositiveBandwidth(ValidationError):
    """A kernel bandwidth was zero or negative."""


class InvalidGrid(ValidationError):
    """A density grid is not increasing, evenly spaced and >= 2 points long."""


class NonPositiveData(ValidationError):
    """Data values must be strictly positive for this model."""


class TooManyShards(ValidationError):
    """More shards requested than there are data rows."""


class FileMissing(ValidationError):
    """A file referenced by a manifest does not exist."""


class ParseError(ValidationError):
    """A matrix file could not be parsed; reports file, line and column."""


class NumericalError(ChainCombineError):
    """Linear algebra failed on a matrix built from the draws."""

    exit_code = 3


class SingularCovariance(NumericalError):
    """A covariance matrix is not positive definite, or it or its inverse
    is not finite."""


class NonConvergenceWarning(UserWarning):
    """An MCMC chain shows signs of poor mixing (acceptance rate off-target)."""
