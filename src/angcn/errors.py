"""Exception types raised by the public API.

Each class names a violated contract; messages carry the offending values.
"""


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateVector(ValueError):
    """A feature vector has zero variance, so correlation is undefined."""


class NonPositiveSigma(ValueError):
    """Kernel width must be strictly positive."""


class OutOfRange(ValueError):
    """A correlation entry lies outside the open interval (-1, 1)."""


class SingularSystem(ValueError):
    """The regularized normal equations are numerically singular."""


class BadEdge(ValueError):
    """An edge is out of range, repeated, or has a negative or non-finite weight;
    `row` is its index in the edge list the graph was built from."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class BudgetOutOfRange(ValueError):
    """Requested sample size is not in [1, n]."""


class EmptyStats(ValueError):
    """Aggregation statistics were accumulated over zero sampler runs."""


class EmptyLabeledSet(ValueError):
    """No labeled nodes were supplied to the loss."""


class TraceMismatch(ValueError):
    """A forward trace does not match the parameters it is paired with."""


class ClassTooSmall(ValueError):
    """A class has fewer members than the number of folds."""


class LengthMismatch(ValueError):
    """Paired vectors have different lengths."""


class SingleClass(ValueError):
    """Both a positive and a negative example are required."""


class NoPositives(ValueError):
    """At least one positive example is required."""


class ParseError(ValueError):
    """A data file could not be parsed; message carries line/column."""


class SchemaMismatch(ValueError):
    """A data file does not match its declared schema."""


class NonFiniteLoss(ValueError):
    """Training produced a NaN or infinite loss."""
