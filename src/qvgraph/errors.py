"""Exception types shared across the package."""


class QvgraphError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QvgraphError, ValueError):
    """A value lies outside the admissible domain of a family operation."""


class SupportViolationError(DomainError):
    """A data or latent value violates its support.

    Carries an optional 1-based (row, column) location so ingestion errors
    can name the offending cell.
    """

    def __init__(self, message, row=None, column=None):
        if row is not None and column is not None:
            message = f"{message} (row {row}, column {column})"
        super().__init__(message)
        self.row = row
        self.column = column


class InfiniteVarianceError(QvgraphError, ValueError):
    """Moment request in a regime where the marginal variance is infinite."""


class SingularModelError(QvgraphError, ValueError):
    """The implied correlation structure is numerically singular."""


class GridConvergenceError(QvgraphError, RuntimeError):
    """A numeric CDF grid failed to capture the required probability mass."""


class EnumerationOverflowError(QvgraphError, RuntimeError):
    """Adaptive enumeration of a discrete conditional exceeded the state cap."""


class ChainError(QvgraphError, RuntimeError):
    """A Markov chain aborted; carries the chain index and sweep number."""

    def __init__(self, message, chain=None, sweep=None):
        super().__init__(message)
        self.chain = chain
        self.sweep = sweep


class DataFormatError(QvgraphError, ValueError):
    """A data or configuration file could not be read or parsed."""


class ManifestError(QvgraphError, ValueError):
    """A persisted samples directory has a missing or incompatible manifest."""
