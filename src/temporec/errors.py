"""Exception types raised across the package.

Every error is a ``ValueError`` subclass so callers that do not care about
the distinction can catch the builtin. ``NumericalError`` subclasses mark
failures of the linear algebra / optimization layer rather than bad input.
"""


class TemporecError(ValueError):
    """Base class for all package-specific errors."""


# --- hierarchy construction ---

class HierarchyError(TemporecError):
    pass


class NotDecreasing(HierarchyError):
    """Frequency vector is not strictly decreasing."""


class NonDivisor(HierarchyError):
    """Some sampling interval does not divide the cycle length."""


class MissingBottom(HierarchyError):
    """Frequency vector does not end at interval 1."""


# --- joint-sample assembly ---

class SamplingError(TemporecError):
    pass


class MissingLevel(SamplingError):
    """Not exactly one sample matrix per hierarchy level."""


class ColumnMismatch(SamplingError):
    """Sample matrices disagree on the number of sample paths."""


class RowCountMismatch(SamplingError):
    """A sample matrix is not 2-D with its level's node count as rows."""


# --- weight matrices and reconciliation ---

class ReconcileError(TemporecError):
    pass


class LengthMismatch(ReconcileError):
    """Level-weight vector has the wrong length or a non-finite entry."""


class DimensionMismatch(ReconcileError):
    """Matrix shapes do not agree for reconciliation."""


# --- scoring ---

class ScoringError(TemporecError):
    pass


class EmptySample(ScoringError):
    """Score requested for an empty sample."""


class AlignmentError(ScoringError):
    """Forecasts and actuals do not line up."""


# --- simulation / model fitting ---

class SimkitError(TemporecError):
    pass


class TooShort(SimkitError):
    """Training series too short to fit a model."""


# --- CSV ingestion ---

class DataError(TemporecError):
    pass


class SchemaError(DataError):
    """Input file does not match the expected schema."""


class GapError(DataError):
    """Input series has missing periods."""


class NonMonotoneTimestamps(DataError):
    """Timestamps are duplicated or out of order."""


# --- numerical failures ---

class NumericalError(TemporecError):
    pass


class NonFinite(NumericalError):
    """Objective evaluated to NaN or infinity at every start point."""


class ConfigError(TemporecError):
    """Run configuration is invalid."""


class DidNotConverge(UserWarning):
    """Optimizer hit its iteration budget; best point so far is returned."""
