"""Exception types shared across the package."""


class VardiagError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(VardiagError):
    """Matrix or series dimensions are inconsistent."""


class NotPositiveDefinite(VardiagError):
    """A matrix required to be symmetric positive definite is not."""


class InvalidModel(VardiagError):
    """Model violates stationarity or invertibility requirements."""


class UnknownModel(VardiagError):
    """Requested name is not in the built-in model catalog."""


class TooShort(VardiagError):
    """Series has too few observations for the requested operation."""


class SingularDesign(VardiagError):
    """Regression design is singular; normal equations cannot be solved."""


class DegenerateResiduals(VardiagError):
    """Residuals are unusable for autocovariance computation."""


class DegenerateDf(VardiagError):
    """Degrees of freedom are zero or negative."""


class NonFinitePath(VardiagError):
    """A simulated series overflowed to non-finite values."""


class ReplicateFailure(VardiagError):
    """A replicate chunk failed numerically; the message names its rows, seed and cause."""


class ParseError(VardiagError):
    """CSV content could not be parsed; the message carries row/column."""


class EmptyData(VardiagError):
    """CSV file contains no data rows."""
