"""Exception types shared across the package."""


class OuCausalError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(OuCausalError):
    """Shapes or sizes of inputs are inconsistent."""


class NonFiniteError(OuCausalError):
    """An input contains NaN or infinite entries."""


class SingularMatrixError(OuCausalError):
    """A pivot fell below the scale-aware threshold during elimination."""


class NotSymmetricError(OuCausalError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefiniteError(OuCausalError):
    """A Cholesky pivot fell below the scale-aware threshold."""


class BadCoordinateError(OuCausalError):
    """A 1-based coordinate index is outside the model's range."""


class DuplicateInterventionError(OuCausalError):
    """The same original coordinate was pinned more than once."""


class SingularReducedMatrixError(OuCausalError):
    """Deleting the pinned row and column left a non-invertible mean-reversion block.

    The reduced mean-reversion level is only defined when that block is
    invertible; no pseudo-inverse convention is applied.
    """

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message)
        self.stage = stage


class NoStationaryDistributionError(OuCausalError):
    """The model has no stationary distribution (or existence is undecided)."""


class PreconditionError(OuCausalError):
    """An argument violates a documented precondition."""


class TooLargeError(OuCausalError):
    """Submatrix enumeration would exceed the subset budget."""


class EmptyGridError(OuCausalError):
    """A time grid contains no points."""


class NonPositiveStepError(OuCausalError):
    """A time grid is not strictly increasing."""


class SimulationOverflowError(OuCausalError):
    """Simulated paths left the float64 range: the model diverges over the horizon."""


class ModelFileError(OuCausalError):
    """A model document does not conform to the JSON schema."""
