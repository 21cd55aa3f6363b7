"""Exception hierarchy for domain and numerical failures."""


class AlphaProcError(Exception):
    """Base class for all library errors."""


class NonFiniteError(AlphaProcError):
    """A NaN or infinite value, in an input or in an intermediate that overflows."""


class ConvergenceFailureError(AlphaProcError):
    """The symmetric eigensolver failed to converge."""


class SingularBaseError(AlphaProcError):
    """Operation requires a strictly positive definite matrix."""


class NotPsdError(AlphaProcError):
    """Matrix has an eigenvalue below the negative clamping tolerance."""


class DomainError(AlphaProcError):
    """Scalar function or parameter outside its admissible domain."""


class DimensionError(AlphaProcError):
    """Mismatched or invalid dimensions."""


class NumericalInconsistencyError(AlphaProcError):
    """Roundoff exceeded the documented clamping threshold."""


class NonSpdIntermediateError(AlphaProcError):
    """An intermediate matrix expected to be SPD failed the positivity check."""
