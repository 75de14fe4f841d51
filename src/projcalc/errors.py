"""Exception types shared across the package."""


class ProjcalcError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(ProjcalcError):
    """Two vectors (or a vector and a space) disagree on dimension or space."""


class DegenerateInputError(ProjcalcError):
    """An operation received an input at or below the zero threshold."""


class UnsupportedSetError(ProjcalcError):
    """The requested operation is not defined for this set variant."""


class NotOnBoundaryError(ProjcalcError):
    """A boundary-only operation was called at a non-boundary point."""


class NoDerivativeError(ProjcalcError):
    """No Frechet derivative exists at the queried point."""


class PreconditionError(ProjcalcError, ValueError):
    """A documented operation precondition was violated."""


class NonFiniteError(ProjcalcError, ValueError):
    """A coordinate, or a norm computed from finite coordinates, is not finite."""


class InvalidSetError(ProjcalcError, ValueError):
    """A set's parameters are invalid: a radius outside (0, inf) or an empty mask."""
