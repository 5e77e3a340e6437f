"""Exception hierarchy for the gridnull package.

Every error raised by the library derives from GridNullError, so callers can
catch library failures with one except clause.  The subclasses mirror the
operation contracts; all carry plain-text messages.
"""


class GridNullError(Exception):
    """Base class for all gridnull errors."""


class ParseError(GridNullError):
    """Malformed textual input; records the offending position when known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariable(ParseError):
    """A variable token outside the declared variable range."""


class NonPrimeModulus(GridNullError):
    """The characteristic parameter is not a prime number."""


class ReducibleModulus(GridNullError):
    """The supplied extension modulus factors over the prime field."""


class UnsupportedDegree(GridNullError):
    """Extension degree outside the supported construction range."""


class DivisionByZero(GridNullError, ZeroDivisionError):
    """Inversion or division with a zero operand."""


class MixedFields(GridNullError):
    """Operands belong to different field contexts."""


class InfiniteField(GridNullError):
    """A finite-field-only operation was applied to the rationals."""


class NotExtensionField(GridNullError):
    """A proper extension field is required."""


class NotPrimeField(GridNullError):
    """A prime field is required."""


class EmptySet(GridNullError):
    """Finite sets must contain at least one element."""


class DimensionMismatch(GridNullError):
    """Tuple length disagrees with the declared number of variables."""


class ExponentOutOfRange(GridNullError):
    """A requested exponent exceeds its per-factor limit."""


class OrderDoesNotDivide(GridNullError):
    """The requested subgroup order does not divide the unit-group order."""


class ZeroShift(GridNullError):
    """Multiplicative translates require a nonzero shift."""


class CharacteristicZero(GridNullError):
    """Additive spans require positive characteristic."""


class EmptyFactorList(GridNullError):
    """Grids need at least one factor."""


class PointNotOnGrid(GridNullError):
    """A coordinate falls outside its factor set."""


class SizeBoundExceeded(GridNullError):
    """An input exceeds a size bound: an oracle's, or a polynomial product's term pairs."""


class FieldNotRationals(GridNullError):
    """A rationals-only oracle was applied to another field."""


class ScanTooLarge(GridNullError):
    """An exhaustive scan exceeds its configured size cap."""


class EvenQ(GridNullError):
    """The subset classification scan is defined for odd field orders only."""


class DegreeBoundViolated(GridNullError):
    """Total degree exceeds the bound required by the operation."""


class SingletonFactor(GridNullError):
    """Interpolation requires every factor to have at least two points."""


class MissingValue(GridNullError):
    """A value table does not cover every grid point."""


class LambdaExceedsNullity(GridNullError):
    """The requested degree cap exceeds the joint nullity of the grid."""


class PreconditionViolated(GridNullError, ValueError):
    """An engine hypothesis does not hold for the given input."""


class ZeroVector(GridNullError):
    """Plane coefficient vectors must be nonzero."""
