"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for all domain errors raised by this package."""


class NonPrimeError(AlgebraError):
    """A claimed prime characteristic is composite."""


class SizeCapError(AlgebraError):
    """A field or enumeration would exceed the configured size cap."""


class NotIrreducibleError(AlgebraError):
    """A polynomial required to be irreducible is not."""


class CtxMismatchError(AlgebraError):
    """Operands belong to incompatible fields."""


class ConstantInputError(AlgebraError):
    """A polynomial of degree >= 1 was required."""


class IdentityInputError(AlgebraError):
    """The identity transformation is not admissible here."""


class NotInGroupError(AlgebraError):
    """An element was expected to lie in the given subgroup."""


class TrivialGroupError(AlgebraError):
    """The trivial group has no invariant generator."""


class PoleError(AlgebraError):
    """A rational function was evaluated at a pole where a value was required."""


class WrongOrderError(AlgebraError):
    """The transformation does not have the order required by this operation."""


class InvariantViolation(AlgebraError):
    """An internal consistency assertion failed; indicates a bug or bad input."""


class UsageError(AlgebraError):
    """Bad command-line arguments."""
