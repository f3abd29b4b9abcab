"""Exception hierarchy shared by all triplelines modules."""


class TripleLinesError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeCharacteristic(TripleLinesError):
    pass


class ReducibleModulus(TripleLinesError):
    pass


class DegreeMismatch(TripleLinesError):
    pass


class DivisionByZero(TripleLinesError):
    pass


class FieldMismatch(TripleLinesError):
    pass


class ZeroPolynomial(TripleLinesError):
    pass


class IdenticalArguments(TripleLinesError):
    pass


class IndexOutOfRange(TripleLinesError):
    pass


class UnknownLabel(TripleLinesError):
    pass


class FieldTooLarge(TripleLinesError):
    pass


class UnsolvedAssignment(TripleLinesError):
    pass


class IneligibleField(TripleLinesError):
    pass


class UnknownName(TripleLinesError):
    pass


class NonPrime(TripleLinesError):
    pass


class UnsupportedPrime(TripleLinesError):
    pass
