"""Exception hierarchy.

Everything user-facing raises one of these; the CLI maps DomainError
subclasses to exit code 2 and ScaleExceeded to exit code 3.
"""


class PadharmError(Exception):
    pass


class DomainError(PadharmError):
    """Input is outside the mathematical domain of the operation."""


class UnsupportedPlace(DomainError):
    """p = 2, split quadratic algebras, and similar excluded settings."""


class UnsupportedConductor(DomainError):
    pass


class NotRegular(DomainError):
    pass


class NotRegularSemisimple(DomainError):
    pass


class NotInDomain(DomainError):
    pass


class NotAdmissible(DomainError):
    pass


class InvalidLevel(DomainError):
    pass


class SchemaError(DomainError):
    """Malformed configuration or serialized payload."""


class PoleAtEvaluationPoint(DomainError):
    """Evaluating a rational function at a pole; the message names the
    point and the pole's order."""


class ScaleExceeded(PadharmError):
    """An enumeration would exceed the configured work budget."""
