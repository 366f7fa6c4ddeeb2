"""The package's errors: one class per outcome a caller tells apart.

``cli.main`` maps them to exit codes: ConfigParseError to 2,
ValidationError and its violation kinds to 3, NoAdmissibleDirection to 4,
and every other NehariError to 1. A guard on a library function's
arguments that no command reaches raises the base NehariError; being a
ValueError, it is what a caller of the library would expect.
"""

from __future__ import annotations


class NehariError(ValueError):
    """Base class for every error raised by this package."""


class ValidationError(NehariError):
    """A problem description violates a structural assumption.

    ``violations`` holds every detected violation as ``(kind, message)``
    pairs; the raised subclass corresponds to the first one.
    """

    def __init__(self, message: str, violations: list[tuple[str, str]] | None = None):
        super().__init__(message)
        self.violations = violations or []


class InvalidExponent(ValidationError):
    pass


class InvalidOrder(ValidationError):
    pass


class WeightSignViolation(ValidationError):
    pass


class ZeroParameters(ValidationError):
    pass


class NoBracket(NehariError):
    pass


class NoAdmissibleDirection(NehariError):
    pass


class FirstColumnNotConverged(NehariError):
    pass


class InverseIterationNotConverged(NehariError):
    pass


class OutOfFloatRange(NehariError):
    """A computed quantity leaves the float range."""


class ConstantsOutOfRange(OutOfFloatRange):
    """A constant, closed-form or the embedding quotient S, leaves the
    float range."""


class AllMasked(NehariError):
    pass


class ConfigParseError(NehariError):
    pass
