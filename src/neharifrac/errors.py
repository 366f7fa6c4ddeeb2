"""Exception hierarchy shared by all modules."""

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


class SampleLengthMismatch(NehariError):
    pass


class GridMismatch(NehariError):
    pass


class NonpositiveT(NehariError):
    pass


class NonpositiveNorm(NehariError):
    pass


class NonpositiveK(NehariError):
    pass


class NoBracket(NehariError):
    pass


class NonpositiveS(NehariError):
    pass


class NonpositiveBSup(NehariError):
    pass


class NonpositiveLambda(NehariError):
    pass


class DirectionSearchFailed(NehariError):
    pass


class NoAdmissibleDirection(NehariError):
    pass


class NotConvergedInput(NehariError):
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
