"""Exception hierarchy for the lacuna package.

Every error carries a stable ``kind`` string so that CLI consumers can
match on it without parsing prose messages.
"""

from __future__ import annotations


class LacunaError(Exception):
    """Base class for all package-specific failures."""

    kind = "error"

    def payload(self) -> dict:
        return {"error": self.kind, "message": str(self)}


class InvalidOrderError(LacunaError):
    kind = "invalid-order"


class InvalidSequenceError(LacunaError):
    kind = "invalid-sequence"


class InsufficientTermsError(LacunaError):
    kind = "insufficient-terms"


class AliasingError(LacunaError):
    kind = "aliasing"


class UndefinedRatioError(LacunaError):
    kind = "undefined-ratio"


class InvalidInputError(LacunaError):
    kind = "invalid-input"


class ResourceError(LacunaError):
    kind = "resource-limit"


class InvalidSupportError(LacunaError):
    kind = "invalid-support"


class BoundViolationError(LacunaError):
    kind = "bound-violation"


class InvalidRowError(LacunaError):
    kind = "invalid-row"


class UndefinedGradientError(LacunaError):
    kind = "undefined-gradient"


class InsufficientDataError(LacunaError):
    kind = "insufficient-data"

    def __init__(self, message: str, skipped: tuple = ()):
        super().__init__(message)
        self.skipped = skipped


class PreconditionError(LacunaError):
    kind = "precondition"
