"""Exception hierarchy shared across the package, and the integer check."""

from __future__ import annotations


class AkforgeError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(AkforgeError):
    """Argument outside the documented domain (negative s, d < 1, ...)."""


class PolySyntaxError(AkforgeError):
    """Malformed polynomial text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NegativeExponent(PolySyntaxError):
    """Exponent after '^' was negative."""


class MismatchedContract(AkforgeError):
    """A series window's weights or cutoff do not fit the certificate asked for.

    Raised only by series.newton_ak_certify.
    """


class PreconditionViolated(AkforgeError):
    """An input missed a condition that a computation assumes.

    ``invert_change`` raises it for a coordinate change with a constant or
    degree-1 term, and the three Milnor oracles for a germ with a nonzero
    constant term.
    """


class IdentityViolation(AkforgeError):
    """An exact polynomial identity failed; carries the symbolic difference."""

    def __init__(self, message: str, difference=None):
        super().__init__(message)
        self.difference = difference


class CertificationFailed(AkforgeError):
    """Newton-segment certification rejected; carries the certificate."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class WindowTooSmall(AkforgeError):
    """Series cutoff does not cover the segment inspection window."""


class NotACriticalGerm(AkforgeError):
    """Input has a nonzero constant or (for corank) linear part at the origin."""


class NonIsolated(AkforgeError):
    """The two partial derivatives share a factor; no finite Milnor number."""


class GenericityFailure(AkforgeError):
    """All sheared resultant attempts failed the genericity checks."""


class BudgetExceeded(AkforgeError):
    """An exact computation outgrew its fixed size budget; no verdict was reached."""


def require_int(value, what: str, least: int) -> None:
    """Raise InvalidInput unless ``value`` is an int no smaller than ``least``.

    bool is rejected although it subclasses int: True is no count or index.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InvalidInput(f"{what} must be an integer >= {least}, got {value!r}")
