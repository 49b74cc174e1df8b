"""Exception types shared across the package.

Everything user-visible derives from :class:`ExpansionError` so callers (and the
CLI) can catch one base class.  Improperness of a convergent is *not* an error
— it is reported as data (see :mod:`expansions.core`) — so there is no
exception for it here.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence


class ExpansionError(Exception):
    """Base class for all errors raised by this package."""


class PrecisionExhausted(ExpansionError):
    """A certified computation could not decide a predicate at the given precision.

    Raised e.g. when an interval straddles an integer and a floor is demanded,
    or when it straddles zero and a neutrality test is demanded.  The remedy is
    to retry with a larger precision budget.  Raised out of a coefficient
    code, it carries the failing ``level`` and the certified ``prefix``.
    """

    level: Optional[int] = None
    prefix: Sequence[Any] = ()


class DomainError(ExpansionError):
    """An input lies outside the domain of the requested operation or system."""


class TruncationInconclusive(ExpansionError):
    """A truncated series does not carry enough coefficients to answer the question.

    Distinct from :class:`PrecisionExhausted`: this is about *order* (number of
    stored coefficients), not numeric precision.  Raised out of a coefficient
    code, it carries the failing ``level`` and the certified ``prefix``.
    """

    level: Optional[int] = None
    prefix: Sequence[Any] = ()


class QuadratureFailure(ExpansionError):
    """Adaptive integration could not reach the requested tolerance."""


class SingularityOnPath(ExpansionError):
    """Path evaluation ran into (numerically) a singularity of the integrand."""


class ParseError(ExpansionError):
    """An expression could not be parsed.

    Attributes:
        position: 0-based index into the source string where parsing failed.
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedInContext(ExpansionError):
    """The operation is well-formed but not meaningful for this system/element kind."""
