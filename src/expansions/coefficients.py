"""Coefficient-space values shared by several systems.

Coefficient spaces in this package are concrete Python values: plain ``int``
digits, ``Fraction`` amplitudes, pairs, or the small records defined here.  Two
extras are needed beyond stdlib types:

* extended integers — several systems emit "infinity" as the coefficient of a
  neutral tail (continued fractions, unit-fraction systems), so ``INF`` is
  totally ordered against ``int``/``Fraction``;
* exact Gaussian rationals (:class:`ComplexRational`) for trigonometric
  polynomial amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Optional, Union


@total_ordering
class _Infinity:
    """Infinity, above every ``int`` and ``Fraction``.

    Only the module-level singleton ``INF`` exists; equality is identity, and
    ``>``, ``<=`` and ``>=`` follow from ``<`` and it.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"

    def __str__(self) -> str:
        return "inf"

    def __lt__(self, other: object) -> bool:
        if isinstance(other, (_Infinity, int, Fraction)):
            return False
        return NotImplemented


INF = _Infinity()

ExtendedInt = Union[int, _Infinity]


def is_infinite(value: object) -> bool:
    """True iff ``value`` is ``INF``."""
    return isinstance(value, _Infinity)


@dataclass(frozen=True)
class ASCoef:
    """Coefficient emitted by an approximation system.

    Attributes:
        c: leading coefficient of the transformed element.
        m: its multiplicity (index of the leading term); ``INF`` on the
            neutral branch.
        b: derivative of the element at the expansion point, set exactly
            for the ``KD`` transform and ``None`` for ``D`` and ``K``.
    """

    c: Fraction
    m: ExtendedInt
    b: Optional[Fraction] = None


@dataclass(frozen=True)
class ComplexRational:
    """Exact Gaussian rational ``re + im*i``."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: object, im: object = 0) -> "ComplexRational":
        return ComplexRational(Fraction(re), Fraction(im))

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "ComplexRational") -> "ComplexRational":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero complex rational")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.im > 0:
            return f"{self.re}+{self.im} i"
        return f"{self.re}-{-self.im} i"


CZERO = ComplexRational(Fraction(0), Fraction(0))
CONE = ComplexRational(Fraction(1), Fraction(0))
