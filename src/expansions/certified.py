"""Certified real arithmetic on closed intervals with exact rational endpoints.

An :class:`Interval` encloses one real number.  Field operations are exact
(endpoints stay rational, enclosures never silently widen); a product with an
exact scalar or a point takes two endpoint products ordered by the scalar's
sign.  Irrational constructors (:func:`sqrt_interval`, :func:`pi_interval`,
:func:`e_interval`) take an explicit ``bits`` budget and return a dyadic
enclosure of width at most ``2**-bits``; pi and e are integer fixed-point
sums whose terms are exact floors, widened by their counted ulp error
(number of terms + 2).  Predicates either answer with certainty or raise
:class:`~expansions.errors.PrecisionExhausted` — they never guess — and are
Python's numeric protocol (``math.floor``, ``math.ceil``, ``<``, ``>``, truth
as certified nonzero), so code written for ``Fraction`` runs on enclosures
unchanged.  ``==`` is structural; certified equality is ``not (a - b)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PrecisionExhausted

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Interval:
    """Closed interval ``[lo, hi]`` with exact ``Fraction`` endpoints.

    Certified operators ``math.floor``, ``math.ceil``, ``<``, ``>`` and
    ``bool`` (nonzero) call :meth:`floor`, :meth:`ceil`, :meth:`lt` and
    :meth:`sign`.  ``==`` compares endpoints, not enclosed numbers.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @staticmethod
    def exact(value: object) -> "Interval":
        f = Fraction(value)
        return Interval(f, f)

    # -- queries ---------------------------------------------------------

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    # -- arithmetic (exact, never widens beyond the true image) ----------

    def _coerce(self, other: object) -> "Interval":
        if isinstance(other, Interval):
            return other
        if isinstance(other, (int, Fraction)):
            return Interval.exact(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object) -> "Interval":
        if isinstance(other, (int, Fraction)):
            return Interval(self.lo + other, self.hi + other)
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: object) -> "Interval":
        if isinstance(other, (int, Fraction)):
            return Interval(self.lo - other, self.hi - other)
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other: object) -> "Interval":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Interval(other - self.hi, other - self.lo)

    def _scale(self, s: Fraction) -> "Interval":
        """``self * s`` for an exact scalar: two products, ordered by its sign."""
        if s < 0:
            return Interval(self.hi * s, self.lo * s)
        return Interval(self.lo * s, self.hi * s)

    def __mul__(self, other: object) -> "Interval":
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, Interval):
            return NotImplemented
        if other.lo == other.hi:
            return self._scale(other.lo)
        if self.lo == self.hi:
            return other._scale(self.lo)
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            if self.lo == 0 == self.hi:
                raise ZeroDivisionError("reciprocal of exact zero")
            raise PrecisionExhausted(
                f"cannot invert interval straddling zero: [{self.lo}, {self.hi}]"
            )
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other: object) -> "Interval":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other: object) -> "Interval":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, n: int) -> "Interval":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (self ** (-n)).reciprocal()
        if n == 0:
            return Interval.exact(1)
        a, b = self.lo ** n, self.hi ** n
        if n % 2 == 0 and self.lo < 0 < self.hi:
            return Interval(_ZERO, max(a, b))
        return Interval(min(a, b), max(a, b))

    def abs(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(_ZERO, max(-self.lo, self.hi))

    # -- certified predicates --------------------------------------------

    def sign(self) -> int:
        """Certified sign (-1, 0, +1) of the enclosed number."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == 0 == self.hi:
            return 0
        raise PrecisionExhausted(
            f"sign undecidable on [{self.lo}, {self.hi}]"
        )

    def floor(self) -> int:
        fl, fh = math.floor(self.lo), math.floor(self.hi)
        if fl == fh:
            return fl
        raise PrecisionExhausted(
            f"floor undecidable on [{self.lo}, {self.hi}]"
        )

    def ceil(self) -> int:
        cl, ch = math.ceil(self.lo), math.ceil(self.hi)
        if cl == ch:
            return cl
        raise PrecisionExhausted(
            f"ceiling undecidable on [{self.lo}, {self.hi}]"
        )

    def lt(self, other: object) -> bool:
        """Certified ``self < other``; raises if the enclosures overlap."""
        o = self._coerce(other)
        if self.hi < o.lo:
            return True
        if self.lo >= o.hi:
            return False
        raise PrecisionExhausted(
            f"order of [{self.lo}, {self.hi}] and [{o.lo}, {o.hi}] undecidable"
        )

    def __bool__(self) -> bool:
        return self.sign() != 0

    def __floor__(self) -> int:
        return self.floor()

    def __ceil__(self) -> int:
        return self.ceil()

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, (Interval, int, Fraction)):
            return NotImplemented
        return self.lt(other)

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, (Interval, int, Fraction)):
            return NotImplemented
        return self._coerce(other).lt(self)

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


def _dyadicize(lo: Fraction, hi: Fraction, bits: int) -> Interval:
    """Round outward to the dyadic grid with step ``2**-bits``."""
    scale = 1 << bits
    lo_d = Fraction(math.floor(lo * scale), scale)
    hi_d = Fraction(math.ceil(hi * scale), scale)
    return Interval(lo_d, hi_d)


def sqrt_interval(value: object, bits: int) -> Interval:
    """Enclosure of ``sqrt(value)`` of width at most ``2**-bits``.

    Exact (width 0) when ``value`` is the square of a rational.
    """
    q = Fraction(value)
    if q < 0:
        raise DomainError(f"sqrt of negative value {q}")
    if q == 0:
        return Interval.exact(0)
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Interval.exact(Fraction(rn, rd))
    if bits < 1:
        raise DomainError(f"bits must be positive, got {bits}")
    # isqrt of the numerator of q scaled by 4**bits gives a one-ulp bracket
    # of sqrt(q) * 2**bits.
    scaled = q.numerator * (1 << (2 * bits)) // q.denominator
    s = math.isqrt(scaled)
    denom = 1 << bits
    return Interval(Fraction(s, denom), Fraction(s + 1, denom))


def _fixed_point(total: int, terms: int, prec: int, bits: int) -> Interval:
    """``total / 2**prec`` widened by ``terms + 2`` ulps, then ``_dyadicize``d."""
    ulp = Fraction(1, 1 << prec)
    return _dyadicize((total - terms - 2) * ulp, (total + terms + 2) * ulp, bits + 2)


def pi_interval(bits: int) -> Interval:
    """Enclosure of pi of width at most ``2**-bits``: Machin's formula
    ``16 atan(1/5) - 4 atan(1/239)`` summed in integer fixed point.

    Each term is an exact floor (a floor of a floor is the floor of the
    quotient) and each tail is below one ulp, so the sum is off by fewer
    than (number of terms + 2) ulps.
    """
    if bits < 1:
        raise DomainError(f"bits must be positive, got {bits}")
    prec, total, terms = bits + bits.bit_length() + 16, 0, 0
    for x, weight, sign in ((5, 16, 1), (239, 4, -1)):
        power, k = (weight << prec) // x, 0
        while power:
            total += sign * (power // (2 * k + 1))
            sign, power, k = -sign, power // (x * x), k + 1
        terms += k
    return _fixed_point(total, terms, prec, bits)


def e_interval(bits: int) -> Interval:
    """Enclosure of e of width at most ``2**-bits``: ``sum 1/k!`` in integer
    fixed point, each term the exact floor of ``2**prec / k!`` and the tail
    below 2 ulps, so off by fewer than (number of terms + 2) ulps."""
    if bits < 1:
        raise DomainError(f"bits must be positive, got {bits}")
    prec, total, k = bits + bits.bit_length() + 16, 0, 0
    term = 1 << prec
    while term:
        total, k = total + term, k + 1
        term //= k
    return _fixed_point(total, k, prec, bits)
