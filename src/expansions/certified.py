"""Certified real arithmetic on closed intervals with exact rational endpoints.

An :class:`Interval` encloses one real number.  It holds its two endpoints
as unreduced fractions ``n0/e0`` and ``n1/e1`` with positive denominators.
An exact ``+ - * /`` with an ``int`` or ``Fraction`` (on either side),
negation and the reciprocal of an interval of certified sign map both
fractions by one integer Möbius map ``(al*y + be) / (ga*y + de)`` whose
denominator is positive on the interval (Gosper, HAKMEM item 101), so each
digit step on a remainder (``b*y - d``, ``1/y - q``, ``y - 1/q``,
``q*y - 1``) is a few integer products and no gcd.  Arithmetic between two
intervals, ``**`` and ``abs`` run on the reduced endpoints.  Field
operations are exact (endpoints stay rational, enclosures never silently
widen).  Predicates decide from the two fractions by integer ``//`` and
signs.  Irrational constructors (:func:`sqrt_interval`, :func:`pi_interval`,
:func:`e_interval`) take an explicit ``bits`` budget, at most
:data:`MAX_BITS`, and return a dyadic enclosure of width at most
``2**-bits``; pi and e are integer fixed-point sums whose terms are exact
floors, widened by their counted ulp error (number of terms + 2).
Predicates either answer with certainty or raise
:class:`~expansions.errors.PrecisionExhausted` — they never guess — and are
Python's numeric protocol (``math.floor``, ``math.ceil``, ``<``, ``>``,
truth as certified nonzero), so code written for ``Fraction`` runs on
enclosures unchanged.  ``==`` is structural; certified equality is
``not (a - b)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple

from .errors import DomainError, PrecisionExhausted

_ZERO = Fraction(0)

#: the largest ``bits`` budget an irrational constructor accepts; pi at this
#: budget already takes minutes
MAX_BITS = 1 << 20


def _exact_parts(value: object) -> Optional[Tuple[int, int]]:
    """``(numerator, denominator)`` of an exact ``int`` or ``Fraction``, else ``None``."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    return None


class Interval:
    """Closed interval ``[lo, hi]`` with exact ``Fraction`` endpoints.

    The endpoints are held as the two unreduced fractions ``n0/e0`` and
    ``n1/e1`` with ``e0, e1 > 0``, in either order: a Möbius step maps each
    one to its image, and a decreasing map swaps them.  ``lo`` and ``hi``
    are their reduced ``Fraction``s in increasing order, computed on first
    read and kept.

    Certified operators ``math.floor``, ``math.ceil``, ``<``, ``>`` and
    ``bool`` (nonzero) call :meth:`floor`, :meth:`ceil`, :meth:`lt` and
    :meth:`sign`, which decide from the two fractions by integer ``//`` and
    signs.  ``==``, ``hash``, ``str`` and ``repr`` are those of the pair
    ``(lo, hi)``: ``==`` compares endpoints, not enclosed numbers.
    """

    __slots__ = ("_ends", "_bounds")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        self._ends = (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
        self._bounds: Optional[Tuple[Fraction, Fraction]] = (lo, hi)

    @staticmethod
    def exact(value: object) -> "Interval":
        f = Fraction(value)
        return Interval(f, f)

    def _compose(self, al: int, be: int, ga: int, de: int) -> "Interval":
        """``(al*y + be) / (ga*y + de)`` of this interval ``y``; the caller
        keeps ``ga*y + de`` positive on it, so the images' denominators stay
        positive."""
        n0, e0, n1, e1 = self._ends
        out = Interval.__new__(Interval)
        out._ends = (al * n0 + be * e0, ga * n0 + de * e0, al * n1 + be * e1, ga * n1 + de * e1)
        out._bounds = None
        return out

    # -- queries ---------------------------------------------------------

    def _lo_hi(self) -> Tuple[Fraction, Fraction]:
        if self._bounds is None:
            n0, e0, n1, e1 = self._ends
            u, v = Fraction(n0, e0), Fraction(n1, e1)
            self._bounds = (u, v) if u <= v else (v, u)
        return self._bounds

    @property
    def lo(self) -> Fraction:
        return self._lo_hi()[0]

    @property
    def hi(self) -> Fraction:
        return self._lo_hi()[1]

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    # -- arithmetic (exact, never widens beyond the true image) ----------
    # with an exact number: one Möbius step; with an interval: the endpoints

    def __add__(self, other: object) -> "Interval":
        parts = _exact_parts(other)
        if parts is not None:
            u, v = parts
            return self._compose(v, u, 0, v)
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return self._compose(-1, 0, 0, 1)

    def __sub__(self, other: object) -> "Interval":
        parts = _exact_parts(other)
        if parts is not None:
            u, v = parts
            return self._compose(v, -u, 0, v)
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other: object) -> "Interval":
        parts = _exact_parts(other)
        if parts is None:
            return NotImplemented
        u, v = parts
        return self._compose(-v, u, 0, v)

    def __mul__(self, other: object) -> "Interval":
        parts = _exact_parts(other)
        if parts is not None:
            u, v = parts
            return self._compose(u, 0, 0, v)
        if not isinstance(other, Interval):
            return NotImplemented
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "Interval":
        n0, _, n1, _ = self._ends
        if n0 > 0 and n1 > 0:
            return self._compose(0, 1, 1, 0)
        if n0 < 0 and n1 < 0:
            return self._compose(0, -1, -1, 0)
        if n0 == 0 == n1:
            raise ZeroDivisionError("reciprocal of exact zero")
        raise PrecisionExhausted(
            f"cannot invert interval straddling zero: [{self.lo}, {self.hi}]"
        )

    def __truediv__(self, other: object) -> "Interval":
        parts = _exact_parts(other)
        if parts is None:
            if not isinstance(other, Interval):
                return NotImplemented
            return self * other.reciprocal()
        u, v = parts
        if u == 0:
            raise ZeroDivisionError("reciprocal of exact zero")
        return self._compose(v, 0, 0, u) if u > 0 else self._compose(-v, 0, 0, -u)

    def __rtruediv__(self, other: object) -> "Interval":
        if _exact_parts(other) is None:
            return NotImplemented
        inverse = self.reciprocal()
        return inverse if other == 1 else inverse * other

    def __pow__(self, n: int) -> "Interval":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (self ** (-n)).reciprocal()
        if n == 0:
            return Interval.exact(1)
        lo, hi = self._lo_hi()
        a, b = lo ** n, hi ** n
        if n % 2 == 0 and lo < 0 < hi:
            return Interval(_ZERO, max(a, b))
        return Interval(min(a, b), max(a, b))

    def abs(self) -> "Interval":
        lo, hi = self._lo_hi()
        if lo >= 0:
            return Interval(lo, hi)
        if hi <= 0:
            return Interval(-hi, -lo)
        return Interval(_ZERO, max(-lo, hi))

    # -- certified predicates, from the two fractions ---------------------

    def sign(self) -> int:
        """Certified sign (-1, 0, +1) of the enclosed number."""
        n0, _, n1, _ = self._ends
        if n0 > 0 and n1 > 0:
            return 1
        if n0 < 0 and n1 < 0:
            return -1
        if n0 == 0 == n1:
            return 0
        raise PrecisionExhausted(
            f"sign undecidable on [{self.lo}, {self.hi}]"
        )

    def floor(self) -> int:
        n0, e0, n1, e1 = self._ends
        f = n0 // e0
        if f == n1 // e1:
            return f
        raise PrecisionExhausted(
            f"floor undecidable on [{self.lo}, {self.hi}]"
        )

    def ceil(self) -> int:
        n0, e0, n1, e1 = self._ends
        f = -(-n0 // e0)
        if f == -(-n1 // e1):
            return f
        raise PrecisionExhausted(
            f"ceiling undecidable on [{self.lo}, {self.hi}]"
        )

    def _offsets(self, u: int, v: int) -> Tuple[int, int]:
        """Numerators of ``n0/e0 - u/v`` and ``n1/e1 - u/v`` for ``v > 0``:
        their signs are those of the differences."""
        n0, e0, n1, e1 = self._ends
        return n0 * v - u * e0, n1 * v - u * e1

    def lt(self, other: object) -> bool:
        """Certified ``self < other``; raises if the enclosures overlap."""
        parts = _exact_parts(other)
        if parts is not None:
            s0, s1 = self._offsets(*parts)
            if s0 < 0 and s1 < 0:
                return True
            if s0 >= 0 and s1 >= 0:
                return False
            other = Interval.exact(other)
        elif self.hi < other.lo:
            return True
        elif self.lo >= other.hi:
            return False
        raise PrecisionExhausted(
            f"order of [{self.lo}, {self.hi}] and [{other.lo}, {other.hi}] undecidable"
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
        if isinstance(other, Interval):
            return other.lt(self)
        parts = _exact_parts(other)
        if parts is None:
            return NotImplemented
        # True when wholly above, False when wholly at or below
        s0, s1 = self._offsets(*parts)
        if s0 > 0 and s1 > 0:
            return True
        if s0 <= 0 and s1 <= 0:
            return False
        return Interval.exact(other).lt(self)  # raises, naming both enclosures

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self._lo_hi() == other._lo_hi()

    def __hash__(self) -> int:
        return hash(self._lo_hi())

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


def _check_bits(bits: int) -> None:
    """Refuse a budget below 1 or above :data:`MAX_BITS`, before any work."""
    if bits < 1:
        raise DomainError(f"bits must be positive, got {bits}")
    if bits > MAX_BITS:
        raise DomainError(f"bits must be at most {MAX_BITS}, got {bits}")


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
    _check_bits(bits)
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
    _check_bits(bits)
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
    _check_bits(bits)
    prec, total, k = bits + bits.bit_length() + 16, 0, 0
    term = 1 << prec
    while term:
        total, k = total + term, k + 1
        term //= k
    return _fixed_point(total, k, prec, bits)
