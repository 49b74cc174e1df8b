"""Certified real arithmetic on closed intervals with exact rational endpoints.

An :class:`Interval` encloses one real number.  Field operations are exact
(endpoints stay rational, enclosures never silently widen); a product with an
exact scalar or a point takes two endpoint products ordered by the scalar's
sign.  Irrational constructors (:func:`sqrt_interval`, :func:`pi_interval`,
:func:`e_interval`) take an explicit ``bits`` budget, at most
:data:`MAX_BITS`, and return a dyadic enclosure of width at most
``2**-bits``; pi and e are integer fixed-point sums whose terms are exact
floors, widened by their counted ulp error (number of terms + 2).
Predicates either answer with certainty or raise
:class:`~expansions.errors.PrecisionExhausted` — they never guess — and are
Python's numeric protocol (``math.floor``, ``math.ceil``, ``<``, ``>``, truth
as certified nonzero), so code written for ``Fraction`` runs on enclosures
unchanged.  ``==`` is structural; certified equality is ``not (a - b)``.

A :class:`MobiusInterval` is the image of one input enclosure under an
integer Möbius map ``(a*p + b) / (c*p + d)``.  It speaks the same protocol,
but arithmetic with an exact number updates the four integers instead of
building two reduced ``Fraction`` endpoints, and its predicates read the two
endpoint images by integer ``//`` and signs.  Its :meth:`~MobiusInterval.enclosure`
is the ``Interval`` that the same exact operations on the input enclosure
give, which is what anything else falls back to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import DomainError, PrecisionExhausted

_ZERO = Fraction(0)

#: the largest ``bits`` budget an irrational constructor accepts; pi at this
#: budget already takes minutes
MAX_BITS = 1 << 20


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


def _exact_parts(value: object) -> Optional[Tuple[int, int]]:
    """``(numerator, denominator)`` of an exact ``int`` or ``Fraction``, else ``None``."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    return None


def _as_interval(value: object) -> object:
    return value.enclosure() if isinstance(value, MobiusInterval) else value


class MobiusInterval:
    """The remainder ``(a*p + b) / (c*p + d)`` of an input enclosure, for the
    integer ``p`` ranging over ``[p0, p1]``.

    The input ``x`` lies in ``[p0/D, p1/D]``, and the denominator ``D`` is
    folded into the integer matrix ``[[a, b], [c, d]]``.  Every digit step on
    ``[0, 1)`` (``b*y - d``, ``1/y - q``, ``y - 1/q``, ``q*y - 1``) is a
    Möbius map of the remainder, so arithmetic with an exact ``int`` or
    ``Fraction`` composes one small integer matrix onto this one (Gosper,
    HAKMEM item 101), and ``c*p + d`` stays positive on ``[p0, p1]``.  The map
    is monotone there, so the image of the enclosure is spanned by the two
    endpoint images ``n0/e0`` and ``n1/e1``; ``math.floor``, ``math.ceil``,
    ``<``, ``>`` and truth are decided from them by integer ``//`` and signs.
    Once computed, the images are carried through each later step by the same
    small matrix.  :meth:`enclosure` is the ``Interval`` of that
    image, so these answers, and the ``PrecisionExhausted`` messages, are those
    of the ``Interval`` the same steps would have built.  Any other operation,
    ``==`` included, runs on :meth:`enclosure`.
    """

    __slots__ = ("a", "b", "c", "d", "p0", "p1", "_ends")

    def __init__(self, a: int, b: int, c: int, d: int, p0: int, p1: int) -> None:
        self.a, self.b, self.c, self.d = a, b, c, d
        self.p0, self.p1 = p0, p1
        self._ends: tuple = ()

    @staticmethod
    def of(enclosure: Interval) -> "MobiusInterval":
        """The identity map on ``enclosure``, over its endpoints' common denominator."""
        lo, hi = enclosure.lo, enclosure.hi
        den = lo.denominator // math.gcd(lo.denominator, hi.denominator) * hi.denominator
        return MobiusInterval(1, 0, 0, den, lo.numerator * (den // lo.denominator),
                              hi.numerator * (den // hi.denominator))

    def ends(self) -> tuple:
        """``(n0, e0, n1, e1)``: the endpoint images ``n0/e0`` and ``n1/e1``."""
        if not self._ends:
            a, b, c, d, p0, p1 = self.a, self.b, self.c, self.d, self.p0, self.p1
            self._ends = (a * p0 + b, c * p0 + d, a * p1 + b, c * p1 + d)
        return self._ends

    def enclosure(self) -> Interval:
        n0, e0, n1, e1 = self.ends()
        u, v = Fraction(n0, e0), Fraction(n1, e1)
        return Interval(u, v) if u <= v else Interval(v, u)

    def _compose(self, al: int, be: int, ga: int, de: int) -> "MobiusInterval":
        """``(al*y + be) / (ga*y + de)`` of this remainder ``y``; the caller
        keeps ``ga*y + de`` positive on the enclosure."""
        a, b, c, d = self.a, self.b, self.c, self.d
        out = MobiusInterval(al * a + be * c, al * b + be * d, ga * a + de * c,
                             ga * b + de * d, self.p0, self.p1)
        if self._ends:
            n0, e0, n1, e1 = self._ends
            out._ends = (al * n0 + be * e0, ga * n0 + de * e0,
                         al * n1 + be * e1, ga * n1 + de * e1)
        return out

    # -- arithmetic with exact numbers: one matrix step each ---------------

    def __add__(self, other: object) -> object:
        parts = _exact_parts(other)
        if parts is None:
            return self.enclosure() + _as_interval(other)
        u, v = parts
        return self._compose(v, u, 0, v)

    __radd__ = __add__

    def __sub__(self, other: object) -> object:
        parts = _exact_parts(other)
        if parts is None:
            return self.enclosure() - _as_interval(other)
        u, v = parts
        return self._compose(v, -u, 0, v)

    def __rsub__(self, other: object) -> object:
        parts = _exact_parts(other)
        if parts is None:
            return _as_interval(other) - self.enclosure()
        u, v = parts
        return self._compose(-v, u, 0, v)

    def __neg__(self) -> "MobiusInterval":
        return self._compose(-1, 0, 0, 1)

    def __mul__(self, other: object) -> object:
        parts = _exact_parts(other)
        if parts is None:
            return self.enclosure() * _as_interval(other)
        u, v = parts
        return self._compose(u, 0, 0, v)

    __rmul__ = __mul__

    def reciprocal(self) -> "MobiusInterval":
        n0, _, n1, _ = self.ends()
        if n0 > 0 and n1 > 0:
            return self._compose(0, 1, 1, 0)
        if n0 < 0 and n1 < 0:
            return self._compose(0, -1, -1, 0)
        return self.enclosure().reciprocal()  # raises as the Interval does

    def __truediv__(self, other: object) -> object:
        parts = _exact_parts(other)
        if parts is None:
            return self.enclosure() / _as_interval(other)
        u, v = parts
        if u == 0:
            raise ZeroDivisionError("reciprocal of exact zero")
        return self._compose(v, 0, 0, u) if u > 0 else self._compose(-v, 0, 0, -u)

    def __rtruediv__(self, other: object) -> object:
        if _exact_parts(other) is None:
            return _as_interval(other) / self.enclosure()
        inverse = self.reciprocal()
        return inverse if other == 1 else inverse * other

    def __pow__(self, n: int) -> Interval:
        return self.enclosure() ** n

    # -- certified predicates, from the endpoint images --------------------

    def _offsets(self, other: object) -> Optional[tuple]:
        """Numerators of ``n0/e0 - other`` and ``n1/e1 - other`` (their signs
        are those of the differences), or ``None`` unless ``other`` is exact."""
        parts = _exact_parts(other)
        if parts is None:
            return None
        u, v = parts
        n0, e0, n1, e1 = self.ends()
        return n0 * v - u * e0, n1 * v - u * e1

    def sign(self) -> int:
        n0, _, n1, _ = self.ends()
        if n0 > 0 and n1 > 0:
            return 1
        if n0 < 0 and n1 < 0:
            return -1
        if n0 == 0 == n1:
            return 0
        return self.enclosure().sign()

    def floor(self) -> int:
        n0, e0, n1, e1 = self.ends()
        f = n0 // e0
        return f if f == n1 // e1 else self.enclosure().floor()

    def ceil(self) -> int:
        n0, e0, n1, e1 = self.ends()
        f = -(-n0 // e0)
        return f if f == -(-n1 // e1) else self.enclosure().ceil()

    def __lt__(self, other: object) -> bool:
        # as Interval.lt: True when wholly below, False when wholly at or above
        offsets = self._offsets(other)
        if offsets is not None:
            s0, s1 = offsets
            if s0 < 0 and s1 < 0:
                return True
            if s0 >= 0 and s1 >= 0:
                return False
        return self.enclosure() < _as_interval(other)

    def __gt__(self, other: object) -> bool:
        # as Interval.__gt__: True when wholly above, False when wholly at or below
        offsets = self._offsets(other)
        if offsets is not None:
            s0, s1 = offsets
            if s0 > 0 and s1 > 0:
                return True
            if s0 <= 0 and s1 <= 0:
                return False
        return self.enclosure() > _as_interval(other)

    def __bool__(self) -> bool:
        return self.sign() != 0

    def __floor__(self) -> int:
        return self.floor()

    def __ceil__(self) -> int:
        return self.ceil()

    def __eq__(self, other: object) -> bool:
        return self.enclosure() == _as_interval(other)

    def __hash__(self) -> int:
        return hash(self.enclosure())

    def __str__(self) -> str:
        return str(self.enclosure())


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
