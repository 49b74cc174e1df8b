"""Certified real arithmetic on closed intervals with exact rational endpoints.

An :class:`Interval` encloses one real number.  It holds its two endpoints
as unreduced fractions ``n0/e0`` and ``n1/e1`` with positive denominators.
An exact ``+ - * /`` with an ``int`` or ``Fraction`` (on either side) and
negation map both fractions by one affine map ``(al*y + be) / de`` with
``de > 0``, skipping the products by 0 and 1; the reciprocal of an interval
of certified sign swaps each fraction's two parts (Gosper, HAKMEM item
101).  So each digit step on a remainder (``b*y - d``, ``1/y - q``,
``y - 1/q``, ``q*y - 1``) is a few integer products and no gcd.
Arithmetic between two intervals, ``**`` and ``abs`` run on the reduced
endpoints.  Field operations are exact (endpoints stay rational, enclosures
never silently widen).  Predicates decide from the two fractions by integer
``//`` and signs.  Irrational constructors (:func:`sqrt_interval`, :func:`pi_interval`,
:func:`e_interval`) take an explicit ``bits`` budget, at most
:data:`MAX_BITS`, and return a dyadic enclosure of width at most
``2**-bits``.  Pi and e are one exact integer bracket each, from a series
summed by binary splitting with its tail bounded, rounded outward onto the
grid of step ``2**-(bits+2)`` by integer floor and ceiling.
Predicates either answer with certainty or raise
:class:`~expansions.errors.PrecisionExhausted`, whose message names the
enclosures when read — they never guess — and are
Python's numeric protocol (``math.floor``, ``math.ceil``, ``<``, ``>``,
truth as certified nonzero), so code written for ``Fraction`` runs on
enclosures unchanged.  ``==`` is structural; certified equality is
``not (a - b)``.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Callable, Optional, Tuple

from .errors import DomainError, PrecisionExhausted

_ZERO = Fraction(0)

#: the largest ``bits`` budget an irrational constructor accepts; at this
#: budget pi takes ~15 s and e ~10 s (CPython 3.11.7 on a 2-core x86-64 host)
MAX_BITS = 1 << 20


def _exact_parts(value: object) -> Optional[Tuple[int, int]]:
    """``(numerator, denominator)`` of an exact ``int`` or ``Fraction``, else ``None``."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    return None


class _Message:
    """The message of a :class:`PrecisionExhausted` that names enclosures,
    formatted when read rather than at raise: each ``{}`` of ``template``
    becomes ``[lo, hi]`` of an interval, or, where the host's int/str digit
    limit refuses that decimal form, the endpoints' bit lengths."""

    __slots__ = ("template", "intervals")

    def __init__(self, template: str, *intervals: "Interval") -> None:
        self.template, self.intervals = template, intervals

    def __str__(self) -> str:
        return self.template.format(*map(_describe, self.intervals))

    def __repr__(self) -> str:
        return repr(str(self))


def _describe(iv: "Interval") -> str:
    try:
        return f"[{iv.lo}, {iv.hi}]"
    except ValueError:  # past the int/str digit limit
        bits = (max(f.numerator.bit_length(), f.denominator.bit_length()) for f in (iv.lo, iv.hi))
        return "[endpoints of {} and {} bits]".format(*bits)


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

    def _affine(self, al: int, be: int, de: int) -> "Interval":
        """``(al*y + be) / de`` of this interval ``y``, ``de > 0``: each
        endpoint ``n/e`` maps to ``(al*n + be*e) / (de*e)``, with no product
        by 0 or 1."""
        n0, e0, n1, e1 = self._ends
        if al != 1:
            n0, n1 = al * n0, al * n1
        if be:
            n0, n1 = n0 + be * e0, n1 + be * e1
        if de != 1:
            e0, e1 = de * e0, de * e1
        return Interval._from_ends(n0, e0, n1, e1)

    @staticmethod
    def _from_ends(n0: int, e0: int, n1: int, e1: int) -> "Interval":
        out = Interval.__new__(Interval)
        out._ends = (n0, e0, n1, e1)
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

    def is_point(self) -> bool:
        return self.lo == self.hi

    # -- arithmetic (exact, never widens beyond the true image) ----------
    # with an exact number: one Möbius step; with an interval: the endpoints

    def __add__(self, other: object) -> "Interval":
        parts = _exact_parts(other)
        if parts is not None:
            u, v = parts
            return self._affine(v, u, v)
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return self._affine(-1, 0, 1)

    def __sub__(self, other: object) -> "Interval":
        parts = _exact_parts(other)
        if parts is not None:
            u, v = parts
            return self._affine(v, -u, v)
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other: object) -> "Interval":
        parts = _exact_parts(other)
        if parts is None:
            return NotImplemented
        u, v = parts
        return self._affine(-v, u, v)

    def __mul__(self, other: object) -> "Interval":
        parts = _exact_parts(other)
        if parts is not None:
            u, v = parts
            return self._affine(u, 0, v)
        if not isinstance(other, Interval):
            return NotImplemented
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def reciprocal(self) -> "Interval":
        """``1/y``: each endpoint ``n/e`` becomes ``e/n``, with both parts
        negated when ``n < 0`` so the denominators stay positive."""
        n0, e0, n1, e1 = self._ends
        if n0 > 0 and n1 > 0:
            return Interval._from_ends(e0, n0, e1, n1)
        if n0 < 0 and n1 < 0:
            return Interval._from_ends(-e0, -n0, -e1, -n1)
        if n0 == 0 == n1:
            raise ZeroDivisionError("reciprocal of exact zero")
        raise PrecisionExhausted(_Message("cannot invert interval straddling zero: {}", self))

    def __truediv__(self, other: object) -> "Interval":
        parts = _exact_parts(other)
        if parts is None:
            if not isinstance(other, Interval):
                return NotImplemented
            return self * other.reciprocal()
        u, v = parts
        if u == 0:
            raise ZeroDivisionError("reciprocal of exact zero")
        return self._affine(v, 0, u) if u > 0 else self._affine(-v, 0, -u)

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
        raise PrecisionExhausted(_Message("sign undecidable on {}", self))

    def floor(self) -> int:
        n0, e0, n1, e1 = self._ends
        f = n0 // e0
        if f == n1 // e1:
            return f
        raise PrecisionExhausted(_Message("floor undecidable on {}", self))

    def ceil(self) -> int:
        n0, e0, n1, e1 = self._ends
        f = -(-n0 // e0)
        if f == -(-n1 // e1):
            return f
        raise PrecisionExhausted(_Message("ceiling undecidable on {}", self))

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
        raise PrecisionExhausted(_Message("order of {} and {} undecidable", self, other))

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


def _split(p: Callable[[int], int], q: Callable[[int], int],
           a: Callable[[int], int], lo: int, hi: int) -> Tuple[int, int, int]:
    """Exact sum of the terms ``lo <= k < hi`` of a hypergeometric series by
    binary splitting (Haible & Papanikolaou, ANTS 1998): integers
    ``(P, Q, T)`` with ``P = prod p(k)``, ``Q = prod q(k)`` and

        ``T / Q = sum_{lo <= k < hi} a(k) * prod_{lo <= j <= k} p(j) / q(j)``.

    Halves combine as ``(P1 P2, Q1 Q2, T1 Q2 + P1 T2)``; a run of at most 16
    terms is summed term by term.
    """
    if hi - lo <= 16:
        big_p, big_q, big_t = 1, 1, 0
        for k in range(lo, hi):
            big_p *= p(k)
            q_k = q(k)
            big_q, big_t = big_q * q_k, big_t * q_k + a(k) * big_p
        return big_p, big_q, big_t
    mid = (lo + hi) // 2
    p1, q1, t1 = _split(p, q, a, lo, mid)
    p2, q2, t2 = _split(p, q, a, mid, hi)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _outward(lo: int, hi: int, prec: int, bits: int) -> Interval:
    """The bracket ``[lo, hi] / 2**prec`` rounded outward onto the grid of
    step ``2**-(bits+2)``, ``prec >= bits + 2``, by integer floor and
    ceiling."""
    shift, scale = prec - bits - 2, 1 << (bits + 2)
    return Interval(Fraction(lo >> shift, scale), Fraction(-(-hi >> shift), scale))


def pi_interval(bits: int) -> Interval:
    """Enclosure of pi of width at most ``2**-bits`` from Chudnovsky's series
    (Chudnovsky & Chudnovsky 1988) ``sum_k t_k = 426880 sqrt(10005) / pi``,
    ``t_k = (-1)^k (6k)! a(k) / ((3k)! k!^3 640320^(3k))`` with
    ``a(k) = A + B k``, ``A = 13591409`` and ``B = 545140134``, summed
    exactly by :func:`_split`.

    With ``P, Q, T`` over ``1 <= k <= n``, the terms ``k <= n`` sum to
    ``(A Q + T) / Q``.  The series alternates and ``|t_k|`` falls by a factor
    above ``640320^3 / 1728 / 42 > 2^41``, so the rest lies within
    ``|t_n| = a(n) |P| / Q`` of 0; ``n = prec // 47 + 2`` puts ``|t_n|``
    below ``2**-prec``.  ``sqrt(10005) * 2**prec`` lies in ``[s, s + 1)``
    with ``s`` its :func:`math.isqrt`.  So ``pi * 2**prec`` lies between
    ``426880 s Q / (H + D)`` and ``426880 (s + 1) Q / (H - D)`` with
    ``H = A Q + T`` and ``D = a(n) |P|``: the floor of the one and the
    ceiling of the other are the bracket that :func:`_outward` rounds.
    """
    _check_bits(bits)
    prec = bits + bits.bit_length() + 16
    n = prec // 47 + 2
    p, q, t = _split(lambda k: -(6 * k - 5) * (2 * k - 1) * (6 * k - 1),
                     lambda k: k * k * k * (640320 ** 3 // 24),
                     lambda k: 13591409 + 545140134 * k, 1, n + 1)
    head, tail = 13591409 * q + t, (13591409 + 545140134 * n) * abs(p)
    num = 426880 * q
    low = num * math.isqrt(10005 << (2 * prec))
    return _outward(low // (head + tail), -(-(low + num) // (head - tail)), prec, bits)


def e_interval(bits: int) -> Interval:
    """Enclosure of e of width at most ``2**-bits`` from ``sum 1/k!``, summed
    exactly by :func:`_split`.

    With ``Q = (n-1)!`` and ``T / Q = sum_{1 <= k < n} 1/k!``, e lies in
    ``[(T + Q) / Q, (T + Q + 1) / Q]``: the tail ``sum_{k >= n} 1/k!`` is at
    most ``(1/n!) (n + 1) / n <= 1/Q`` for ``n >= 2``.  ``n`` is the least
    with ``lgamma(n) = ln (n-1)! >= prec ln 2``, so ``1/Q`` is about
    ``2**-prec``.  The floor of the lower end and the ceiling of the upper
    one, times ``2**prec``, are the bracket that :func:`_outward` rounds.
    """
    _check_bits(bits)
    prec = bits + bits.bit_length() + 16
    n = 2 + bisect.bisect_left(range(2, prec + 2), prec * math.log(2), key=math.lgamma)
    _, q, t = _split(lambda k: 1, lambda k: k, lambda k: 1, 1, n)
    return _outward(((t + q) << prec) // q, -(-((t + q + 1) << prec) // q), prec, bits)
