"""Expansion systems on the real unit interval ``[0, 1)`` with neutral 0.

One class, :class:`_UnitIntervalSystem`, runs every real system from its
private record (:class:`_Record`), which declares:

* the integer Möbius branch of each digit ``c``, the matrix
  ``branch(c) = m0 + c*m1`` of the preimage ``y = (a*t + b) / (g*t + d)``
  of ``(c, t)``, affine in ``c``: base ``b`` is ``(1, c, 0, b)``, cf
  ``(0, 1, 1, c)``, Egyptian ``(c, 1, 0, c)``, Engel ``(1, 1, 0, c)`` and
  an f-expansion ``f_inv(c + t)`` (Rényi 1957);
* the digit map, a fixed Möbius map of ``y`` under floor (``f``, the signed
  adjugate of ``f_inv``) or ceiling (``1/y`` for Egyptian and Engel);
* the alphabet (for an f-expansion, ``floor(f([0, 1)))``), the open top
  ``1/(k0 + k1*c)`` of the cylinder of ``c``, an optional relabelling ``σ``
  of the emitted digits and the coefficient order.

The rest is derived.  The neutral 0 projects to ``INF`` where the digit map
has a pole at 0.  A step keeps one remainder: ``v - c`` of the digit map's
value ``v`` where ``branch(c)`` is ``branch(0)`` after a translation by
``c`` (the f-expansions), else the adjugate of ``branch(c)`` applied to
``y``; so a level inverts once at most.  :func:`apply_matrix` maps a
``Fraction`` to one ``Fraction`` of two integers, and an
:class:`~expansions.certified.Interval` by its two unreduced endpoint
fractions, with no gcd.  On an enclosure the rounding, pole and admission
are certified, so a too-narrow precision budget raises
:class:`~expansions.errors.PrecisionExhausted` rather than a wrong digit.
The backward pass runs the branches on unreduced integer pairs and reduces a
stage only when it is read (Gosper, HAKMEM item 101; Vuillemin 1990).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from typing import Any, List, NamedTuple, Optional, Tuple, Union

from .certified import Interval
from .coefficients import INF, ExtendedInt
from .core import (
    ORDER_REVERSED,
    ORDER_STANDARD,
    ConvergentTrace,
    ExpansionSystem,
    LazyStages,
)
from .errors import DomainError

Real = Union[Fraction, Interval]
Matrix = Tuple[int, int, int, int]


def apply_matrix(matrix: Matrix, y: Real) -> Real:
    """``(a*y + b) / (g*y + d)`` for ``matrix = (a, b, g, d)``: one
    ``Fraction`` of two integers, or ``Interval._mobius`` of an enclosure."""
    if isinstance(y, Interval):
        return y._mobius(*matrix)
    a, b, g, d = matrix
    return Fraction(a * y.numerator + b * y.denominator, g * y.numerator + d * y.denominator)


class _Record(NamedTuple):
    """The declared facts of one real system (see the module docstring)."""

    m0: Matrix  # branch(c) = m0 + c*m1
    m1: Matrix
    digit_map: Matrix  # of y, rounded down, or up where ``ceil``
    ceil: bool
    lo: Optional[int]  # the alphabet lo <= c < hi; None is unbounded
    hi: Optional[int]
    noun: str  # a foreign c is refused as "coefficient {c!r} is not {noun}"
    top: Tuple[int, int]  # (k0, k1): the cylinder of c lies below 1/(k0 + k1*c)
    order: str
    sigma: Optional[Tuple[int, ...]] = None  # the emitted label of each digit


class _UnitIntervalSystem(ExpansionSystem):
    """The real system declared by ``record``, on ``[0, 1)`` at every level.

    ``project`` reads the digit alone and ``step`` the digit and its
    remainder; ``reconstruct`` admits ``branch(c)`` of the tail when
    ``0 <= y`` and ``k*y < 1``, where ``1/k`` is the open top of the
    cylinder of ``c``.
    """

    kind = "real"

    def __init__(self, name: str, record: _Record) -> None:
        self.name = name
        self._record = record
        self.coefficient_order_kind = record.order
        m0, m1 = record.m0, record.m1
        self._pole = not record.digit_map[3]  # its denominator g*y + d is 0 at y = 0
        self._translated = m1 == (0, m0[0], 0, m0[2])  # branch(c) = branch(0)(c + t)
        self._round = math.ceil if record.ceil else math.floor
        self._sigma = sigma = record.sigma
        self._sigma_inv = sigma and [sigma.index(c) for c in range(len(sigma))]

    def neutral(self, i: int) -> Fraction:
        return Fraction(0)

    def validate(self, i: int, y: Any) -> None:
        if not isinstance(y, (Fraction, Interval)):
            raise DomainError(f"expected Fraction or Interval, got {type(y).__name__}")
        # Refute an enclosure only when it lies wholly outside, decided on
        # its unreduced endpoint fractions n/e (e > 0), as a Fraction is on
        # its own.  Name the side, not the value, which may be too large to
        # print.
        n0, e0, n1, e1 = y._ends if isinstance(y, Interval) else (y.numerator, y.denominator) * 2
        if n0 < 0 and n1 < 0 or n0 >= e0 and n1 >= e1:
            side = "below 0" if n1 < 0 else "at or above 1"
            raise DomainError(f"element lies outside [0, 1), {side}")

    def branch(self, digit: int) -> Matrix:
        """The integer matrix ``m0 + digit*m1`` of the branch of ``digit``
        (the digit before the relabelling ``σ``)."""
        (a0, b0, g0, d0), (a1, b1, g1, d1) = self._record.m0, self._record.m1
        return a0 + digit * a1, b0 + digit * b1, g0 + digit * g1, d0 + digit * d1

    def project(self, i: int, y: Any) -> ExtendedInt:
        if self._pole and not y:
            return INF
        digit = self._round(apply_matrix(self._record.digit_map, y))
        return self._sigma[digit] if self._sigma else digit

    def step(self, i: int, y: Any) -> Tuple[ExtendedInt, Any]:
        if self._pole and not y:
            return INF, 0 * y
        v = apply_matrix(self._record.digit_map, y)
        digit = self._round(v)
        if not self._translated:  # the adjugate of the branch
            a, b, g, d = self.branch(digit)
            rest = apply_matrix((d, -b, -g, a), y)
        elif isinstance(v, Interval):
            rest = v._mobius(1, -digit, 0, 1)
        else:
            rest = v - digit
        return (self._sigma[digit] if self._sigma else digit), rest

    def expand(self, i: int, y: Any) -> Any:
        return self.step(i, y)[1]

    def _digit_of(self, c: ExtendedInt) -> Optional[int]:
        """The digit whose label is ``c``, or ``None`` for the neutral
        coefficient, whose only preimage is the neutral pair; a coefficient
        outside the alphabet is refused."""
        if c is INF and self._pole:
            return None
        lo, hi = self._record.lo, self._record.hi
        if not isinstance(c, int) or lo is not None and c < lo or hi is not None and c >= hi:
            raise DomainError(f"coefficient {c!r} is not {self._record.noun}")
        return self._sigma_inv[c] if self._sigma_inv else c

    def reconstruct(self, i: int, c: ExtendedInt, tail: Any) -> Optional[Any]:
        # the branch image, admitted when 0 <= y and k*y < 1; on an enclosure
        # the pole, the admission and the neutral's zero test are certified
        if not isinstance(tail, Interval):
            pair = self._preimage(c, tail.numerator, tail.denominator)
            return None if pair is None else Fraction(*pair)
        digit = self._digit_of(c)
        if digit is None:
            return None if tail else 0 * tail
        try:
            image = tail._mobius(*self.branch(digit))
        except ZeroDivisionError:  # an exact tail at the branch's pole
            return None
        k0, k1 = self._record.top
        return image if not image < 0 and (k0 + k1 * digit) * image < 1 else None

    def _preimage(self, c: ExtendedInt, p: int, q: int) -> Optional[Tuple[int, int]]:
        """Integers ``(num, den)``, ``den > 0``, of the admitted preimage of
        ``(c, p/q)``, unreduced, or ``None`` where ``reconstruct`` refuses:
        outside ``[0, 1/k)``, or at the branch's pole (``den = 0``)."""
        digit = self._digit_of(c)
        if digit is None:
            return None if p else (0, 1)
        a, b, g, d = self.branch(digit)
        num, den = a * p + b * q, g * p + d * q
        if den < 0:  # a matrix with negative entries, e.g. -f_inv
            num, den = -num, -den
        k0, k1 = self._record.top
        return (num, den) if 0 <= num and (k0 + k1 * digit) * num < den else None

    def backward_pass(self, coeffs: Sequence[ExtendedInt]) -> ConvergentTrace:
        """The backward pass on unreduced integer pairs ``(p, q)`` from the
        neutral ``(0, 1)``: one :class:`Fraction` at level 0, and the other
        stages reduced only when read (:class:`LazyStages`)."""
        n = len(coeffs)
        pairs: List[Optional[Tuple[int, int]]] = [None] * (n + 1)
        pairs[n] = pair = (0, 1)

        def stage(k: int) -> Optional[Fraction]:
            return None if pairs[k] is None else Fraction(*pairs[k])

        for i in range(n - 1, -1, -1):
            pair = self._preimage(coeffs[i], *pair)
            if pair is None:
                return ConvergentTrace(n=n, stages=LazyStages(n + 1, stage), improper_at=i)
            pairs[i] = pair
        stages = LazyStages(n + 1, stage, Fraction(*pair))
        return ConvergentTrace(n=n, stages=stages, improper_at=None)

    def elements_equal(self, i: int, a: Any, b: Any) -> bool:
        """Certified equality: enclosures decide it only as equal points or
        as disjoint sets, and raise ``PrecisionExhausted`` otherwise."""
        return not (a - b)


def _f_alphabet(f: Matrix) -> Tuple[Optional[int], Optional[int]]:
    """``(lo, hi)`` with ``lo <= c < hi`` exactly the digits ``floor(f(y))``
    of ``y`` in ``[0, 1)``, ``None`` where unbounded: ``f`` has no pole
    inside ``(0, 1)``, so it is monotone there and ``f([0, 1))`` runs from
    ``f(0)``, an integer or infinite at a pole, to ``f(1)`` open."""
    A, B, G, D = f
    end = None if G + D == 0 else Fraction(A + B, G + D)  # f(1), None at a pole
    start = None if D == 0 else B // D  # f(0), an integer
    if A * D > B * G:  # rising: [f(0), f(1))
        return start, None if end is None else math.ceil(end)
    return None if end is None else math.floor(end), None if start is None else start + 1


def _f_record(
    f_inv: Matrix, noun: str, sigma: Optional[Tuple[int, ...]] = None,
) -> _Record:
    """The f-expansion of ``f_inv = (a, b, g, d)``: the branch
    ``f_inv(c + t)``, the digit ``floor(f(y))`` with ``f`` the adjugate of
    ``f_inv``, signed so that the first nonzero entry of its denominator is
    positive (cf's is ``(0, 1, 1, 0)``), the alphabet ``floor(f([0, 1)))``
    and the open top 1.  The neutral element projects to ``f(0) = -b/a``,
    which must be an integer or infinite (``a = 0``), and ``f`` must have no
    pole inside ``(0, 1)``."""
    a, b, g, d = f_inv
    if a * d == b * g:
        raise DomainError(f"f_inv = {f_inv} is singular, so f has no integer matrix")
    if a and b % a:
        raise DomainError(
            f"f(0) = {Fraction(-b, a)} is neither an integer nor infinite; "
            "the neutral element would not expand to itself"
        )
    sign = 1 if (-g, a) > (0, 0) else -1
    f = (sign * d, -sign * b, -sign * g, sign * a)
    if 0 < a * g < g * g:  # the denominator a - g*y of f vanishes at y = a/g
        raise DomainError(f"f has a pole at {Fraction(a, g)} inside (0, 1), so it is not monotone")
    return _Record(f_inv, (0, a, 0, g), f, False, *_f_alphabet(f), noun, (1, 0),
                   ORDER_STANDARD, sigma)


def _unit_fraction_record(m0: Matrix, m1: Matrix) -> _Record:
    """A unit-fraction series: the digit ``ceil(1/y) >= 2``, ``INF`` at the
    neutral element, and the cylinder ``[1/c, 1/(c-1))`` of ``c``.  Its
    coefficients carry the *reversed* order, under which the coefficient
    map is monotone increasing and ``INF`` is smallest."""
    return _Record(m0, m1, (0, 1, 1, 0), True, 2, None, "a unit-fraction index",
                   (-1, 1), ORDER_REVERSED)


def FExpansionSystem(name: str, f_inv: Matrix) -> _UnitIntervalSystem:
    """Expansion driven by an integer Möbius map ``f`` on ``[0, 1)``, given
    by the matrix of its inverse (Rényi 1957).

    ``project`` emits ``floor(f(y))`` (``INF`` where ``f(0)`` is infinite)
    and ``expand`` the fractional part; a step is the inverse of its own
    branch ``f_inv(c + t)``.  ``f_inv = (1, 0, 0, b)`` gives
    :func:`BaseSystem` and ``(0, 1, 1, 0)`` :func:`ContinuedFractionSystem`.

    Args:
        name: registry/report identifier.
        f_inv: the integer matrix ``(a, b, g, d)`` of the inverse of ``f``,
            ``w -> (a*w + b) / (g*w + d)``; a singular one is refused.
    """
    return _UnitIntervalSystem(name, _f_record(f_inv, f"a digit of {name}"))


def BaseSystem(
    base: int, digit_permutation: Optional[Sequence[int]] = None
) -> _UnitIntervalSystem:
    """Positional expansion in an integer base ``b >= 2``: the f-expansion
    with ``f(x) = b*x``.

    ``project`` emits the leading digit, ``expand`` the fractional remainder
    of ``b*y``, so the ``n``-th convergent of ``y`` is its ``n``-digit
    truncation.  Reconstruction is total (the digit map is a bijection onto
    digits x tails).

    An optional ``digit_permutation`` relabels the *emitted* digit while the
    expansion step keeps using the true digit; this breaks monotonicity of
    the coefficient map without touching convergents' values.
    """
    if base < 2:
        raise DomainError(f"base must be >= 2, got {base}")
    sigma = None
    if digit_permutation is not None:
        sigma = tuple(digit_permutation)
        if sorted(sigma) != list(range(base)):
            raise DomainError(f"digit_permutation must permute 0..{base - 1}, got {list(sigma)}")
    name = f"base{base}" if sigma is None else f"base{base}-shuffled"
    return _UnitIntervalSystem(
        name, _f_record((1, 0, 0, base), f"a base-{base} digit", sigma))


def ContinuedFractionSystem() -> _UnitIntervalSystem:
    """Regular continued fractions on ``[0, 1)``: the f-expansion with
    ``f(x) = 1/x`` and ``f(0) = INF``.

    Coefficients are the partial quotients ``floor(1/y) >= 1``, with ``INF``
    for the neutral element; the coefficient order is the standard one with
    ``INF`` largest.  The pair ``(1, neutral)`` is outside the image (its
    preimage would be 1), the single improperness this system has.
    """
    return _UnitIntervalSystem("cf", _f_record((0, 1, 1, 0), "a partial quotient"))


def EgyptianSystem() -> _UnitIntervalSystem:
    """Greedy unit-fraction (Egyptian) expansion: split off the largest unit
    fraction ``1/c <= y`` and expand the difference, by the branch
    ``1/c + t``."""
    return _UnitIntervalSystem("egyptian", _unit_fraction_record((0, 1, 0, 0), (1, 0, 0, 1)))


def EngelSystem() -> _UnitIntervalSystem:
    """Engel series expansion: the Egyptian digit, with the remainder
    rescaled to ``y*c - 1`` by the branch ``(1 + t)/c``, which makes the
    emitted coefficients of any one element non-decreasing; its rational
    expansions strictly decrease numerators."""
    return _UnitIntervalSystem("engel", _unit_fraction_record((1, 1, 0, 0), (0, 0, 0, 1)))
