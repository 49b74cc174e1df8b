"""Expansion systems on the real unit interval ``[0, 1)`` with neutral 0.

Base-``b`` digits and continued fractions are f-expansions
(:class:`FExpansionSystem`): one step emits ``floor(f(y))`` and keeps the
fractional part.  The Egyptian and Engel systems share one class for their
``ceil(1/y)`` coefficient map.  Every system reconstructs by one Möbius
branch per coefficient: an integer matrix applied to the tail, admitted when
its image lies below the open top of the coefficient's cylinder.  The
backward pass of a convergent runs those matrices on unreduced integer pairs
and reduces a stage to a ``Fraction`` only when it is read (Gosper, HAKMEM
item 101; Vuillemin 1990).

Every step here is a Möbius map of the remainder (``b*y - d``, ``1/y - q``,
``y - 1/q``, ``q*y - 1``), spelled with ``math.floor``, ``math.ceil``, ``<``,
``not y`` (zero test) and ``0 * y`` (zero of the same kind).  The spelling
runs on exact ``Fraction`` values and on certified remainders of irrational
inputs: an :class:`~expansions.certified.Interval` maps the two unreduced
fractions of its endpoints by each such map, so each level costs a few
integer products instead of reducing two ``Fraction`` endpoints.  An
f-expansion steps an enclosure by the integer matrix of ``f`` itself, the
inverse of ``f_inv``.  On an enclosure the predicates are certified, so a
too-narrow precision budget surfaces as
:class:`~expansions.errors.PrecisionExhausted` rather than a wrong digit.  A
map ``f`` that is not Möbius, such as ``4*y*y``, multiplies two intervals,
which runs on their endpoints.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from typing import Any, Callable, List, Optional, Tuple, Union

from .certified import Interval, _Message
from .coefficients import INF, ExtendedInt, is_infinite
from .core import (
    ORDER_REVERSED,
    ORDER_STANDARD,
    ConvergentTrace,
    ExpansionSystem,
    LazyStages,
)
from .errors import DomainError, PrecisionExhausted

Real = Union[Fraction, Interval]
Matrix = Tuple[int, int, int, int]


class _UnitIntervalSystem(ExpansionSystem):
    """Shared behaviour of systems whose every level is ``[0, 1)``; a
    subclass supplies ``step``, and ``project``/``expand`` read its halves.

    A subclass also supplies ``branch(c)``, which validates ``c`` and
    returns the integer matrix ``(a, b, g, d)`` of the preimage
    ``y = (a*t + b) / (g*t + d)`` of ``(c, t)``, or ``None`` for the neutral
    coefficient, whose only preimage is the neutral pair.  The preimage is
    admitted when ``k*y < 1``, where ``1/k`` (:meth:`_top`) is the open top
    of the cylinder of ``c`` (Gosper, HAKMEM item 101; Vuillemin 1990).
    """

    kind = "real"

    def neutral(self, i: int) -> Fraction:
        return Fraction(0)

    def validate(self, i: int, y: Any) -> None:
        if not isinstance(y, (Fraction, Interval)):
            raise DomainError(f"expected Fraction or Interval, got {type(y).__name__}")
        # Refute an enclosure only when it lies wholly outside.  Name the
        # side, not the value, which may be too large to print.
        lo, hi = (y.lo, y.hi) if isinstance(y, Interval) else (y, y)
        if hi < 0 or lo >= 1:
            side = "below 0" if hi < 0 else "at or above 1"
            raise DomainError(f"element lies outside [0, 1), {side}")

    def project(self, i: int, y: Any) -> ExtendedInt:
        return self.step(i, y)[0]

    def expand(self, i: int, y: Any) -> Any:
        return self.step(i, y)[1]

    def _top(self, c: int) -> int:
        return 1

    def reconstruct(self, i: int, c: ExtendedInt, tail: Any) -> Optional[Any]:
        if isinstance(tail, Interval):
            # each endpoint fraction n/e by the branch: both admitted or both
            # refused decide, unless the branch's pole g*t + d = 0 lies in the
            # tail; the neutral's only preimage, 0, needs a tail of one sign
            n0, e0, n1, e1 = tail._ends
            matrix = self.branch(c)
            _, _, g, d = matrix or (1, 0, 0, 1)
            lo, hi = self._preimage(c, n0, e0), self._preimage(c, n1, e1)
            if (g * n0 + d * e0) * (g * n1 + d * e1) > 0:
                if lo is not None and hi is not None:
                    return Interval._from_ends(*lo, *hi)
                if lo is hi and (n0 * n1 > 0 or matrix is not None):
                    return None
            raise PrecisionExhausted(_Message("preimage of {} undecidable", tail))
        # a Fraction tail p/q: one reduction of the image's two integers
        image = self._preimage(c, tail.numerator, tail.denominator)
        return None if image is None else Fraction(*image)

    def _preimage(self, c: ExtendedInt, p: int, q: int) -> Optional[Tuple[int, int]]:
        """Integers ``(num, den)``, ``den > 0``, of the admitted preimage of
        ``(c, p/q)``, unreduced, or ``None`` where ``reconstruct`` refuses."""
        matrix = self.branch(c)
        if matrix is None:
            return None if p else (0, 1)
        a, b, g, d = matrix
        num, den = a * p + b * q, g * p + d * q
        if den < 0:  # a matrix with negative entries, e.g. -f_inv
            num, den = -num, -den
        return (num, den) if self._top(c) * num < den else None

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

    def is_neutral(self, i: int, y: Any) -> bool:
        return not y

    def elements_equal(self, i: int, a: Any, b: Any) -> bool:
        """Certified equality: enclosures decide it only as equal points or
        as disjoint sets, and raise ``PrecisionExhausted`` otherwise."""
        return not (a - b)


class FExpansionSystem(_UnitIntervalSystem):
    """Expansion driven by a scaling map ``f`` on ``[0, 1)`` (Rényi 1957).

    ``project`` emits ``floor(f(y))`` (with infinities passed through) and
    ``expand`` the fractional part; the branch of ``c`` is ``f_inv(c + t)``,
    admitted inside ``[0, 1)``.  The neutral element projects to ``f(0)``.
    ``f(x) = b*x`` gives :class:`BaseSystem` and ``f(x) = 1/x`` (with
    ``f(0) = INF``) :class:`ContinuedFractionSystem`.

    Args:
        name: registry/report identifier.
        f: the scaling map; may return ``INF``.
        f_inv: the integer matrix ``(a, b, g, d)`` of the inverse of ``f``,
            ``w -> (a*w + b) / (g*w + d)``, on its image.
    """

    coefficient_order_kind = ORDER_STANDARD

    def __init__(self, name: str, f: Callable[[Real], Any], f_inv: Matrix) -> None:
        self.name = name
        self.f = f
        self.f_inv = f_inv
        # f is the adjugate of f_inv, y -> (d*y - b) / (a - g*y): with no
        # pole (g == 0) one affine map, with its pole at 0 (a == 0) one after
        # 1/y.  An enclosure steps by those; a singular f_inv, or a pole of f
        # elsewhere, steps by calling f.
        a, b, g, d = f_inv
        self._f_reciprocal = a == 0
        self._f_on_enclosure = a * d != b * g and (a == 0 or g == 0)
        al, be, de = (b, -d, g) if a == 0 else (d, -b, a)
        self._f_affine = (al, be, de) if de > 0 else (-al, -be, -de)
        at_zero = f(Fraction(0))
        self._infinite_at_zero = is_infinite(at_zero)
        if not (self._infinite_at_zero
                or isinstance(at_zero, Fraction) and at_zero.denominator == 1):
            raise DomainError(
                f"f(0) = {at_zero} is neither an integer nor infinite; "
                "the neutral element would not expand to itself"
            )

    def step(self, i: int, y: Any) -> Tuple[ExtendedInt, Any]:
        if self._f_on_enclosure and isinstance(y, Interval):
            if self._f_reciprocal:
                if not y:
                    return INF, 0 * y
                y = y.reciprocal()
            if self._f_affine != (1, 0, 1):
                y = y._affine(*self._f_affine)
            d = y.floor()
            return d, y._affine(1, -d, 1)
        v = self.f(y)
        if is_infinite(v):
            return v, 0 * y
        d = math.floor(v)
        return d, v - d

    def branch(self, c: ExtendedInt) -> Optional[Matrix]:
        if c is INF and self._infinite_at_zero:
            return None
        if not isinstance(c, int):
            raise DomainError(f"coefficient {c!r} is not an integer")
        a, b, g, d = self.f_inv
        return a, a * c + b, g, g * c + d


def _reciprocal(y: Real) -> Any:
    """``f(y) = 1/y`` with ``f(0) = INF``."""
    return 1 / y if y else INF


class BaseSystem(FExpansionSystem):
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

    def __init__(
        self, base: int, digit_permutation: Optional[Sequence[int]] = None
    ) -> None:
        if base < 2:
            raise DomainError(f"base must be >= 2, got {base}")
        super().__init__(f"base{base}", f=lambda y: base * y, f_inv=(1, 0, 0, base))
        self.base = base
        self._sigma = self._sigma_inv = list(range(base))
        if digit_permutation is not None:
            sigma = list(digit_permutation)
            if sorted(sigma) != list(range(base)):
                raise DomainError(
                    f"digit_permutation must permute 0..{base - 1}, got {sigma}"
                )
            self._sigma = sigma
            self._sigma_inv = [0] * base
            for d, image in enumerate(sigma):
                self._sigma_inv[image] = d
            self.name = f"base{base}-shuffled"

    def step(self, i: int, y: Any) -> Tuple[int, Any]:
        d, rest = super().step(i, y)
        return self._sigma[d], rest

    def branch(self, c: int) -> Matrix:
        if not isinstance(c, int) or not 0 <= c < self.base:
            raise DomainError(f"coefficient {c!r} is not a base-{self.base} digit")
        return super().branch(self._sigma_inv[c])


class ContinuedFractionSystem(FExpansionSystem):
    """Regular continued fractions on ``[0, 1)``: the f-expansion with
    ``f(x) = 1/x`` and ``f(0) = INF``.

    Coefficients are the partial quotients ``floor(1/y) >= 1``, with ``INF``
    for the neutral element; the coefficient order is the standard one with
    ``INF`` largest.  The pair ``(1, neutral)`` is outside the image (its
    preimage would be 1), the single improperness this system has.
    """

    def __init__(self) -> None:
        super().__init__("cf", f=_reciprocal, f_inv=(0, 1, 1, 0))

    def branch(self, c: ExtendedInt) -> Optional[Matrix]:
        if c is not INF and (not isinstance(c, int) or c < 1):
            raise DomainError(f"coefficient {c!r} is not a partial quotient")
        return super().branch(c)


class _UnitFractionSystem(_UnitIntervalSystem):
    """Shared coefficient map of the Egyptian and Engel systems.

    Both emit ``ceil(1/y)`` (which is >= 2 on ``(0, 1)``) and ``INF`` at the
    neutral element, which expands to itself and is the only preimage of
    ``(INF, 0)``.  A subclass supplies the remainder ``_remainder(y, q)`` and
    the branch ``_branch(c)``.  ``ceil(1/y) == c`` exactly when
    ``1/c <= y < 1/(c-1)``, so the cylinder's open top is ``1/(c-1)``.
    Their coefficient spaces carry the *reversed* order — under it the
    coefficient maps become monotone increasing and ``INF`` is smallest —
    and their rational expansions strictly decrease numerators.
    """

    coefficient_order_kind = ORDER_REVERSED

    def step(self, i: int, y: Any) -> Tuple[ExtendedInt, Any]:
        if not y:
            return INF, 0 * y
        q = math.ceil(1 / y)
        return q, self._remainder(y, q)

    def project(self, i: int, y: Any) -> ExtendedInt:
        # no remainder: ``y - 1/q`` carries the bits of ``q`` into the endpoints
        return math.ceil(1 / y) if y else INF

    def branch(self, c: ExtendedInt) -> Optional[Matrix]:
        if c is INF:
            return None
        if not isinstance(c, int) or c < 2:
            raise DomainError(f"coefficient {c!r} is not a unit-fraction index")
        return self._branch(c)

    def _top(self, c: int) -> int:
        return c - 1


class EgyptianSystem(_UnitFractionSystem):
    """Greedy unit-fraction (Egyptian) expansion: split off the largest unit
    fraction ``1/c <= y`` and expand the difference."""

    name = "egyptian"

    def _remainder(self, y: Any, q: int) -> Any:
        return y - Fraction(1, q)

    def _branch(self, c: int) -> Matrix:
        return c, 1, 0, c  # 1/c + t


class EngelSystem(_UnitFractionSystem):
    """Engel series expansion: same coefficient map as the Egyptian system,
    but the remainder is rescaled (``y*c - 1``), which forces the emitted
    coefficients of any one element to be non-decreasing."""

    name = "engel"

    def _remainder(self, y: Any, q: int) -> Any:
        return y * q - 1

    def _branch(self, c: int) -> Matrix:
        return 1, 1, 0, c  # (1 + t)/c
