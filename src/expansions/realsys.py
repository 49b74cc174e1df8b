"""Expansion systems on the real unit interval ``[0, 1)`` with neutral 0.

Base-``b`` digits and continued fractions are f-expansions
(:class:`FExpansionSystem`): one step emits ``floor(f(y))`` and keeps the
fractional part.  The Egyptian and Engel systems share one class for their
``ceil(1/y)`` coefficient map.  Each coefficient ``c`` has one integer
Möbius branch ``branch(c)``: reconstruction applies it to the tail and admits
the image below the open top of the cylinder of ``c``, and a step is the
inverse of its own branch, by the matrix of ``f`` (the adjugate of
``f_inv``, ``f``'s only spelling) or by the adjugate of
``branch(ceil(1/y))``.  :func:`apply_matrix` maps an exact ``Fraction`` to
one ``Fraction`` of two integers, and an
:class:`~expansions.certified.Interval` by its two unreduced endpoint
fractions, so a level costs a few integer products and no gcd.  On an
enclosure the floor, ceiling, pole and admission are certified, so a
too-narrow precision budget raises
:class:`~expansions.errors.PrecisionExhausted` rather than a wrong digit.
The backward pass runs the branches on unreduced integer pairs and reduces a
stage only when it is read (Gosper, HAKMEM item 101; Vuillemin 1990).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from typing import Any, List, Optional, Tuple, Union

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
        # Refute an enclosure only when it lies wholly outside, decided on
        # its unreduced endpoint fractions n/e (e > 0), as a Fraction is on
        # its own.  Name the side, not the value, which may be too large to
        # print.
        n0, e0, n1, e1 = y._ends if isinstance(y, Interval) else (y.numerator, y.denominator) * 2
        if n0 < 0 and n1 < 0 or n0 >= e0 and n1 >= e1:
            side = "below 0" if n1 < 0 else "at or above 1"
            raise DomainError(f"element lies outside [0, 1), {side}")

    def project(self, i: int, y: Any) -> ExtendedInt:
        return self.step(i, y)[0]

    def expand(self, i: int, y: Any) -> Any:
        return self.step(i, y)[1]

    def _top(self, c: int) -> int:
        return 1

    def reconstruct(self, i: int, c: ExtendedInt, tail: Any) -> Optional[Any]:
        # the branch image, admitted when k*y < 1; on an enclosure the pole,
        # the admission and the neutral's zero test are certified
        matrix = self.branch(c)
        if matrix is None:
            return None if tail else 0 * tail
        image = apply_matrix(matrix, tail)
        return image if self._top(c) * image < 1 else None

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
    """Expansion driven by an integer Möbius map ``f`` on ``[0, 1)``, given
    by the matrix of its inverse (Rényi 1957).

    ``project`` emits ``floor(f(y))`` (``INF`` where ``f(0)`` is infinite)
    and ``expand`` the fractional part; ``f`` is the adjugate of ``f_inv``,
    so a step is the inverse of its own branch ``f_inv(c + t)``.  The neutral
    element projects to ``f(0) = -b/a``, which must be an integer or
    infinite (``a = 0``).  ``f_inv = (1, 0, 0, b)`` gives :class:`BaseSystem`
    and ``(0, 1, 1, 0)`` :class:`ContinuedFractionSystem`.

    Args:
        name: registry/report identifier.
        f_inv: the integer matrix ``(a, b, g, d)`` of the inverse of ``f``,
            ``w -> (a*w + b) / (g*w + d)``; a singular one is refused.
    """

    coefficient_order_kind = ORDER_STANDARD

    def __init__(self, name: str, f_inv: Matrix) -> None:
        self.name = name
        self.f_inv = f_inv
        a, b, g, d = f_inv
        if a * d == b * g:
            raise DomainError(f"f_inv = {f_inv} is singular, so f has no integer matrix")
        if a and b % a:
            raise DomainError(
                f"f(0) = {Fraction(-b, a)} is neither an integer nor infinite; "
                "the neutral element would not expand to itself"
            )
        self._infinite_at_zero = not a
        # the adjugate of f_inv, signed so that the first nonzero entry of
        # its denominator is positive (cf's is (0, 1, 1, 0))
        sign = 1 if (-g, a) > (0, 0) else -1
        self._f_matrix = (sign * d, -sign * b, -sign * g, sign * a)

    def f(self, y: Real) -> Union[Real, ExtendedInt]:
        """``f(y)`` by the matrix that ``step`` runs; ``INF`` at 0 where
        ``f(0)`` is infinite."""
        return INF if self._infinite_at_zero and not y else apply_matrix(self._f_matrix, y)

    def step(self, i: int, y: Any) -> Tuple[ExtendedInt, Any]:
        if self._infinite_at_zero and not y:
            return INF, 0 * y
        if isinstance(y, Interval):
            v = y._mobius(*self._f_matrix)
            d = v.floor()
            return d, v._mobius(1, -d, 0, 1)
        v = apply_matrix(self._f_matrix, y)
        d = math.floor(v)
        return d, v - d

    def branch(self, c: ExtendedInt) -> Optional[Matrix]:
        if c is INF and self._infinite_at_zero:
            return None
        if not isinstance(c, int):
            raise DomainError(f"coefficient {c!r} is not an integer")
        a, b, g, d = self.f_inv
        return a, a * c + b, g, g * c + d


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
        super().__init__(f"base{base}", f_inv=(1, 0, 0, base))
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
        super().__init__("cf", f_inv=(0, 1, 1, 0))

    def branch(self, c: ExtendedInt) -> Optional[Matrix]:
        if c is not INF and (not isinstance(c, int) or c < 1):
            raise DomainError(f"coefficient {c!r} is not a partial quotient")
        return super().branch(c)


class _UnitFractionSystem(_UnitIntervalSystem):
    """Shared coefficient map of the Egyptian and Engel systems.

    Both emit ``ceil(1/y)`` (which is >= 2 on ``(0, 1)``) and ``INF`` at the
    neutral element, which expands to itself and is the only preimage of
    ``(INF, 0)``.  A subclass supplies the branch ``_branch(c)``; the
    remainder is its adjugate applied to ``y``.  ``ceil(1/y) == c`` exactly
    when ``1/c <= y < 1/(c-1)``, so the cylinder's open top is ``1/(c-1)``.
    Their coefficient spaces carry the *reversed* order — under it the
    coefficient maps become monotone increasing and ``INF`` is smallest —
    and their rational expansions strictly decrease numerators.
    """

    coefficient_order_kind = ORDER_REVERSED

    def step(self, i: int, y: Any) -> Tuple[ExtendedInt, Any]:
        if not y:
            return INF, 0 * y
        q = math.ceil(1 / y)
        a, b, g, d = self._branch(q)
        return q, apply_matrix((d, -b, -g, a), y)  # the adjugate of the branch

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

    def _branch(self, c: int) -> Matrix:
        return c, 1, 0, c  # 1/c + t


class EngelSystem(_UnitFractionSystem):
    """Engel series expansion: same coefficient map as the Egyptian system,
    but the remainder is rescaled (``y*c - 1``), which forces the emitted
    coefficients of any one element to be non-decreasing."""

    name = "engel"

    def _branch(self, c: int) -> Matrix:
        return 1, 1, 0, c  # (1 + t)/c
