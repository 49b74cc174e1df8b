"""Expansion systems on series-like elements.

Four families live here:

* the Taylor system on power series germs (coefficient peel-off),
* Newton systems on polynomials (exact series at center 0) driven by the
  forward, backward and reflected difference operators, reconstructing
  through the matching factorial bases: a convergent, and each of its
  stages when read, is one Newton sum over the cached basis, accumulated on
  integer numerators over one denominator,
* the Fourier system on trigonometric polynomials, peeling mode pairs
  ``+-i`` at level ``i``,
* a norm-restricted Taylor system on polynomials whose reconstruction is
  genuinely partial — the standard source of improper convergents.  Its
  membership walk scales a polynomial to integers once and decides every
  stage on a slice of those numerators.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Any, List, Optional, Sequence, Tuple

from .coefficients import ComplexRational
from .core import ORDER_NONE, ORDER_STANDARD, ConvergentTrace, ExpansionSystem, LazyStages
from .errors import DomainError, TruncationInconclusive
from .polynomials import sup_norm_le, sup_norm_le_int
from .series import PowerSeries, integer_numerators, require_germ, taylor_shift_int
from .trig import TrigPolynomial

_ZERO = Fraction(0)


class TaylorSystem(ExpansionSystem):
    """Coefficient peel-off on power series germs at a fixed center.

    ``project`` reads the constant term and ``expand`` divides the rest by
    ``(x - center)``, so the ``n``-th convergent of a germ is its Taylor
    polynomial with ``n`` terms (degree ``n - 1``).  Reconstruction is total.
    """

    name = "taylor"
    kind = "series"
    coefficient_order_kind = ORDER_STANDARD

    def __init__(self, center: object = 0) -> None:
        self.center = Fraction(center)

    def neutral(self, i: int) -> PowerSeries:
        return PowerSeries.zero(self.center)

    def validate(self, i: int, y: Any) -> None:
        require_germ(y, self.center)

    def project(self, i: int, y: PowerSeries) -> Fraction:
        return y.coefficient(0)

    def expand(self, i: int, y: PowerSeries) -> PowerSeries:
        return y.shift_down()

    def reconstruct(
        self, i: int, c: Fraction, tail: PowerSeries
    ) -> Optional[PowerSeries]:
        return tail.shift_up(c)

    def is_neutral(self, i: int, y: PowerSeries) -> bool:
        if not y.is_zero():
            return False
        if not y.exact:
            raise TruncationInconclusive(
                "an all-zero truncated germ cannot be certified neutral"
            )
        return True


def _validate_polynomial(y: Any) -> None:
    """Polynomial systems take exact series at center 0 only."""
    if not isinstance(y, PowerSeries):
        raise DomainError(f"expected a polynomial, got {type(y).__name__}")
    if not y.exact:
        raise DomainError(f"{y} is truncated, not a polynomial")
    if y.center != 0:
        raise DomainError(f"polynomial centered at {y.center}, not at 0")


@functools.cache
def _factorial_basis(k: int, step: int, sign: int) -> Tuple[int, ...]:
    """Ascending integer coefficients of ``sign^k x(x - step)...(x - (k-1)
    step)``, which is ``k!`` times the basis element; built once per ``(k,
    step, sign)``, one factor ``sign (x - j step)`` at a time."""
    acc = [1]
    for j in range(k):
        a = j * step
        acc = [sign * (lo - a * hi) for lo, hi in zip([0, *acc], [*acc, 0])]
    return tuple(acc)


class _NewtonBase(ExpansionSystem):
    """Value at 0, then the difference ``s * (p(x + h) - p(x))``.

    The difference runs on the integer numerators of ``p`` over the lcm of
    its denominators (:meth:`_difference`): one
    :func:`~expansions.series.taylor_shift_int` by ``h = +-1``, which adds or
    subtracts alone, then ``s`` times the numerators' difference; ``expand``
    builds each coefficient's ``Fraction`` once, over that one denominator.

    Reconstruction is Newton interpolation through the basis
    ``B_k = (s h)^k x(x - h)...(x - (k-1) h) / k!``, which vanishes at 0 for
    ``k > 0`` and whose difference is ``B_{k-1}``.  It is total, so the
    polynomial with code ``c`` is the Newton sum ``sum_k c[k] * B_k``, and
    stage ``i`` of a convergent is the Newton sum of ``c[i:]`` (Knuth, TAOCP
    vol. 2, 4.6.4).  The sum runs on integers too: every term is scaled to
    one common denominator and each coefficient's ``Fraction`` is built once.
    ``reconstruct`` reads the tail's code with the same integer difference.
    """

    kind = "polynomial"
    coefficient_order_kind = ORDER_STANDARD
    h: int
    s: int

    def neutral(self, i: int) -> PowerSeries:
        return PowerSeries.zero()

    def validate(self, i: int, y: Any) -> None:
        _validate_polynomial(y)

    def project(self, i: int, y: PowerSeries) -> Fraction:
        """The value at 0, which is the constant term."""
        y._require_exact("evaluation")
        return y.coefficient(0)

    def _difference(self, nums: List[int]) -> List[int]:
        """``s * (q(x + h) - q(x))`` on the integer coefficients of ``q``; the
        top one is 0."""
        return [self.s * (m - c) for m, c in zip(taylor_shift_int(nums[:], self.h), nums)]

    def expand(self, i: int, y: PowerSeries) -> PowerSeries:
        y._require_exact("shift")
        nums, den = integer_numerators(y.coeffs)
        return PowerSeries._stripped(_ZERO, [Fraction(v, den) for v in self._difference(nums)])

    def _newton_sum(self, code: Sequence[Any]) -> PowerSeries:
        """``sum_k code[k] * B_k``, the polynomial whose code is ``code``.

        ``B_k`` is the cached integer row ``S_k`` of :func:`_factorial_basis`
        over ``k!``, so each nonzero ``code[k] = p/q`` is scaled to one
        denominator ``L``, the lcm of the ``q k!``: the sum adds
        ``p (L / (q k!)) S_k[j]`` on integers and builds each coefficient's
        ``Fraction`` once, over ``L``.
        """
        terms = []
        for k, c in enumerate(code):
            if c:
                c = Fraction(c)
                terms.append((c.numerator, c.denominator * math.factorial(k),
                              _factorial_basis(k, self.h, self.s * self.h)))
        den = math.lcm(*[q for _, q, _ in terms])  # a list: see series.integer_numerators
        out = [0] * len(code)
        for p, q, row in terms:
            w = p * (den // q)
            for j, b in enumerate(row):
                out[j] += w * b
        return PowerSeries._stripped(_ZERO, [Fraction(v, den) for v in out])

    def reconstruct(self, i: int, c: Fraction, tail: PowerSeries) -> PowerSeries:
        """The Newton sum of ``c`` and the code of ``tail``, the only series
        built: the code is read on the integer numerators of ``tail``, the
        value at 0 then :meth:`_difference`, which ``expand`` runs too."""
        tail._require_exact("evaluation")
        nums, den = integer_numerators(tail.coeffs)
        code = [c]
        while nums:
            code.append(Fraction(nums[0], den))
            nums = self._difference(nums)[:-1]
        return self._newton_sum(code)

    def backward_pass(self, coeffs: Sequence[Any]) -> ConvergentTrace:
        """Level 0 as one Newton sum; the other stages are built when read
        (:class:`LazyStages`)."""
        code = tuple(coeffs)
        n = len(code)
        stages = LazyStages(n + 1, lambda k: self._newton_sum(code[k:]), self._newton_sum(code))
        return ConvergentTrace(n=n, stages=stages, improper_at=None)


class NewtonForwardSystem(_NewtonBase):
    """Forward-difference peel-off: value at 0, then ``p(x+1) - p(x)``.

    Reconstruction inverts the difference through the binomial basis, so the
    ``n``-th convergent interpolates the original polynomial at ``0..n-1``.
    """

    name = "newton-forward"
    h, s = 1, 1


class NewtonBackwardSystem(_NewtonBase):
    """Backward-difference peel-off: value at 0, then ``p(x) - p(x-1)``.

    The inverse runs through the rising-factorial basis ``x(x+1)..(x+k-1)/k!``
    (whose backward difference is the previous basis element).
    """

    name = "newton-backward"
    h, s = -1, -1


class NewtonReflectedSystem(_NewtonBase):
    """Conjugate of the forward system under ``y(x) -> -y(-x)``, ``c -> -c``.

    Its expansion step is ``p(x-1) - p(x)`` (the negated backward difference),
    and its basis is the conjugated binomial basis ``(-1)^k x(x+1)..(x+k-1)/k!``.
    """

    name = "newton-reflected"
    h, s = -1, 1


class FourierSystem(ExpansionSystem):
    """Mode-pair peel-off on trigonometric polynomials.

    Level ``i`` projects the amplitude pair of modes ``-i`` and ``+i`` and
    removes those modes; level 0 carries the single mode-0 amplitude twice
    and removes it once.  Reconstruction is partial: the tail must be free of
    the modes being restored (and the level-0 pair must agree).
    """

    name = "fourier"
    kind = "trig"
    coefficient_order_kind = ORDER_NONE

    def neutral(self, i: int) -> TrigPolynomial:
        return TrigPolynomial.zero()

    def validate(self, i: int, y: Any) -> None:
        if not isinstance(y, TrigPolynomial):
            raise DomainError(f"expected TrigPolynomial, got {type(y).__name__}")

    def project(
        self, i: int, y: TrigPolynomial
    ) -> Tuple[ComplexRational, ComplexRational]:
        if i == 0:
            a = y.amplitude(0)
            return (a, a)
        return (y.amplitude(-i), y.amplitude(i))

    def expand(self, i: int, y: TrigPolynomial) -> TrigPolynomial:
        if i == 0:
            return y.without_modes(0)
        return y.without_modes(-i, i)

    def reconstruct(
        self,
        i: int,
        c: Tuple[ComplexRational, ComplexRational],
        tail: TrigPolynomial,
    ) -> Optional[TrigPolynomial]:
        lo, hi = c
        if i == 0:
            if not (lo - hi).is_zero():
                return None
            if not tail.amplitude(0).is_zero():
                return None
            return tail + TrigPolynomial.basis(0, lo)
        if not tail.amplitude(-i).is_zero() or not tail.amplitude(i).is_zero():
            return None
        return tail + TrigPolynomial.of({-i: lo, i: hi})


class NormTaylorSystem(TaylorSystem):
    """Taylor peel-off on polynomials restricted by a sup-norm bound.

    A polynomial belongs to the system iff every stage of its coefficient
    peel-off has sup-norm at most 1 on ``[0, 1]`` (the largest subset of that
    norm ball carried into itself by the expansion step).  Projection and
    expansion are the Taylor system's at center 0; reconstruction must
    *decide* whether the rebuilt polynomial still satisfies the bound, and
    returns ``None`` when it does not — the reference source of improper
    convergents.
    """

    name = "norm-taylor"
    kind = "polynomial"

    bound = Fraction(1)

    def __init__(self) -> None:
        super().__init__()

    def _member(self, y: PowerSeries) -> bool:
        """Every peel-off stage of ``y``, its zero stage included, within the
        bound: ``y`` and the bound are scaled to integers once, and stage
        ``k`` is decided on the numerators ``nums[k:]`` against the scaled
        bound ``top``, as one positive scaling keeps every verdict."""
        (top, *nums), _ = integer_numerators((self.bound, *y.coeffs))
        return all(sup_norm_le_int(nums[k:], top) for k in range(len(nums) + 1))

    def validate(self, i: int, y: Any) -> None:
        _validate_polynomial(y)
        if not self._member(y):
            raise DomainError(
                f"{y} has a peel-off stage with sup-norm above {self.bound} on [0, 1]"
            )

    def reconstruct(
        self, i: int, c: Fraction, tail: PowerSeries
    ) -> Optional[PowerSeries]:
        """``c + x * tail`` when its sup-norm is within the bound, else ``None``.

        ``tail`` is a level-``i + 1`` element, hence a member: every later
        stage of the candidate is a stage of ``tail`` and already within the
        bound, so only the candidate itself is decided, by ``sup_norm_le``
        and the integer decision that the membership walk runs per stage.
        """
        candidate = tail.shift_up(c)
        return candidate if sup_norm_le(candidate, self.bound) else None
