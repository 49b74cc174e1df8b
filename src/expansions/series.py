"""Power series with exact rational coefficients and truncation tracking.

A :class:`PowerSeries` is a germ at a rational center: a sequence of
coefficients in powers of ``(x - center)`` plus an ``exact`` flag.  An exact
series *is* the polynomial its coefficients spell (everything beyond them is
zero, and trailing zeros are stripped); an inexact series is knowledge of a
function up to its stored order only, so operations shrink the known order
rather than invent coefficients, and questions beyond it raise
:class:`~expansions.errors.TruncationInconclusive`.

Exact polynomials are exact series: ``PowerSeries.of(1, 0, -2)`` is
``1 - 2x^2`` at center 0, and the polynomial-only operations (``degree``,
evaluation, the Taylor ``shift``) refuse a truncated series.  Every exact
Taylor shift in the package, ``shift`` itself, the Newton systems' difference
step and the Bernstein transform of :mod:`~expansions.polynomials`, runs on
integers in the one kernel :func:`taylor_shift_int`, over the numerators that
:func:`integer_numerators` scales to the lcm of the denominators; ``shift``
and the Newton step build each ``Fraction`` once at the end.

An exact series stores a tuple.  A truncated result of the analytic kernels
and of the linear operations stores a lazy stream instead, in the manner of
McIlroy's "Power series, power serious": its length, the known order plus
one, is fixed when it is built, and each coefficient is computed on its
first read and kept.  Its coefficient ``k`` is ``rule(k, views)``, where
``views[i]`` is the coefficient list of source ``i``: a source stream's memo
list or a source tuple.  Every check that can fail runs when the series is
built, so a coefficient read never raises.

Each linear operation is one coefficient rule, run by ``index_map``
(``scale``, unary ``-``, ``differentiate``, ``integrate``, ``reflect``) or
``_combine`` (``+``, ``-``) into a stripped tuple on exact inputs and into one
stream otherwise; only the exact slices of ``shift_down`` and ``shift_up``,
the polynomial systems' Taylor steps, skip the rule call per coefficient.

The analytic kernels (``power``, ``log``, ``exp``) are online coefficient
recurrences driven by the derivative identities: coefficient ``m`` of the
result reads only coefficients ``0..m`` of the input.  Each takes an explicit
output order when the input is exact, because their results are in general
not polynomial.
"""

from __future__ import annotations

import math
import operator
from collections import abc
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .errors import DomainError, TruncationInconclusive

_ZERO = Fraction(0)
_ONE = Fraction(1)


def power_by_squaring(base: Any, k: int, unit: Any) -> Any:
    """``base ** k`` for an integer ``k >= 0`` from ``*`` and ``unit`` alone,
    by left-to-right binary squaring (Knuth, TAOCP vol. 2, 4.6.3): the exact
    product of ``k`` factors in about ``log2 k`` squarings."""
    if not k:
        return unit
    acc = base
    for bit in bin(k)[3:]:
        acc = acc * acc
        if bit == "1":
            acc = acc * base
    return acc


def integer_numerators(cs: Sequence[Fraction]) -> Tuple[List[int], int]:
    """``(nums, den)`` with ``cs[k] == nums[k] / den``, ``den`` being the lcm
    of the denominators of ``cs`` (1 for an empty ``cs``)."""
    den = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def taylor_shift_int(cs: List[int], a: int) -> List[int]:
    """Taylor shift ``q(x) -> q(x + a)`` in place on the ascending integer
    coefficients ``cs`` of ``q``, by an integer ``a``; returns ``cs``.

    Repeated synthetic division (von zur Gathen and Gerhard, ISSAC 1997):
    pass ``i`` is Horner's rule by ``a`` on ``cs[i:]`` from the top.  For
    ``a = +-1``, the shifts of the Newton steps and of the Bernstein
    transform, the passes add or subtract alone, which is faster than the
    multiply-add of any other ``a``.
    """
    top = len(cs) - 1
    for i in range(top):
        if a == 1:
            for j in range(top - 1, i - 1, -1):
                cs[j] += cs[j + 1]
        elif a == -1:
            for j in range(top - 1, i - 1, -1):
                cs[j] -= cs[j + 1]
        elif a:
            for j in range(top - 1, i - 1, -1):
                cs[j] += a * cs[j + 1]
    return cs


#: the coefficient lists of a stream's sources, and its coefficient rule
_Views = List[Sequence[Fraction]]
_Rule = Callable[[int, _Views], Fraction]


class _Stream(abc.Sequence):
    """Coefficients of a truncated series, computed in order on first read
    and kept.

    Coefficient ``k`` is ``rule(k, views)``.  Each view is the coefficient
    list of one source: a source stream's memo list, or a tuple.
    ``_sources`` pairs each source stream that was partly read when this one
    was built with its offset: coefficient ``k`` reads that source up to
    coefficient ``k + offset``.  A read past the memo walks down to the short
    sources with an explicit stack, so a chain of any depth reads alike, and
    extends a stream only once all its sources are long enough, so that its
    rule indexes memoised coefficients only.  A complete stream drops its
    rule, its views and its sources.
    """

    __slots__ = ("_memo", "_rule", "_views", "_len", "_sources")

    def __init__(self, length: int, rule: _Rule, views: _Views, sources: list) -> None:
        self._memo: List[Fraction] = []
        self._rule: Optional[_Rule] = rule
        self._views: Optional[_Views] = views
        self._len = length
        self._sources = sources

    @property
    def computed(self) -> int:
        """Number of coefficients computed so far."""
        return len(self._memo)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: Any) -> Any:
        if isinstance(k, slice):
            return tuple(self[j] for j in range(*k.indices(self._len)))
        if k < 0:
            k += self._len
        memo = self._memo
        if k < len(memo):
            return memo[k]
        if not 0 <= k < self._len:
            raise IndexError("coefficient index out of range")
        s, n, above = self, k + 1, []
        while True:
            for src, offset in s._sources:
                if len(src._memo) < n + offset:
                    above.append((s, n))
                    s, n = src, n + offset
                    break
            else:
                s_memo, rule, views = s._memo, s._rule, s._views
                while len(s_memo) < n:
                    s_memo.append(rule(len(s_memo), views))
                if len(s_memo) == s._len:
                    s._rule, s._views, s._sources = None, None, []
                if not above:
                    return memo[k]
                s, n = above.pop()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _Stream)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class _Row:
    """Rational sequence kept as integers over its running denominator lcm
    (``ints[j] = value_j * lcm``).

    The analytic kernels accumulate their recurrence rows over this common
    denominator, which costs one gcd per coefficient instead of one per
    inner-loop addition.
    """

    __slots__ = ("ints", "lcm")

    def __init__(self, seed: int) -> None:
        self.ints = [seed]
        self.lcm = 1

    def push(self, value: Fraction) -> Fraction:
        d = value.denominator
        if self.lcm % d:
            factor = d // math.gcd(self.lcm, d)
            self.lcm *= factor
            self.ints = [c * factor for c in self.ints]
        self.ints.append(value.numerator * (self.lcm // d))
        return value


@dataclass(frozen=True)
class PowerSeries:
    """Series ``sum coeffs[k] * (x - center)**k``, exact or truncated.

    ``coeffs`` is a tuple on an exact series and a tuple or a lazy stream on
    a truncated one (see the module docs).
    """

    center: Fraction
    coeffs: Sequence[Fraction]
    exact: bool

    def __post_init__(self) -> None:
        if self.exact:
            if self.coeffs and self.coeffs[-1] == 0:
                raise ValueError("exact series must have trailing zeros stripped")
        elif not self.coeffs:
            raise ValueError("a truncated series must carry at least one coefficient")

    # -- construction ------------------------------------------------------

    @staticmethod
    def exact_poly(center: object, coeffs: object) -> "PowerSeries":
        return PowerSeries._stripped(Fraction(center), [Fraction(c) for c in coeffs])

    @staticmethod
    def of(*coeffs: object) -> "PowerSeries":
        """Exact polynomial at center 0 from ascending coefficients
        (``of(1, 0, -2)`` is ``1 - 2x^2``)."""
        return PowerSeries.exact_poly(_ZERO, coeffs)

    @staticmethod
    def x() -> "PowerSeries":
        return PowerSeries(_ZERO, (_ZERO, _ONE), exact=True)

    @staticmethod
    def _stripped(center: Fraction, cs: List[Fraction]) -> "PowerSeries":
        """Exact series from a list of ``Fraction`` values, stripped in place."""
        while cs and not cs[-1]:
            cs.pop()
        return PowerSeries(center, tuple(cs), exact=True)

    @staticmethod
    def truncated(center: object, coeffs: object) -> "PowerSeries":
        cs = tuple(Fraction(c) for c in coeffs)
        return PowerSeries(Fraction(center), cs, exact=False)

    @staticmethod
    def zero(center: object = 0) -> "PowerSeries":
        return PowerSeries(Fraction(center), (), exact=True)

    @staticmethod
    def constant(center: object, value: object) -> "PowerSeries":
        return PowerSeries.exact_poly(center, [value])

    # -- structural queries --------------------------------------------------

    @property
    def known_order(self) -> Optional[int]:
        """Highest reliable coefficient index; ``None`` when exact."""
        return None if self.exact else len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        """Degree of an exact series, with -1 for zero."""
        self._require_exact("degree")
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of ``(x - center)**k``; zero for negative ``k``."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        if self.exact or k < 0:
            return _ZERO
        raise TruncationInconclusive(
            f"coefficient {k} beyond known order {len(self.coeffs) - 1}"
        )

    def is_zero(self) -> bool:
        """True iff this series is identically zero *as far as it knows*.

        For an exact series that settles the matter; an inexact all-zero germ
        cannot distinguish 0 from a flat-looking nonzero function, which is
        the caller's problem (see multiplicity handling).
        """
        if self.exact:
            return not self.coeffs
        return all(c == 0 for c in self.coeffs)

    # equality/hashing ignore the exactness flag: an exact polynomial and its
    # faithful truncation to the same stored coefficients compare equal

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.center == other.center and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.center, self.coeffs))

    # -- helpers -------------------------------------------------------------

    def _require_exact(self, what: str) -> None:
        if not self.exact:
            raise TruncationInconclusive(
                f"{what} needs an exact series, not one known to order {len(self.coeffs) - 1}"
            )

    def _require_same_center(self, other: "PowerSeries") -> None:
        if self.center != other.center:
            raise DomainError(
                f"series centers differ: {self.center} vs {other.center}"
            )

    @staticmethod
    def _merge_known(
        a: "PowerSeries", b: "PowerSeries"
    ) -> Optional[int]:
        ka, kb = a.known_order, b.known_order
        if ka is None:
            return kb
        if kb is None:
            return ka
        return min(ka, kb)

    def _stream(
        self, length: int, rule: _Rule, *sources: Tuple["PowerSeries", int]
    ) -> "PowerSeries":
        """Truncated series of ``length`` coefficients, coefficient ``k`` being
        ``rule(k, views)``, which reads source ``i``, a ``(series, offset)``
        pair of ``sources``, up to ``k + offset`` in ``views[i]``: a stream's
        memo list, filled by the walk before the rule runs (``_Stream``), or a
        tuple, padded with zeros here when it is shorter."""
        views, pairs = [], []
        for src, offset in sources:
            cs, need = src.coeffs, length + offset
            if isinstance(cs, _Stream):
                views.append(cs._memo)
                if cs._rule is not None:
                    pairs.append((cs, offset))
            else:
                views.append(cs if len(cs) >= need else [*cs, *[_ZERO] * (need - len(cs))])
        return PowerSeries(self.center, _Stream(length, rule, views, pairs), exact=False)

    # -- ring operations -------------------------------------------------------

    def _combine(
        self, other: "PowerSeries", op: Callable[[Fraction, Fraction], Fraction]
    ) -> "PowerSeries":
        """The series whose coefficient ``k`` is ``op(a_k, b_k)``, with zero
        past the end of an exact operand: a stripped tuple when both are
        exact, one stream to the smaller known order otherwise."""
        self._require_same_center(other)
        known = self._merge_known(self, other)
        if known is None:
            return PowerSeries._stripped(self.center, [
                op(a, b) for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=_ZERO)])
        return self._stream(known + 1, lambda k, v: op(v[0][k], v[1][k]), (self, 0), (other, 0))

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return self._combine(other, operator.add)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "PowerSeries":
        return self.scale(-1)

    def scale(self, factor: object) -> "PowerSeries":
        factor = Fraction(factor)
        return self.index_map(len(self.coeffs), 0, lambda k, a: factor * a)

    def __mul__(self, other: object) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._require_same_center(other)
        known = self._merge_known(self, other)
        if known is None:
            if not self.coeffs or not other.coeffs:
                return PowerSeries.zero(self.center)
            size = len(self.coeffs) + len(other.coeffs) - 1
        else:
            size = known + 1
        out = [_ZERO] * size
        for i, a in enumerate(self.coeffs):
            if i >= size:
                break
            for j, b in enumerate(other.coeffs):
                if i + j >= size:
                    break
                out[i + j] += a * b
        if known is None:
            return PowerSeries._stripped(self.center, out)
        return PowerSeries(self.center, tuple(out), exact=False)

    __rmul__ = __mul__

    # -- order manipulation ------------------------------------------------------

    def shift_down(self) -> "PowerSeries":
        """Drop the constant term and divide by ``(x - center)``."""
        cs = self.coeffs
        if self.exact:
            return PowerSeries(self.center, cs[1:], exact=True)
        if len(cs) == 1:
            raise TruncationInconclusive(
                "shifting down an order-0 germ leaves no known coefficients"
            )
        return self._stream(len(cs) - 1, lambda k, v: v[0][k + 1], (self, 1))

    def shift_up(self, constant: object = 0) -> "PowerSeries":
        """Multiply by ``(x - center)`` and prepend a constant term."""
        constant = Fraction(constant)
        cs = self.coeffs
        if self.exact:
            return PowerSeries._stripped(self.center, [constant, *cs])
        return self._stream(len(cs) + 1, lambda k, v: v[0][k - 1] if k else constant, (self, -1))

    def index_map(
        self, length: int, offset: int, f: Callable[[int, Fraction], Fraction]
    ) -> "PowerSeries":
        """The series whose coefficient ``k < length`` is ``f(k, a)``, ``a``
        being coefficient ``k + offset`` of this one, or zero below index 0
        and past the end of an exact series: a stripped tuple when this series
        is exact, one stream when it is truncated (``length + offset`` must
        not pass its length)."""
        cs = self.coeffs
        if self.exact:
            n = len(cs)
            return PowerSeries._stripped(self.center, [
                f(k, cs[k + offset] if 0 <= k + offset < n else _ZERO) for k in range(length)])
        return self._stream(
            length, lambda k, v: f(k, v[0][k + offset] if k + offset >= 0 else _ZERO),
            (self, offset))

    # -- calculus -----------------------------------------------------------------

    def differentiate(self) -> "PowerSeries":
        cs = self.coeffs
        if not self.exact and len(cs) == 1:
            raise TruncationInconclusive(
                "differentiating an order-0 germ leaves no known coefficients"
            )
        return self.index_map(len(cs) - 1, 1, lambda k, a: (k + 1) * a)

    def integrate(self, constant: object = 0) -> "PowerSeries":
        constant = Fraction(constant)
        return self.index_map(len(self.coeffs) + 1, -1, lambda k, a: a / k if k else constant)

    # -- polynomial evaluation and substitution ----------------------------------

    def __call__(self, x: object) -> Fraction:
        """Horner evaluation of an exact series at ``x``."""
        self._require_exact("evaluation")
        if self.center:
            x = x - self.center
        acc: Fraction = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, a: object) -> "PowerSeries":
        """Substitute ``x + a`` for ``x``, re-expanded about the same center.

        The Taylor shift on integer numerators over the lcm ``den`` of the
        coefficients' denominators: for ``a = p/q`` it substitutes
        ``x = y/q``, which scales numerator ``k`` of a degree-``n`` series by
        ``q^(n-k)``, shifts ``y`` by ``p`` with :func:`taylor_shift_int` and
        builds each coefficient's ``Fraction`` once, numerator ``k`` over
        ``den q^(n-k)``.
        """
        self._require_exact("shift")
        a = Fraction(a)
        nums, den = integer_numerators(self.coeffs)
        scales = [a.denominator ** k for k in range(len(nums) - 1, -1, -1)]
        moved = taylor_shift_int([c * w for c, w in zip(nums, scales)], a.numerator)
        return PowerSeries(self.center, tuple(
            Fraction(c, den * w) for c, w in zip(moved, scales)), exact=True)

    def reflect(self) -> "PowerSeries":
        """The series ``-p(-x)``, which is centered at ``-center``."""
        out = self.index_map(len(self.coeffs), 0, lambda k, a: a if k % 2 else -a)
        return PowerSeries(-self.center, out.coeffs, self.exact)

    # -- analytic kernels -----------------------------------------------------------

    def power(self, alpha: object, order: Optional[int] = None) -> "PowerSeries":
        """Raise to the rational power ``alpha``.

        Integer ``alpha >= 0`` on an exact series stays exact (repeated
        squaring); otherwise requires constant term 1 and runs the
        first-order recurrence ``n p_n = sum ((alpha+1)k - n) h_k p_{n-k}``.
        """
        alpha = Fraction(alpha)
        if self.exact and alpha.denominator == 1 and alpha >= 0:
            one = PowerSeries.constant(self.center, 1)
            return power_by_squaring(self, int(alpha), one)
        if self.coefficient(0) != 1:
            raise DomainError(
                f"power kernel needs constant term 1, got {self.coefficient(0)}"
            )
        ap1 = alpha + 1
        A, a = ap1.numerator, ap1.denominator

        def step(m: int, inp: _Row, row: _Row) -> Fraction:
            H, P = inp.ints, row.ints
            acc = 0
            for k in range(1, m + 1):
                if H[k] and P[m - k]:
                    acc += (A * k - a * m) * H[k] * P[m - k]
            return Fraction(acc, m * a * inp.lcm * row.lcm)

        return self._kernel(order, 1, step)

    def log(self, order: Optional[int] = None) -> "PowerSeries":
        """Logarithm of a series with constant term 1."""
        if self.coefficient(0) != 1:
            raise DomainError(
                f"log kernel needs constant term 1, got {self.coefficient(0)}"
            )

        def step(m: int, inp: _Row, row: _Row) -> Fraction:
            H, P = inp.ints, row.ints
            acc = 0
            for k in range(1, m):
                if P[k] and H[m - k]:
                    acc += k * P[k] * H[m - k]
            return Fraction(H[m] * m * row.lcm - acc, m * inp.lcm * row.lcm)

        return self._kernel(order, 0, step)

    def exp(self, order: Optional[int] = None) -> "PowerSeries":
        """Exponential of a series with constant term 0."""
        if self.coefficient(0) != 0:
            raise DomainError(
                f"exp kernel needs constant term 0, got {self.coefficient(0)}"
            )

        def step(m: int, inp: _Row, row: _Row) -> Fraction:
            F, P = inp.ints, row.ints
            acc = 0
            for k in range(1, m + 1):
                if F[k] and P[m - k]:
                    acc += k * F[k] * P[m - k]
            return Fraction(acc, m * inp.lcm * row.lcm)

        return self._kernel(order, 1, step)

    def _kernel(
        self, order: Optional[int], seed: int, step: Callable[[int, _Row, _Row], Fraction]
    ) -> "PowerSeries":
        """Online kernel to ``order``, at most the known order: coefficient ``m``
        is ``step(m, input row, output row)``, with ``h_m`` pushed onto the
        input row (seeded with 0, since no kernel reads ``h_0``) just before."""
        n = self.known_order
        if order is not None:
            n = order if n is None else min(order, n)
        elif n is None:
            raise DomainError("an exact series needs an explicit output order here")
        inp, row = _Row(0), _Row(seed)

        def rule(m: int, views: _Views) -> Fraction:
            if not m:
                return Fraction(seed)
            inp.push(views[0][m])
            return row.push(step(m, inp, row))

        return self._stream(n + 1, rule, (self, 0))

    def divide(self, other: "PowerSeries", order: Optional[int] = None) -> "PowerSeries":
        """Divide by a series with nonzero constant term."""
        self._require_same_center(other)
        b0 = other.coefficient(0)
        if b0 == 0:
            raise DomainError("division by a series with zero constant term")
        inv = other.scale(1 / b0).power(Fraction(-1), order)
        return (self * inv).scale(1 / b0)

    # -- conversions ---------------------------------------------------------------------

    def __str__(self) -> str:
        var = "x" if self.center == 0 else f"(x-{self.center})"
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0 and (self.exact or len(self.coeffs) > 1):
                continue
            if k == 0:
                parts.append(str(c))
            else:
                head = var if k == 1 else f"{var}^{k}"
                parts.append(f"{c} {head}" if abs(c) != 1 else (head if c == 1 else f"-{head}"))
        body = " + ".join(parts).replace("+ -", "- ") or "0"
        if not self.exact:
            body += f" + O({var}^{len(self.coeffs)})"
        return body


def require_germ(y: Any, center: Fraction) -> None:
    """Refuse anything but a :class:`PowerSeries` centered at ``center``."""
    if not isinstance(y, PowerSeries):
        raise DomainError(f"expected PowerSeries, got {type(y).__name__}")
    if y.center != center:
        raise DomainError(f"germ centered at {y.center}, system at {center}")
