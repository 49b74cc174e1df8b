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
and of the ring and linear operations stores a lazy stream instead, in the
manner of McIlroy's "Power series, power serious": its length, the known order
plus one, is fixed when it is built, and each coefficient is computed on its
first read and kept.  A stream keeps its coefficients as one integer row,
numerators over one positive denominator (:class:`_Row`, the layout of FLINT's
``fmpq_poly``), and a ``Fraction`` is built when a coefficient is read through
``coeffs``, so ``==``, ``hash`` and ``str`` see the reduced values.  Its
coefficient ``k`` is ``rule(k, views)``, which returns integers
``(num, den)``, ``den > 0``: ``views[i]`` is the row of source ``i``, a source
stream's own row or the row that :func:`integer_numerators` scales a source
tuple to once.  Every check that can fail runs when the series is built, so a
coefficient read never raises.

Every ring and linear operation is one integer rule, built by ``_stream``,
which alone chooses the result's form: when every source is exact it runs the
rule at once into a stripped tuple, and otherwise it builds one stream.  The
rules are ``index_map``'s (``scale``, unary ``-``, ``differentiate``,
``integrate``, ``reflect``), ``_combine``'s (``+``, ``-``) and the Cauchy
product's (``*``), which skips zero terms, so a truncated product and
``divide`` stay lazy and an exact product runs on integers.  Only the exact
slices of ``shift_down`` and ``shift_up``, the polynomial systems' Taylor
steps, skip the rule call per coefficient.

The analytic kernels (``power``, ``log``, ``exp``) are online coefficient
recurrences driven by the derivative identities: coefficient ``m`` of the
result reads only coefficients ``0..m`` of the input, on the integers of the
input's row and of the result's own.  Each takes an explicit output order
when the input is exact, because their results are in general not
polynomial.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

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
    # a list, not a generator: CPython resizes a tuple built from a generator
    # and parks it on the free list of its final size, which only a direct
    # allocation of that size drains, so each call would hold memory
    den = math.lcm(*[c.denominator for c in cs])
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


class _Row:
    """Rational sequence as integers over one positive denominator:
    value ``j`` is ``ints[j] / den``.

    A row starts at its first value and ``push`` appends each later one,
    reduced by one gcd and rescaling the row when its denominator does not
    divide ``den``; so ``den`` is exactly the lcm of the reduced denominators
    the row holds, and sizes cannot creep along a chain of streams.
    """

    __slots__ = ("ints", "den")

    def __init__(self, ints: List[int], den: int) -> None:
        self.ints = ints
        self.den = den

    def start(self, num: int, den: int) -> None:
        g = math.gcd(num, den)
        self.ints, self.den = [num // g], den // g

    def push(self, num: int, den: int) -> None:
        g = math.gcd(num, den)
        if g != 1:
            num, den = num // g, den // g
        if self.den % den:
            factor = den // math.gcd(self.den, den)
            self.den *= factor
            self.ints = [c * factor for c in self.ints]
        self.ints.append(num * (self.den // den))


#: the rows of a stream's sources, and its coefficient rule
_Views = List[_Row]
_Rule = Callable[[int, _Views], Tuple[int, int]]


class _Stream:
    """Coefficients of a truncated series, computed in order on first read
    and kept in one integer row; a ``Fraction`` is built when read.

    Coefficient ``k`` is ``rule(k, views)``, a pair ``(num, den)``.  Each
    view is the row of one source: a source stream's own row, or a tuple's.
    ``_sources`` pairs each source stream that was partly read when this one
    was built with its offset: coefficient ``k`` reads that source up to
    coefficient ``k + offset``.  A read past the row walks down to the short
    sources with an explicit stack, so a chain of any depth reads alike, and
    extends a stream only once all its sources are long enough, so that its
    rule indexes computed integers only.  A complete stream drops its rule,
    its views and its sources.
    """

    __slots__ = ("_row", "_rule", "_views", "_len", "_sources")

    def __init__(self, length: int, rule: _Rule, views: _Views, sources: list,
                 row: _Row) -> None:
        self._row = row
        self._rule: Optional[_Rule] = rule
        self._views: Optional[_Views] = views
        self._len = length
        self._sources = sources

    @property
    def computed(self) -> int:
        """Number of coefficients computed so far."""
        return len(self._row.ints)

    def __len__(self) -> int:
        return self._len

    def _fill(self, n: int) -> None:
        """Compute the first ``n`` coefficients, sources first."""
        s, above = self, []
        while True:
            for src, offset in s._sources:
                if len(src._row.ints) < n + offset:
                    above.append((s, n))
                    s, n = src, n + offset
                    break
            else:
                row, rule, views = s._row, s._rule, s._views
                k = len(row.ints)
                if not k:
                    row.start(*rule(0, views))
                    k = 1
                for k in range(k, n):
                    row.push(*rule(k, views))
                if n == s._len:
                    s._rule, s._views, s._sources = None, None, []
                if not above:
                    return
                s, n = above.pop()

    def __getitem__(self, k: Any) -> Any:
        if isinstance(k, slice):
            return tuple([self[j] for j in range(*k.indices(self._len))])  # see integer_numerators
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("coefficient index out of range")
        row = self._row
        if k >= len(row.ints):
            self._fill(k + 1)
        return Fraction(row.ints[k], row.den)

    def __iter__(self) -> Iterator[Fraction]:
        return map(self.__getitem__, range(self._len))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _Stream)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def first_nonzero(cs: Sequence[Fraction], start: int) -> Optional[int]:
    """Index of the first nonzero of the coefficients ``cs`` from ``start``
    on, or ``None``; a stream computes only up to that index and tests the
    integers of its row."""
    if not isinstance(cs, _Stream):
        return next((k for k in range(start, len(cs)) if cs[k]), None)
    row = cs._row
    for k in range(start, len(cs)):
        if k >= len(row.ints):
            cs._fill(k + 1)
        if row.ints[k]:
            return k
    return None


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
        cs = tuple([Fraction(c) for c in coeffs])  # see integer_numerators
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
        return first_nonzero(self.coeffs, 0) is None

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

    def _stream(
        self, length: int, rule: _Rule, *sources: Tuple["PowerSeries", int],
        row: Optional[_Row] = None,
    ) -> "PowerSeries":
        """Series of ``length`` coefficients, coefficient ``k`` being the
        integers ``rule(k, views)``, which reads source ``i``, a
        ``(series, offset)`` pair of ``sources``, up to ``k + offset`` in the
        row ``views[i]``: a stream's own row, filled by the walk before the
        rule runs (``_Stream``), or a tuple's, scaled once here and padded
        with zeros when it is shorter.  When every source is exact and no
        ``row`` is given, the rule runs here for each ``k`` and the result is
        a stripped exact tuple; otherwise it is one stream, which keeps its
        coefficients in ``row``, a new empty row unless a kernel's rule reads
        it."""
        views, pairs, exact = [], [], row is None
        for src, offset in sources:
            cs, exact = src.coeffs, exact and src.exact
            if isinstance(cs, _Stream):
                views.append(cs._row)
                if cs._rule is not None:
                    pairs.append((cs, offset))
            else:
                nums, den = integer_numerators(cs)
                nums += [0] * (length + offset - len(nums))
                views.append(_Row(nums, den))
        if exact:
            return PowerSeries._stripped(
                self.center, [Fraction(*rule(k, views)) for k in range(length)])
        return PowerSeries(self.center, _Stream(length, rule, views, pairs, row or _Row([], 1)),
                           exact=False)

    # -- ring operations -------------------------------------------------------

    def _combine(
        self, other: "PowerSeries", op: Callable[[Fraction, Fraction], Fraction]
    ) -> "PowerSeries":
        """The series whose coefficient ``k`` is ``op(a_k, b_k)``, with zero
        past the end of an exact operand, to the longer length when both are
        exact and to the shorter truncated operand's length otherwise."""
        self._require_same_center(other)
        la, lb = len(self.coeffs), len(other.coeffs)
        n = max(la, lb) if self.exact and other.exact else min(
            lb if self.exact else la, la if other.exact else lb)

        def rule(k: int, views: _Views) -> Tuple[int, int]:
            a, b = views
            return op(a.ints[k] * b.den, b.ints[k] * a.den), a.den * b.den

        return self._stream(n, rule, (self, 0), (other, 0))

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return self._combine(other, operator.add)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "PowerSeries":
        return self.scale(-1)

    def scale(self, factor: object) -> "PowerSeries":
        factor = Fraction(factor)
        p, q = factor.numerator, factor.denominator
        return self.index_map(0, lambda k, n, d: (p * n, q * d))

    def __mul__(self, other: object) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._require_same_center(other)
        # the length rule of _combine, but an exact product has la + lb - 1
        la, lb = len(self.coeffs), len(other.coeffs)
        n = la + lb - 1 if self.exact and other.exact else min(
            lb if self.exact else la, la if other.exact else lb)

        def rule(k: int, views: _Views) -> Tuple[int, int]:
            a, b = views
            A, B = a.ints, b.ints
            acc = 0
            for i in range(k + 1):
                if A[i] and B[k - i]:
                    acc += A[i] * B[k - i]
            return acc, a.den * b.den

        return self._stream(n, rule, (self, 0), (other, 0))

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
        return self._stream(len(cs) - 1, lambda k, v: (v[0].ints[k + 1], v[0].den), (self, 1))

    def shift_up(self, constant: object = 0) -> "PowerSeries":
        """Multiply by ``(x - center)`` and prepend a constant term."""
        constant = Fraction(constant)
        cs = self.coeffs
        if self.exact:
            return PowerSeries._stripped(self.center, [constant, *cs])
        p, q = constant.numerator, constant.denominator
        return self._stream(
            len(cs) + 1, lambda k, v: (v[0].ints[k - 1], v[0].den) if k else (p, q), (self, -1))

    def index_map(
        self, offset: int, f: Callable[[int, int, int], Tuple[int, int]]
    ) -> "PowerSeries":
        """The series of ``len(coeffs) - offset`` coefficients whose
        coefficient ``k`` is ``f(k, num, den)``, the integers (denominator
        positive) of an integer scaling of ``num / den`` (``den > 0``),
        coefficient ``k + offset`` of this one or zero below index 0: one
        integer rule, which ``_stream`` runs at once into a stripped tuple
        when this series is exact and into one stream when it is
        truncated."""
        return self._stream(
            len(self.coeffs) - offset,
            lambda k, v: f(k, v[0].ints[k + offset], v[0].den) if k + offset >= 0
            else f(k, 0, 1), (self, offset))

    # -- calculus -----------------------------------------------------------------

    def differentiate(self) -> "PowerSeries":
        cs = self.coeffs
        if not self.exact and len(cs) == 1:
            raise TruncationInconclusive(
                "differentiating an order-0 germ leaves no known coefficients"
            )
        return self.index_map(1, lambda k, n, d: ((k + 1) * n, d))

    def integrate(self, constant: object = 0) -> "PowerSeries":
        constant = Fraction(constant)
        p, q = constant.numerator, constant.denominator
        return self.index_map(-1, lambda k, n, d: (n, d * k) if k else (p, q))

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
        out = self.index_map(0, lambda k, n, d: (n if k % 2 else -n, d))
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

        def step(m: int, inp: _Row, row: _Row) -> Tuple[int, int]:
            H, P = inp.ints, row.ints
            acc = 0
            for k in range(1, m + 1):
                if H[k] and P[m - k]:
                    acc += (A * k - a * m) * H[k] * P[m - k]
            return acc, m * a * inp.den * row.den

        return self._kernel(order, 1, step)

    def log(self, order: Optional[int] = None) -> "PowerSeries":
        """Logarithm of a series with constant term 1."""
        if self.coefficient(0) != 1:
            raise DomainError(
                f"log kernel needs constant term 1, got {self.coefficient(0)}"
            )

        def step(m: int, inp: _Row, row: _Row) -> Tuple[int, int]:
            H, P = inp.ints, row.ints
            acc = 0
            for k in range(1, m):
                if P[k] and H[m - k]:
                    acc += k * P[k] * H[m - k]
            return H[m] * m * row.den - acc, m * inp.den * row.den

        return self._kernel(order, 0, step)

    def exp(self, order: Optional[int] = None) -> "PowerSeries":
        """Exponential of a series with constant term 0."""
        if self.coefficient(0) != 0:
            raise DomainError(
                f"exp kernel needs constant term 0, got {self.coefficient(0)}"
            )

        def step(m: int, inp: _Row, row: _Row) -> Tuple[int, int]:
            F, P = inp.ints, row.ints
            acc = 0
            for k in range(1, m + 1):
                if F[k] and P[m - k]:
                    acc += k * F[k] * P[m - k]
            return acc, m * inp.den * row.den

        return self._kernel(order, 1, step)

    def _kernel(
        self, order: Optional[int], seed: int,
        step: Callable[[int, _Row, _Row], Tuple[int, int]],
    ) -> "PowerSeries":
        """Online kernel to ``order``, at most the known order: coefficient
        ``m > 0`` is ``step(m, input row, own row)``, which reads the input's
        row up to ``h_m`` (no kernel reads ``h_0``) and its own stream's row,
        and coefficient 0 is ``seed``."""
        n = self.known_order
        if order is not None:
            n = order if n is None else min(order, n)
        elif n is None:
            raise DomainError("an exact series needs an explicit output order here")
        row = _Row([], 1)

        def rule(m: int, views: _Views) -> Tuple[int, int]:
            return step(m, views[0], row) if m else (seed, 1)

        return self._stream(n + 1, rule, (self, 0), row=row)

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
