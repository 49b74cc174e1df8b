"""Power series with exact rational coefficients and truncation tracking.

A :class:`PowerSeries` is a germ at a rational center: a tuple of coefficients
in powers of ``(x - center)`` plus an ``exact`` flag.  An exact series *is*
the polynomial its coefficients spell (everything beyond them is zero, and
trailing zeros are stripped); an inexact series is knowledge of a function up
to its stored order only, so operations shrink the known order rather than
invent coefficients, and questions beyond it raise
:class:`~expansions.errors.TruncationInconclusive`.

Exact polynomials are exact series: ``PowerSeries.of(1, 0, -2)`` is
``1 - 2x^2`` at center 0, and the polynomial-only operations (``degree``,
evaluation, the Taylor ``shift``) refuse a truncated series.

The analytic kernels (``power``, ``log``, ``exp``) are coefficient recurrences
driven by the derivative identities; each takes an explicit output order when
the input is exact, because their results are in general not polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, TruncationInconclusive

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _lcm_denominators(coeffs: Sequence[Fraction]) -> int:
    return math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1


class _Row:
    """Rational sequence kept as reduced integer pairs plus cached cofactors
    against the running denominator lcm.

    The analytic kernels accumulate their recurrence rows over this common
    denominator, which costs two gcds per output coefficient instead of one
    per inner-loop addition.
    """

    __slots__ = ("num", "den", "cof", "lcm")

    def __init__(self, seed: int) -> None:
        self.num = [seed]
        self.den = [1]
        self.cof = [1]  # cof[j] = lcm // den[j]
        self.lcm = 1

    def push(self, numerator: int, denominator: int) -> Fraction:
        g = math.gcd(numerator, denominator)
        n_, d_ = numerator // g, denominator // g
        self.num.append(n_)
        self.den.append(d_)
        if d_ != 1:
            factor = d_ // math.gcd(self.lcm, d_)
            if factor != 1:
                self.lcm *= factor
                self.cof = [c * factor for c in self.cof]
        self.cof.append(self.lcm // d_)
        return Fraction(n_, d_)


@dataclass(frozen=True)
class PowerSeries:
    """Series ``sum coeffs[k] * (x - center)**k``, exact or truncated."""

    center: Fraction
    coeffs: Tuple[Fraction, ...]
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

    def _pad(self, n: int) -> List[Fraction]:
        return list(self.coeffs) + [_ZERO] * max(0, n - len(self.coeffs))

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

    def _rebuild(self, coeffs: List[Fraction], known: Optional[int]) -> "PowerSeries":
        if known is None:
            return PowerSeries._stripped(self.center, coeffs)
        return PowerSeries.truncated(self.center, coeffs[: known + 1] + [_ZERO] * max(0, known + 1 - len(coeffs)))

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        self._require_same_center(other)
        a, b = self.coeffs, other.coeffs
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):] or b[len(a):])
        return self._rebuild(out, self._merge_known(self, other))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        self._require_same_center(other)
        a, b = self.coeffs, other.coeffs
        out = [x - y for x, y in zip(a, b)]
        out.extend(a[len(b):] or [-y for y in b[len(a):]])
        return self._rebuild(out, self._merge_known(self, other))

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(self.center, tuple(-c for c in self.coeffs), self.exact)

    def scale(self, factor: object) -> "PowerSeries":
        factor = Fraction(factor)
        if factor == 0:
            if self.exact:
                return PowerSeries.zero(self.center)
            return PowerSeries.truncated(self.center, [_ZERO] * len(self.coeffs))
        return PowerSeries(
            self.center, tuple(factor * c for c in self.coeffs), self.exact
        )

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
        return self._rebuild(out, known)

    __rmul__ = __mul__

    # -- order manipulation ------------------------------------------------------

    def truncate(self, order: int) -> "PowerSeries":
        """Forget everything beyond coefficient ``order``."""
        if order < 0:
            raise DomainError(f"negative order {order}")
        if self.exact and len(self.coeffs) <= order + 1:
            return self
        return PowerSeries.truncated(self.center, self._pad(order + 1)[: order + 1])

    def shift_down(self) -> "PowerSeries":
        """Drop the constant term and divide by ``(x - center)``."""
        if self.exact:
            return PowerSeries(self.center, self.coeffs[1:], exact=True)
        if len(self.coeffs) == 1:
            raise TruncationInconclusive(
                "shifting down an order-0 germ leaves no known coefficients"
            )
        return PowerSeries.truncated(self.center, self.coeffs[1:])

    def shift_up(self, constant: object = 0) -> "PowerSeries":
        """Multiply by ``(x - center)`` and prepend a constant term."""
        out = [Fraction(constant)] + list(self.coeffs)
        if self.exact:
            return PowerSeries._stripped(self.center, out)
        return PowerSeries.truncated(self.center, out)

    # -- calculus -----------------------------------------------------------------

    def differentiate(self) -> "PowerSeries":
        out = [k * c for k, c in enumerate(self.coeffs) if k > 0]
        if self.exact:
            return PowerSeries._stripped(self.center, out)
        if not out:
            raise TruncationInconclusive(
                "differentiating an order-0 germ leaves no known coefficients"
            )
        return PowerSeries.truncated(self.center, out)

    derivative = differentiate

    def integrate(self, constant: object = 0) -> "PowerSeries":
        out = [Fraction(constant)] + [c / (k + 1) for k, c in enumerate(self.coeffs)]
        if self.exact:
            return PowerSeries.exact_poly(self.center, out)
        return PowerSeries.truncated(self.center, out)

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

        The Taylor shift, by repeated synthetic division in place on the
        coefficient list.
        """
        self._require_exact("shift")
        a = Fraction(a)
        cs = list(self.coeffs)
        if a:
            top = len(cs) - 1
            for i in range(top):
                for j in range(top - 1, i - 1, -1):
                    cs[j] += a * cs[j + 1]
        return PowerSeries(self.center, tuple(cs), exact=True)

    def reflect(self) -> "PowerSeries":
        """The series ``-p(-x)``, which is centered at ``-center``."""
        return PowerSeries(
            -self.center,
            tuple(c if k % 2 == 1 else -c for k, c in enumerate(self.coeffs)),
            self.exact,
        )

    # -- analytic kernels -----------------------------------------------------------

    def _kernel_order(self, order: Optional[int]) -> int:
        if order is None:
            if self.exact:
                raise DomainError(
                    "an exact series needs an explicit output order here"
                )
            return len(self.coeffs) - 1
        if self.exact:
            return order
        return min(order, len(self.coeffs) - 1)

    def power(self, alpha: object, order: Optional[int] = None) -> "PowerSeries":
        """Raise to the rational power ``alpha``.

        Integer ``alpha >= 0`` on an exact series stays exact (repeated
        multiplication); otherwise requires constant term 1 and runs the
        first-order recurrence ``n p_n = sum ((alpha+1)k - n) h_k p_{n-k}``.
        """
        alpha = Fraction(alpha)
        if self.exact and alpha.denominator == 1 and alpha >= 0:
            acc = PowerSeries.constant(self.center, 1)
            for _ in range(int(alpha)):
                acc = acc * self
            return acc
        if self.coefficient(0) != 1:
            raise DomainError(
                f"power kernel needs constant term 1, got {self.coefficient(0)}"
            )
        n = self._kernel_order(order)
        h = self._pad(n + 1)
        D = _lcm_denominators(h[1:])
        H = [0] + [int(c * D) for c in h[1:]]
        ap1 = alpha + 1
        A, a = ap1.numerator, ap1.denominator
        row = _Row(1)
        out = [_ONE]
        for m in range(1, n + 1):
            acc = 0
            for k in range(1, m + 1):
                j = m - k
                if H[k] and row.num[j]:
                    acc += (A * k - a * m) * H[k] * row.num[j] * row.cof[j]
            out.append(row.push(acc, m * a * D * row.lcm))
        return PowerSeries.truncated(self.center, out)

    def log(self, order: Optional[int] = None) -> "PowerSeries":
        """Logarithm of a series with constant term 1."""
        if self.coefficient(0) != 1:
            raise DomainError(
                f"log kernel needs constant term 1, got {self.coefficient(0)}"
            )
        n = self._kernel_order(order)
        h = self._pad(n + 1)
        D = _lcm_denominators(h[1:])
        H = [0] + [int(c * D) for c in h[1:]]
        row = _Row(0)
        out = [_ZERO]
        for m in range(1, n + 1):
            acc = 0
            for k in range(1, m):
                if row.num[k] and H[m - k]:
                    acc += k * row.num[k] * H[m - k] * row.cof[k]
            out.append(row.push(H[m] * m * row.lcm - acc, m * D * row.lcm))
        return PowerSeries.truncated(self.center, out)

    def exp(self, order: Optional[int] = None) -> "PowerSeries":
        """Exponential of a series with constant term 0."""
        if self.coefficient(0) != 0:
            raise DomainError(
                f"exp kernel needs constant term 0, got {self.coefficient(0)}"
            )
        n = self._kernel_order(order)
        f = self._pad(n + 1)
        D = _lcm_denominators(f[1:])
        F = [0] + [int(c * D) for c in f[1:]]
        row = _Row(1)
        out = [_ONE]
        for m in range(1, n + 1):
            acc = 0
            for k in range(1, m + 1):
                j = m - k
                if F[k] and row.num[j]:
                    acc += k * F[k] * row.num[j] * row.cof[j]
            out.append(row.push(acc, m * D * row.lcm))
        return PowerSeries.truncated(self.center, out)

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
