"""Approximation systems on power series germs.

Each system is configured by a *transform* and a *nonlinearity*:

* transform ``D`` (derivative), ``K`` (subtract the value at the center) or
  ``KD`` (derivative, then subtract its value at the center);
* nonlinearity ``power`` with a level-indexed exponent schedule
  ``alpha_i`` (germs with constant term 1), or ``logexp`` (germs with
  constant term 0).

One expansion level transforms the germ, reads off the leading coefficient
and multiplicity of the result, normalizes it to constant term 1, and applies
the nonlinearity (``(.)**alpha_i`` or ``log``).  Reconstruction undoes this:
apply the inverse nonlinearity (``(.)**(1/alpha_i)`` or ``exp``), restore the
leading data, and — for transforms involving ``D`` — integrate from the
center.  The emitted coefficients are :class:`~expansions.coefficients.ASCoef`
records ``(c, m)``; for ``KD`` they also carry ``b``, the derivative at the
center.

The transformed germ is an index map of the germ ``y``: its coefficient ``j``
is ``w_j * y[j + d]`` from ``j = s`` on and zero below, with ``d = 1`` and
``w_j = j + 1`` for ``D`` and ``KD``, ``d = 0`` and ``w_j = 1`` for ``K``, and
``s = 0`` for ``D``, ``s = 1`` for ``K`` and ``KD`` (whose ``b`` is
``y[1]``).  So a level reads ``(c, m)`` off ``y`` directly, testing the
integers of a stream's row and building a ``Fraction`` for ``c`` and ``b``
alone.  It reads its normalized germ through one index map of ``y``
(:meth:`~expansions.series.PowerSeries.index_map`), coefficient ``k`` being
``w_{k+m} y[k + m + d] / c``, and rebuilds through one index map of the
inverse nonlinearity's result ``u``, coefficient ``k > 0`` being
``c u[k - 1 - m] / k`` after ``D`` (plus ``b`` at ``k = 1``) and
``c u[k - m]`` after ``K``.  Each is an integer scaling of a numerator and
the row's one denominator, with the sign of ``c`` in the numerator, so a
level builds one lazy stream each way besides its kernel and no
``Fraction`` passes between them.

A transformed germ that is identically zero has multiplicity ``INF`` and
marks the neutral branch; a *truncated* germ whose known coefficients are all
zero cannot distinguish the two cases and raises
:class:`~expansions.errors.TruncationInconclusive`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from .coefficients import ASCoef, INF, is_infinite
from .core import ORDER_NONE, ExpansionSystem
from .errors import DomainError, TruncationInconclusive
from .series import PowerSeries, certified_first_nonzero, require_germ

TRANSFORM_D = "D"
TRANSFORM_K = "K"
TRANSFORM_KD = "KD"

NL_POWER = "power"
NL_LOGEXP = "logexp"

AlphaSchedule = Callable[[int], Fraction]


def constant_alpha(value: object) -> AlphaSchedule:
    a = Fraction(value)
    return lambda i: a


def alpha_list(values: Sequence[object]) -> AlphaSchedule:
    """Schedule from a list; the last entry repeats forever."""
    vals = [Fraction(v) for v in values]
    if not vals:
        raise DomainError("alpha list must not be empty")
    return lambda i: vals[i] if i < len(vals) else vals[-1]


@dataclass(frozen=True)
class ASConfig:
    """Configuration of an approximation system.

    Attributes:
        transform: ``"D"``, ``"K"`` or ``"KD"``.
        nonlinearity: ``"power"`` or ``"logexp"``.
        alphas: exponent schedule, required for the power nonlinearity;
            every ``alphas(i)`` must be nonzero.
        center: expansion point of the germs.
        order: known order of every ``power``/``log``/``exp`` result (the
            kernels cap it at the input's own known order).  A result
            computes a coefficient only when it is read, so a larger order
            costs nothing until someone reads that deep.
    """

    transform: str
    nonlinearity: str
    alphas: Optional[AlphaSchedule] = None
    center: Fraction = field(default_factory=lambda: Fraction(0))
    order: int = 64

    def __post_init__(self) -> None:
        if self.transform not in (TRANSFORM_D, TRANSFORM_K, TRANSFORM_KD):
            raise DomainError(f"unknown transform {self.transform!r}")
        if self.nonlinearity not in (NL_POWER, NL_LOGEXP):
            raise DomainError(f"unknown nonlinearity {self.nonlinearity!r}")
        if self.nonlinearity == NL_POWER and self.alphas is None:
            raise DomainError("the power nonlinearity needs an alpha schedule")
        if self.order < 2:
            raise DomainError(f"order must be at least 2, got {self.order}")

    @property
    def constant_term(self) -> Fraction:
        """Constant term every germ in the system carries (1 for power, 0
        for log/exp — the nonlinearity's own fixed normalization)."""
        return Fraction(1) if self.nonlinearity == NL_POWER else Fraction(0)

    def alpha(self, i: int) -> Fraction:
        assert self.alphas is not None
        a = Fraction(self.alphas(i))
        if a == 0:
            raise DomainError(f"alpha({i}) = 0 is not invertible")
        return a


class ApproximationSystem(ExpansionSystem):
    """Expansion system defined by an :class:`ASConfig` (see module docs)."""

    kind = "germ"
    coefficient_order_kind = ORDER_NONE

    def __init__(self, config: ASConfig, name: Optional[str] = None) -> None:
        self.config = config
        suffix = "logexp" if config.nonlinearity == NL_LOGEXP else "power"
        self.name = name or f"as-{config.transform.lower()}-{suffix}"

    @property
    def center(self) -> Fraction:
        """Expansion point of the germs, ``config.center``."""
        return self.config.center

    # -- spaces ------------------------------------------------------------

    def neutral(self, i: int) -> PowerSeries:
        c = self.config
        if c.nonlinearity == NL_POWER:
            return PowerSeries.constant(c.center, 1)
        return PowerSeries.zero(c.center)

    def validate(self, i: int, y: Any) -> None:
        require_germ(y, self.config.center)
        if y.coefficient(0) != self.config.constant_term:
            raise DomainError(
                f"germ constant term {y.coefficient(0)} != "
                f"{self.config.constant_term} required by the {self.config.nonlinearity} "
                "normalization"
            )

    def is_neutral(self, i: int, y: PowerSeries) -> bool:
        if y.coefficient(0) != self.config.constant_term:
            return False
        message = ("a truncated germ matching the neutral element on all known "
                   "coefficients cannot be certified neutral")
        return certified_first_nonzero(y, 1, message) is None

    # -- transform ----------------------------------------------------------

    def _shape(self) -> tuple[int, int]:
        """``(d, s)`` of the transform's index map (see module docs)."""
        transform = self.config.transform
        return (0 if transform == TRANSFORM_K else 1), (0 if transform == TRANSFORM_D else 1)

    def _transformed(self, y: PowerSeries) -> ASCoef:
        """The level's coefficient of ``y``: multiplicity and leading
        coefficient of the transformed germ, scanned off ``y`` directly; the
        first nonzero ``y[k]``, ``k >= s + d``, gives ``m = k - d`` and
        ``c = w_m * y[k]``."""
        d, s = self._shape()
        known = len(y.coeffs) - d
        if known < 1 and not y.exact:
            raise TruncationInconclusive(
                "differentiating an order-0 germ leaves no known coefficients"
            )
        message = f"all {known} known coefficients vanish; multiplicity cannot be certified"
        k = certified_first_nonzero(y, s + d, message)
        b = y.coefficient(1) if self.config.transform == TRANSFORM_KD else None
        if k is None:
            return ASCoef(c=Fraction(0), m=INF, b=b)
        return ASCoef(c=k * y.coeffs[k] if d else y.coeffs[k], m=k - d, b=b)

    def check_coefficient(self, c: Any) -> Optional[Fraction]:
        """The derivative term ``b`` of ``c``; :class:`DomainError` unless
        ``c`` is an :class:`ASCoef` whose ``b`` is set exactly when the
        transform is ``KD``, with rational ``c`` and ``b``."""
        transform = self.config.transform
        if not isinstance(c, ASCoef) or (c.b is None) == (transform == TRANSFORM_KD):
            need = "with" if transform == TRANSFORM_KD else "without"
            raise DomainError(f"{transform} systems need ASCoef {need} b, got {c!r}")
        if not all(isinstance(v, (int, Fraction)) for v in (c.c, c.b) if v is not None):
            raise DomainError(f"ASCoef c and b must be rational, got {c!r}")
        return c.b

    # -- system maps ----------------------------------------------------------

    def project(self, i: int, y: PowerSeries) -> ASCoef:
        return self._transformed(y)

    def step(self, i: int, y: PowerSeries) -> tuple[ASCoef, PowerSeries]:
        cfg = self.config
        coefficient = self._transformed(y)
        m, c = coefficient.m, coefficient.c
        if is_infinite(m):
            return coefficient, self.neutral(i + 1)
        # coefficient k of the normalized germ is w_{k+m} * y[k + m + d] / c,
        # and a / c = q a / p for c = p/q with p > 0, the sign of c in q
        d = self._shape()[0]
        shift = m + d
        p, q = (c.numerator, c.denominator) if c > 0 else (-c.numerator, -c.denominator)
        weighted = ((lambda k, n, den: ((k + shift) * q * n, p * den)) if d
                    else (lambda k, n, den: (q * n, p * den)))
        normalized = y.index_map(shift, weighted)
        if cfg.nonlinearity == NL_POWER:
            return coefficient, normalized.power(cfg.alpha(i), cfg.order)
        return coefficient, normalized.log(cfg.order)

    def expand(self, i: int, y: PowerSeries) -> PowerSeries:
        return self.step(i, y)[1]

    def reconstruct(
        self, i: int, c: ASCoef, tail: PowerSeries
    ) -> Optional[PowerSeries]:
        cfg = self.config
        b = self.check_coefficient(c) or Fraction(0)
        conv = cfg.constant_term
        if is_infinite(c.m):
            if c.c != 0 or not self.is_neutral(i + 1, tail):
                return None
            return PowerSeries.exact_poly(cfg.center, (conv, b))
        d, s = self._shape()
        if c.c == 0 or c.m < s:
            return None  # a leading coefficient cannot vanish, nor sit below s
        if cfg.nonlinearity == NL_POWER:
            u = tail.power(1 / cfg.alpha(i), cfg.order)
        else:
            u = tail.exp(cfg.order)
        # the level's value is conv + c (x - center)^m u for K, and conv plus
        # the integral of c (x - center)^m u + b for D and KD, with c = lp/lq
        # and b = bp/bq
        shift, head = c.m + d, conv.numerator
        lp, lq = c.c.numerator, c.c.denominator
        if not d:
            return u.index_map(-shift, lambda k, n, den: (lp * n, lq * den) if k else (head, 1))
        bp, bq = b.numerator, b.denominator

        def value(k: int, n: int, den: int) -> tuple[int, int]:
            if not k:
                return head, 1
            if k == 1:
                return lp * n * bq + bp * lq * den, lq * den * bq
            return lp * n, lq * den * k

        return u.index_map(-shift, value)


def detect_cycle(values: Sequence[Any], max_period: int) -> Optional[int]:
    """Smallest eventual period of ``values``, or ``None``.

    A period ``p`` qualifies when, after its minimal pre-period ``s``, the
    observed window still contains two full repetitions (``s + 2p <= len``);
    anything shorter is not evidence of periodicity.
    """
    n = len(values)
    for p in range(1, max_period + 1):
        s = n - p
        while s > 0 and values[s - 1 + p] == values[s - 1]:
            s -= 1
        if s + 2 * p <= n:
            return p
    return None
