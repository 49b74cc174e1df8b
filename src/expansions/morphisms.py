"""Morphisms between expansion systems, and shift isomorphisms.

A morphism carries level-indexed element maps and coefficient maps from a
source system to a target system.  :func:`verify_homomorphism` checks the
defining equations sample-wise (it is a checker, not a prover):

* ``map_element(i, neutral_i) == neutral'_i``,
* ``map_element(i+1, expand_i(y)) == expand'_i(map_element(i, y))``,
* ``map_coeff(i, project_i(y)) == project'_i(map_element(i, y))``,

and, for a morphism that claims bijectivity, that its inverses undo the maps
on every stage and on every projected coefficient.

:func:`shift_isomorphism` builds the canonical isomorphic system obtained by
splitting each expansion step as ``E_i = E2_i . E1_i`` with ``E1_i`` a
bijection: the target runs "half a step ahead" of the source and keeps the
identical coefficient code.  The decimal and continued-fraction shifts come
from ``f`` of the f-expansion: ``E1 = f``, ``E2`` the fractional part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

from .approx import ApproximationSystem
from .coefficients import is_infinite
from .core import ConvergentTrace, ExpansionSystem, convergent, trajectory
from .errors import DomainError, UnsupportedInContext
from .realsys import BaseSystem, ContinuedFractionSystem, FExpansionSystem
from .seriessys import NewtonForwardSystem, NewtonReflectedSystem

LevelMap = Callable[[int, Any], Any]


@dataclass
class Morphism:
    """Structure-preserving map between two expansion systems.

    ``map_element``/``map_coeff`` take ``(level, value)``; the optional
    inverses enable :func:`translate_convergent`.
    """

    name: str
    source: ExpansionSystem
    target: ExpansionSystem
    map_element: LevelMap
    map_coeff: LevelMap
    inv_element: Optional[LevelMap] = None
    inv_coeff: Optional[LevelMap] = None

    @property
    def claims_bijective(self) -> bool:
        return self.inv_element is not None


@dataclass(frozen=True)
class HomReport:
    """Outcome of :func:`verify_homomorphism`.

    When ``ok`` is false, ``equation`` names the first failing identity
    (``"neutral"``, ``"expansion"``, ``"coefficient"`` or ``"inverse"``), with
    the level and the index of the offending sample (``None`` for the neutral
    check).
    """

    ok: bool
    equation: Optional[str] = None
    level: Optional[int] = None
    sample_index: Optional[int] = None
    detail: str = ""


def verify_homomorphism(
    morphism: Morphism, samples: Sequence[Any], depth: int
) -> HomReport:
    """Check the homomorphism equations on each sample's trajectory."""
    for violation in _violations(morphism, samples, depth):
        return HomReport(False, *violation)
    return HomReport(ok=True)


def _violations(
    morphism: Morphism, samples: Sequence[Any], depth: int
) -> Iterator[Tuple[str, int, Optional[int], str]]:
    """``(equation, level, sample_index, detail)`` of each failing check, in
    the order the checks run; the caller stops at the first."""
    src, tgt = morphism.source, morphism.target
    for i in range(depth + 1):
        mapped = morphism.map_element(i, src.neutral(i))
        if not tgt.elements_equal(i, mapped, tgt.neutral(i)):
            yield "neutral", i, None, f"map(neutral_{i}) = {mapped} != {tgt.neutral(i)}"
    for s_idx, y in enumerate(samples):
        stages = trajectory(src, y, depth)
        for i in range(depth):
            lhs = morphism.map_element(i + 1, stages[i + 1])
            rhs = tgt.expand(i, morphism.map_element(i, stages[i]))
            if not tgt.elements_equal(i + 1, lhs, rhs):
                yield "expansion", i, s_idx, f"map(E_{i} y) = {lhs} != E'_{i}(map y) = {rhs}"
            lhs_c = morphism.map_coeff(i, src.project(i, stages[i]))
            rhs_c = tgt.project(i, morphism.map_element(i, stages[i]))
            if not tgt.coefficients_equal(i, lhs_c, rhs_c):
                yield "coefficient", i, s_idx, f"map(P_{i} y) = {lhs_c} != P'_{i}(map y) = {rhs_c}"
        if not morphism.claims_bijective:
            continue
        assert morphism.inv_element is not None
        for i, stage in enumerate(stages):
            back = morphism.inv_element(i, morphism.map_element(i, stage))
            if not src.elements_equal(i, back, stage):
                yield "inverse", i, s_idx, f"inverse(map y) = {back} != y = {stage}"
            if morphism.inv_coeff is None or i == depth:
                continue  # coefficients are read below depth, as above
            coeff = src.project(i, stage)
            back_c = morphism.inv_coeff(i, morphism.map_coeff(i, coeff))
            if not src.coefficients_equal(i, back_c, coeff):
                detail = f"inverse(map P_{i} y) = {back_c} != P_{i} y = {coeff}"
                yield "inverse", i, s_idx, detail


def translate_convergent(
    morphism: Morphism, target_element: Any, n: int
) -> ConvergentTrace:
    """Convergent of a *target* element computed through the source system.

    Pulls the element back, runs the source convergent, and maps every stage
    forward level-wise.  Improperness carries over unchanged.
    """
    if morphism.inv_element is None:
        raise UnsupportedInContext(
            f"morphism {morphism.name} has no element inverse"
        )
    x = morphism.inv_element(0, target_element)
    trace = convergent(morphism.source, x, n)
    stages = [
        morphism.map_element(k, st) if st is not None else None
        for k, st in enumerate(trace.stages)
    ]
    return ConvergentTrace(n=trace.n, stages=stages, improper_at=trace.improper_at)


class ShiftedSystem(ExpansionSystem):
    """Target of a shift isomorphism (see :func:`shift_isomorphism`)."""

    def __init__(
        self,
        source: ExpansionSystem,
        e1: LevelMap,
        e1_inv: LevelMap,
        e2: LevelMap,
        name: str,
    ) -> None:
        self.source = source
        self._e1 = e1
        self._e1_inv = e1_inv
        self._e2 = e2
        self.name = name
        self.kind = source.kind
        self.coefficient_order_kind = source.coefficient_order_kind

    def neutral(self, i: int) -> Any:
        return self._e1(i, self.source.neutral(i))

    def validate(self, i: int, y: Any) -> None:
        self.source.validate(i, self._e1_inv(i, y))

    def project(self, i: int, y: Any) -> Any:
        return self.source.project(i, self._e1_inv(i, y))

    def expand(self, i: int, y: Any) -> Any:
        return self._e1(i + 1, self._e2(i, y))

    def reconstruct(self, i: int, c: Any, tail: Any) -> Optional[Any]:
        inner = self.source.reconstruct(i, c, self._e1_inv(i + 1, tail))
        if inner is None:
            return None
        return self._e1(i, inner)

    def is_neutral(self, i: int, y: Any) -> bool:
        return self.source.is_neutral(i, self._e1_inv(i, y))

    def elements_equal(self, i: int, a: Any, b: Any) -> bool:
        return self.source.elements_equal(
            i, self._e1_inv(i, a), self._e1_inv(i, b)
        )

    def coefficients_equal(self, i: int, a: Any, b: Any) -> bool:
        return self.source.coefficients_equal(i, a, b)

    def compare_coefficients(self, i: int, a: Any, b: Any) -> int:
        return self.source.compare_coefficients(i, a, b)


def shift_isomorphism(
    source: ExpansionSystem,
    e1: LevelMap,
    e1_inv: LevelMap,
    e2: LevelMap,
    name: str,
    samples: Sequence[Any] = (),
) -> Tuple[ShiftedSystem, Morphism]:
    """Split ``E_i = E2_i . E1_i`` (``E1`` bijective) into an isomorphic
    system whose elements are the half-expanded ones.

    Returns the target system together with the isomorphism (element map
    ``E1_i``, identity on coefficients).  When ``samples`` are given, the
    supplied inverse is checked against them at level 0.

    Raises:
        DomainError: if ``e1_inv(e1(y)) != y`` for one of the samples.
    """
    for y in samples:
        back = e1_inv(0, e1(0, y))
        if not source.elements_equal(0, back, y):
            raise DomainError(
                f"inverse of the {name} split fails its roundtrip on {y}: got {back}"
            )
    target = ShiftedSystem(source, e1, e1_inv, e2, name)
    morphism = Morphism(
        name=name,
        source=source,
        target=target,
        map_element=e1,
        map_coeff=lambda i, c: c,
        inv_element=e1_inv,
        inv_coeff=lambda i, c: c,
    )
    return target, morphism


# -- built-in morphisms ------------------------------------------------------


def newton_reflection_morphism() -> Morphism:
    """Conjugation ``y(x) -> -y(-x)`` carrying the forward-difference system
    onto the reflected system, negating coefficients."""
    return Morphism(
        name="newton-reflection",
        source=NewtonForwardSystem(),
        target=NewtonReflectedSystem(),
        map_element=lambda i, y: y.reflect(),
        map_coeff=lambda i, c: -c,
        inv_element=lambda i, y: y.reflect(),
        inv_coeff=lambda i, c: -c,
    )


def _f_shift_morphism(
    source: FExpansionSystem, name: str
) -> Tuple[ShiftedSystem, Morphism]:
    """Shift of an f-expansion: ``E1 = f`` moves elements to ``f([0, 1))``,
    where the coefficient is the integer part and ``E2`` the fractional part.
    The inverse of ``E1`` applies the matrix ``f_inv``.  An infinite
    ``f(0)`` is the added point of the target, which the inverse of ``E1``
    and ``E2`` both send to 0."""

    a, b, g, d = source.f_inv

    def e1_inv(i: int, y: Any) -> Any:
        return Fraction(0) if is_infinite(y) else (a * y + b) / (g * y + d)

    def e2(i: int, y: Any) -> Any:
        return Fraction(0) if is_infinite(y) else y - math.floor(y)

    return shift_isomorphism(source, lambda i, y: source.f(y), e1_inv, e2, name)


def decimal_shift_morphism() -> Tuple[ShiftedSystem, Morphism]:
    """Shift of the decimal system: ``E1(y) = 10 y`` moves elements to
    ``[0, 10)`` where the digit is the integer part."""
    return _f_shift_morphism(BaseSystem(10), "decimal-shift")


def cf_shift_morphism() -> Tuple[ShiftedSystem, Morphism]:
    """Shift of the continued fraction system: ``E1(y) = 1/y`` (with the
    neutral element going to the added point ``INF``) moves elements to
    ``(1, inf]``, where the partial quotient is the integer part."""
    return _f_shift_morphism(ContinuedFractionSystem(), "cf-shift")


def as_d_shift_morphism(system: ApproximationSystem) -> Tuple[ShiftedSystem, Morphism]:
    """Shift of a ``D``-transform approximation system: ``E1`` is the
    derivative (bijective because the constant term is pinned), so target
    elements are the transformed germs and the projection reads their leading
    data directly."""
    cfg = system.config
    if cfg.transform != "D":
        raise UnsupportedInContext(
            f"the derivative shift needs a D-transform system, got {cfg.transform}"
        )
    conv = cfg.constant_term

    def e1(i: int, y: Any) -> Any:
        return y.differentiate()

    def e1_inv(i: int, y: Any) -> Any:
        return y.integrate(conv)

    def e2(i: int, y: Any) -> Any:
        # The remaining half-step: normalize the (already transformed) germ
        # and apply the nonlinearity, then differentiate again happens in E1.
        return system.expand(i, y.integrate(conv))

    target, morphism = shift_isomorphism(
        system, e1, e1_inv, e2, name=f"{system.name}-d-shift"
    )
    return target, morphism
