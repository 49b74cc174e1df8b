"""Trigonometric polynomials with exact Gaussian-rational amplitudes.

A :class:`TrigPolynomial` is a finite sum ``sum_k a_k e^{ikx}`` stored as a
sorted tuple of ``(mode, amplitude)`` pairs with nonzero amplitudes, so
structural equality is mathematical equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .coefficients import CZERO, ComplexRational


@dataclass(frozen=True)
class TrigPolynomial:
    terms: Tuple[Tuple[int, ComplexRational], ...]

    @staticmethod
    def of(amplitudes: Dict[int, ComplexRational]) -> "TrigPolynomial":
        # lists, not generators: see series.integer_numerators
        return TrigPolynomial(tuple([(k, a) for k, a in sorted(amplitudes.items())
                                     if not a.is_zero()]))

    @staticmethod
    def zero() -> "TrigPolynomial":
        return TrigPolynomial(())

    @staticmethod
    def basis(k: int, amplitude: ComplexRational) -> "TrigPolynomial":
        return TrigPolynomial.of({k: amplitude})

    def amplitude(self, k: int) -> ComplexRational:
        for mode, a in self.terms:
            if mode == k:
                return a
        return CZERO

    def is_zero(self) -> bool:
        return not self.terms

    def _as_dict(self) -> Dict[int, ComplexRational]:
        return {k: a for k, a in self.terms}

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        acc = self._as_dict()
        for k, a in other.terms:
            acc[k] = acc.get(k, CZERO) + a
        return TrigPolynomial.of(acc)

    def __neg__(self) -> "TrigPolynomial":
        return TrigPolynomial(tuple([(k, -a) for k, a in self.terms]))

    def __sub__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        return self + (-other)

    def __mul__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        """Exact product: the convolution of the two amplitude sequences."""
        acc: Dict[int, ComplexRational] = {}
        for ka, a in self.terms:
            for kb, b in other.terms:
                acc[ka + kb] = acc.get(ka + kb, CZERO) + a * b
        return TrigPolynomial.of(acc)

    def scale(self, factor: ComplexRational) -> "TrigPolynomial":
        return TrigPolynomial.of({k: a * factor for k, a in self.terms})

    def without_modes(self, *modes: int) -> "TrigPolynomial":
        drop = set(modes)
        return TrigPolynomial(tuple([(k, a) for k, a in self.terms if k not in drop]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({a}) e({k})" for k, a in self.terms)
