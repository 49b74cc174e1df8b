"""Built-in system registry: ids, factories, and sample generators.

The CLI and the test suite share this table.  Each entry can build its
system and can draw a random-but-valid level-0 element from a caller-supplied
``random.Random`` so that randomized checks are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Tuple

from .approx import (
    NL_LOGEXP,
    NL_POWER,
    TRANSFORM_D,
    TRANSFORM_K,
    TRANSFORM_KD,
    ApproximationSystem,
    ASConfig,
    constant_alpha,
)
from .coefficients import ComplexRational
from .core import ExpansionSystem
from .errors import DomainError
from .realsys import (
    BaseSystem,
    ContinuedFractionSystem,
    EgyptianSystem,
    EngelSystem,
)
from .series import PowerSeries
from .seriessys import (
    FourierSystem,
    NewtonBackwardSystem,
    NewtonForwardSystem,
    NewtonReflectedSystem,
    NormTaylorSystem,
    TaylorSystem,
)
from .trig import TrigPolynomial

#: digit permutation making the shuffled decimal system order-violating
SHUFFLE_SIGMA = tuple((3 * d) % 10 for d in range(10))


@dataclass(frozen=True)
class RegistryEntry:
    id: str
    description: str
    factory: Callable[[], ExpansionSystem]
    sampler: Callable[[random.Random], Any]


def _sample_unit_rational(rng: random.Random) -> Fraction:
    den = rng.randint(50, 10 ** 6)
    return Fraction(rng.randint(0, den - 1), den)


def _sample_polynomial(rng: random.Random) -> PowerSeries:
    degree = rng.randint(0, 8)
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree + 1)
    ]
    return PowerSeries.of(*coeffs)


def _sample_trig(rng: random.Random) -> TrigPolynomial:
    amplitudes: Dict[int, ComplexRational] = {}
    for _ in range(rng.randint(1, 5)):
        mode = rng.randint(-4, 4)
        amplitudes[mode] = ComplexRational.of(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
    return TrigPolynomial.of(amplitudes)


def _sample_bounded_polynomial(rng: random.Random) -> PowerSeries:
    degree = rng.randint(0, 6)
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree + 1)
    ]
    total = sum(abs(c) for c in coeffs)
    if total == 0:
        return PowerSeries.of(0)
    budget = Fraction(rng.randint(1, 99), 100)
    return PowerSeries.of(*[c * budget / total for c in coeffs])


def _sample_germ(
    constant: Fraction,
    length_range: tuple = (10, 13),
    numerator_bound: int = 9,
    denominator_shift: int = 3,
) -> Callable[[random.Random], PowerSeries]:
    # Dyadic coefficients with small numerators: iterated power/root kernels
    # raise coefficient denominators to roughly the product of the alpha
    # schedule, so richer samples make the exact arithmetic explode without
    # exercising anything new.  Transforms that shed a coefficient per level
    # (KD) get longer samples.  The guards, which draw nothing, keep the germ
    # nonzero past its constant and past x: a draw that vanishes past x gets
    # the fixed tail (k mod 3 + 1)/2, whose codes do not terminate (a short
    # tail such as x^2/2 is itself a finite convergent).  A later stage can
    # still vanish to its known order, and its code then raises
    # TruncationInconclusive.
    def sample(rng: random.Random) -> PowerSeries:
        length = rng.randint(*length_range)
        coeffs = [constant]
        for _ in range(length):
            coeffs.append(
                Fraction(
                    rng.randint(-numerator_bound, numerator_bound),
                    1 << rng.randint(0, denominator_shift),
                )
            )
        if coeffs[1] == 0:
            coeffs[1] = Fraction(1, 2)
        if not any(coeffs[2:]):
            coeffs[2:] = [Fraction(k % 3 + 1, 2) for k in range(2, len(coeffs))]
        return PowerSeries.truncated(0, coeffs)

    return sample


def _as_entry(
    system_id: str,
    description: str,
    transform: str,
    nonlinearity: str,
    alpha: Fraction,
    sampler: Callable[[random.Random], PowerSeries],
) -> RegistryEntry:
    def build() -> ApproximationSystem:
        alphas = None if nonlinearity == NL_LOGEXP else constant_alpha(alpha)
        return ApproximationSystem(
            ASConfig(transform=transform, nonlinearity=nonlinearity, alphas=alphas),
            system_id,
        )

    return RegistryEntry(system_id, description, build, sampler)


_ENTRIES: List[RegistryEntry] = [
    RegistryEntry(
        "base10", "decimal digits on [0,1)",
        lambda: BaseSystem(10), _sample_unit_rational,
    ),
    RegistryEntry(
        "base10-shuffled", "decimal with permuted digit labels",
        lambda: BaseSystem(10, digit_permutation=SHUFFLE_SIGMA),
        _sample_unit_rational,
    ),
    RegistryEntry(
        "cf", "continued fraction partial quotients on [0,1)",
        ContinuedFractionSystem, _sample_unit_rational,
    ),
    RegistryEntry(
        "egyptian", "greedy unit-fraction denominators on [0,1)",
        EgyptianSystem, _sample_unit_rational,
    ),
    RegistryEntry(
        "engel", "Engel series denominators on [0,1)",
        EngelSystem, _sample_unit_rational,
    ),
    RegistryEntry(
        "taylor", "Taylor coefficients of a germ",
        TaylorSystem, _sample_polynomial,
    ),
    RegistryEntry(
        "newton-forward", "forward-difference coefficients",
        NewtonForwardSystem, _sample_polynomial,
    ),
    RegistryEntry(
        "newton-backward", "backward-difference coefficients",
        NewtonBackwardSystem, _sample_polynomial,
    ),
    RegistryEntry(
        "newton-reflected", "reflected-difference coefficients",
        NewtonReflectedSystem, _sample_polynomial,
    ),
    RegistryEntry(
        "fourier", "paired-mode amplitudes of trig polynomials",
        FourierSystem, _sample_trig,
    ),
    RegistryEntry(
        "norm-taylor", "Taylor system restricted by sup-norm 1",
        NormTaylorSystem, _sample_bounded_polynomial,
    ),
    _as_entry(
        "as-d-power-half", "derivative transform, power 1/2",
        TRANSFORM_D, NL_POWER, Fraction(1, 2), _sample_germ(Fraction(1)),
    ),
    _as_entry(
        "as-d-power-neg1", "derivative transform, power -1",
        TRANSFORM_D, NL_POWER, Fraction(-1), _sample_germ(Fraction(1)),
    ),
    _as_entry(
        "as-d-logexp", "derivative transform, log nonlinearity",
        TRANSFORM_D, NL_LOGEXP, Fraction(0), _sample_germ(Fraction(0)),
    ),
    _as_entry(
        "as-k-power-2", "pointwise transform, power 2",
        TRANSFORM_K, NL_POWER, Fraction(2), _sample_germ(Fraction(1)),
    ),
    _as_entry(
        "as-k-power-neg1", "pointwise transform, power -1",
        TRANSFORM_K, NL_POWER, Fraction(-1), _sample_germ(Fraction(1)),
    ),
    _as_entry(
        "as-k-logexp", "pointwise transform, log nonlinearity",
        TRANSFORM_K, NL_LOGEXP, Fraction(0), _sample_germ(Fraction(0)),
    ),
    _as_entry(
        "as-kd-power-3", "combined transform, power 3",
        TRANSFORM_KD, NL_POWER, Fraction(3), _sample_germ(
            Fraction(1), length_range=(19, 22), numerator_bound=3,
            denominator_shift=2,
        ),
    ),
]

REGISTRY: Dict[str, RegistryEntry] = {entry.id: entry for entry in _ENTRIES}


def system_ids() -> Tuple[str, ...]:
    """Registered ids in their declaration order."""
    return tuple(entry.id for entry in _ENTRIES)


def get_entry(system_id: str) -> RegistryEntry:
    entry = REGISTRY.get(system_id)
    if entry is None:
        raise DomainError(f"unknown system id {system_id!r}")
    return entry


def build_system(system_id: str) -> ExpansionSystem:
    return get_entry(system_id).factory()


def sample_element(system_id: str, rng: random.Random) -> Any:
    return get_entry(system_id).sampler(rng)
