"""Tests for coefficient peel-off on power-series germs."""

import math
import random
from fractions import Fraction

import pytest

from expansions import (
    DomainError,
    PowerSeries,
    TaylorSystem,
    TruncationInconclusive,
    coefficient_code,
    convergent,
    order_of,
    parse_expression,
    properness_profile,
    roundtrip_check,
    trajectory,
)

F = Fraction


def test_code_and_partial_sums() -> None:
    sysm = TaylorSystem()
    germ = PowerSeries.exact_poly(0, [1, 0, 2])
    assert coefficient_code(sysm, germ, 4) == [F(1), F(0), F(2), F(0)]
    assert convergent(sysm, germ, 2).value == PowerSeries.exact_poly(0, [1])
    assert convergent(sysm, germ, 3).value == germ
    # The n-th convergent is the n-term Taylor polynomial.
    rng = random.Random(401)
    for _ in range(30):
        coeffs = [F(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(8)]
        y = PowerSeries.truncated(0, coeffs)
        n = rng.randrange(0, 8)
        got = convergent(sysm, y, n).value
        assert got == PowerSeries.exact_poly(0, coeffs[:n])


def test_centers_and_validation() -> None:
    shifted = TaylorSystem(F(1, 2))
    germ = PowerSeries.exact_poly(F(1, 2), [3, 1])
    assert coefficient_code(shifted, germ, 3) == [F(3), F(1), F(0)]
    with pytest.raises(DomainError):
        trajectory(shifted, PowerSeries.exact_poly(0, [3, 1]), 1)
    with pytest.raises(DomainError):
        trajectory(TaylorSystem(), "not a germ", 1)


def test_order_and_neutrality() -> None:
    sysm = TaylorSystem()
    res = order_of(sysm, PowerSeries.exact_poly(0, [0, 0, 5]), 10)
    assert res.finite and res.n == 3
    res = order_of(sysm, PowerSeries.zero(), 5)
    assert res.finite and res.n == 0
    # A truncated all-zero germ cannot be certified neutral: the knowledge
    # runs out rather than the question getting answered.
    with pytest.raises(TruncationInconclusive):
        order_of(sysm, PowerSeries.truncated(0, [0, 0, 0]), 10)


def test_always_proper_and_roundtrip() -> None:
    sysm = TaylorSystem()
    germ = PowerSeries.truncated(0, [F(1, 3), F(-2), F(5, 7), F(0), F(4)])
    assert properness_profile(sysm, germ, 4) == [None] * 5
    rng = random.Random(402)
    for _ in range(25):
        coeffs = [F(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(7)]
        y = PowerSeries.truncated(0, coeffs)
        assert roundtrip_check(sysm, y, rng.randrange(0, 7))


def test_knowledge_exhaustion() -> None:
    sysm = TaylorSystem()
    germ = PowerSeries.truncated(0, [1, 2, 3])
    assert coefficient_code(sysm, germ, 3) == [F(1), F(2), F(3)]
    with pytest.raises(TruncationInconclusive):
        coefficient_code(sysm, germ, 4)


@pytest.mark.parametrize("text, prefix", [
    ("series(1,2,3)", [F(1), F(2), F(3)]),
    ("exp(x)", [1 / F(math.factorial(k)) for k in range(33)]),
])
def test_exhaustion_keeps_the_coefficient_of_the_failing_level(text, prefix) -> None:
    # the coefficient of the last known level is certified although its
    # remainder is not, so the prefix ends with it
    germ = parse_expression(text, "series", order=32)
    with pytest.raises(TruncationInconclusive) as info:
        coefficient_code(TaylorSystem(), germ, 40)
    assert info.value.prefix == prefix
    assert info.value.level == len(prefix)
