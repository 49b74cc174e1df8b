"""Level-indexed expansion machinery: codes, convergents, order, profiles."""

import random
from fractions import Fraction

import pytest

from expansions import (
    BaseSystem,
    DomainError,
    EngelSystem,
    coefficient_code,
    convergent,
    convergent_from_code,
    head_coincidence,
    order_of,
    properness_profile,
    roundtrip_check,
    trajectory,
)


def test_order_result_rendering():
    dec = BaseSystem(10)
    assert str(order_of(dec, Fraction(3, 8), 10)) == "finite(3)"
    assert str(order_of(dec, Fraction(1, 3), 6)) == "infinite-up-to(6)"


def test_trajectory_starts_with_input_and_expands():
    dec = BaseSystem(10)
    stages = trajectory(dec, Fraction(1, 8), 3)
    assert stages == [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(0)]


def test_trajectory_rejects_negative_depth():
    with pytest.raises(DomainError):
        trajectory(BaseSystem(10), Fraction(1, 2), -1)


def test_coefficient_code_decimal_golden():
    dec = BaseSystem(10)
    assert coefficient_code(dec, Fraction(1, 8), 6) == [1, 2, 5, 0, 0, 0]


def test_convergent_is_digit_sum():
    # oracle: y^[n] must equal sum c_i 10^-(i+1) built independently
    dec = BaseSystem(10)
    rng = random.Random(5)
    for _ in range(25):
        den = rng.randint(7, 9999)
        y = Fraction(rng.randint(0, den - 1), den)
        code = coefficient_code(dec, y, 8)
        for n in range(9):
            want = sum(Fraction(c, 10 ** (i + 1)) for i, c in enumerate(code[:n]))
            trace = convergent(dec, y, n)
            assert trace.proper
            assert trace.value == want


def test_convergent_trace_records_stages():
    dec = BaseSystem(10)
    trace = convergent(dec, Fraction(333, 1000), 3)
    assert trace.n == 3
    assert trace.stages[3] == Fraction(0)
    assert trace.stages[0] == Fraction(333, 1000)
    assert trace.value == Fraction(333, 1000)


def test_roundtrip_check_examples():
    assert roundtrip_check(BaseSystem(10), Fraction(355, 1130), 10)
    assert roundtrip_check(BaseSystem(10), Fraction(0), 4)
    assert roundtrip_check(EngelSystem(), Fraction(3, 8), 3)


def test_roundtrip_random_rationals():
    rng = random.Random(11)
    systems = [BaseSystem(10), BaseSystem(2), EngelSystem()]
    for sysm in systems:
        for _ in range(40):
            den = rng.randint(3, 10 ** 5)
            y = Fraction(rng.randint(0, den - 1), den)
            assert roundtrip_check(sysm, y, 6)


def test_properness_profile_trivial_depth():
    assert properness_profile(BaseSystem(10), Fraction(1, 3), 0) == [None]


def test_bijective_system_always_proper():
    profile = properness_profile(BaseSystem(10), Fraction(355, 1130), 8)
    assert profile == [None] * 9


def test_finite_order_fixpoint():
    # once the order is reached, convergents reproduce y exactly
    dec = BaseSystem(10)
    y = Fraction(3, 8)
    order = order_of(dec, y, 10)
    assert order.finite and order.n == 3
    for m in range(order.n, 9):
        trace = convergent(dec, y, m)
        assert trace.proper and trace.value == y


def test_equal_prefix_substitution():
    # elements sharing the first n coefficients have the same n-th convergent
    dec = BaseSystem(10)
    a, b = Fraction(123456, 10 ** 6), Fraction(123999, 10 ** 6)
    ca, cb = coefficient_code(dec, a, 3), coefficient_code(dec, b, 3)
    assert ca == cb
    assert convergent(dec, a, 3).value == convergent(dec, b, 3).value


def test_convergent_recomputation_is_identical():
    dec = BaseSystem(10)
    code = coefficient_code(dec, Fraction(22, 51), 7)
    first = convergent_from_code(dec, code)
    second = convergent_from_code(dec, code)
    assert first.stages == second.stages
    assert first.improper_at == second.improper_at


def test_head_coincidence_on_decimal():
    dec = BaseSystem(10)
    rng = random.Random(3)
    for _ in range(30):
        den = rng.randint(11, 10 ** 4)
        y = Fraction(rng.randint(0, den - 1), den)
        for n in range(7):
            assert head_coincidence(dec, y, n)


def test_coefficient_code_rejects_negative_depth():
    with pytest.raises(DomainError):
        coefficient_code(BaseSystem(10), Fraction(1, 2), -1)
    assert coefficient_code(BaseSystem(10), Fraction(1, 2), 0) == []
