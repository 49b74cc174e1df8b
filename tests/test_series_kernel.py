"""Tests for the formal power-series kernel: exactness bookkeeping, ring
operations, shifts, calculus, and the power/log/exp recurrences."""

import math
import random
from fractions import Fraction

import pytest

from expansions import DomainError, PowerSeries, TruncationInconclusive

F = Fraction


def binomial_coeff(alpha: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient alpha-choose-k via the product formula."""
    out = F(1)
    for j in range(k):
        out *= (alpha - j) / (k - j)
    return out


def random_series(rng: random.Random, length: int, constant: Fraction) -> PowerSeries:
    coeffs = [constant] + [
        F(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(length - 1)
    ]
    return PowerSeries.truncated(0, coeffs)


def test_exactness_bookkeeping() -> None:
    p = PowerSeries.exact_poly(0, [1, 2, 0, 0])
    assert p.coeffs == (F(1), F(2))
    assert p.exact and p.known_order is None
    assert p.coefficient(57) == 0

    t = PowerSeries.truncated(0, [1, 2, 0])
    assert t.known_order == 2 and t.coefficient(2) == 0
    with pytest.raises(TruncationInconclusive):
        t.coefficient(3)

    # Exact + truncated is only trustworthy up to the shorter knowledge.
    s = p + t
    assert s.known_order == 2
    assert s.coefficient(1) == 4

    with pytest.raises(DomainError):
        p + PowerSeries.exact_poly(1, [1])

    assert PowerSeries.zero().is_zero()
    assert PowerSeries.constant(0, F(1, 2)).coeffs == (F(1, 2),)


def test_equality_ignores_exactness_flag() -> None:
    a = PowerSeries.exact_poly(0, [1, 1])
    b = PowerSeries.truncated(0, [1, 1])
    assert a == b and hash(a) == hash(b)
    assert a != PowerSeries.truncated(0, [1, 1, 0])


def test_ring_operations() -> None:
    p = PowerSeries.exact_poly(0, [1, 1])
    q = PowerSeries.exact_poly(0, [1, -1])
    assert (p * q).coeffs == (F(1), F(0), F(-1))
    assert (p + q).coeffs == (F(2),)
    assert (p - p).is_zero() and (p - p).exact
    assert (-p).coeffs == (F(-1), F(-1))
    assert p.scale(F(1, 2)).coeffs == (F(1, 2), F(1, 2))

    # Multiplying truncated operands: the product of degree-correct prefixes
    # is only reliable to the shorter knowledge.
    t = PowerSeries.truncated(0, [1, 2, 3])
    u = PowerSeries.truncated(0, [1, 1])
    assert (t * u).known_order == 1
    assert (t * u).coeffs == (F(1), F(3))


def test_shifts_and_calculus() -> None:
    p = PowerSeries.exact_poly(0, [5, 7, 11])
    assert p.shift_down().coeffs == (F(7), F(11))
    assert p.shift_down().shift_up(5) == p
    assert p.differentiate().coeffs == (F(7), F(22))
    assert p.differentiate().integrate(5) == p
    # evaluation at a nonzero center: 1 + 2 (x - 1) at x = 3
    assert PowerSeries.exact_poly(1, [1, 2])(3) == 5

    t = PowerSeries.truncated(0, [5, 7, 11])
    assert t.shift_down().known_order == 1
    assert t.differentiate().known_order == 1
    assert t.integrate().known_order == 3


def test_integer_power_exact() -> None:
    p = PowerSeries.exact_poly(0, [1, 1])
    cube = p.power(3)
    assert cube.exact
    assert cube.coeffs == (F(1), F(3), F(3), F(1))
    assert p.power(0) == PowerSeries.constant(0, 1)


def test_power_binomial_oracle() -> None:
    p = PowerSeries.truncated(0, [F(1), F(1)] + [F(0)] * 10)
    for alpha in (F(1, 2), F(-1, 2), F(2, 3), F(-3)):
        got = p.power(alpha)
        for k in range(11):
            assert got.coefficient(k) == binomial_coeff(alpha, k)


def test_log_and_exp_goldens() -> None:
    geometric = PowerSeries.truncated(0, [F(1)] * 10)
    lg = PowerSeries.truncated(0, [F(1), F(1)] + [F(0)] * 8).log()
    # log(1+x): alternating reciprocals.
    for k in range(1, 10):
        assert lg.coefficient(k) == F((-1) ** (k + 1), k)
    assert lg.coefficient(0) == 0
    # log(1/(1-x)) = -log(1-x): plain reciprocals.
    inv = geometric.log()
    for k in range(1, 10):
        assert inv.coefficient(k) == F(1, k)

    ex = PowerSeries.truncated(0, [F(0), F(1)] + [F(0)] * 8).exp()
    for k in range(10):
        assert ex.coefficient(k) == F(1, math.factorial(k))


def test_exp_log_inverse_randomized() -> None:
    rng = random.Random(201)
    for _ in range(25):
        f = random_series(rng, rng.randrange(4, 9), F(1))
        back = f.log().exp()
        for k in range(f.known_order + 1):
            assert back.coefficient(k) == f.coefficient(k)
        g = random_series(rng, rng.randrange(4, 9), F(0))
        forth = g.exp().log()
        for k in range(g.known_order + 1):
            assert forth.coefficient(k) == g.coefficient(k)


def test_divide() -> None:
    one = PowerSeries.exact_poly(0, [1])
    p = PowerSeries.truncated(0, [1, -1] + [0] * 8)
    geo = one.divide(p)
    for k in range(9):
        assert geo.coefficient(k) == 1
    rng = random.Random(202)
    for _ in range(25):
        f = random_series(rng, 7, F(rng.randrange(1, 5)))
        g = random_series(rng, 7, F(rng.randrange(1, 5), rng.randrange(1, 4)))
        h = f.divide(g)
        back = h * g
        for k in range(min(h.known_order, 6)):
            assert back.coefficient(k) == f.coefficient(k)


def test_kernel_preconditions() -> None:
    with pytest.raises(DomainError):
        PowerSeries.truncated(0, [2, 1]).power(F(1, 2))
    with pytest.raises(DomainError):
        PowerSeries.truncated(0, [0, 1]).log()
    with pytest.raises(DomainError):
        PowerSeries.truncated(0, [1, 1]).exp()
    with pytest.raises(DomainError):
        PowerSeries.truncated(0, [0, 1]).divide(PowerSeries.truncated(0, [0, 1]))


def test_power_composition_randomized() -> None:
    # (f^(1/2))^2 reproduces f, and f^a * f^b == f^(a+b), on random unit germs.
    rng = random.Random(203)
    for _ in range(15):
        f = random_series(rng, 7, F(1))
        sq = f.power(F(1, 2))
        back = sq * sq
        for k in range(7):
            assert back.coefficient(k) == f.coefficient(k)
        a, b = F(1, 3), F(1, 6)
        prod = f.power(a) * f.power(b)
        tot = f.power(a + b)
        for k in range(7):
            assert prod.coefficient(k) == tot.coefficient(k)
