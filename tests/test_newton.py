"""Tests for the finite-difference systems on polynomials: forward, backward,
and the reflected conjugate of the forward system."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expansions import (
    NewtonBackwardSystem,
    NewtonForwardSystem,
    NewtonReflectedSystem,
    Polynomial,
    PowerSeries,
    TruncationInconclusive,
    coefficient_code,
    convergent,
    order_of,
    roundtrip_check,
)
from expansions.seriessys import _factorial_basis

F = Fraction
X = Polynomial.x()


def difference_table_row(y: Polynomial, n: int, step: int) -> list:
    """Iterated differences at 0: step=+1 forward, step=-1 backward."""
    values = [y(F(j * step)) for j in range(n + 1)]
    out = [values[0]]
    while len(values) > 1:
        values = [b - a for a, b in zip(values, values[1:])]
        out.append(values[0])
    return out if step == 1 else [v * (-1) ** k for k, v in enumerate(out)]


def random_poly(rng: random.Random, degree: int) -> Polynomial:
    return Polynomial.of(*[F(rng.randrange(-9, 10), rng.randrange(1, 5))
                           for _ in range(degree)] + [F(rng.randrange(1, 9))])


def test_forward_golden() -> None:
    sysm = NewtonForwardSystem()
    assert coefficient_code(sysm, X * X, 5) == [F(0), F(1), F(2), F(0), F(0)]
    assert convergent(sysm, X * X, 3).value == X * X
    res = order_of(sysm, X * X, 10)
    assert res.finite and res.n == 3
    res = order_of(sysm, Polynomial.of(5), 10)
    assert res.finite and res.n == 1
    res = order_of(sysm, Polynomial.of(), 10)
    assert res.finite and res.n == 0


def test_backward_golden() -> None:
    sysm = NewtonBackwardSystem()
    assert coefficient_code(sysm, X * X, 5) == [F(0), F(-1), F(2), F(0), F(0)]
    assert convergent(sysm, X * X, 3).value == X * X


def test_difference_table_oracle() -> None:
    rng = random.Random(404)
    fwd, bwd = NewtonForwardSystem(), NewtonBackwardSystem()
    for _ in range(40):
        y = random_poly(rng, rng.randrange(0, 7))
        n = y.degree + 1
        assert coefficient_code(fwd, y, n) == difference_table_row(y, n - 1, 1)
        assert coefficient_code(bwd, y, n) == difference_table_row(y, n - 1, -1)


def test_interpolation_property() -> None:
    # The n-th forward convergent matches y at 0..n-1; the backward one at
    # 0, -1, .., -(n-1).
    rng = random.Random(405)
    fwd, bwd = NewtonForwardSystem(), NewtonBackwardSystem()
    for _ in range(25):
        y = random_poly(rng, rng.randrange(1, 7))
        n = rng.randrange(1, y.degree + 2)
        pf = convergent(fwd, y, n).value
        pb = convergent(bwd, y, n).value
        for j in range(n):
            assert pf(F(j)) == y(F(j))
            assert pb(F(-j)) == y(F(-j))
        assert pf.degree < n and pb.degree < n


def test_exact_reconstruction_at_degree_plus_one() -> None:
    rng = random.Random(406)
    for sysm in (NewtonForwardSystem(), NewtonBackwardSystem(),
                 NewtonReflectedSystem()):
        for _ in range(25):
            y = random_poly(rng, rng.randrange(0, 9))
            order = order_of(sysm, y, 16)
            assert order.finite and order.n == y.degree + 1
            assert convergent(sysm, y, order.n).value == y
            assert roundtrip_check(sysm, y, order.n)


def test_reflection_conjugation() -> None:
    # The reflected system is the forward system transported along the
    # involution y -> -y(-x): codes negate, convergents reflect, and its
    # coefficients match the backward ones up to alternating signs.
    rng = random.Random(407)
    refl, fwd, bwd = (NewtonReflectedSystem(), NewtonForwardSystem(),
                      NewtonBackwardSystem())
    assert coefficient_code(refl, X * X, 5) == [F(0), F(1), F(2), F(0), F(0)]
    for _ in range(25):
        y = random_poly(rng, rng.randrange(0, 6))
        n = rng.randrange(0, y.degree + 3)
        code_r = coefficient_code(refl, y, n)
        code_f = coefficient_code(fwd, y.reflect(), n)
        code_b = coefficient_code(bwd, y, n)
        assert code_r == [-c for c in code_f]
        assert code_r == [(-1) ** k * c for k, c in enumerate(code_b)]
        assert convergent(refl, y, n).value == convergent(fwd, y.reflect(), n).value.reflect()


def basis(k, step, sign=1):
    """The basis element whose integer row, ``k!`` times it, is
    ``_factorial_basis(k, step, sign)``."""
    return Polynomial.of(*_factorial_basis(k, step, sign)) * F(1, math.factorial(k))


def test_difference_bases() -> None:
    # the binomial basis basis(k, 1) has forward difference basis(k-1, 1);
    # the rising basis basis(k, -1) is its backward-difference counterpart.
    assert basis(2, 1) == X * (X - Polynomial.of(1)) * F(1, 2)
    assert basis(2, -1) == X * (X + Polynomial.of(1)) * F(1, 2)
    assert basis(2, -1, -1) == basis(2, -1)
    assert basis(3, -1, -1) == -basis(3, -1)
    for k in range(1, 6):
        fwd_diff = basis(k, 1).shift(1) - basis(k, 1)
        assert fwd_diff == basis(k - 1, 1)
        bwd_diff = basis(k, -1) - basis(k, -1).shift(-1)
        assert bwd_diff == basis(k - 1, -1)



NEWTON_SYSTEMS = [NewtonForwardSystem(), NewtonBackwardSystem(), NewtonReflectedSystem()]


def _refusal(call) -> str:
    with pytest.raises(TruncationInconclusive) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("system", NEWTON_SYSTEMS, ids=lambda s: s.name)
def test_truncated_series_refusals_are_pinned(system) -> None:
    # project and reconstruct need an exact series and say so in these words
    cubic, constant = PowerSeries.truncated(0, [1, 2, 3]), PowerSeries.truncated(0, [5])
    assert _refusal(lambda: system.project(0, cubic)) == (
        "evaluation needs an exact series, not one known to order 2")
    assert _refusal(lambda: system.reconstruct(0, F(1), cubic)) == (
        "evaluation needs an exact series, not one known to order 2")
    assert _refusal(lambda: system.reconstruct(2, F(0), constant)) == (
        "evaluation needs an exact series, not one known to order 0")
    assert _refusal(lambda: system.expand(0, cubic)) == (
        "shift needs an exact series, not one known to order 2")


@pytest.mark.parametrize("system", NEWTON_SYSTEMS, ids=lambda s: s.name)
def test_all_zero_truncated_tail_is_refused(system) -> None:
    # an all-zero truncated series cannot be certified to be the zero
    # polynomial, so it is refused as a tail as well as an element
    zeros = PowerSeries.truncated(0, [0, 0])
    assert _refusal(lambda: system.project(3, zeros)) == (
        "evaluation needs an exact series, not one known to order 1")
    assert _refusal(lambda: system.reconstruct(0, F(1), zeros)) == (
        "evaluation needs an exact series, not one known to order 1")


# -- the Taylor shift and the Newton step on integer numerators -------------


def fraction_shift(cs, a) -> list:
    """Reference Taylor shift ``q(x) -> q(x + a)``: synthetic division in
    place on ``Fraction``s."""
    cs = [F(c) for c in cs]
    top = len(cs) - 1
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            cs[j] += a * cs[j + 1]
    return cs


def horner(cs, x) -> Fraction:
    acc = F(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def assert_canonical(p: PowerSeries) -> None:
    # stripped, and every coefficient a Fraction in lowest terms, so that
    # ==, hash and str read as for any other exact series
    assert p.exact and (not p.coeffs or p.coeffs[-1] != 0)
    for c in p.coeffs:
        assert type(c) is Fraction
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


coefficients = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.fractions(max_denominator=10**40),
    st.just(F(0)),
)
polys = st.lists(coefficients, max_size=13)
shifts = st.one_of(
    st.integers(-4, 4).map(F),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(max_denominator=10**12),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([F(0), F(1, 2), F(-7, 3)]), polys, shifts)
@example(F(0), [], F(-3, 7))
@example(F(0), [F(0), F(0)], F(5, 2))
@example(F(0), [F(1, 10**40 + 1), F(0), F(-5, 3), F(2**70, 3**40)], F(-1))
@example(F(1, 2), [F(3)], F(-2, 9))
def test_shift_matches_fraction_synthetic_division(center, cs, a):
    p = PowerSeries.exact_poly(center, cs)
    moved = p.shift(a)
    expected = PowerSeries(center, tuple(fraction_shift(p.coeffs, a)), exact=True)
    assert moved == expected
    assert hash(moved) == hash(expected) and str(moved) == str(expected)
    assert_canonical(moved)


@pytest.mark.parametrize("system", NEWTON_SYSTEMS, ids=lambda s: s.name)
@settings(max_examples=60, deadline=None)
@given(polys, st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=9),
                       max_size=3))
@example([], [])
@example([F(7, 10**40)], [])
def test_newton_step_is_the_scaled_difference(system, cs, extra):
    # both sides have degree at most deg p, so agreeing at deg p + 1
    # distinct points makes them equal as polynomials
    p = Polynomial.of(*cs)
    step = system.expand(0, p)
    assert_canonical(step)
    assert step.degree == max(p.degree - 1, -1)
    for t in {F(t) for t in range(-1, p.degree + 1)} | set(extra):
        assert step(t) == system.s * (horner(p.coeffs, t + system.h) - horner(p.coeffs, t))


# -- the Newton sum and reconstruct on integer numerators -------------------


def fraction_basis(k, h, s) -> Polynomial:
    """``B_k = (s h)^k x(x - h)...(x - (k-1) h) / k!`` by ``Fraction``
    products, apart from the cached integer table."""
    acc = Polynomial.of(1)
    for j in range(k):
        acc = acc * (X - Polynomial.of(j * h))
    return acc * F((s * h) ** k, math.factorial(k))


def fraction_newton_sum(system, code) -> Polynomial:
    acc = Polynomial.of()
    for k, c in enumerate(code):
        acc = acc + fraction_basis(k, system.h, system.s) * F(c)
    return acc


def fraction_reconstruct(system, c, tail) -> Polynomial:
    """Newton reconstruct by ``Fraction`` Horner and a ``Fraction``
    difference table of the tail's values at ``0, h, 2h, ...``."""
    values = [horner(tail.coeffs, F(j * system.h)) for j in range(len(tail.coeffs))]
    for k in range(1, len(values)):
        for j in range(len(values) - 1, k - 1, -1):
            values[j] = system.s * (values[j] - values[j - 1])
    return fraction_newton_sum(system, [c, *values])


def assert_same_polynomial(got, expected) -> None:
    assert got == expected
    assert hash(got) == hash(expected) and str(got) == str(expected)
    assert_canonical(got)


code_entries = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.fractions(max_denominator=10**30),
    st.just(F(0)),
)
codes = st.lists(code_entries, max_size=12)


@pytest.mark.parametrize("system", NEWTON_SYSTEMS, ids=lambda s: s.name)
@settings(max_examples=80, deadline=None)
@given(codes)
@example([])
@example([F(0)] * 5)
@example([F(0), F(0), F(3, 10**30 + 7), F(0), F(-1, 3)])
@example([F(10**30 - 1, 10**30), F(0), F(7)])
def test_newton_sum_matches_the_fraction_basis_sum(system, code):
    assert_same_polynomial(system._newton_sum(code), fraction_newton_sum(system, code))


@pytest.mark.parametrize("system", NEWTON_SYSTEMS, ids=lambda s: s.name)
@settings(max_examples=80, deadline=None)
@given(code_entries, polys)
@example(F(0), [])
@example(F(-2, 3), [F(0), F(0), F(1, 10**30 + 1)])
def test_reconstruct_matches_the_fraction_difference_table(system, c, cs):
    tail = Polynomial.of(*cs)
    rebuilt = system.reconstruct(0, c, tail)
    assert_same_polynomial(rebuilt, fraction_reconstruct(system, c, tail))
    # reconstruct inverts the step: value c at 0 and difference tail
    assert system.project(0, rebuilt) == c
    assert system.expand(0, rebuilt) == tail


@pytest.mark.parametrize("system", NEWTON_SYSTEMS, ids=lambda s: s.name)
@pytest.mark.parametrize("degree", [0, 2, 5, 9])
def test_reconstruct_builds_one_series(system, degree, monkeypatch) -> None:
    # the tail's code is read on integers, so the Newton sum is the only
    # exact series that a reconstruct builds, whatever the tail's degree
    tail = random_poly(random.Random(degree), degree)
    built = []
    stripped = PowerSeries._stripped

    def counting(center, cs):
        built.append(len(cs))
        return stripped(center, cs)

    monkeypatch.setattr(PowerSeries, "_stripped", staticmethod(counting))
    rebuilt = system.reconstruct(0, F(3, 7), tail)
    assert len(built) == 1
    monkeypatch.undo()
    assert_same_polynomial(rebuilt, fraction_reconstruct(system, F(3, 7), tail))


@pytest.mark.parametrize("a", [F(1), F(-1), F(3), F(-2, 5), F(0)])
def test_shift_refuses_a_truncated_series(a) -> None:
    germ = PowerSeries.truncated(0, [1, F(1, 2), 3])
    assert _refusal(lambda: germ.shift(a)) == (
        "shift needs an exact series, not one known to order 2")
