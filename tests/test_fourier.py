"""Tests for mode-pair peel-off on trigonometric polynomials."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from expansions import (
    ComplexRational,
    FourierSystem,
    TrigPolynomial,
    coefficient_code,
    convergent,
    convergent_from_code,
    order_of,
    roundtrip_check,
    trajectory,
)

F = Fraction
CR = ComplexRational.of
ZERO = ComplexRational.of(0)


def random_trig(rng: random.Random, max_mode: int) -> TrigPolynomial:
    amps = {}
    for k in range(-max_mode, max_mode + 1):
        if rng.random() < 0.6:
            amps[k] = CR(F(rng.randrange(-5, 6), rng.randrange(1, 4)),
                         F(rng.randrange(-5, 6), rng.randrange(1, 4)))
    return TrigPolynomial.of(amps)


def test_single_mode_golden() -> None:
    sysm = FourierSystem()
    y = TrigPolynomial.basis(1, CR(1))
    res = order_of(sysm, y, 6)
    assert res.finite and res.n == 2
    assert coefficient_code(sysm, y, 3) == [(ZERO, ZERO), (ZERO, CR(1)), (ZERO, ZERO)]
    assert convergent(sysm, y, 2).value == y


def test_projection_pairs_and_level_zero() -> None:
    sysm = FourierSystem()
    y = TrigPolynomial.of({0: CR(2), 1: CR(1, 1), -1: CR(0, -1), 3: CR(1)})
    code = coefficient_code(sysm, y, 3)
    # Level 0 repeats the constant amplitude; level i >= 1 carries (-i, +i).
    assert code[0] == (CR(2), CR(2))
    assert code[1] == (CR(0, -1), CR(1, 1))
    assert code[2] == (ZERO, ZERO)
    # One expansion step removes both modes of the pair but only one slot of
    # the level-0 coefficient is shed.
    traj = trajectory(sysm, y, 2)
    assert traj[1] == y.without_modes(0)
    assert traj[2] == y.without_modes(0, 1, -1)


def test_order_is_max_mode_plus_one() -> None:
    sysm = FourierSystem()
    rng = random.Random(408)
    for _ in range(30):
        y = random_trig(rng, rng.randrange(0, 5))
        res = order_of(sysm, y, 8)
        assert res.finite
        expected = max((abs(k) + 1 for k, _ in y.terms), default=0)
        assert res.n == expected
        assert convergent(sysm, y, res.n).value == y
        assert roundtrip_check(sysm, y, res.n)


def test_reconstruction_is_partial() -> None:
    sysm = FourierSystem()
    # Restoring modes the tail still occupies must fail, as must a level-0
    # pair whose two slots disagree.
    occupied = TrigPolynomial.basis(1, CR(5))
    assert sysm.reconstruct(1, (CR(1), CR(1)), occupied) is None
    assert sysm.reconstruct(0, (CR(1), CR(2)), TrigPolynomial.zero()) is None
    assert sysm.reconstruct(0, (CR(1), CR(1)), TrigPolynomial.basis(0, CR(1))) is None
    ok = sysm.reconstruct(1, (CR(1), CR(2)), TrigPolynomial.basis(2, CR(3)))
    assert ok == TrigPolynomial.of({-1: CR(1), 1: CR(2), 2: CR(3)})


def test_improper_convergent_from_bad_code() -> None:
    sysm = FourierSystem()
    # A hand-built code whose level-0 slots disagree decodes to an improper
    # convergent rather than raising.
    trace = convergent_from_code(sysm, [(CR(1), CR(2)), (ZERO, CR(1))])
    assert trace.improper_at == 0
    assert trace.value is None


# |z| = 1, so z^-k is the k-th power of the conjugate
_Z = CR(F(3, 5), F(4, 5))


def _at_z(y: TrigPolynomial) -> ComplexRational:
    total = ZERO
    for k, a in y.terms:
        power = CR(1)
        for _ in range(abs(k)):
            power = power * (_Z if k > 0 else CR(_Z.re, -_Z.im))
        total = total + a * power
    return total


_amplitudes = st.builds(
    CR, st.fractions(-5, 5, max_denominator=7), st.fractions(-5, 5, max_denominator=7)
)
_trigs = st.dictionaries(st.integers(-4, 4), _amplitudes, max_size=5).map(TrigPolynomial.of)


@settings(max_examples=200, deadline=None)
@given(_trigs, _trigs)
def test_product_evaluates_to_the_product_of_evaluations(y, w):
    assert _at_z(y * w) == _at_z(y) * _at_z(w)
