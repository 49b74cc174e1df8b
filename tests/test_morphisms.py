"""Tests for morphisms between systems: the sample-wise homomorphism checker,
built-in morphisms, shift isomorphisms, and convergent translation."""

import random
from fractions import Fraction

import pytest

from expansions import (
    BaseSystem,
    ContinuedFractionSystem,
    DomainError,
    HomReport,
    Morphism,
    NewtonBackwardSystem,
    NewtonForwardSystem,
    NewtonReflectedSystem,
    Polynomial,
    UnsupportedInContext,
    as_d_shift_morphism,
    build_system,
    cf_shift_morphism,
    coefficient_code,
    convergent,
    decimal_shift_morphism,
    newton_reflection_morphism,
    sample_element,
    shift_isomorphism,
    translate_convergent,
    verify_homomorphism,
)

F = Fraction
X = Polynomial.x()


def rational_samples(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [F(rng.randrange(0, q), q) for q in
            (rng.randrange(2, 500) for _ in range(count))]


def polynomial_samples(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [Polynomial.of(*[F(rng.randrange(-9, 10), rng.randrange(1, 4))
                            for _ in range(rng.randrange(1, 6))])
            for _ in range(count)]


def test_identity_verifies() -> None:
    sysm = BaseSystem(10)
    ident = lambda i, v: v
    identity = Morphism(name="identity-base10", source=sysm, target=sysm,
                        map_element=ident, map_coeff=ident,
                        inv_element=ident, inv_coeff=ident)
    report = verify_homomorphism(identity, rational_samples(601, 8), 5)
    assert report.ok


def test_builtin_morphisms_verify() -> None:
    rng = random.Random(602)
    report = verify_homomorphism(newton_reflection_morphism(),
                                 polynomial_samples(603, 8), 5)
    assert report.ok
    _, decimal = decimal_shift_morphism()
    assert verify_homomorphism(decimal, rational_samples(604, 8), 5).ok
    _, cf = cf_shift_morphism()
    assert verify_homomorphism(cf, rational_samples(605, 8), 5).ok
    _, dshift = as_d_shift_morphism(build_system("as-d-power-half"))
    germs = [sample_element("as-d-power-half", rng) for _ in range(4)]
    assert verify_homomorphism(dshift, germs, 3).ok


def test_broken_coefficient_map_is_caught() -> None:
    # Dropping the sign flip from the reflection's coefficient map breaks the
    # projection equation at level 0 on any sample with a nonzero constant.
    broken = Morphism(
        name="newton-reflection-broken",
        source=NewtonForwardSystem(),
        target=NewtonReflectedSystem(),
        map_element=lambda i, y: y.reflect(),
        map_coeff=lambda i, c: c,
    )
    report = verify_homomorphism(broken, [X * X * X - X + Polynomial.of(2)], 4)
    assert not report.ok
    assert report.equation == "coefficient"
    assert report.level == 0
    assert report.sample_index == 0


def decimal_to_cf_identity() -> Morphism:
    # Both systems share the neutral 0, but one step of each differs on 7/10:
    # base 10 leaves 0, the continued fraction 3/7.
    return Morphism(
        name="decimal-to-cf-identity",
        source=BaseSystem(10),
        target=ContinuedFractionSystem(),
        map_element=lambda i, y: y,
        map_coeff=lambda i, c: c,
    )


def test_broken_expansion_map_is_caught() -> None:
    report = verify_homomorphism(decimal_to_cf_identity(), [F(7, 10)], 3)
    assert report == HomReport(ok=False, equation="expansion", level=0, sample_index=0,
                               detail="map(E_0 y) = 0 != E'_0(map y) = 3/7")


def test_broken_neutral_map_is_caught() -> None:
    broken = Morphism(
        name="decimal-affine",
        source=BaseSystem(10),
        target=BaseSystem(10),
        map_element=lambda i, y: y / 2 + F(1, 4),
        map_coeff=lambda i, c: c,
    )
    report = verify_homomorphism(broken, [F(7, 10)], 3)
    assert report == HomReport(ok=False, equation="neutral", level=0, sample_index=None,
                               detail="map(neutral_0) = 1/4 != 0")


def test_broken_inverse_is_caught() -> None:
    broken = Morphism(
        name="identity-broken-inverse",
        source=BaseSystem(10),
        target=BaseSystem(10),
        map_element=lambda i, y: y,
        map_coeff=lambda i, c: c,
        inv_element=lambda i, y: y / 2,
        inv_coeff=lambda i, c: c,
    )
    report = verify_homomorphism(broken, [F(1, 3)], 3)
    assert not report.ok and report.equation == "inverse"


def test_broken_coefficient_inverse_is_caught() -> None:
    # The reflection negates coefficients, so the identity is not the inverse
    # of its coefficient map: the level-0 value 2 comes back as -2.
    broken = newton_reflection_morphism()
    broken.inv_coeff = lambda i, c: c
    report = verify_homomorphism(broken, [X * X * X - X + Polynomial.of(2)], 4)
    assert not report.ok
    assert report.equation == "inverse"
    assert report.level == 0
    assert report.sample_index == 0


def test_reflection_composition_is_identity() -> None:
    refl = newton_reflection_morphism()
    composed = Morphism(
        name="reflection-squared",
        source=NewtonForwardSystem(),
        target=NewtonForwardSystem(),
        map_element=lambda i, y: refl.map_element(i, refl.map_element(i, y)),
        map_coeff=lambda i, c: refl.map_coeff(i, refl.map_coeff(i, c)),
        inv_element=lambda i, y: y,
        inv_coeff=lambda i, c: c,
    )
    assert verify_homomorphism(composed, polynomial_samples(606, 8), 5).ok


def test_reflected_convergents_match_backward() -> None:
    # The reflected system interpolates at 0, -1, .., -(n-1), which is the
    # backward system's node set, so their convergents coincide.
    y = X * X * X - X
    refl, bwd = NewtonReflectedSystem(), NewtonBackwardSystem()
    for n in range(0, 5):
        assert convergent(refl, y, n).value == convergent(bwd, y, n).value
    rng = random.Random(607)
    for p in polynomial_samples(608, 10):
        n = rng.randrange(0, p.degree + 3)
        assert convergent(refl, p, n).value == convergent(bwd, p, n).value


def test_translate_convergent() -> None:
    refl = newton_reflection_morphism()
    y = X * X * X - X
    for n in range(0, 5):
        via = translate_convergent(refl, y.reflect(), n)
        direct = convergent(NewtonReflectedSystem(), y.reflect(), n)
        assert via.improper_at == direct.improper_at
        assert via.value == direct.value

    shifted, decimal = decimal_shift_morphism()
    for y in rational_samples(609, 6):
        trace = translate_convergent(decimal, 10 * y, 4)
        assert trace.improper_at is None
        assert trace.value == 10 * convergent(BaseSystem(10), y, 4).value

    no_inverse = Morphism(
        name="no-inverse",
        source=BaseSystem(10),
        target=BaseSystem(10),
        map_element=lambda i, y: y,
        map_coeff=lambda i, c: c,
    )
    with pytest.raises(UnsupportedInContext):
        translate_convergent(no_inverse, F(1, 3), 2)


def test_shifted_system_keeps_the_code() -> None:
    shifted, decimal = decimal_shift_morphism()
    for y in rational_samples(610, 8):
        assert coefficient_code(shifted, 10 * y, 5) == \
            coefficient_code(BaseSystem(10), y, 5)
    cf_shifted, cf_morph = cf_shift_morphism()
    src = cf_morph.source
    for y in rational_samples(611, 8):
        lifted = cf_morph.map_element(0, y)
        assert coefficient_code(cf_shifted, lifted, 5) == coefficient_code(src, y, 5)


def test_shift_isomorphism_checks_inverse() -> None:
    source = BaseSystem(10)
    with pytest.raises(DomainError):
        shift_isomorphism(
            source,
            e1=lambda i, y: 10 * y,
            e1_inv=lambda i, y: y / 7,
            e2=lambda i, y: y,
            name="broken-split",
            samples=[F(1, 3)],
        )


def test_as_d_shift_requires_d_transform() -> None:
    with pytest.raises(UnsupportedInContext):
        as_d_shift_morphism(build_system("as-k-power-2"))


def test_neutral_maps_to_neutral() -> None:
    refl = newton_reflection_morphism()
    for i in range(4):
        mapped = refl.map_element(i, refl.source.neutral(i))
        assert refl.target.elements_equal(i, mapped, refl.target.neutral(i))
