"""Property tests: registry samples of the polynomial and the approximation
systems through the generic round trip, the ring identities of exact
polynomials, and the polynomial systems' refusal of series that are not exact
polynomials at 0."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import expansions
from expansions import (
    INF,
    DomainError,
    ExpansionSystem,
    FExpansionSystem,
    Interval,
    Polynomial,
    PowerSeries,
    PrecisionExhausted,
    TruncationInconclusive,
    build_system,
    coefficient_code,
    convergent,
    convergent_from_code,
    head_coincidence,
    isolate_roots_01,
    parse_expression,
    roundtrip_check,
    sample_element,
    sup_norm_le,
    system_ids,
    trajectory,
)
from expansions.polynomials import (
    divmod_poly,
    is_nonneg_on_01,
)
from expansions.registry import SHUFFLE_SIGMA
from expansions.seriessys import NormTaylorSystem

POLYNOMIAL_SYSTEMS = ("newton-forward", "newton-backward", "newton-reflected", "norm-taylor")

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)
coeff_lists = st.lists(rationals, max_size=7)
bounded = settings(max_examples=40, deadline=None)


@bounded
@given(st.sampled_from(("taylor",) + POLYNOMIAL_SYSTEMS), st.integers(0, 2**32 - 1))
def test_registry_samples_roundtrip(system_id, seed):
    system = build_system(system_id)
    y = sample_element(system_id, random.Random(seed))
    depth = y.degree + 2
    assert roundtrip_check(system, y, depth)
    assert head_coincidence(system, y, depth)


AS_SYSTEMS = [sid for sid in system_ids() if sid.startswith("as-")]


@pytest.mark.parametrize("system_id", AS_SYSTEMS)
@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_as_registry_samples_roundtrip(system_id, rng):
    system = build_system(system_id)
    y = sample_element(system_id, rng)
    for n in range(4):
        try:
            coefficient_code(system, y, n)
        except TruncationInconclusive:
            # a stage that vanishes to its known order has no certified
            # multiplicity, which is the documented refusal
            break
        assert head_coincidence(system, y, n)
        assert roundtrip_check(system, y, n)


class _ZeroRandom(random.Random):
    """Draws 0 wherever the range allows it, else the range's nearest end."""

    def randint(self, a, b):
        return min(max(a, 0), b)


@pytest.mark.parametrize("system_id", AS_SYSTEMS)
def test_as_sampler_never_draws_a_germ_that_vanishes_past_x(system_id):
    y = sample_element(system_id, _ZeroRandom())
    assert any(y.coeffs[2:])
    # the fix-up tail must not be a short finite convergent, whose code
    # would be inconclusive a few levels down
    assert len(coefficient_code(build_system(system_id), y, 4)) == 4


@bounded
@given(coeff_lists, coeff_lists, rationals)
def test_product_evaluates_pointwise(cs, ds, t):
    p, q = Polynomial.of(*cs), Polynomial.of(*ds)
    assert (p * q)(t) == p(t) * q(t)


@bounded
@given(coeff_lists, rationals, rationals)
def test_shift_substitutes(cs, a, t):
    p = Polynomial.of(*cs)
    assert p.shift(a)(t) == p(t + a)


@bounded
@given(coeff_lists)
def test_reflect_is_an_involution(cs):
    p = Polynomial.of(*cs)
    assert p.reflect().reflect() == p


@bounded
@given(coeff_lists)
def test_polynomial_is_exact_series_at_zero(cs):
    p, s = Polynomial.of(*cs), PowerSeries.exact_poly(0, cs)
    assert p == s and str(p) == str(s)
    assert p.exact and p.center == 0
    assert p.coefficient(-1) == 0 and p.coefficient(len(cs)) == 0


def test_one_coefficient_class():
    assert expansions.Polynomial is expansions.PowerSeries
    germ = PowerSeries.truncated(0, [1, 2, 3])
    for use in (lambda: germ.degree, lambda: germ(Fraction(1, 2)), lambda: germ.shift(1)):
        with pytest.raises(TruncationInconclusive):
            use()


def test_polynomial_decisions_refuse_recentred_series():
    # Root isolation and norm bounds read coefficients as powers of x.
    quadratic = PowerSeries.exact_poly(Fraction(1, 2), [Fraction(-1, 4), 0, 1])
    linear = PowerSeries.exact_poly(Fraction(1, 2), [Fraction(1, 4), 1])
    for p in (quadratic, linear):
        decisions = (
            lambda: divmod_poly(p, Polynomial.x()),
            lambda: isolate_roots_01(p),
            lambda: is_nonneg_on_01(p),
            lambda: sup_norm_le(p, 1),
        )
        for decide in decisions:
            with pytest.raises(DomainError, match="centered at 0"):
                decide()


def test_norm_taylor_has_no_center_parameter():
    assert NormTaylorSystem().center == 0
    with pytest.raises(TypeError):
        NormTaylorSystem(Fraction(1, 2))


@bounded
@given(st.sampled_from(POLYNOMIAL_SYSTEMS), st.lists(rationals, min_size=1, max_size=5))
def test_polynomial_systems_reject_non_polynomials(system_id, cs):
    system = build_system(system_id)
    for y in (PowerSeries.truncated(0, cs), PowerSeries.exact_poly(Fraction(1, 2), cs)):
        with pytest.raises(DomainError):
            trajectory(system, y, 1)


REAL_SYSTEMS = ("base10", "base10-shuffled", "cf", "egyptian", "engel")


@bounded
@given(st.sampled_from(REAL_SYSTEMS + ("fourier",)), st.integers(0, 2**32 - 1))
def test_registry_samples_roundtrip_reals_and_trig(system_id, seed):
    system = build_system(system_id)
    y = sample_element(system_id, random.Random(seed))
    assert roundtrip_check(system, y, 8)
    assert head_coincidence(system, y, 8)
    if system_id in REAL_SYSTEMS:
        assert roundtrip_check(system, Interval.exact(y), 8)


_INDICES = st.integers(2, 40) | st.just(INF)
REAL_ALPHABETS = {"base10": st.integers(0, 9), "base10-shuffled": st.integers(0, 9),
                  "cf": st.integers(1, 40) | st.just(INF),
                  "egyptian": _INDICES, "engel": _INDICES}
unit_tails = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda t: t < 1)


def _candidate(system_id, c, t):
    """The preimage of ``(c, t)`` by each system's own rule, before any check
    that it lies in ``[0, 1)`` or steps back to ``(c, t)``."""
    if c is INF:
        return Fraction(0)
    if system_id == "base10":
        return (c + t) / 10
    if system_id == "base10-shuffled":
        return (SHUFFLE_SIGMA.index(c) + t) / 10
    if system_id == "cf":
        return 1 / (c + t)
    return 1 / Fraction(c) + t if system_id == "egyptian" else (1 + t) / c


@bounded
@given(st.sampled_from(REAL_SYSTEMS).flatmap(
    lambda sid: st.tuples(st.just(sid), REAL_ALPHABETS[sid], unit_tails)))
@example(("cf", 1, Fraction(0)))
@example(("egyptian", 3, Fraction(1, 6)))
@example(("engel", 3, Fraction(1, 2)))
def test_real_reconstruct_refuses_exactly_what_does_not_step_back(case):
    # reconstruct returns the candidate preimage exactly when it is an
    # element whose step gives (c, t) again, on a Fraction and on a point
    # enclosure alike; the three examples are exact cylinder tops
    system_id, c, t = case
    system = build_system(system_id)
    y = _candidate(system_id, c, t)
    admitted = 0 <= y < 1 and system.step(0, y) == (c, t)
    assert system.reconstruct(0, c, t) == (y if admitted else None)
    assert system.reconstruct(0, c, Interval.exact(t)) == (
        Interval.exact(y) if admitted else None)


# besides the registry's five: a non-Möbius f whose constant inverse refuses
# every reconstruct, and base 2 and cf with their inverse matrices negated
EXTRA_REAL_SYSTEMS = {
    "square": (lambda: FExpansionSystem("square", f=lambda y: 4 * y * y, f_inv=(0, 1, 0, 1)),
               st.integers(0, 3)),
    "neg-base2": (lambda: FExpansionSystem("neg-base2", f=lambda y: 2 * y,
                                           f_inv=(-1, 0, 0, -2)), st.integers(0, 1)),
    "neg-cf": (lambda: FExpansionSystem("neg-cf", f=lambda y: 1 / y if y else INF,
                                        f_inv=(0, -1, -1, 0)), REAL_ALPHABETS["cf"]),
}


def _backward(pass_, system, code):
    """The trace of one backward pass with every stage read, or the error."""
    try:
        trace = pass_(system, code)
    except DomainError as exc:
        return str(exc)
    return trace.improper_at, trace.value, [trace.stages[k] for k in range(trace.n + 1)]


@bounded
@given(st.sampled_from(REAL_SYSTEMS + tuple(EXTRA_REAL_SYSTEMS)).flatmap(
    lambda sid: st.tuples(st.just(sid), st.lists(
        EXTRA_REAL_SYSTEMS[sid][1] if sid in EXTRA_REAL_SYSTEMS else REAL_ALPHABETS[sid],
        max_size=10))))
@example(("base10", [3, INF, 1]))
@example(("cf", [2, 1, INF]))
@example(("egyptian", [2, 3, 7, INF]))
def test_integer_backward_pass_is_the_reconstruct_chain(case):
    # the real systems' backward pass on integer pairs agrees with the
    # per-level reconstruct chain: improper level, value, and every stage as
    # read, a Fraction or None; a foreign coefficient fails the same way
    system_id, code = case
    system = (EXTRA_REAL_SYSTEMS[system_id][0]() if system_id in EXTRA_REAL_SYSTEMS
              else build_system(system_id))
    got = _backward(convergent_from_code, system, code)
    assert got == _backward(ExpansionSystem.backward_pass, system, code)
    if not isinstance(got, str):
        assert all(stage is None or type(stage) is Fraction for stage in got[2])


#: the Newton systems and the step ``h`` of their interpolation nodes ``j*h``
NEWTON_NODE_STEPS = {"newton-forward": 1, "newton-backward": -1, "newton-reflected": -1}


@bounded
@given(st.sampled_from(tuple(NEWTON_NODE_STEPS)),
       st.lists(st.one_of(st.just(Fraction(0)), rationals), max_size=9))
@example("newton-forward", [])
@example("newton-backward", [Fraction(0), Fraction(0)])
@example("newton-reflected", [Fraction(0), Fraction(-3, 2), Fraction(0), Fraction(5)])
def test_newton_backward_pass_is_the_reconstruct_chain(system_id, code):
    # the Newton sums of the code's tails are the per-level reconstruct
    # chain: value, improper level and every stage, read bottom up or top
    # down
    system = build_system(system_id)
    got = _backward(convergent_from_code, system, code)
    assert got == _backward(ExpansionSystem.backward_pass, system, code)
    assert got[0] is None and all(stage.exact for stage in got[2])
    trace = convergent_from_code(system, code)
    assert [trace.stages[k] for k in range(len(code), -1, -1)] == got[2][::-1]


@bounded
@given(st.sampled_from(tuple(NEWTON_NODE_STEPS)), st.integers(0, 2**32 - 1))
def test_newton_registry_samples_interpolate(system_id, seed):
    # the code of length degree + 1 rebuilds the sample, which round-trips,
    # and the n-th convergent has degree below n and meets the sample at
    # the n nodes 0, h, ..., (n - 1) h
    system = build_system(system_id)
    y = sample_element(system_id, random.Random(seed))
    assert convergent(system, y, y.degree + 1).value == y
    assert roundtrip_check(system, y, y.degree + 1)
    nodes = [Fraction(j * NEWTON_NODE_STEPS[system_id]) for j in range(y.degree + 2)]
    for n in range(y.degree + 2):
        value = convergent(system, y, n).value
        assert value.degree < n
        assert [value(x) for x in nodes[:n]] == [y(x) for x in nodes[:n]]


@bounded
@given(st.integers(0, 2**32 - 1), st.fractions(min_value=-2, max_value=2, max_denominator=4))
def test_norm_taylor_reconstruct_keeps_membership(seed, c):
    # The tail is a member, so deciding the new stage alone decides the walk.
    system = NormTaylorSystem()
    tail = sample_element("norm-taylor", random.Random(seed))
    assert system._member(tail)
    rebuilt = system.reconstruct(0, c, tail)
    assert (rebuilt is not None) == system._member(tail.shift_up(c))
    if rebuilt is not None:
        assert system._member(rebuilt)


@bounded
@given(coeff_lists)
def test_polynomial_text_parses_to_its_coefficients(cs):
    text = " + ".join(f"({c})*x^{k}" for k, c in enumerate(cs)) or "0"
    p = parse_expression(text, "polynomial")
    assert p == Polynomial.of(*cs) and p.exact
    assert parse_expression(text, "series") == p


@bounded
@given(rationals.filter(bool), st.integers(1, 6))
def test_negative_power_is_reciprocal_power(a, k):
    for base, kind in ((f"({a})", Fraction), (f"(sqrt(2)*({a}))", Interval)):
        value = parse_expression(f"{base}^-{k}", "real")
        assert isinstance(value, kind)
        assert value == parse_expression(f"1/{base}^{k}", "real")


# -- certified digit steps against the Interval steps written out ----------


def _nonsquare(k):
    return k + 1 if math.isqrt(k) ** 2 == k else k


def _square(q):
    return all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


@st.composite
def irrational_texts(draw):
    """An irrational in (0, 1) from a sqrt, pi, e or quotient family."""
    family = draw(st.integers(0, 4))
    k = draw(st.integers(1, 9))
    if family == 0:
        a = _nonsquare(draw(st.integers(2, 999)))
        return f"sqrt({a}) - {math.isqrt(a)}"
    if family == 1:
        return f"(pi - 3) * {k}/{k + 1}"
    if family == 2:
        return f"(e - 2) * {k}/{k + 1}"
    if family == 3:
        a, b = _nonsquare(draw(st.integers(2, 99))), _nonsquare(draw(st.integers(2, 99)))
        return f"(sqrt({a}) - {math.isqrt(a)}) / (sqrt({b}) + {k % 5 + 1})"
    q = draw(st.fractions(Fraction(1, 50), Fraction(49, 50), max_denominator=50)
             .filter(lambda q: not _square(q)))
    return f"sqrt({q})"


def _floor_step(y, base, labels):
    v = y * base
    d = math.floor(v)
    return labels[d], v - d


def _cf_step(y):
    if not y:
        return INF, 0 * y
    v = 1 / y
    d = math.floor(v)
    return d, v - d


def _egyptian_step(y):
    if not y:
        return INF, 0 * y
    q = math.ceil(1 / y)
    return q, y - Fraction(1, q)


def _engel_step(y):
    if not y:
        return INF, 0 * y
    q = math.ceil(1 / y)
    return q, y * q - 1


DIGITS = list(range(10))

#: system -> its step, as a formula on an Interval
REFERENCE_STEPS = {
    "base10": (build_system("base10"), lambda y: _floor_step(y, 10, DIGITS)),
    "base10-shuffled": (build_system("base10-shuffled"),
                        lambda y: _floor_step(y, 10, SHUFFLE_SIGMA)),
    "cf": (build_system("cf"), _cf_step),
    "egyptian": (build_system("egyptian"), _egyptian_step),
    "engel": (build_system("engel"), _engel_step),
}


def _reference_code(step, y, depth):
    """(code, level of PrecisionExhausted or None, its message)."""
    code = []
    try:
        for _ in range(depth):
            c, y = step(y)
            code.append(c)
    except PrecisionExhausted as exc:
        return code, len(code), str(exc)
    return code, None, None


@pytest.mark.parametrize("name", REFERENCE_STEPS)
@settings(max_examples=15, deadline=None)
@given(irrational_texts(), st.integers(64, 1024))
def test_certified_codes_match_interval_steps(name, text, bits):
    # the systems' steps certify the same digits, stop at the same level
    # and say the same as the four formulas written above
    system, step = REFERENCE_STEPS[name]
    y = parse_expression(text, "real", bits=bits)
    assert isinstance(y, Interval)
    try:
        got = coefficient_code(system, y, bits), None, None
    except PrecisionExhausted as exc:
        got = exc.prefix, exc.level, str(exc)
    assert got == _reference_code(step, y, bits)
