"""Tests for the small expression language used by the CLI.

Scalar, path, and alpha-schedule parsing are exercised directly; the
expression contexts (real / series / germ / polynomial / trig) are checked
against hand-expanded series heads.
"""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expansions.exprs as exprs
from expansions import (
    build_system,
    coefficient_code,
    convergent_from_code,
    DomainError,
    Interval,
    ParseError,
    Polynomial,
    PrecisionExhausted,
    PowerSeries,
    TrigPolynomial,
    UnsupportedInContext,
    parse_alpha_schedule,
    parse_expression,
    parse_path,
)


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


def test_parse_scalar_rationals():
    assert parse_expression("355/113", "real") == F(355, 113)
    assert parse_expression("0.1", "real") == F(1, 10)
    assert parse_expression("-3", "real") == F(-3)
    assert parse_expression("  7/2 ", "real") == F(7, 2)


def test_parse_scalar_rejects_junk():
    for text in ("", "1/", "one", "1..2"):
        with pytest.raises(ParseError):
            parse_expression(text, "real")


# ---------------------------------------------------------------------------
# Real context
# ---------------------------------------------------------------------------


def test_real_context_arithmetic():
    assert parse_expression("1/2 + 1/3", "real") == F(5, 6)
    assert parse_expression("(2 - 1/4)^2", "real") == F(49, 16)
    assert parse_expression("2 * 3/4 - 1", "real") == F(1, 2)


def test_real_context_sqrt_exact_vs_enclosure():
    assert parse_expression("sqrt(9/4)", "real") == F(3, 2)
    root2 = parse_expression("sqrt(2)", "real")
    assert isinstance(root2, Interval)
    assert root2.lo < root2.hi
    assert root2.lo ** 2 < 2 < root2.hi ** 2


def test_unknown_context_rejected():
    with pytest.raises(DomainError):
        parse_expression("1", "quaternion")


@pytest.mark.parametrize("text, context", [
    ("0^-1", "real"),
    ("(1/2-1/2)^-3", "real"),
    ("0^-1", "trig"),
    ("(E(0)-1)^-1", "trig"),
])
def test_zero_to_a_negative_power_is_a_domain_error(text, context):
    # a DomainError like 1/0, not a bare ZeroDivisionError
    with pytest.raises(DomainError, match="^division by zero$"):
        parse_expression(text, context)


# ---------------------------------------------------------------------------
# Germ context
# ---------------------------------------------------------------------------


def test_germ_exp_truncated_head():
    g = parse_expression("exp", "germ", order=6)
    assert isinstance(g, PowerSeries)
    assert g.coeffs == (F(1), F(1), F(1, 2), F(1, 6), F(1, 24), F(1, 120), F(1, 720))
    assert not g.exact
    assert g.known_order == 6


def test_negative_series_order_rejected():
    for context in ("series", "germ"):
        with pytest.raises(DomainError):
            parse_expression("exp(x)", context, order=-1)
    assert parse_expression("exp(x)", "series", order=0).coeffs == (F(1),)


def test_germ_polynomial_input_is_exact():
    g = parse_expression("1 + x^2", "germ", order=5)
    assert g.exact
    assert g.coeffs == (F(1), F(0), F(1))
    assert g.known_order is None


def test_germ_tan_sin_cos_heads():
    tan = parse_expression("tan", "germ", order=8)
    assert tan.coeffs == (
        F(0), F(1), F(0), F(1, 3), F(0), F(2, 15), F(0), F(17, 315), F(0),
    )
    sin = parse_expression("sin", "germ", order=5)
    assert sin.coeffs == (F(0), F(1), F(0), F(-1, 6), F(0), F(1, 120))
    cos = parse_expression("cos", "germ", order=4)
    assert cos.coeffs == (F(1), F(0), F(-1, 2), F(0), F(1, 24))


def test_germ_composite_expression():
    # exp(x^2 - x) = exp(-x) * exp(x^2); head checked by hand multiplication.
    g = parse_expression("exp(x^2 - x)", "germ", order=5)
    assert g.coeffs == (F(1), F(-1), F(3, 2), F(-7, 6), F(25, 24), F(-27, 40))


def test_germ_recentering_clause():
    g = parse_expression("pow(1/2) at 1", "germ", order=4)
    assert g.center == F(1)
    assert g.coeffs[:3] == (F(1), F(1, 2), F(-1, 8))


def test_germ_function_argument_restriction():
    # Nontrivial arguments are supported for exp/log only.
    with pytest.raises(UnsupportedInContext):
        parse_expression("tan(x^2)", "germ")


def test_series_literal_is_truncated_and_keeps_its_zeros():
    g = parse_expression("series(1,2,0,0)", "series")
    assert not g.exact
    assert g.known_order == 3
    assert g.coeffs == (F(1), F(2), F(0), F(0))


def test_poly_literal_is_exact():
    p = parse_expression("poly(1,2,0,0)", "series")
    assert p.exact
    assert p == PowerSeries.exact_poly(0, [1, 2])


def test_series_literal_takes_the_at_clause():
    g = parse_expression("series(1,2) at 1/2", "series")
    assert g.center == F(1, 2)
    assert g.coeffs == (F(1), F(2))


@pytest.mark.parametrize("text, context, message, position", [
    ("series()", "series", "expected a value, found ')'", 7),
    ("series(pi)", "series", "pi is not exact here", 7),
    ("poly(1,2)", "polynomial", "unknown name 'poly'", 0),
])
def test_coefficient_literal_errors(text, context, message, position):
    with pytest.raises(ParseError) as exc:
        parse_expression(text, context)
    assert exc.value.position == position
    assert str(exc.value) == f"{message} (at position {position})"


# ---------------------------------------------------------------------------
# Polynomial and trig contexts
# ---------------------------------------------------------------------------


def test_polynomial_context():
    p = parse_expression("1/2 + x - x^2", "polynomial")
    assert isinstance(p, Polynomial)
    assert p == Polynomial.of(F(1, 2), F(1), F(-1))


def test_polynomial_context_rejects_unknown_names():
    with pytest.raises(ParseError):
        parse_expression("pi", "polynomial")


def test_trig_context_mode_algebra():
    t = parse_expression("E(1)*E(-1) + E(2)^2", "trig")
    assert isinstance(t, TrigPolynomial)
    assert [k for k, _ in t.terms] == [0, 4]
    assert t.amplitude(0).re == F(1)
    assert t.amplitude(4).re == F(1)
    assert t.amplitude(1).is_zero()
    assert t.amplitude(2).is_zero()


# ---------------------------------------------------------------------------
# Integer powers
# ---------------------------------------------------------------------------

_POWER_BASES = {
    "series": ["1 + x", "1/2 + x - x^2", "exp(x)", "sin(x)", "series(1, 1/2, 1/3)", "3/7",
               "x - x"],
    "polynomial": ["x", "2*x - 1", "1/2 + x - x^2", "-1", "x - x"],
    "trig": ["E(1)", "E(1) + E(-2)/3 + i", "2*i", "E(1) - E(1)"],
}


def _k_fold(value, k, unit):
    acc = unit
    for _ in range(k):
        acc = acc * value
    return acc


@given(st.sampled_from([(c, b) for c, bases in _POWER_BASES.items() for b in bases]),
       st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_powers_by_squaring_are_the_k_fold_products(case, k):
    # the same exact product, truncated ones included, in every context
    context, base = case
    value = parse_expression(f"({base})^{k}", context, order=9)
    unit = parse_expression("1", context, order=9)
    got = _k_fold(parse_expression(f"({base})", context, order=9), k, unit)
    assert value == got
    assert getattr(value, "exact", None) == getattr(got, "exact", None)


@pytest.mark.parametrize("text, context, allowed", [
    ("(1 + x)^{k}", "polynomial", 8),
    ("(x^2 - x)^{k}", "polynomial", 4),
    ("(2 + x^3)^{k}", "series", 2),
    ("E(2)^{k}", "trig", 4),
    ("(E(-3) + E(1))^{k}", "trig", 2),
])
def test_exact_powers_stop_at_the_degree_bound(monkeypatch, text, context, allowed):
    # k times the degree, or the widest mode, may reach MAX_DEGREE, not pass it
    monkeypatch.setattr(exprs, "MAX_DEGREE", 8)
    parse_expression(text.format(k=allowed), context)
    with pytest.raises(DomainError, match=f"exponents above {allowed} "):
        parse_expression(text.format(k=allowed + 1), context)


@pytest.mark.parametrize("text, allowed", [
    ("(1/3)^{k}", 32),
    ("(-5/3)^-{k}", 21),
    ("(7/2 + 1/2)^{k}", 21),
])
def test_real_powers_stop_at_the_bit_bound(monkeypatch, text, allowed):
    # k times the bit length of the base's widest part may reach MAX_BITS
    monkeypatch.setattr(exprs, "MAX_BITS", 64)
    parse_expression(text.format(k=allowed), "real")
    with pytest.raises(DomainError, match=f"exponents above {allowed} "):
        parse_expression(text.format(k=allowed + 1), "real")


def test_the_bit_bound_reads_an_interval_s_endpoints():
    assert parse_expression("sqrt(2)^2", "real", bits=64).lo <= 2
    with pytest.raises(DomainError, match="exponents above "):
        parse_expression("sqrt(2)^100000", "real")
    with pytest.raises(DomainError, match="exponents above "):
        parse_expression("series(1, (1/3)^10000000)", "series")


def test_degree_bound_spares_constants_and_truncated_series(monkeypatch):
    monkeypatch.setattr(exprs, "MAX_DEGREE", 8)
    assert parse_expression("2^1000", "polynomial") == Polynomial.of(2 ** 1000)
    assert parse_expression("(3*i)^100", "trig").amplitude(0).re == 3 ** 100
    assert parse_expression("exp(x)^1000", "series", order=4).coefficient(4) == F(1000 ** 4, 24)
    assert parse_expression("(1 + x)^8", "series").coefficient(4) == 70
    with pytest.raises(DomainError, match="exponents above 8 "):
        parse_expression("pow(9)", "series")
    assert parse_expression("(1 + x*x*x*x*x*x*x*x*x)^1", "polynomial").degree == 9


def test_degree_bound_is_the_parser_s_alone(monkeypatch):
    # the library powers exactly past the bound: an as-d-power-half
    # convergent raises exact tails of degree 2^n - 1 to the power 2
    system = build_system("as-d-power-half")
    germ = parse_expression("sqrt(1/(1 - x/2))", "series", order=40)
    code = coefficient_code(system, germ, 5)
    unbounded = convergent_from_code(system, code).value
    monkeypatch.setattr(exprs, "MAX_DEGREE", 8)
    assert Polynomial.of(1, 0, 1).power(5).degree == 10
    value = convergent_from_code(system, code).value
    assert value == unbounded and value.exact and value.degree == 31


def test_the_degree_bound_refuses_before_multiplying(monkeypatch):
    def refuse(self, other):
        raise AssertionError("multiplied")

    monkeypatch.setattr(PowerSeries, "__mul__", refuse)
    monkeypatch.setattr(TrigPolynomial, "__mul__", refuse)
    for text, context in (("x^200000", "series"), ("(1 + x)^513", "polynomial"),
                          ("E(1)^200000", "trig")):
        with pytest.raises(DomainError, match=f"past size {exprs.MAX_DEGREE}"):
            parse_expression(text, context)


# ---------------------------------------------------------------------------
# Error positions
# ---------------------------------------------------------------------------


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_expression("1 + * 2", "real")
    assert exc.value.position == 4
    assert "(at position 4)" in str(exc.value)


def test_missing_base_point_after_at():
    with pytest.raises(ParseError):
        parse_expression("sin at", "germ")


def test_at_clause_only_in_series_contexts():
    with pytest.raises(ParseError):
        parse_expression("1 + x at 2", "polynomial")


# ---------------------------------------------------------------------------
# Alpha schedules
# ---------------------------------------------------------------------------


def test_alpha_schedule_constant_and_list():
    const = parse_alpha_schedule("1/2")
    assert [const(i) for i in range(4)] == [F(1, 2)] * 4
    listed = parse_alpha_schedule("3,1/3")
    assert [listed(i) for i in range(4)] == [F(3), F(1, 3), F(1, 3), F(1, 3)]


def test_alpha_schedule_formula_in_i():
    sched = parse_alpha_schedule("1/(i+2)")
    assert [sched(i) for i in range(4)] == [F(1, 2), F(1, 3), F(1, 4), F(1, 5)]


def test_alpha_schedule_validates_eagerly():
    with pytest.raises(DomainError):
        parse_alpha_schedule("1/(i-i)")
    with pytest.raises(ParseError):
        parse_alpha_schedule("")


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


def test_parse_path_real_list():
    assert parse_path("0,0.5") == [0j, complex(0.5)]
    assert parse_path("1,2,3") == [complex(1), complex(2), complex(3)]


def test_parse_path_complex_waypoints():
    pts = parse_path("1;1,1.5;-1.6,1.5")
    assert pts == [complex(1), complex(1, 1.5), complex(-1.6, 1.5)]


def test_parse_path_rejects_bad_points():
    for text in ("", ";", "1;;2", "1;1,2,3", "a", "1,b"):
        with pytest.raises(ParseError):
            parse_path(text)


def test_nesting_depth_is_bounded():
    from expansions.exprs import MAX_NESTING

    inner = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_expression(inner, "polynomial") == Polynomial.x()
    assert parse_expression("-" * MAX_NESTING + "1/2", "real") == F(1, 2)
    for text in ("(" + inner + ")", "-" * 3000 + "1", "sqrt(" * 3000 + "4"):
        with pytest.raises(ParseError) as info:
            parse_expression(text, "real")
        # reported where the limit is crossed, not at the end of the input
        assert info.value.position <= 5 * (MAX_NESTING + 1)


def test_sqrt_of_enclosure_decides_sign_or_exhausts():
    # below zero throughout: a domain error
    with pytest.raises(DomainError):
        parse_expression("sqrt(1-sqrt(2))", "real", bits=64)
    # straddles zero at 16 bits: undecided, not negative
    near_zero = "sqrt(sqrt(2)-141421356237/100000000000)"
    with pytest.raises(PrecisionExhausted):
        parse_expression(near_zero, "real", bits=16)
    root = parse_expression(near_zero, "real", bits=64)
    assert isinstance(root, Interval) and root.lo > 0


@pytest.mark.parametrize("text, error, message", [
    ("sqrt(sqrt(2)-2)", DomainError,
     "sqrt of negative value [endpoints of 30001 and 29997 bits]"),
    ("sqrt(sqrt(2)-sqrt(2))", PrecisionExhausted,
     "sign of sqrt argument [endpoints of 30001 and 30001 bits] undecidable"),
], ids=["negative", "undecidable"])
def test_sqrt_refusals_past_the_digit_limit_name_bit_lengths(
        default_digit_limit, text, error, message):
    # the argument's endpoints exceed 4300 digits: the message is formatted
    # when read, so the library raises its own error, not ValueError
    with pytest.raises(error) as info:
        parse_expression(text, "real", bits=30000)
    assert str(info.value) == message
    sys.set_int_max_str_digits(0)
    assert str(info.value).startswith(message.split("[")[0] + "[-")


def test_index_schedule_tokenizes_once(monkeypatch):
    sched = parse_alpha_schedule("1/(i+2)")
    calls = []
    tokenize = exprs.tokenize
    monkeypatch.setattr(exprs, "tokenize", lambda text: calls.append(text) or tokenize(text))
    assert [sched(i) for i in range(10)] == [F(1, i + 2) for i in range(10)]
    assert calls == []
