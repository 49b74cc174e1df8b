"""Certified interval arithmetic and the irrational constant builders."""

import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expansions import (
    DomainError,
    Interval,
    PrecisionExhausted,
    build_system,
    coefficient_code,
    e_interval,
    parse_expression,
    pi_interval,
    sqrt_interval,
)
from expansions.certified import MAX_BITS

# 40-digit brackets, cross-checked against standard tables
PI_LO = Fraction("3.14159265358979323846264338327950288419")
PI_HI = Fraction("3.14159265358979323846264338327950288420")
E_LO = Fraction("2.71828182845904523536028747135266249775")
E_HI = Fraction("2.71828182845904523536028747135266249776")
SQRT2_LO = Fraction("1.41421356237309504880168872420969807856")
SQRT2_HI = Fraction("1.41421356237309504880168872420969807857")


def test_interval_requires_ordered_endpoints():
    with pytest.raises(Exception):
        Interval(Fraction(1), Fraction(0))


def test_arithmetic_encloses_pointwise_products():
    rng = random.Random(21)
    for _ in range(200):
        lo1 = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        lo2 = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        a = Interval(lo1, lo1 + Fraction(rng.randint(0, 5), 7))
        b = Interval(lo2, lo2 + Fraction(rng.randint(0, 5), 7))
        xs = [a.lo, a.hi, (a.lo + a.hi) / 2]
        ys = [b.lo, b.hi, (b.lo + b.hi) / 2]
        for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
            out = op(a, b)
            for x in xs:
                for y in ys:
                    assert out.lo <= op(x, y) <= out.hi


def test_reciprocal_and_scalar_mixing():
    a = Interval(Fraction(1, 3), Fraction(1, 2))
    assert (1 / a).lo == 2 and (1 / a).hi == 3
    assert (1 - a).lo == Fraction(1, 2) and (1 - a).hi == Fraction(2, 3)
    sq = Interval(Fraction(-1, 2), Fraction(-1, 3)) * Interval(Fraction(-1, 2), Fraction(-1, 3))
    assert sq.lo == Fraction(1, 9) and sq.hi == Fraction(1, 4)


def test_division_by_straddling_interval_is_refused():
    with pytest.raises(PrecisionExhausted):
        Interval(Fraction(1), Fraction(2)) / Interval(Fraction(-1), Fraction(1))


def test_certified_floor_and_ceil():
    assert math.floor(Fraction(7, 2)) == 3
    assert math.ceil(Fraction(7, 2)) == 4
    assert math.floor(Interval(Fraction(5, 2), Fraction(26, 10))) == 2
    assert math.ceil(Interval(Fraction(5, 2), Fraction(26, 10))) == 3
    with pytest.raises(PrecisionExhausted):
        math.floor(Interval(Fraction(999, 1000), Fraction(1001, 1000)))


def test_certainly_zero_refuses_ambiguity():
    assert not Interval(Fraction(0), Fraction(0))
    assert Fraction(1, 7)
    with pytest.raises(PrecisionExhausted):
        bool(Interval(Fraction(0), Fraction(1, 10 ** 30)))


def test_certified_lt_needs_disjoint_intervals():
    assert Interval(Fraction(1, 3), Fraction(1, 2)) < Interval(Fraction(2, 3), Fraction(3, 4))
    with pytest.raises(PrecisionExhausted):
        Interval(Fraction(1, 3), Fraction(2, 3)) < Interval(Fraction(1, 2), Fraction(3, 4))


def test_sqrt_interval_exact_on_rational_squares():
    assert sqrt_interval(Fraction(9, 4), 64) == Interval(Fraction(3, 2), Fraction(3, 2))
    assert sqrt_interval(Fraction(0), 64) == Interval(Fraction(0), Fraction(0))


def test_sqrt_interval_encloses_and_tightens():
    iv = sqrt_interval(Fraction(2), 256)
    # far tighter than the 40-digit table bracket, so it must sit inside it
    assert SQRT2_LO < iv.lo and iv.hi < SQRT2_HI
    assert iv.lo ** 2 <= 2 <= iv.hi ** 2
    assert iv.hi - iv.lo < Fraction(1, 2 ** 250)
    # doubling the budget never widens the enclosure
    tighter = sqrt_interval(Fraction(2), 512)
    assert iv.lo <= tighter.lo and tighter.hi <= iv.hi


def test_pi_interval_matches_table_digits():
    iv = pi_interval(256)
    assert PI_LO < iv.lo and iv.hi < PI_HI
    assert iv.hi - iv.lo < Fraction(1, 2 ** 250)


def test_e_interval_matches_table_digits():
    iv = e_interval(256)
    assert E_LO < iv.lo and iv.hi < E_HI
    assert iv.hi - iv.lo < Fraction(1, 2 ** 250)


def _mpmath_bracket(constant, prec):
    """Rigorous rational bracket of mpmath's ``pi`` or ``e`` at ``prec`` bits."""
    mpmath = pytest.importorskip("mpmath")
    saved, mpmath.iv.prec = mpmath.iv.prec, prec
    try:
        return tuple(Fraction(*mpmath.libmp.to_rational(t))
                     for t in getattr(mpmath.iv, constant)._mpi_)
    finally:
        mpmath.iv.prec = saved


@pytest.mark.parametrize("constant, build", [("pi", pi_interval), ("e", e_interval)])
def test_constants_enclose_mpmath_within_budget(constant, build):
    # mpmath's bracket at b + 64 bits lies far inside ours
    for bits in list(range(1, 301)) + [1024, 4096]:
        lo, hi = _mpmath_bracket(constant, bits + 64)
        iv = build(bits)
        assert iv.lo <= lo and hi <= iv.hi, (constant, bits)
        assert iv.hi - iv.lo <= Fraction(1, 2 ** bits), (constant, bits)


@pytest.mark.parametrize("constant, build", [("pi", pi_interval), ("e", e_interval)])
def test_constants_are_the_one_ulp_grid_bracket(constant, build):
    # pinned: at b bits the constant c is [floor(c 2^(b+2)), ceil(c 2^(b+2))]
    # / 2^(b+2), endpoints stored reduced; one mpmath bracket far tighter than
    # every grid serves all b
    lo, hi = _mpmath_bracket(constant, 4096 + 128)
    for bits in list(range(1, 1025)) + [2048, 4096]:
        scale = 1 << (bits + 2)
        floor = math.floor(lo * scale)
        assert floor == math.floor(hi * scale), (constant, bits)
        expected = Interval(Fraction(floor, scale), Fraction(floor + 1, scale))
        iv = build(bits)
        assert iv == expected, (constant, bits)
        assert iv._ends == (expected.lo.numerator, expected.lo.denominator,
                            expected.hi.numerator, expected.hi.denominator)


def test_fixed_point_sums_enclose_before_rounding(monkeypatch):
    # the integer bracket on the 2**-prec grid, series tail and isqrt
    # accounted for, already encloses the constant, before the outward
    # rounding to bits + 2
    import expansions.certified as certified

    inner = []
    rounding = certified._outward

    def recording(lo, hi, prec, bits):
        inner.append((Fraction(lo, 1 << prec), Fraction(hi, 1 << prec)))
        return rounding(lo, hi, prec, bits)

    monkeypatch.setattr(certified, "_outward", recording)
    for bits in (1, 2, 3, 7, 64, 100, 1024):
        for constant, build in (("pi", pi_interval), ("e", e_interval)):
            inner.clear()
            build(bits)
            (lo, hi), = inner
            a, b = _mpmath_bracket(constant, 2 * bits + 128)
            assert lo <= a and b <= hi, (constant, bits)


_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
_intervals = st.tuples(_fractions, _fractions).map(lambda p: Interval(min(p), max(p)))
_scalars = st.one_of(
    st.integers(-20, 20),
    _fractions,
    _fractions.map(Interval.exact),
)


def _hull(values):
    return Interval(min(values), max(values))


@settings(max_examples=300, deadline=None)
@given(_intervals, _scalars)
def test_scalar_paths_equal_the_four_product_hull(a, s):
    v = s.lo if isinstance(s, Interval) else Fraction(s)
    ends = (a.lo, a.hi)
    assert a * s == s * a == _hull([x * v for x in ends])
    assert a + s == s + a == Interval(a.lo + v, a.hi + v)
    assert a - s == Interval(a.lo - v, a.hi - v)
    assert s - a == Interval(v - a.hi, v - a.lo)
    # a point on the left of a general interval takes the same path
    assert Interval.exact(v) * a == _hull([v * x for x in ends])


_operands = st.one_of(st.integers(-20, 20), _fractions, _intervals)


def _ends(value):
    return (value.lo, value.hi) if isinstance(value, Interval) else (value, value)


def _decided(true_if, false_if):
    """Endpoint oracle: the certified answer, or ``None`` when undecided."""
    return True if true_if else False if false_if else None


def _check(op, expected):
    if expected is None:
        with pytest.raises(PrecisionExhausted):
            op()
    else:
        result = op()
        assert result == expected and type(result) is type(expected)


@settings(max_examples=400, deadline=None)
@given(_operands, _operands)
def test_operators_follow_the_endpoint_oracle(a, b):
    # Fraction/int pairs take Python's own operators, mixed and interval
    # pairs the certified ones; the endpoints decide both the same way
    (alo, ahi), (blo, bhi) = _ends(a), _ends(b)
    _check(lambda: a < b, _decided(ahi < blo, alo >= bhi))
    _check(lambda: a > b, _decided(alo > bhi, ahi <= blo))
    floors, ceils = (math.floor(alo), math.floor(ahi)), (math.ceil(alo), math.ceil(ahi))
    _check(lambda: math.floor(a), floors[0] if floors[0] == floors[1] else None)
    _check(lambda: math.ceil(a), ceils[0] if ceils[0] == ceils[1] else None)
    _check(lambda: bool(a), _decided(alo > 0 or ahi < 0, alo == ahi == 0))


def test_bits_beyond_the_limit_are_refused_before_any_work():
    tracemalloc.start()
    try:
        for build in (lambda bits: sqrt_interval(2, bits), pi_interval, e_interval):
            for bits in (MAX_BITS + 1, 10 ** 11):
                with pytest.raises(DomainError, match=f"at most {MAX_BITS}, got {bits}"):
                    build(bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # an exact root spends no bits, so any budget is accepted
    assert sqrt_interval(Fraction(9, 4), 10 ** 11) == Interval.exact(Fraction(3, 2))


# -- matrix steps against an endpoint reference -----------------------------

_exact = st.one_of(st.integers(-20, 20), _fractions)
_steps = st.lists(st.tuples(st.sampled_from(("+", "-", "r-", "*", "/", "r/", "neg")), _exact),
                  max_size=6)


def _outcome(op):
    """The result of ``op``, or the type and message of what it raised."""
    try:
        return op()
    except (PrecisionExhausted, ZeroDivisionError) as exc:
        return type(exc), str(exc)


_APPLY = {
    "+": lambda y, k: y + k,
    "-": lambda y, k: y - k,
    "r-": lambda y, k: k - y,
    "*": lambda y, k: y * k,
    "/": lambda y, k: y / k,
    "r/": lambda y, k: k / y,
    "neg": lambda y, k: -y,
}


def _reference_step(lo, hi, name, k):
    """The exact step on the two ``Fraction`` endpoints, sorted, or what an
    enclosure refuses: division by exact zero and a reciprocal across 0."""
    if name == "/" and k == 0 or name == "r/" and lo == 0 == hi:
        return ZeroDivisionError, "reciprocal of exact zero"
    if name == "r/" and lo <= 0 <= hi:
        return PrecisionExhausted, f"cannot invert interval straddling zero: [{lo}, {hi}]"
    return tuple(sorted(_APPLY[name](x, k) for x in (lo, hi)))


def _undecided(what, lo, hi):
    return PrecisionExhausted, f"{what} undecidable on [{lo}, {hi}]"


def _reference_predicates(lo, hi, k):
    """floor, ceil, truth, ``< k`` and ``> k`` answered from the endpoints."""
    k = Fraction(k)
    order_below = f"order of [{lo}, {hi}] and [{k}, {k}] undecidable"
    order_above = f"order of [{k}, {k}] and [{lo}, {hi}] undecidable"
    return (
        math.floor(lo) if math.floor(lo) == math.floor(hi) else _undecided("floor", lo, hi),
        math.ceil(lo) if math.ceil(lo) == math.ceil(hi) else _undecided("ceiling", lo, hi),
        True if lo > 0 or hi < 0 else False if lo == hi == 0 else _undecided("sign", lo, hi),
        True if hi < k else False if lo >= k else (PrecisionExhausted, order_below),
        True if lo > k else False if hi <= k else (PrecisionExhausted, order_above),
    )


@settings(max_examples=300, deadline=None)
@given(_intervals, _steps, _exact)
def test_mobius_steps_equal_the_interval_steps(start, steps, k):
    # every exact step is a matrix step; its endpoints, and each predicate's
    # answer or message, are those of the same step on the two endpoints
    y, ends = start, (start.lo, start.hi)
    for name, operand in steps:
        expected = _reference_step(*ends, name, operand)
        got = _outcome(lambda: _APPLY[name](y, operand))
        if not isinstance(expected[0], Fraction):
            assert got == expected
            return
        assert isinstance(got, Interval)
        y, ends = got, expected
        assert (y.lo, y.hi) == ends
        predicates = (math.floor, math.ceil, bool, lambda v: v < k, lambda v: v > k)
        answers = tuple(_outcome(lambda: p(y)) for p in predicates)
        assert answers == _reference_predicates(*ends, k)


def test_mobius_falls_back_to_its_enclosure():
    # after matrix steps, an operation with another Interval runs on the
    # endpoints: it equals the same operation on Interval(lo, hi)
    m = 2 * (1 / Interval(Fraction(2), Fraction(3))) - Fraction(1, 3)
    flat = Interval(m.lo, m.hi)
    other = Interval(Fraction(-1, 5), Fraction(1, 7))
    assert flat == Interval(Fraction(1, 3), Fraction(2, 3))
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b, lambda a, b: (a < b, a > b)):
        assert _outcome(lambda: op(m, other)) == _outcome(lambda: op(flat, other))
        assert _outcome(lambda: op(other, m)) == _outcome(lambda: op(other, flat))
        assert _outcome(lambda: op(m, m)) == _outcome(lambda: op(flat, flat))
    assert m ** 2 == flat ** 2 and m ** -3 == flat ** -3 and m.abs() == flat.abs()
    with pytest.raises(PrecisionExhausted, match="straddling zero"):
        m / other
    # certified equality of two enclosures is undecided
    with pytest.raises(PrecisionExhausted, match="sign undecidable"):
        not (m - flat)


def test_reversed_endpoints_are_refused():
    with pytest.raises(ValueError, match="empty interval: lo=1/2 > hi=1/3"):
        Interval(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError, match="empty interval: lo=1 > hi=-7/2"):
        Interval(Fraction(1), Fraction(-7, 2))


@settings(max_examples=200, deadline=None)
@given(_intervals, _steps)
def test_a_stepped_interval_compares_and_prints_as_its_endpoints(start, steps):
    y = start
    for name, operand in steps:
        stepped = _outcome(lambda: _APPLY[name](y, operand))
        if not isinstance(stepped, Interval):
            break
        y = stepped
    flat = Interval(y.lo, y.hi)
    assert y == flat and flat == y and not y != flat
    assert hash(y) == hash(flat) == hash((y.lo, y.hi))
    assert str(y) == str(flat) == f"[{y.lo},{y.hi}]"
    assert repr(y) == repr(flat) == f"Interval(lo={y.lo!r}, hi={y.hi!r})"
    assert y != Interval(y.lo, y.hi + 1) and y != (y.lo, y.hi)


# -- the affine and reciprocal shortcuts against the general Moebius map -----

def _moebius(ends, al, be, ga, de):
    """Each endpoint ``n/e`` of ``ends`` mapped to ``(al*n + be*e) / (ga*n + de*e)``."""
    n0, e0, n1, e1 = ends
    return (al * n0 + be * e0, ga * n0 + de * e0, al * n1 + be * e1, ga * n1 + de * e1)


# the matrix (al, be, ga, de) of each exact step, for an operand u/v in lowest terms
_MATRICES = {
    "+": lambda u, v: (v, u, 0, v),
    "r+": lambda u, v: (v, u, 0, v),
    "-": lambda u, v: (v, -u, 0, v),
    "r-": lambda u, v: (-v, u, 0, v),
    "*": lambda u, v: (u, 0, 0, v),
    "r*": lambda u, v: (u, 0, 0, v),
    "/": lambda u, v: (v, 0, 0, u) if u > 0 else (-v, 0, 0, -u),
    "neg": lambda u, v: (-1, 0, 0, 1),
}
_SHORTCUT_APPLY = dict(_APPLY, **{
    "r+": lambda y, k: k + y,
    "r*": lambda y, k: k * y,
    "1/": lambda y, k: y.reciprocal(),
})


# a general integer matrix (a, b, g, d), entries weighted to 0, ±1 and
# negatives, and where its pole -d/g sits against the current enclosure
_entries = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-9, 9))
_general = st.tuples(_entries, _entries, _entries, _entries,
                     st.sampled_from(("free", "below", "inside", "lo", "hi", "above")))
_POLES = {"below": lambda lo, hi: lo - 1, "inside": lambda lo, hi: (lo + hi) / 2,
          "lo": lambda lo, hi: lo, "hi": lambda lo, hi: hi, "above": lambda lo, hi: hi + 1}


def _general_step(y, a, b, g, d, where):
    """Check ``y._mobius`` against the 8-product map; the next ``y``."""
    if where != "free":  # g*t + d vanishes at the chosen pole t = u/v
        pole, k = _POLES[where](y.lo, y.hi), g or 1
        g, d = k * pole.denominator, -k * pole.numerator
    expected = _moebius(y._ends, a, b, g, d)
    q0, q1 = expected[1], expected[3]
    got = _outcome(lambda: y._mobius(a, b, g, d))
    if q0 > 0 and q1 > 0 or q0 < 0 and q1 < 0:
        # the same fractions up to a common sign, with positive denominators
        assert got._ends == (expected if q0 > 0 else tuple(-x for x in expected))
        return got
    # refused exactly when the denominators are not of one strict sign,
    # naming the denominator g*y + d as the reciprocal names y
    if q0 == 0 == q1:
        assert got == (ZeroDivisionError, "reciprocal of exact zero")
    else:
        den = sorted((Fraction(q0, y._ends[1]), Fraction(q1, y._ends[3])))
        assert got == (PrecisionExhausted,
                       "cannot invert interval straddling zero: [{}, {}]".format(*den))
    return y


@settings(max_examples=400, deadline=None)
@example(Interval(Fraction(-1, 3), Fraction(5, 2)),
         [("M", (2, 3, 0, -5, "free")), ("M", (-1, 1, 0, -1, "free")), ("M", (1, 0, 0, 0, "free"))])
@given(_intervals, st.lists(st.one_of(
    st.tuples(st.sampled_from(sorted(_SHORTCUT_APPLY)), _exact),
    st.tuples(st.just("M"), _general)), min_size=1, max_size=8))
def test_shortcuts_give_the_general_maps_ends(start, steps):
    # every exact step yields the integers of the 8-product map; chained steps
    # make the endpoint fractions unreduced, of either sign or zero
    y = start
    for name, k in steps:
        if name == "M":
            y = _general_step(y, *k)
            continue
        u, v = Fraction(k).numerator, Fraction(k).denominator
        n0, _, n1, _ = y._ends
        sign = 1 if n0 > 0 and n1 > 0 else -1 if n0 < 0 and n1 < 0 else 0
        if name == "/" and u == 0 or name in ("1/", "r/") and sign == 0:
            continue  # refused: division by exact zero, or a sign not certified
        if name in ("1/", "r/"):
            expected = _moebius(y._ends, 0, sign, sign, 0)
            if name == "r/" and k != 1:
                expected = _moebius(expected, *_MATRICES["*"](u, v))
        else:
            expected = _moebius(y._ends, *_MATRICES[name](u, v))
        y = _SHORTCUT_APPLY[name](y, k)
        assert y._ends == expected, name


# -- exhaustion under the interpreter's default int/str digit limit ---------

def test_exhaustion_past_the_digit_limit_keeps_level_and_prefix(default_digit_limit):
    # the enclosure's endpoints exceed 4300 digits when the floor fails; the
    # message names their bit lengths instead, and the certified code survives
    y = parse_expression("sqrt(2)-1", "real", bits=30000)
    with pytest.raises(PrecisionExhausted) as info:
        coefficient_code(build_system("base10"), y, 30000)
    exc = info.value
    assert exc.level == len(exc.prefix) == 9030
    assert exc.prefix[:8] == [4, 1, 4, 2, 1, 3, 5, 6]
    assert str(exc) == "floor undecidable on [endpoints of 20972 and 20969 bits]"


def test_messages_past_the_digit_limit_name_bit_lengths(default_digit_limit):
    tiny = Fraction(1, 3 ** 10000)  # 4772 decimal digits, 15850 bits
    y = Interval(-tiny, tiny)
    big = "[endpoints of 15850 and 15850 bits]"
    cases = (
        (lambda: math.floor(y), f"floor undecidable on {big}", "floor undecidable on {}"),
        (lambda: math.ceil(y), f"ceiling undecidable on {big}", "ceiling undecidable on {}"),
        (lambda: bool(y), f"sign undecidable on {big}", "sign undecidable on {}"),
        (lambda: y.reciprocal(), f"cannot invert interval straddling zero: {big}",
         "cannot invert interval straddling zero: {}"),
        (lambda: y < 0, f"order of {big} and [0, 0] undecidable", "order of {} and [0, 0] undecidable"),
        (lambda: y > 0, f"order of [0, 0] and {big} undecidable", "order of [0, 0] and {} undecidable"),
    )
    for op, limited, template in cases:
        with pytest.raises(PrecisionExhausted) as info:
            op()
        assert str(info.value) == limited
        # with the limit lifted (as the CLI does) the message is the decimal one
        sys.set_int_max_str_digits(0)
        assert str(info.value) == template.format(f"[{-tiny}, {tiny}]")
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
