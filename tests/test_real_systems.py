"""Tests for the concrete real-number systems: positional bases, continued
fractions, Egyptian fractions, Engel series, and the f-expansion family."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expansions import (
    INF,
    BaseSystem,
    ContinuedFractionSystem,
    DomainError,
    EgyptianSystem,
    EngelSystem,
    FExpansionSystem,
    Interval,
    PrecisionExhausted,
    coefficient_code,
    convergence_report,
    convergent,
    convergent_from_code,
    order_of,
    parse_expression,
    pi_interval,
    render_value,
    roundtrip_check,
    trajectory,
)
from expansions.realsys import apply_matrix
from expansions.registry import build_system

F = Fraction


def long_division_digits(y: Fraction, base: int, n: int) -> list:
    """Schoolbook long division: the first n base-`base` digits of y in [0, 1)."""
    digits = []
    num, den = y.numerator, y.denominator
    for _ in range(n):
        num *= base
        digits.append(num // den)
        num %= den
    return digits


def euclid_cf(y: Fraction) -> list:
    """Continued-fraction coefficients of y in [0, 1) by the Euclidean algorithm."""
    out = []
    p, q = y.numerator, y.denominator
    while p:
        out.append(q // p)
        p, q = q % p, p
    return out


def greedy_unit_fractions(y: Fraction, n: int) -> list:
    """Fibonacci-Sylvester greedy algorithm: smallest denominators c with 1/c <= rest."""
    out = []
    rest = y
    for _ in range(n):
        if rest == 0:
            out.append(INF)
            continue
        c = -(-rest.denominator // rest.numerator)
        out.append(c)
        rest -= F(1, c)
    return out


def test_base10_golden_and_long_division() -> None:
    sysm = BaseSystem(10)
    assert coefficient_code(sysm, F(1, 8), 6) == [1, 2, 5, 0, 0, 0]
    rng = random.Random(101)
    for _ in range(100):
        y = F(rng.randrange(0, 9999), 10_000) + F(rng.randrange(0, 97), 9700)
        y -= int(y)
        n = rng.randrange(1, 9)
        assert coefficient_code(sysm, y, n) == long_division_digits(y, 10, n)


def test_base_error_bound() -> None:
    rng = random.Random(102)
    for base in (2, 3, 10, 16):
        sysm = BaseSystem(base)
        for _ in range(25):
            y = F(rng.randrange(0, 10**6), 10**6)
            n = rng.randrange(0, 8)
            approx = convergent(sysm, y, n).value
            assert abs(y - approx) <= F(1, base**n)


def test_base_zero_and_domain() -> None:
    sysm = BaseSystem(10)
    res = order_of(sysm, F(0), 8)
    assert res.finite and res.n == 0
    with pytest.raises(DomainError):
        trajectory(sysm, F(-1, 2), 3)
    with pytest.raises(DomainError):
        trajectory(sysm, F(1), 3)
    with pytest.raises(DomainError):
        BaseSystem(1)


def test_base10_digit_permutation() -> None:
    # sigma(d) = 3d mod 10 is a permutation of the digits; the projection
    # reports the relabeled digit while the expansion still sheds the true one,
    # so the trajectory is untouched and decoding applies sigma inverse.
    sigma = [(3 * d) % 10 for d in range(10)]
    plain = BaseSystem(10)
    shuffled = BaseSystem(10, digit_permutation=sigma)
    assert coefficient_code(shuffled, F(1, 8), 4) == [3, 6, 5, 0]
    rng = random.Random(103)
    for _ in range(50):
        y = F(rng.randrange(0, 10**5), 10**5)
        n = rng.randrange(0, 7)
        assert trajectory(shuffled, y, n) == trajectory(plain, y, n)
        code = coefficient_code(shuffled, y, n)
        assert code == [sigma[d] for d in coefficient_code(plain, y, n)]
        assert convergent(shuffled, y, n).value == convergent(plain, y, n).value


def test_cf_golden_and_termination() -> None:
    sysm = ContinuedFractionSystem()
    assert coefficient_code(sysm, F(7, 10), 4) == [1, 2, 3, INF]
    assert convergent(sysm, F(7, 10), 3).value == F(7, 10)
    assert coefficient_code(sysm, F(0), 3) == [INF, INF, INF]
    rng = random.Random(104)
    for _ in range(100):
        q = rng.randrange(2, 2000)
        y = F(rng.randrange(0, q), q)
        res = order_of(sysm, y, 64)
        assert res.finite
        assert coefficient_code(sysm, y, res.n) == euclid_cf(y)
        # The orbit is Gauss-map iteration, so numerator + denominator
        # strictly decreases until the orbit hits zero.
        traj = trajectory(sysm, y, res.n)
        sizes = [t.numerator + t.denominator for t in traj]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert traj[-1] == 0


def test_cf_membership() -> None:
    sysm = ContinuedFractionSystem()
    # 1/(1 + 0) = 1 is not in [0, 1): the final coefficient of a rational
    # is never 1, and decoding refuses to build it.
    assert sysm.reconstruct(0, 1, F(0)) is None
    assert sysm.reconstruct(0, 2, F(0)) == F(1, 2)
    assert sysm.reconstruct(0, INF, F(0)) == 0
    assert sysm.reconstruct(0, INF, F(1, 2)) is None


def test_cf_pi_fractional_part() -> None:
    # The two interval widths differ by dozens of orders of magnitude; agreement
    # of the certified codes pins the digits, and the Euclidean expansion of a
    # 60-digit decimal approximant confirms them independently.
    golden = [7, 15, 1, 292, 1]
    sysm = ContinuedFractionSystem()
    for bits in (256, 320):
        y = pi_interval(bits) - 3
        assert coefficient_code(sysm, y, 5) == golden
    approx = F(141592653589793238462643383279502884197169399375105820974944, 10**60)
    assert euclid_cf(approx)[:5] == golden


def test_egyptian_golden_and_greedy() -> None:
    sysm = EgyptianSystem()
    assert coefficient_code(sysm, F(3, 4), 3) == [2, 4, INF]
    assert convergent(sysm, F(3, 4), 2).value == F(3, 4)
    rng = random.Random(105)
    for _ in range(100):
        q = rng.randrange(2, 500)
        y = F(rng.randrange(1, q), q)
        n = rng.randrange(1, 6)
        assert coefficient_code(sysm, y, n) == greedy_unit_fractions(y, n)


def test_egyptian_membership_and_certificate() -> None:
    sysm = EgyptianSystem()
    # A legal tail after shedding 1/c stays below 1/(c(c-1)); anything at or
    # above that bound cannot have had c as its greedy denominator.
    assert sysm.reconstruct(0, 3, F(1, 7)) == F(10, 21)
    assert sysm.reconstruct(0, 3, F(1, 5)) is None
    assert sysm.reconstruct(0, 2, F(1, 2)) is None
    rng = random.Random(106)
    for _ in range(50):
        q = rng.randrange(2, 300)
        y = F(rng.randrange(1, q), q)
        res = order_of(sysm, y, 64)
        assert res.finite
        traj = trajectory(sysm, y, res.n)
        nums = [t.numerator for t in traj]
        assert all(a > b or (a == 0 and b == 0) for a, b in zip(nums, nums[1:]))


def test_engel_golden_identity_membership() -> None:
    sysm = EngelSystem()
    assert coefficient_code(sysm, F(3, 8), 3) == [3, 8, INF]
    # 3/8 = 1/3 + 1/(3*8): the nested product form of the first two terms.
    assert F(1, 3) + F(1, 3 * 8) == F(3, 8)
    assert sysm.reconstruct(0, 3, F(1, 3)) == F(4, 9)
    assert sysm.reconstruct(0, 3, F(1, 2)) is None
    rng = random.Random(107)
    for _ in range(100):
        q = rng.randrange(2, 500)
        y = F(rng.randrange(1, q), q)
        res = order_of(sysm, y, 96)
        assert res.finite
        code = [c for c in coefficient_code(sysm, y, res.n) if c is not INF]
        assert all(a <= b for a, b in zip(code, code[1:]))
        nums = [t.numerator for t in trajectory(sysm, y, res.n)]
        assert all(a >= b for a, b in zip(nums, nums[1:]))
        assert nums[-1] == 0


@pytest.mark.parametrize("f_inv, message", [
    ((0, 1, 0, 1), "f_inv = (0, 1, 0, 1) is singular, so f has no integer matrix"),
    ((2, 4, 1, 2), "f_inv = (2, 4, 1, 2) is singular, so f has no integer matrix"),
    ((2, 1, 0, 1), "f(0) = -1/2 is neither an integer nor infinite; "
                   "the neutral element would not expand to itself"),
    ((1, 1, 2, 0), "f has a pole at 1/2 inside (0, 1), so it is not monotone"),
])
def test_f_expansion_refuses_an_f_inv_with_no_step(f_inv, message) -> None:
    # f is the adjugate of f_inv, so a singular f_inv has no step, and the
    # neutral element must project to f(0) = -b/a, an integer or infinite,
    # and f must have no pole inside (0, 1)
    with pytest.raises(DomainError) as info:
        FExpansionSystem("bad", f_inv)
    assert str(info.value) == message


def test_a_certified_stage_is_an_input_again() -> None:
    # past level 0 a trajectory holds matrix-stepped Intervals; each one
    # expands, validates, renders and reports as Interval(lo, hi) does
    cf = ContinuedFractionSystem()
    y = parse_expression("sqrt(2)-1", "real", bits=256)
    stages = trajectory(cf, y, 3)
    assert all(isinstance(stage, Interval) for stage in stages)
    assert coefficient_code(cf, stages[3], 5) == coefficient_code(cf, y, 8)[3:]
    flat = Interval(stages[3].lo, stages[3].hi)
    assert coefficient_code(cf, flat, 5) == coefficient_code(cf, stages[3], 5)
    assert render_value(stages[3]) == render_value(flat)
    assert (convergence_report(cf, stages[3], 3).rows
            == convergence_report(cf, flat, 3).rows)


# coefficients outside each alphabet, and the refusal that names them
FOREIGN_COEFFICIENTS = [
    ("base10", INF, "coefficient INF is not a base-10 digit"),
    ("base10", 10, "coefficient 10 is not a base-10 digit"),
    ("base10", -1, "coefficient -1 is not a base-10 digit"),
    ("base10", F(1, 2), "coefficient Fraction(1, 2) is not a base-10 digit"),
    ("base10-shuffled", INF, "coefficient INF is not a base-10 digit"),
    ("base10-shuffled", 10, "coefficient 10 is not a base-10 digit"),
    ("cf", 0, "coefficient 0 is not a partial quotient"),
    ("cf", -3, "coefficient -3 is not a partial quotient"),
    ("cf", F(3, 2), "coefficient Fraction(3, 2) is not a partial quotient"),
    ("egyptian", 1, "coefficient 1 is not a unit-fraction index"),
    ("egyptian", 0, "coefficient 0 is not a unit-fraction index"),
    ("engel", 1, "coefficient 1 is not a unit-fraction index"),
    ("engel", F(1, 2), "coefficient Fraction(1, 2) is not a unit-fraction index"),
    # a generic f-expansion's alphabet is floor(f([0, 1)))
    ("neg-base2", INF, "coefficient INF is not a digit of neg-base2"),
    ("neg-base2", F(1, 2), "coefficient Fraction(1, 2) is not a digit of neg-base2"),
    ("neg-base2", -1, "coefficient -1 is not a digit of neg-base2"),
    ("neg-base2", 2, "coefficient 2 is not a digit of neg-base2"),
    ("b2", -1, "coefficient -1 is not a digit of b2"),
    ("neg-cf", 0, "coefficient 0 is not a digit of neg-cf"),
    ("neg-cf", -1, "coefficient -1 is not a digit of neg-cf"),
]
GENERIC_F_EXPANSIONS = {"neg-base2": (-1, 0, 0, -2), "b2": (1, 0, 0, 2), "neg-cf": (0, -1, -1, 0)}


def test_reconstruct_rejects_foreign_coefficients() -> None:
    # each system refuses a coefficient outside its alphabet, naming it
    for system_id, c, message in FOREIGN_COEFFICIENTS:
        system = (FExpansionSystem(system_id, GENERIC_F_EXPANSIONS[system_id])
                  if system_id in GENERIC_F_EXPANSIONS else build_system(system_id))
        for tail in (F(0), Interval.exact(F(1, 3))):
            with pytest.raises(DomainError) as info:
                system.reconstruct(0, c, tail)
            assert str(info.value) == message, (system_id, c)


def test_generic_f_expansions_refuse_foreign_codes() -> None:
    # digits outside floor(f([0, 1))) are refused, not run through f_inv
    for name, f_inv, code in (("neg-base2", (-1, 0, 0, -2), [-1]), ("neg-cf", (0, -1, -1, 0), [0]),
                              ("b2", (1, 0, 0, 2), [1, -1])):
        with pytest.raises(DomainError):
            convergent_from_code(FExpansionSystem(name, f_inv), code)


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.integers(-3, 3)] * 4),
       st.lists(st.fractions(0, 1, max_denominator=9).filter(lambda t: t < 1), min_size=1,
                max_size=4))
@example(f_inv=(-1, 0, 0, 2), ts=[F(1, 2)])  # f = -2y falls: digit 0 is the neutral's
@example(f_inv=(1, 0, -2, 1), ts=[F(1, 2), F(2, 3)])  # f_inv's pole in digit 0's cylinder
def test_a_generic_f_expansion_admits_exactly_the_preimages_in_the_unit_interval(f_inv, ts):
    # any f with no pole inside (0, 1) is accepted; each y in [0, 1) emits a
    # digit of the derived alphabet, a foreign digit is refused, and a
    # digit's branch image of a tail t is admitted exactly when it lies in
    # [0, 1), where it steps back to (c, t), on a Fraction and on an exact
    # enclosure alike
    a, b, g, d = f_inv
    assume(a * d != b * g and (not a or b % a == 0))
    if 0 < a * g < g * g:  # f's pole a/g
        with pytest.raises(DomainError):
            FExpansionSystem("f", f_inv)
        return
    system = FExpansionSystem("f", f_inv)
    lo, hi = system._record.lo, system._record.hi
    for y in ts:
        digit = system.project(0, y)
        assert digit is INF or (lo is None or lo <= digit) and (hi is None or digit < hi)
    for c in range(-5, 6):
        if lo is not None and c < lo or hi is not None and c >= hi:
            with pytest.raises(DomainError):
                system.reconstruct(0, c, ts[0])
            continue
        p, q, r, s_ = system.branch(c)
        for t in ts:
            image = system.reconstruct(0, c, t)
            boxed = system.reconstruct(0, c, Interval.exact(t))
            assert boxed == (None if image is None else Interval.exact(image))
            raw = None if r * t + s_ == 0 else apply_matrix((p, q, r, s_), t)
            if raw is None or not 0 <= raw < 1:
                assert image is None, (c, t, raw)
            else:
                assert image == raw and system.step(0, image) == (c, t)


def test_interval_backend_matches_exact() -> None:
    systems = [BaseSystem(10), BaseSystem(2), ContinuedFractionSystem(),
               EgyptianSystem(), EngelSystem()]
    rng = random.Random(110)
    for sysm in systems:
        for _ in range(25):
            q = rng.randrange(2, 400)
            y = F(rng.randrange(0, q), q)
            n = rng.randrange(0, 6)
            exact = coefficient_code(sysm, y, n)
            boxed = coefficient_code(sysm, Interval(y, y), n)
            assert boxed == exact


def test_codes_identify_values() -> None:
    # Two values with the same depth-n code share the convergent, and equal
    # inputs always produce bit-identical codes.
    sysm = ContinuedFractionSystem()
    a, b = F(7, 10), F(24, 34)
    ca, cb = coefficient_code(sysm, a, 2), coefficient_code(sysm, b, 2)
    assert ca == cb == [1, 2]
    assert convergent(sysm, a, 2).value == convergent(sysm, b, 2).value


def test_interval_equality_is_certified_or_undecided() -> None:
    # Overlapping enclosures certify neither equality nor difference, so a
    # round trip of an irrational input cannot pass on overlap alone.
    cf = ContinuedFractionSystem()
    root = parse_expression("sqrt(2)-1", "real", bits=256)
    with pytest.raises(PrecisionExhausted):
        roundtrip_check(cf, root, 5)
    with pytest.raises(PrecisionExhausted):
        cf.elements_equal(0, root, root)
    assert not cf.elements_equal(0, root, F(1, 2))
    assert cf.elements_equal(0, Interval(F(1, 3), F(1, 3)), F(1, 3))
    for y in (F(7, 10), Interval(F(7, 10), F(7, 10))):
        assert roundtrip_check(cf, y, 5)


def test_code_inverts_once_per_level(monkeypatch) -> None:
    # a level rounds its digit map's value once, and inverts once, by that
    # map's pole (none for base b); it takes one Möbius map for the digit
    # and one for each remainder before the last: 2n - 1 maps for n digits
    calls = {"inversions": 0, "maps": 0, "floor": 0, "ceil": 0}
    mobius = Interval._mobius

    def counted_mobius(self, a, b, g, d):
        calls["maps"] += 1
        calls["inversions"] += bool(g)
        return mobius(self, a, b, g, d)

    monkeypatch.setattr(Interval, "_mobius", counted_mobius)
    for name in ("floor", "ceil"):
        method = getattr(Interval, name)

        def counted(self, _method=method, _name=name):
            calls[_name] += 1
            return _method(self)

        monkeypatch.setattr(Interval, name, counted)
    for system_id, text, n, rounding in (
        ("base10", "pi-3", 30, "floor"),
        ("base10-shuffled", "pi-3", 30, "floor"),
        ("cf", "sqrt(2)-1", 20, "floor"),
        ("egyptian", "sqrt(1/2)", 5, "ceil"),
        ("engel", "e-2", 20, "ceil"),
    ):
        system = build_system(system_id)
        y = parse_expression(text, "real", bits=256)
        for name in calls:
            calls[name] = 0
        assert len(coefficient_code(system, y, n)) == n
        inversions = 0 if system_id.startswith("base") else n
        assert (calls[rounding], calls["inversions"]) == (n, inversions), system_id
        assert calls["maps"] == 2 * n - 1, system_id


@pytest.mark.parametrize("system_id, text, depths", [
    ("cf", "sqrt(2)-1", (24, 100, 402)),
    ("engel", "e-2", (19, 55, 167)),
    ("egyptian", "sqrt(1/2)", (4, 6, 8)),
    ("base10", "pi-3", (19, 76, 308)),
    ("cf", "pi-3", (18, 76, 304)),
])
def test_certified_depth_per_budget(system_id, text, depths) -> None:
    # certified steps before PrecisionExhausted at 64/256/1024 bits; a change
    # may raise these depths but must never lower one
    system = build_system(system_id)
    for bits, least in zip((64, 256, 1024), depths):
        y, depth = parse_expression(text, "real", bits=bits), 0
        with pytest.raises(PrecisionExhausted):
            while depth <= 4 * bits:
                _, y = system.step(depth, y)
                depth += 1
        assert depth >= least, (system_id, text, bits, depth)


# over-deep codes at 256 bits on the matrix forward step: the failing level,
# the certified prefix and the message naming the enclosure
EXHAUSTION_GOLDENS = [
    ("base10", "pi-3", 76,
     "1415926535897932384626433832795028841971693993751058209749445923078164062862",
     "floor undecidable on [2704751743670475584575021955285447383014510298386261385/"
     "3064991081731777716716694054300618367237478244367204352, "
     "1683248116856448862236074454470708832933579993553482255/"
     "1532495540865888858358347027150309183618739122183602176]"),
    ("base10-shuffled", "e-2", 77,
     "13464346425702569598064121395688627115162107987775751278878186116201889095952",
     "floor undecidable on [2259465335104758900926296941180781350406372574341908615/"
     "383123885216472214589586756787577295904684780545900544, "
     "12346583790631146303190822533002976815888738740971150085/"
     "1532495540865888858358347027150309183618739122183602176]"),
    ("cf", "sqrt(2)-1", 100, "2" * 100,
     "floor undecidable on [583351243212141237103144710797809451420/"
     "320109661580725979516795321117689436223, "
     "325171667631346437383291808755495882596/"
     "79188222190268704217741667241803552257]"),
    ("egyptian", "sqrt(1/2)", 6, "2514168575320893771541644444237306316731482",
     "ceiling undecidable on [7385064127358140819249456114709065531516307592971322880352291"
     "824933472916510710347316175734257990875221765337907200/11258880546670986024288904658"
     "4948141417848126636576426532610763029047869, 147701282547162816384989122294181310630"
     "32615185942645760704583649866945833021420694632351468515981750443530675814400/225177"
     "610933419720485778093169896155278379065180411690211988062899420963]"),
    ("engel", "e-2", 55, "".join(map(str, range(2, 57))),
     "ceiling undecidable on [51422017416287688817342786954917203280710495801049370729644032/"
     "934852264529016677737516345789148017899382736961901868963651, "
     "12855504354071922204335696738729300820177623950262342682411008/"
     "213978891065830908413812758600868547411749476933658145463569]"),
]


@pytest.mark.parametrize("system_id, text, level, prefix, message", EXHAUSTION_GOLDENS)
def test_matrix_forward_step_exhausts_where_it_did(system_id, text, level, prefix, message):
    y = parse_expression(text, "real", bits=256)
    with pytest.raises(PrecisionExhausted) as info:
        coefficient_code(build_system(system_id), y, 200)
    assert info.value.level == level
    assert "".join(map(str, info.value.prefix)) == prefix
    assert str(info.value) == message


@pytest.mark.parametrize("system_id", ["base10", "base10-shuffled", "cf", "egyptian", "engel"])
def test_validated_steps_leave_an_enclosure_unreduced(system_id) -> None:
    # validate decides "wholly below 0" and "wholly at or above 1" on the
    # endpoint integers: the parsed enclosure and its remainders stay
    # unreduced, and the refusals name the side as before
    system = build_system(system_id)
    for text in ("(pi-3)*7/8", "e-2"):
        y = parse_expression(text, "real", bits=4096)
        assert y._bounds is None
        system.validate(0, y)
        for i in range(3):
            _, y = system.step(i, y)
            system.validate(i + 1, y)
        assert y._bounds is None
    for text, side in (("(pi-3)*7/8 - 1", "below 0"), ("(pi-3)*7/8 + 1", "at or above 1")):
        y = parse_expression(text, "real", bits=256)
        with pytest.raises(DomainError, match=f"element lies outside \\[0, 1\\), {side}$"):
            system.validate(0, y)
        assert y._bounds is None
    # an enclosure that only touches 0 or 1 is not refuted
    for lo, hi in ((F(-1, 3), F(0)), (F(1, 2), F(1))):
        system.validate(0, Interval(lo, hi))


def test_negated_inverse_matrix_is_the_same_system() -> None:
    # f_inv = (-1, 0, 0, -2) is w -> w/2 with both signs flipped: its
    # denominators are negative, and every admission, convergent and code
    # is base 2's, on a Fraction and on an enclosure
    neg = FExpansionSystem("neg-base2", f_inv=(-1, 0, 0, -2))
    base2 = BaseSystem(2)
    assert neg.reconstruct(0, 1, F(1, 2)) == base2.reconstruct(0, 1, F(1, 2)) == F(3, 4)
    assert neg.reconstruct(0, 1, Interval.exact(F(1, 2))) == Interval.exact(F(3, 4))
    assert convergent_from_code(neg, [1, 0, 1, 0]).value == F(5, 8)
    rng = random.Random(22)
    for _ in range(40):
        q = rng.randrange(2, 300)
        y = F(rng.randrange(0, q), q)
        n = rng.randrange(0, 12)
        for value in (y, Interval.exact(y), Interval(y, y + F(1, 2 ** 40))):
            assert convergent(neg, value, n) == convergent(base2, value, n)


NEG_BASE2 = FExpansionSystem("neg-base2", f_inv=(-1, 0, 0, -2))
NEG_CF = FExpansionSystem("neg-cf", f_inv=(0, -1, -1, 0))


@pytest.mark.parametrize("system, c, tail, image", [
    # cf's branch 1/(1 + t) is admitted for t > 0 only
    (ContinuedFractionSystem(), 1, (F(1, 8), F(1, 4)), (F(4, 5), F(8, 9))),
    (ContinuedFractionSystem(), 1, (F(0), F(1, 8)), PrecisionExhausted),
    # ... and its pole at t = -1 inside the tail leaves no enclosure
    (ContinuedFractionSystem(), 1, (F(-2), F(1, 2)), PrecisionExhausted),
    (ContinuedFractionSystem(), 1, (F(-1), F(1, 2)), PrecisionExhausted),
    # the neutral coefficient's only preimage is the neutral 0
    (ContinuedFractionSystem(), INF, (F(0), F(0)), (F(0), F(0))),
    (ContinuedFractionSystem(), INF, (F(1, 8), F(1, 4)), None),
    (ContinuedFractionSystem(), INF, (F(-1, 8), F(1, 8)), PrecisionExhausted),
    (EngelSystem(), INF, (F(0), F(1, 8)), PrecisionExhausted),
    # Egyptian 1/3 + t is admitted while t < 1/6
    (EgyptianSystem(), 3, (F(1, 8), F(1, 7)), (F(11, 24), F(10, 21))),
    (EgyptianSystem(), 3, (F(1, 5), F(1, 4)), None),
    (EgyptianSystem(), 3, (F(1, 8), F(1, 5)), PrecisionExhausted),
    # Engel (1 + t)/3 is admitted while t < 1/2
    (EngelSystem(), 3, (F(1, 8), F(1, 4)), (F(3, 8), F(5, 12))),
    (EngelSystem(), 3, (F(1, 2), F(3, 4)), None),
    (EngelSystem(), 3, (F(1, 4), F(1, 2)), PrecisionExhausted),
    # negated matrices: (-t - 1)/(-2) is base 2's (1 + t)/2, and
    # -1/(-t - 1) is cf's 1/(1 + t), pole at t = -1 included
    (NEG_BASE2, 1, (F(1, 4), F(1, 2)), (F(5, 8), F(3, 4))),
    (NEG_BASE2, 0, (F(0), F(1, 2)), (F(0), F(1, 4))),
    (NEG_BASE2, 1, (F(1, 2), F(2)), PrecisionExhausted),
    (NEG_CF, 1, (F(1, 8), F(1, 4)), (F(4, 5), F(8, 9))),
    (NEG_CF, 1, (F(0), F(1, 8)), PrecisionExhausted),
    (NEG_CF, 1, (F(-1), F(1, 2)), PrecisionExhausted),
    (NEG_CF, 2, (F(-7, 4), F(-3, 2)), None),
    (NEG_CF, INF, (F(0), F(0)), (F(0), F(0))),
])
def test_interval_reconstruct_decides_on_both_endpoints(system, c, tail, image):
    # an enclosure's preimage is decided when both endpoint preimages are
    # admitted or both refused; across the admission edge it is undecidable
    tail = Interval(*tail)
    if image is PrecisionExhausted:
        with pytest.raises(PrecisionExhausted):
            system.reconstruct(0, c, tail)
    else:
        got = system.reconstruct(0, c, tail)
        assert got == (None if image is None else Interval(*image))
