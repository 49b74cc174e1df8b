"""Tests for the concrete real-number systems: positional bases, continued
fractions, Egyptian fractions, Engel series, and the f-expansion family."""

import math
import random
from fractions import Fraction

import pytest

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


@pytest.mark.parametrize("text, bits, code, level", [
    ("sqrt(2)-1", 8, [0, 1, 3], 3),
    ("sqrt(9/10)", 8, [3, 1, 0], 3),
    ("sqrt(99/100)", 8, [3, 3], 2),
    ("sqrt(9/10)", 32, [3, 1, 0, 2, 0, 1, 1, 1, 0, 0, 0, 0], None),
    ("sqrt(99/100)", 32, [3, 3, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0], None),
])
def test_non_mobius_f_expansion_runs_on_the_enclosure(text, bits, code, level) -> None:
    # y*y is no Möbius step, so 4*y*y multiplies two Intervals on their
    # endpoints: the code (pinned), the failing level and its message are
    # those of the same steps written in the test; only the forward code is
    # read here, and the constant inverse w -> 1 refuses every reconstruct
    square = FExpansionSystem("square", f=lambda y: 4 * y * y, f_inv=(0, 1, 0, 1))
    y = stage = parse_expression(text, "real", bits=bits)
    reference, message = [], None
    try:
        for _ in range(12):
            v = 4 * stage * stage
            reference.append(math.floor(v))
            stage = v - reference[-1]
    except PrecisionExhausted as exc:
        message = str(exc)
    if level is None:
        assert coefficient_code(square, y, 12) == reference == code
        return
    with pytest.raises(PrecisionExhausted) as info:
        coefficient_code(square, y, 12)
    assert (info.value.prefix, info.value.level) == (reference, len(reference)) == (code, level)
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


def test_reconstruct_rejects_foreign_coefficients() -> None:
    # the named systems raise on a coefficient outside their alphabet
    for c in (10, -1, F(1, 2)):
        with pytest.raises(DomainError):
            BaseSystem(10).reconstruct(0, c, F(0))
    for c in (0, -3, F(3, 2)):
        with pytest.raises(DomainError):
            ContinuedFractionSystem().reconstruct(0, c, F(0))


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
    assert all(sysm.coefficients_equal(i, x, y) for i, (x, y) in enumerate(zip(ca, cb)))
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
    # project and expand share 1/y and its floor or ceiling: one reciprocal
    # and one rounding per emitted coefficient, not two per expanded level
    calls = {"reciprocal": 0, "floor": 0, "ceil": 0}
    for name in calls:
        method = getattr(Interval, name)

        def counted(self, _method=method, _name=name):
            calls[_name] += 1
            return _method(self)

        monkeypatch.setattr(Interval, name, counted)
    for system, text, n, rounding in (
        (ContinuedFractionSystem(), "sqrt(2)-1", 20, "floor"),
        (EgyptianSystem(), "sqrt(1/2)", 5, "ceil"),
        (EngelSystem(), "e-2", 20, "ceil"),
    ):
        y = parse_expression(text, "real", bits=256)
        for name in calls:
            calls[name] = 0
        code = coefficient_code(system, y, n)
        assert len(code) == n
        assert calls["reciprocal"] == calls[rounding] == n
    # base-b digits share b*y and its floor: one floor per emitted digit
    for system in (BaseSystem(10), build_system("base10-shuffled")):
        y = parse_expression("pi-3", "real", bits=256)
        for name in calls:
            calls[name] = 0
        assert len(coefficient_code(system, y, 30)) == 30
        assert calls["floor"] == 30 and calls["reciprocal"] == 0


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
]


@pytest.mark.parametrize("system_id, text, level, prefix, message", EXHAUSTION_GOLDENS)
def test_matrix_forward_step_exhausts_where_it_did(system_id, text, level, prefix, message):
    y = parse_expression(text, "real", bits=256)
    with pytest.raises(PrecisionExhausted) as info:
        coefficient_code(build_system(system_id), y, 200)
    assert info.value.level == level
    assert "".join(map(str, info.value.prefix)) == prefix
    assert str(info.value) == message


def test_negated_inverse_matrix_is_the_same_system() -> None:
    # f_inv = (-1, 0, 0, -2) is w -> w/2 with both signs flipped: its
    # denominators are negative, and every admission, convergent and code
    # is base 2's, on a Fraction and on an enclosure
    neg = FExpansionSystem("neg-base2", f=lambda y: 2 * y, f_inv=(-1, 0, 0, -2))
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
