"""Tests for exact polynomial arithmetic and the certified predicates on
[0, 1]: root isolation, sign checks, and sup-norm decisions."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import expansions.polynomials as polynomials
from expansions import (
    NormTaylorSystem,
    Polynomial,
    convergent,
    is_nonneg_on_01,
    isolate_roots_01,
    sample_element,
    sup_norm_le,
    trajectory,
)
from expansions.polynomials import (
    divmod_poly,
    gcd_poly,
    refine_root,
    square_free_part,
)

F = Fraction
X = Polynomial.x()
ONE = Polynomial.of(1)


def random_poly(rng: random.Random, degree: int) -> Polynomial:
    return Polynomial.of(*[F(rng.randrange(-8, 9), rng.randrange(1, 5))
                           for _ in range(degree + 1)])


def test_construction_and_evaluation() -> None:
    p = Polynomial.of(F(1, 2), -1, 0, 3)
    assert p.degree == 3
    assert p.coefficient(0) == F(1, 2) and p.coefficient(2) == 0
    assert p(F(1)) == F(5, 2)
    assert p(F(0)) == F(1, 2)
    assert Polynomial.of(0, 0).is_zero() and Polynomial.of(0, 0).degree == -1


def test_arithmetic_shift_reflect() -> None:
    p = X * X + X
    assert (p + p)(F(3)) == 24
    assert (p * p).degree == 4
    assert (X * X).shift(1) == ONE + Polynomial.of(0, 2) + X * X
    # reflect is the involution p |-> -p(-x).
    assert p.reflect() == X - X * X
    assert p.reflect().reflect() == p
    rng = random.Random(301)
    for _ in range(20):
        q = random_poly(rng, rng.randrange(0, 6))
        t = F(rng.randrange(-9, 10), rng.randrange(1, 7))
        a = F(rng.randrange(-4, 5), rng.randrange(1, 4))
        assert q.shift(a)(t) == q(t + a)
        assert q.reflect()(t) == -q(-t)
        assert q.differentiate().degree <= max(q.degree - 1, -1)


def test_division_gcd_squarefree() -> None:
    q, r = divmod_poly(X * X - ONE, X - ONE)
    assert q == X + ONE and r.is_zero()
    rng = random.Random(302)
    for _ in range(20):
        a = random_poly(rng, rng.randrange(0, 6))
        b = random_poly(rng, rng.randrange(1, 4))
        if b.is_zero():
            continue
        q, r = divmod_poly(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
    two, three = Polynomial.of(2), Polynomial.of(3)
    g = gcd_poly((X - ONE) * (X - two), (X - ONE) * (X - three))
    assert g(F(1)) == 0 and g.degree == 1
    sf = square_free_part((X - ONE) * (X - ONE) * X)
    assert sf.degree == 2 and sf(F(0)) == 0 and sf(F(1)) == 0


def test_isolate_roots_golden() -> None:
    # Roots at 1/4, 1/2, 3/4: rational roots come back as degenerate brackets.
    p = Polynomial.of(F(-3, 32), F(11, 16), F(-3, 2), 1)
    assert isolate_roots_01(p) == [
        (F(1, 4), F(1, 4)),
        (F(1, 2), F(1, 2)),
        (F(3, 4), F(3, 4)),
    ]
    # The isolation interval is open: endpoint roots are not counted.
    assert isolate_roots_01(X * (X - ONE)) == []


def test_isolate_roots_randomized() -> None:
    rng = random.Random(303)
    for _ in range(30):
        roots = sorted({F(rng.randrange(1, 15), 16) for _ in range(rng.randrange(1, 4))})
        p = ONE
        for r in roots:
            p = p * (X - Polynomial.of(r))
        brackets = isolate_roots_01(p)
        assert len(brackets) == len(roots)
        for (lo, hi), r in zip(brackets, roots):
            assert lo <= r <= hi
        # Brackets are disjoint and ordered.
        for (_, h1), (l2, _) in zip(brackets, brackets[1:]):
            assert h1 < l2


def test_refine_root() -> None:
    p = X * X - Polynomial.of(F(1, 2))
    (bracket,) = isolate_roots_01(p)
    lo, hi = refine_root(p, bracket, F(1, 10**9))
    assert hi - lo <= F(1, 10**9)
    assert p(lo) * p(hi) <= 0


def test_sign_and_norm_predicates() -> None:
    hump = X * (ONE - X)
    assert is_nonneg_on_01(hump)
    assert not is_nonneg_on_01(X - Polynomial.of(F(1, 2)))
    assert sup_norm_le(hump, F(1, 4))
    assert not sup_norm_le(hump, F(1, 5))
    # the norm is exactly 1/4, reached at 1/2
    assert not sup_norm_le(hump, F(1, 4) - F(1, 10**12))
    assert hump(F(1, 2)) == F(1, 4)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("taylor", "newton-forward", "newton-backward",
                        "newton-reflected", "norm-taylor")),
       st.integers(0, 2**32 - 1),
       st.fractions(min_value=F(1, 10**9), max_value=1))
def test_norm_enclosure_vs_sampling(system_id, seed, eps):
    # a registry sample's norm lies between its sampled max on a grid of
    # [0, 1] and the sum of its coefficients' absolute values; the maximum
    # lies within 1/128 of a grid point, where |p'| <= sum k |c_k| on [0, 1]
    p = sample_element(system_id, random.Random(seed))
    assert p.center == 0
    sampled = max(abs(p(F(k, 64))) for k in range(65))
    if sampled > 0:
        assert not sup_norm_le(p, sampled - min(eps, sampled))
    assert sup_norm_le(p, sum(abs(c) for c in p.coeffs))
    slope = sum(k * abs(c) for k, c in enumerate(p.coeffs))
    assert sup_norm_le(p, sampled + slope / 128)


# ---------------------------------------------------------------------------
# A plain Sturm-chain reference for the Bernstein decisions
# ---------------------------------------------------------------------------


def sturm_count(p: Polynomial, a: Fraction, b: Fraction) -> int:
    """Roots of a square-free ``p`` in the open interval ``(a, b)``."""
    chain = [p, p.differentiate()]
    while not chain[-1].is_zero():
        chain.append(-divmod_poly(chain[-2], chain[-1])[1])

    def variations(x: Fraction) -> int:
        signs = [v > 0 for v in (q(x) for q in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    # Sturm counts (a, b]; drop b when it is itself a root.
    return variations(a) - variations(b) - (p(b) == 0)


def sturm_nonneg(q: Polynomial) -> bool:
    """``q >= 0`` on [0, 1], by Sturm bisection of its square-free part."""
    if q.is_zero():
        return True
    s = square_free_part(q)
    if s.degree < 1:
        return q(F(0)) > 0
    pending = [(F(0), F(1))]
    while pending:
        a, b = pending.pop()
        n = sturm_count(s, a, b)
        if n == 0:
            # q keeps one sign on the root-free open piece.
            if q((a + b) / 2) < 0:
                return False
        elif n == 1 and s(a) and s(b):
            # One root inside: q has the sign of q(a) before it, of q(b) after.
            if q(a) < 0 or q(b) < 0:
                return False
        else:
            mid = (a + b) / 2
            pending += [(a, mid), (mid, b)]
    return True


dyadic_roots = st.integers(0, 5).flatmap(
    lambda j: st.integers(-(2**j) // 4, 2**j + 2**j // 4).map(lambda k: F(k, 2**j))
)
rational_roots = st.fractions(min_value=F(-1, 4), max_value=F(5, 4), max_denominator=12)
linear_factors = st.one_of(dyadic_roots, rational_roots, st.sampled_from([F(0), F(1)])).map(
    lambda r: X - Polynomial.of(r)
)
small_factors = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(
    lambda cs: Polynomial.of(*cs)
)
# Products of (x - r) and small-coefficient factors, each simple or squared
# (a squared factor touches zero without changing sign).
factors = st.tuples(st.one_of(linear_factors, small_factors), st.integers(1, 2)).map(
    lambda fm: fm[0] * fm[0] if fm[1] == 2 else fm[0]
)
products = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.lists(factors, max_size=4),
).map(lambda sf: Polynomial.of(sf[0]) * _product(sf[1]))


def _product(ps) -> Polynomial:
    out = ONE
    for p in ps:
        out = out * p
    return out


def _norm_bounds(q: Polynomial):
    return {F(1), abs(q(F(0))), abs(q(F(1))), abs(q(F(1, 2))), abs(q(F(1, 3)))}


def _check_against_sturm(q: Polynomial) -> None:
    assert is_nonneg_on_01(q) == sturm_nonneg(q)
    for bound in _norm_bounds(q):
        bnd = Polynomial.of(bound)
        assert sup_norm_le(q, bound) == (sturm_nonneg(bnd - q) and sturm_nonneg(bnd + q))


@settings(max_examples=150, deadline=None)
@given(products)
def test_bernstein_decisions_match_sturm(q):
    _check_against_sturm(q)


@settings(max_examples=60, deadline=None)
@given(products)
def test_sampling_argument_alone_matches_sturm(q):
    # With no halving every undecided sign test goes to the sampling argument.
    saved = polynomials._HALVINGS
    polynomials._HALVINGS = 0
    try:
        _check_against_sturm(q)
    finally:
        polynomials._HALVINGS = saved


@settings(max_examples=150, deadline=None)
@given(products)
def test_descartes_isolation_matches_sturm(q):
    s = square_free_part(q)
    brackets = isolate_roots_01(s)
    # Multiple roots are isolated once, as roots of the square-free part.
    assert isolate_roots_01(q) == brackets
    if s.degree < 1:
        assert brackets == []
        return
    assert len(brackets) == sturm_count(s, F(0), F(1))
    for lo, hi in brackets:
        if lo == hi:
            assert 0 < lo < 1 and s(lo) == 0
        else:
            assert 0 <= lo < hi <= 1 and s(lo) and s(hi)
            assert sturm_count(s, lo, hi) == 1
    for (_, h1), (l2, _) in zip(brackets, brackets[1:]):
        assert h1 < l2


def test_neighbouring_rational_roots_are_sampled_between():
    # Roots at 1/4 and 1/2 come back as two neighbouring degenerate brackets;
    # q is negative between them.
    q = (X - Polynomial.of(F(1, 4))) * (X - Polynomial.of(F(1, 2)))
    saved = polynomials._HALVINGS
    polynomials._HALVINGS = 0
    try:
        assert not is_nonneg_on_01(q)
        assert not sup_norm_le(ONE - q * 4, 1)
    finally:
        polynomials._HALVINGS = saved
    assert not is_nonneg_on_01(q)
    assert is_nonneg_on_01((X - Polynomial.of(F(1, 3))) * (X - Polynomial.of(F(1, 3))))


def test_norm_decisions_need_no_euclidean_division(monkeypatch):
    calls = []

    def counting_divmod(a, b):
        calls.append((a, b))
        return divmod_poly(a, b)

    monkeypatch.setattr(polynomials, "divmod_poly", counting_divmod)
    system = NormTaylorSystem()
    fixture = Polynomial.of(F(1, 2), 1, -1, 1, -1)
    stages = list(trajectory(system, fixture, 5))
    profile = [convergent(system, fixture, n).improper_at for n in range(6)]
    rng = random.Random(9)
    for _ in range(40):
        y = sample_element("norm-taylor", rng)
        stages += trajectory(system, y, y.degree + 1)
        for n in range(y.degree + 2):
            convergent(system, y, n)
    verdicts = [sup_norm_le(p, 1) for p in stages]
    assert calls == []
    assert profile == [None, None, 0, None, 0, None]
    assert verdicts == [sturm_nonneg(ONE - p) and sturm_nonneg(ONE + p) for p in stages]
