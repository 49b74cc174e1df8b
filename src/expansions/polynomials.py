"""Certified decisions about exact univariate polynomials over the rationals.

A polynomial is an exact :class:`~expansions.series.PowerSeries` at center 0,
which carries the ring operations.  This module adds the Euclidean structure
and certified decisions about polynomial ranges on ``[0, 1]`` —
``is_nonneg_on_01`` and ``sup_norm_le`` — from the Bernstein coefficients of
an integer-scaled polynomial under dyadic halving, with roots isolated by
Descartes' rule on those coefficients (Vincent–Collins–Akritas bisection).
Both run on integers: the polynomial scaled to integer numerators by
:func:`~expansions.series.integer_numerators`, then Taylor shifts by 1 in
:func:`~expansions.series.taylor_shift_int`, the one integer shift kernel,
which also serves ``PowerSeries.shift`` and the Newton step, and bit shifts
for the halvings.  ``Fraction`` arithmetic is
left to the square-free part before root isolation, to refining brackets,
and to sampling in the rare sign test that halving leaves undecided.  The
sup-norm decision itself, :func:`sup_norm_le_int`, takes the integer
numerators and the scaled bound, so the norm-restricted system decides every
stage of a polynomial on one scaling.  Its membership test must be exact: a
convergent is declared proper or improper, never "probably proper".
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError
from .series import PowerSeries, integer_numerators, taylor_shift_int

_ZERO = Fraction(0)
_ONE = Fraction(1)


#: Polynomials are the exact series at center 0; see :class:`PowerSeries`.
Polynomial = PowerSeries


def _require_centered(*ps: Polynomial) -> None:
    # Root isolation and the norm bounds read coefficients as powers of x.
    if any(p.center for p in ps):
        raise DomainError("polynomial decisions need series centered at 0")


# -- euclidean structure -------------------------------------------------


def divmod_poly(a: Polynomial, b: Polynomial) -> Tuple[Polynomial, Polynomial]:
    _require_centered(a, b)
    if b.is_zero():
        raise DomainError("polynomial division by zero")
    db = b.degree
    q: List[Fraction] = [_ZERO] * max(a.degree - db + 1, 0)
    rem = list(a.coeffs)
    lead = b.coeffs[-1]
    while len(rem) - 1 >= db and rem:
        k = len(rem) - 1 - db
        factor = rem[-1] / lead
        q[k] = factor
        for j, bc in enumerate(b.coeffs):
            rem[k + j] -= factor * bc
        while rem and rem[-1] == 0:
            rem.pop()
    # Both lists hold Fractions without trailing zeros already: the top
    # quotient entry is a's leading coefficient over lead, and rem is stripped
    # after every step.
    quotient = Polynomial(_ZERO, tuple(q), exact=True)
    return quotient, Polynomial(_ZERO, tuple(rem), exact=True)


def gcd_poly(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor."""
    while not b.is_zero():
        a, b = b, divmod_poly(a, b)[1]
    if a.is_zero():
        return a
    return a * (1 / a.coeffs[-1])


def square_free_part(p: Polynomial) -> Polynomial:
    """Same roots as ``p``, all simple."""
    if p.degree < 1:
        return p
    g = gcd_poly(p, p.differentiate())
    if g.degree < 1:
        return p
    return divmod_poly(p, g)[0]


# -- integer Bernstein form on [0, 1] ------------------------------------

#: Dyadic halvings the Bernstein sign test tries before the sampling argument.
_HALVINGS = 8


def _bernstein(cs: Sequence[int]) -> List[int]:
    """``C(n, i) * b_i`` for the Bernstein coefficients ``b_i`` on ``[0, 1]``
    of the degree-``n`` power form ``cs``.

    These are the coefficients of ``(1 + t)^n q(t / (1 + t))``: reverse, shift
    by 1, reverse.  The first is ``q(0)`` and the last ``q(1)``.
    """
    return taylor_shift_int(list(reversed(cs)), 1)[::-1]


def _halves(cs: Sequence[int]) -> Tuple[List[int], List[int]]:
    """``2^n q(x / 2)`` and ``2^n q((x + 1) / 2)``: the two halves of
    ``[0, 1]`` mapped back onto ``[0, 1]``."""
    n = len(cs) - 1
    left = [c << (n - i) for i, c in enumerate(cs)]
    return left, taylor_shift_int(list(left), 1)


def _sign_test(cs: List[int], bern: List[int], halvings: int) -> Optional[bool]:
    """``q >= 0`` on ``[0, 1]`` from its Bernstein coefficients ``bern``, or
    ``None`` when ``halvings`` dyadic halvings leave it undecided."""
    if bern[0] < 0 or bern[-1] < 0:
        return False
    if min(bern) >= 0:
        return True
    if not halvings:
        return None
    verdict: Optional[bool] = True
    for half in _halves(cs):
        v = _sign_test(half, _bernstein(half), halvings - 1)
        if v is False:
            return False
        if v is None:
            verdict = None
    return verdict


def _nonneg(cs: List[int], bern: List[int]) -> bool:
    verdict = _sign_test(cs, bern, _HALVINGS)
    if verdict is not None:
        return verdict
    # A touching root off the dyadic grid, like that of (x - 1/3)^2, never
    # decides under halving.  Sign is constant between consecutive roots, and
    # every maximal root-free stretch of [0, 1] holds 0, 1 or the midpoint of
    # a gap between strictly separated brackets.  (Bracket endpoints alone
    # miss the stretch between two neighbouring rational roots.)
    q = Polynomial.of(*cs)
    ends = [_ZERO]
    for bracket in isolate_roots_01(q):
        ends.extend(bracket)
    ends.append(_ONE)
    samples = [(a + b) / 2 for a, b in zip(ends[::2], ends[1::2])]
    return all(q(x) >= 0 for x in (_ZERO, _ONE, *samples))


# -- root isolation by Descartes' rule in Bernstein form --------------------


def isolate_roots_01(p: Polynomial) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, each holding exactly one root of ``p`` in
    the open interval ``(0, 1)``.

    Roots are counted without multiplicity.  A rational root ``r`` shows up
    as the degenerate interval ``(r, r)``; all other returned endpoints are
    non-roots.  Intervals are sorted and pairwise strictly separated.
    """
    _require_centered(p)
    # Bisection ends on simple roots only: a multiple root keeps two sign
    # variations on every piece around it.
    p = square_free_part(p)
    if p.degree < 1:
        return []
    out: List[Tuple[Fraction, Fraction]] = []

    def search(cs: List[int], k: int, m: int) -> None:
        # cs is p on [k / 2^m, (k + 1) / 2^m], mapped onto [0, 1].  The sign
        # variations of its Bernstein coefficients bound the roots inside,
        # with the same parity (Descartes' rule).
        bern = _bernstein(cs)
        signs = [v > 0 for v in bern if v]
        variations = sum(s != t for s, t in zip(signs, signs[1:]))
        if variations == 0:
            return
        if variations == 1 and bern[0] and bern[-1]:
            out.append((Fraction(k, 1 << m), Fraction(k + 1, 1 << m)))
            return
        left, right = _halves(cs)
        search(left, 2 * k, m + 1)
        if not right[0]:
            mid = Fraction(2 * k + 1, 1 << (m + 1))
            out.append((mid, mid))
        search(right, 2 * k + 1, m + 1)

    search(integer_numerators(p.coeffs)[0], 0, 0)
    # Neighbouring brackets may share an endpoint, which is never a root:
    # halve both until consecutive brackets are strictly separated.
    changed = True
    while changed:
        changed = False
        for k in range(len(out) - 1):
            if out[k][1] >= out[k + 1][0]:
                for j in (k, k + 1):
                    lo, hi = out[j]
                    out[j] = refine_root(p, out[j], (hi - lo) / 2)
                changed = True
    return out


def refine_root(
    p: Polynomial, iv: Tuple[Fraction, Fraction], width: Fraction
) -> Tuple[Fraction, Fraction]:
    """Bisect an isolating interval of a square-free ``p`` down to ``width``."""
    a, b = iv
    if a == b:
        return iv
    sa = 1 if p(a) > 0 else -1
    while b - a > width:
        mid = (a + b) / 2
        v = p(mid)
        if v == 0:
            return (mid, mid)
        if (1 if v > 0 else -1) == sa:
            a = mid
        else:
            b = mid
    return (a, b)


# -- certified range predicates on [0, 1] ---------------------------------


def is_nonneg_on_01(q: Polynomial) -> bool:
    """Exact decision of ``q(x) >= 0`` for all ``x`` in ``[0, 1]``."""
    _require_centered(q)
    if q.is_zero():
        return True
    cs = integer_numerators(q.coeffs)[0]
    return _nonneg(cs, _bernstein(cs))


def sup_norm_le(p: Polynomial, bound: object) -> bool:
    """Exact decision of ``max |p|  <= bound`` on ``[0, 1]``: ``bound`` and
    ``p`` scaled to integers over one denominator, then
    :func:`sup_norm_le_int`."""
    _require_centered(p)
    (top, *cs), _ = integer_numerators((Fraction(bound), *p.coeffs))
    return sup_norm_le_int(cs, top)


def sup_norm_le_int(cs: Sequence[int], top: int) -> bool:
    """Exact decision of ``max |q| <= top`` on ``[0, 1]`` for the polynomial
    ``q`` with ascending integer coefficients ``cs``.

    Scaling ``q`` and ``top`` by one positive constant keeps the verdict, so
    every stage of one integer-scaled polynomial is decided on a slice of its
    numerators against the same ``top``.
    """
    if top < 0:
        return False
    if not cs:
        return True
    bern = _bernstein(cs)
    n = len(cs) - 1
    # The Bernstein coefficients of a constant are that constant, so those of
    # top -+ q come from q's own: decide top - q >= 0 and top + q >= 0.
    ceiling = [top * math.comb(n, i) for i in range(n + 1)]
    for sign in (1, -1):
        power = [-sign * c for c in cs]
        power[0] += top
        if not _nonneg(power, [t - sign * v for t, v in zip(ceiling, bern)]):
            return False
    return True
