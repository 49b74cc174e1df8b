"""Certified decisions about exact univariate polynomials over the rationals.

A polynomial is an exact :class:`~expansions.series.PowerSeries` at center 0,
which carries the ring operations.  This module adds the Euclidean structure
and certified decisions about polynomial ranges on ``[0, 1]`` —
``is_nonneg_on_01`` and ``sup_norm_le`` — via square-free reduction and
Sturm-chain root isolation, all in ``Fraction`` arithmetic.  These back the
norm-restricted system's membership test, which must be exact: a convergent
is declared proper or improper, never "probably proper".
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .certified import Interval
from .errors import DomainError
from .series import PowerSeries

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
    g = gcd_poly(p, p.derivative())
    if g.degree < 1:
        return p
    return divmod_poly(p, g)[0]


# -- Sturm-chain root isolation on an interval ----------------------------


def _sturm_chain(p: Polynomial) -> List[Polynomial]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-divmod_poly(chain[-2], chain[-1])[1])
    chain.pop()
    return chain


def _sign_variations(chain: Sequence[Polynomial], x: Fraction) -> int:
    signs = [v > 0 for v in (q(x) for q in chain) if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def isolate_roots_01(p: Polynomial) -> List[Tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, each holding exactly one root of ``p`` in
    the open interval ``(0, 1)``.

    ``p`` must be square-free.  A rational root ``r`` shows up as the
    degenerate interval ``(r, r)``; all other returned endpoints are
    non-roots.  Intervals are sorted and pairwise strictly separated.
    """
    _require_centered(p)
    if p.degree < 1:
        return []
    chain = _sturm_chain(p)

    def count_open(a: Fraction, b: Fraction) -> int:
        # Sturm counts (a, b]; drop b when it is itself a root.
        n = _sign_variations(chain, a) - _sign_variations(chain, b)
        return n - 1 if p(b) == 0 else n

    out: List[Tuple[Fraction, Fraction]] = []

    def search(a: Fraction, b: Fraction) -> None:
        n_roots = count_open(a, b)
        if n_roots == 0:
            return
        if n_roots == 1 and p(a) != 0 and p(b) != 0:
            out.append((a, b))
            return
        mid = (a + b) / 2
        if p(mid) == 0:
            out.append((mid, mid))
        search(a, mid)
        search(mid, b)

    search(_ZERO, _ONE)
    out.sort()

    def refine(iv: Tuple[Fraction, Fraction]) -> Tuple[Fraction, Fraction]:
        a, b = iv
        if a == b:
            return iv
        mid = (a + b) / 2
        if p(mid) == 0:
            return (mid, mid)
        return (a, mid) if count_open(a, mid) == 1 else (mid, b)

    # Shrink until consecutive intervals are strictly separated.
    changed = True
    while changed:
        changed = False
        for k in range(len(out) - 1):
            if out[k][1] >= out[k + 1][0]:
                out[k] = refine(out[k])
                out[k + 1] = refine(out[k + 1])
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
    if q(_ZERO) < 0 or q(_ONE) < 0:
        return False
    s = square_free_part(q)
    samples = {_ZERO, _ONE}
    for a, b in isolate_roots_01(s):
        samples.add(a)
        samples.add(b)
    # Sign is constant between consecutive roots, and every maximal root-free
    # stretch of [0, 1] contains one of these samples.
    return all(q(x) >= 0 for x in samples)


def sup_norm_le(p: Polynomial, bound: object) -> bool:
    """Exact decision of ``max |p|  <= bound`` on ``[0, 1]``."""
    _require_centered(p)
    bound = Fraction(bound)
    if bound < 0:
        return False
    bnd = Polynomial.of(bound)
    return is_nonneg_on_01(bnd - p) and is_nonneg_on_01(bnd + p)


def sup_norm_enclosure(p: Polynomial, width: object = Fraction(1, 10**6)) -> Interval:
    """Enclosure of ``max |p|`` on ``[0, 1]`` of at most the given width."""
    _require_centered(p)
    width = Fraction(width)
    if p.is_zero():
        return Interval.exact(0)
    crit = square_free_part(p.derivative())
    intervals = isolate_roots_01(crit) if crit.degree >= 1 else []
    # |p'| <= sum |coeff| on [0, 1] bounds the variation over a short interval.
    slope = sum(abs(c) for c in p.derivative().coeffs) or _ONE
    w = Fraction(1, 64)
    while True:
        lo = max(abs(p(_ZERO)), abs(p(_ONE)))
        hi = lo
        for iv in intervals:
            a, b = refine_root(crit, iv, w)
            mid = (a + b) / 2
            v = abs(p(mid))
            lo = max(lo, v)
            hi = max(hi, v + (b - a) * slope)
        if hi - lo <= width:
            return Interval(lo, hi)
        w /= 16


def argmax_abs_enclosure(p: Polynomial, width: object = Fraction(1, 10**6)) -> Interval:
    """Enclosure of one maximizer of ``|p|`` on ``[0, 1]``."""
    width = Fraction(width)
    best: Optional[Tuple[Fraction, Interval]] = None
    candidates: List[Interval] = [Interval.exact(0), Interval.exact(1)]
    crit = square_free_part(p.derivative())
    if crit.degree >= 1:
        for iv in isolate_roots_01(crit):
            a, b = refine_root(crit, iv, width)
            candidates.append(Interval(a, b))
    for c in candidates:
        v = abs(p(c.midpoint()))
        if best is None or v > best[0]:
            best = (v, c)
    assert best is not None
    return best[1]
