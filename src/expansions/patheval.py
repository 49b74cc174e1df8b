"""Numerical evaluation of approximation-system convergents along paths.

A convergent of a ``D``/``KD`` system is a tower of integrals

    y_k(x) = const [+ b_k (x - x0)] + integral_{x0}^{x} c_k (t-x0)^{m_k} U_k(y_{k+1}(t)) dt

so evaluating it away from the center means integrating along a path — and
for fractional inverse exponents ``U_k(w) = w**(1/alpha_k)`` the power must be
continued analytically along that path, not computed on the principal branch.

The evaluator marches the polyline panel by panel.  Every panel carries
the same Chebyshev–Lobatto nodes, so "integrand values at the nodes ->
integral from the panel start at the nodes" (interpolate, integrate,
evaluate) is one fixed linear map: the cumulative Clenshaw–Curtis rule
(Trefethen, "Is Gauss quadrature better than Clenshaw–Curtis?", SIAM Review
50(1), 2008).  Its weights come from the closed form of
``integral_{-1}^{cos theta} T_k`` and are built once, on first use.  One
bottom-up sweep of a panel evaluates every level at its nodes, starting from
each level's running integral at the panel start.  A naive recursive
quadrature would re-evaluate the whole tower beneath every node and cost
``nodes**depth``; the sweep costs ``nodes * panels * depth``.

The nodes are symmetric, ``xi_{N-i} = -xi_i``, so the sweep applies the rule
to folded values: with ``h = N/2``, ``e_i = f_i + f_{N-i}`` and ``o_i = f_i -
f_{N-i}`` for ``i < h``, and ``e_h = f_h``.  Reflecting the integral gives
``W_{N-j,i} = w_i - W_{j,N-i}``, where ``W_j`` is the weight row of node
``j`` and ``w = W_N`` the symmetric full-panel weights.  So one pair of
half-length sums ``P_j . e`` and ``Q_j . o`` (the even and odd halves of
``W_j``) gives both nodes of a mirrored pair: ``W_j . f = P_j . e + Q_j . o``
and ``W_{N-j} . f = w . f - (P_j . e - Q_j . o)``, with ``w . f`` one sum on
``e``.  The ``A_N`` row is even and the ``A_{N-1}`` row odd under ``i -> N -
i``, so the estimate below is one sum on ``e`` and one on ``o``.  A level
and panel takes about 580 multiply-adds instead of 1155.

Every level's running integral is causal along the path: a panel depends
only on the panels before it.  So the panels are taken in path order from a
stack seeded with the path's segments, with local error control as in ODE
step-size control (Hairer, Nørsett & Wanner, *Solving Ordinary Differential
Equations I*).  The error estimate of a panel is the standard
trailing-coefficient one, the last two Chebyshev coefficients of its
interpolant (two more fixed weight rows), summed over the levels.  A panel
is accepted when the estimates of the accepted panels and its own stay
within the tolerance's share of the path length they cover, so a panel may
spend what the panels before it left unused (near a pole, rounding alone
can keep an estimate above the panel's own share at any width).  An
accepted panel's running integrals and branch states are committed and it
is never visited again.  Otherwise its two halves go back on the stack, and
the states it reached are dropped.  Numerically vanishing arguments to a
fractional power, a log-branch argument, or a reciprocal, and values that
leave float range, raise :class:`~expansions.errors.SingularityOnPath`;
failure to meet the tolerance within the panel budget raises
:class:`~expansions.errors.QuadratureFailure`.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from operator import add, mul
from typing import Callable, List, Optional, Sequence, Tuple

from .approx import ASConfig, ApproximationSystem, NL_POWER, TRANSFORM_K
from .coefficients import ASCoef, is_infinite
from .errors import DomainError, QuadratureFailure, SingularityOnPath
from .series import PowerSeries

_TWO_PI = 2 * math.pi
_TINY = 1e-9
#: Bounds of the march: accepted plus pending panels, and halvings of one
#: segment of the path.
_MAX_PANELS = 8192
_MAX_HALVINGS = 60

#: Each panel carries the Lobatto nodes ``-cos(pi j / NODES_PER_PANEL)``,
#: ``j = 0 .. NODES_PER_PANEL``.
NODES_PER_PANEL = 32

#: bound on the accumulated quadrature error estimate when none is named
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class PathValue:
    """Result of a path evaluation.

    Attributes:
        value: the convergent at the path's endpoint.
        error: accumulated quadrature error estimate, a heuristic: it does
            not bound the propagation through the nonlinearities.  Against
            exact references (``tests/test_patheval.py``) it overstates the
            achieved error: ``as-d-power-half`` convergents of
            ``(1 - s x)^(-1/2)`` (polynomials; depths 1-6, endpoints within
            0.6 of 0) reach ``|value - exact| <= 3e-16`` at ``error <= 2e-15``;
            the criterion-12 loop (depths 1-4) reaches ``|value - ODE
            solution| <= 3e-16`` at ``error <= 1e-12``.  It is at most the
            tolerance it was asked for.
        panels: number of accepted panels.
    """

    value: complex
    error: float
    panels: int


def evaluate_series(series: PowerSeries, z: complex) -> complex:
    """Horner evaluation of the stored coefficients at ``z``.

    Raises:
        DomainError: the center or a coefficient is beyond float range.
    """
    try:
        shift = z - float(series.center)
        coeffs = [float(c) for c in series.coeffs]
    except OverflowError:
        raise DomainError("series coefficient beyond float range") from None
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * shift + c
    return acc


_Rows = Tuple[Tuple[float, ...], ...]


@functools.cache
def _rule() -> Tuple[Tuple[float, ...], _Rows, _Rows]:
    """The cumulative Clenshaw–Curtis rule for ``N = NODES_PER_PANEL``.

    Returns the nodes ``xi_j``, ordered from -1 to +1; the weights with
    ``integral_{-1}^{xi_j} p = sum_i cumulative[j][i] f_i`` for the degree-N
    interpolant ``p`` of values ``f_i`` at the nodes; and the two rows that
    give its Chebyshev coefficients ``A_{N-1}`` and ``A_N``.
    """
    n = NODES_PER_PANEL
    xi = tuple(-math.cos(math.pi * j / n) for j in range(n + 1))
    halved = [0.5] + [1.0] * (n - 1) + [0.5]
    # A_k = sum_i coeffs[k][i] f_i: the Lobatto DCT, as xi_i = cos(pi (n-i) / n)
    coeffs = [
        [(2 / n) * (-1) ** k * halved[k] * halved[i] * math.cos(math.pi * k * i / n)
         for i in range(n + 1)]
        for k in range(n + 1)
    ]

    def integral(k: int, theta: float) -> float:
        # of T_k from -1 to cos(theta): T_{k+1}/(2k+2) - T_{k-1}/(2k-2); T_2/4 at k=1
        up = (math.cos((k + 1) * theta) + (-1) ** k) / (2 * (k + 1))
        if k == 1:
            return up
        return up - (math.cos((k - 1) * theta) + (-1) ** k) / (2 * (k - 1))

    columns = list(zip(*coeffs))
    cumulative = []
    for j in range(n + 1):
        row = [integral(k, math.pi * (n - j) / n) for k in range(n + 1)]
        cumulative.append(tuple(sum(map(mul, row, column)) for column in columns))
    return xi, tuple(cumulative), tuple(map(tuple, coeffs[n - 1:]))


_Folded = Tuple[complex, ...]


@functools.cache
def _folded_rule() -> Tuple[_Folded, Tuple[_Folded, ...], Tuple[_Folded, ...], _Folded, _Folded]:
    """``_rule()`` folded by the reflection ``i -> N - i`` (see the module docs).

    Returns, as complex tuples (a complex weight times a complex value skips
    the float-to-complex fallback of ``float * complex``): the full-panel
    weights ``w`` on ``e``; the rows ``P_j`` on ``e`` and ``Q_j`` on ``o`` for
    ``j = 1 .. N/2``; and the ``A_N`` row on ``e`` and the ``A_{N-1}`` row
    on ``o``.
    """
    _, cumulative, (odd_top, even_top) = _rule()
    n, h = NODES_PER_PANEL, NODES_PER_PANEL // 2

    def even(row: Sequence[float]) -> _Folded:
        return tuple(complex((row[i] + row[n - i]) / 2) for i in range(h)) + (complex(row[h]),)

    def odd(row: Sequence[float]) -> _Folded:
        return tuple(complex((row[i] - row[n - i]) / 2) for i in range(h))

    rows = cumulative[1:h + 1]
    return (even(cumulative[n]), tuple(map(even, rows)), tuple(map(odd, rows)),
            even(even_top), odd(odd_top))


def _integrate(
    f: Sequence[complex], every_node: bool
) -> Tuple[List[complex], Tuple[complex, complex]]:
    """The cumulative rule on one panel's node values ``f``.

    Returns the integrals ``sum_i cumulative[j][i] f_i`` from the panel start
    to the nodes ``j = 1 .. N`` (to node ``N`` alone unless ``every_node``;
    row 0 is zero), and the trailing Chebyshev coefficients ``A_{N-1}`` and
    ``A_N`` of the interpolant.
    """
    whole, even, odd, even_top, odd_top = _folded_rule()
    h = NODES_PER_PANEL // 2
    pairs = list(zip(f[:h], f[:h:-1]))
    e = [a + b for a, b in pairs] + [f[h]]
    o = [a - b for a, b in pairs]
    trailing = sum(map(mul, odd_top, o)), sum(map(mul, even_top, e))
    w = sum(map(mul, whole, e))
    if not every_node:
        return [w], trailing
    pe = [sum(map(mul, row, e)) for row in even]
    qo = [sum(map(mul, row, o)) for row in odd]
    mirrored = [w - p + q for p, q in zip(pe[-2::-1], qo[-2::-1])]
    return list(map(add, pe, qo)) + mirrored + [w], trailing


_Branch = Optional[float]
_Inverse = Callable[[List[complex], _Branch], Tuple[List[complex], _Branch]]


def _inverse(cfg: ASConfig, level: int) -> _Inverse:
    """The level's inverse nonlinearity on one panel's nodes.

    It maps the node values and the branch state at the panel start to the
    inverse values and the branch state at its end.  Only a fractional power
    has a state: the argument of the last node it saw, from which it
    continues the logarithm along the path.  The state is passed in and
    returned, never kept, so a rejected panel is rolled back by not
    committing what it returned.
    """
    if cfg.nonlinearity != NL_POWER:
        return lambda ws, branch: (list(map(cmath.exp, ws)), branch)
    e = 1 / cfg.alpha(level)
    if e.denominator == 1:
        k = int(e)

        def integer_power(ws: List[complex], branch: _Branch) -> Tuple[List[complex], _Branch]:
            if k >= 0:
                return [w ** k for w in ws], branch
            # One pass that skips the nodes at a pole; NaN passes, as before.
            out = [w ** k for w in ws if not abs(w) < _TINY]
            if len(out) < len(ws):
                w = next(w for w in ws if abs(w) < _TINY)
                raise SingularityOnPath(f"argument {w!r} too close to a pole along the path")
            return out, branch

        return integer_power
    exponent = float(e)

    def fractional_power(ws: List[complex], branch: _Branch) -> Tuple[List[complex], _Branch]:
        out = []
        for w in ws:
            if not cmath.isfinite(w) or abs(w) < _TINY:
                raise SingularityOnPath(
                    f"argument {w!r} too close to the branch point along the path"
                )
            arg = cmath.phase(w)
            if branch is not None:
                arg += _TWO_PI * round((branch - arg) / _TWO_PI)
            branch = arg
            out.append(cmath.exp(exponent * complex(math.log(abs(w)), arg)))
        return out, branch

    return fractional_power


def eval_convergent_path(
    system: ApproximationSystem,
    code: Sequence[ASCoef],
    path: Sequence[complex],
    tol: float = DEFAULT_TOL,
) -> PathValue:
    """Evaluate the convergent with the given coefficient code at the end of
    ``path`` (a polyline starting at the system's center).

    Args:
        system: the approximation system the code came from.
        code: coefficients ``c_0 .. c_{n-1}``.
        path: complex waypoints; ``path[0]`` must equal the center.
        tol: bound on the accumulated quadrature error estimate: after
            every accepted panel the estimate is at most the tolerance's
            share of the path length covered, so the returned ``error`` is
            at most ``tol``.

    Raises:
        DomainError: ``tol`` not positive (or NaN), an empty path, a
            non-finite waypoint, a path not anchored at the center, or a
            coefficient of the wrong kind or beyond float range.
        SingularityOnPath: see module docs; also a value that overflows
            float range along the path.
        QuadratureFailure: tolerance unreachable within the panel budget or
            the halving depth.
    """
    if not tol > 0:
        raise DomainError(f"quadrature tolerance must be positive, got {tol}")
    cfg = system.config
    if not path:
        raise DomainError("path must contain at least the center")
    if not all(cmath.isfinite(p) for p in path):
        raise DomainError("path waypoints must be finite")
    x0 = complex(float(cfg.center))
    if abs(path[0] - x0) > 1e-15:
        raise DomainError(f"path starts at {path[0]}, system center is {x0}")
    conv = complex(float(cfg.constant_term))

    # Normalize the coefficient data per level.
    levels: List[Tuple[complex, int, Optional[complex]]] = []
    for k, coeff in enumerate(code):
        b = system.check_coefficient(coeff)
        c, m = (0, 0) if is_infinite(coeff.m) else (coeff.c, int(coeff.m))
        try:
            levels.append((complex(float(c)), m, None if b is None else complex(float(b))))
        except OverflowError:
            raise DomainError(f"coefficient {k} of the code is beyond float range") from None

    n = len(levels)
    segments = [
        (complex(a), complex(b)) for a, b in zip(path, path[1:]) if a != b
    ]
    if not segments:
        # Degenerate path: the value at the center.
        return PathValue(value=conv + 0j, error=0.0, panels=0)

    xi = _rule()[0]
    inverses = [_inverse(cfg, k) for k in range(n)]
    integral = cfg.transform != TRANSFORM_K
    length = sum(abs(b - a) for a, b in segments)
    # Committed state after the accepted panels: per level, the running
    # integral from the path start and the branch state.
    running = [0j] * n
    branch: List[_Branch] = [None] * n
    value, total_err, accepted, covered = conv, 0.0, 0, 0.0
    pending = [(a, b, 0) for a, b in reversed(segments)]

    while pending:
        a, b, halvings = pending.pop()
        half = 0.5 * (b - a)
        shifted = [0.5 * (a + b) - x0 + half * x for x in xi]
        tail = [conv] * len(xi)
        ends = list(running)
        branches = list(branch)
        err = 0.0
        try:
            # One bottom-up sweep of every level over this panel's nodes.
            for k in range(n - 1, -1, -1):
                c_k, m_k, b_k = levels[k]
                f, branches[k] = inverses[k](tail, branch[k])
                if m_k:
                    f = [s ** m_k * v for s, v in zip(shifted, f)]
                if not integral:
                    if not all(map(cmath.isfinite, f)):
                        err = math.nan
                    tail = [conv + c_k * v for v in f]
                    continue
                scale = half * c_k
                # Level 0 is read at the path's end only, so it needs node N alone.
                sums, trailing = _integrate(f, k > 0)
                err += abs(scale) * sum(map(abs, trailing))
                start = running[k]
                cums = [start + scale * s for s in sums]
                if k:
                    cums.insert(0, start)  # row 0 is zero: node 0 is the panel start
                ends[k] = cums[-1]
                tail = [conv + cum for cum in cums]
                if b_k is not None:
                    tail = [v + b_k * s for v, s in zip(tail, shifted[-len(tail):])]
        except OverflowError as exc:
            raise SingularityOnPath(f"overflow along the path ({exc})") from None
        # NaN and inf propagate through the weighted sums into the estimate,
        # so no panel is accepted or halved before every level is checked.
        if not math.isfinite(err):
            raise SingularityOnPath(f"non-finite value along the path from {a} to {b}")

        # The error so far may use the tolerance's share of the length so far,
        # so a panel may spend what the panels before it left unused.
        width = abs(b - a)
        if total_err + err <= tol * min(1.0, (covered + width) / length):
            running, branch = ends, branches
            value, total_err, accepted = tail[-1], total_err + err, accepted + 1
            covered += width
            continue
        if halvings >= _MAX_HALVINGS or accepted + len(pending) + 2 > _MAX_PANELS:
            raise QuadratureFailure(
                f"error estimate {total_err + err:.3e} above the share of tolerance "
                f"{tol:.3e} for the path covered, after {halvings} halvings of a panel, "
                f"with {accepted} panels accepted and {len(pending)} pending"
            )
        mid = 0.5 * (a + b)
        pending += [(mid, b, halvings + 1), (a, mid, halvings + 1)]

    if not cmath.isfinite(value):
        raise SingularityOnPath(f"non-finite value {value!r} at the end of the path")
    return PathValue(value=value, error=total_err, panels=accepted)
