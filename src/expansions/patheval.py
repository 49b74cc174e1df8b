"""Numerical evaluation of approximation-system convergents along paths.

A convergent of a ``D``/``KD`` system is a tower of integrals

    y_k(x) = const [+ b_k (x - x0)] + integral_{x0}^{x} c_k (t-x0)^{m_k} U_k(y_{k+1}(t)) dt

so evaluating it away from the center means integrating along a path — and
for fractional inverse exponents ``U_k(w) = w**(1/alpha_k)`` the power must be
continued analytically along that path, not computed on the principal branch.

The evaluator shares one adaptive panel subdivision of the polyline across
all levels of the tower.  Every panel carries the same Chebyshev–Lobatto
nodes, so "integrand values at the nodes -> running integral at the nodes"
(interpolate, integrate from the panel start, evaluate) is one fixed linear
map: the cumulative Clenshaw–Curtis rule (Trefethen, "Is Gauss quadrature
better than Clenshaw–Curtis?", SIAM Review 50(1), 2008).  Its weights come
from the closed form of ``integral_{-1}^{cos theta} T_k`` and are built once,
on first use.  One bottom-up sweep evaluates every level at every node with
one weighted sum per node.  A naive recursive quadrature would re-evaluate
the whole tower beneath every node and cost ``nodes**depth``; the shared
sweep costs ``nodes * panels * depth``.

Error control is the standard trailing-coefficient estimate: the last two
Chebyshev coefficients of each panel's interpolant (two more fixed weight
rows), summed over panels and levels; panels that carry too much of it are
halved and the sweep rerun.  Numerically vanishing arguments to a fractional
power, a log-branch argument, or a reciprocal raise
:class:`~expansions.errors.SingularityOnPath`; failure to meet the tolerance
within the panel budget raises :class:`~expansions.errors.QuadratureFailure`.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, List, Optional, Sequence, Tuple

from .approx import ASConfig, ApproximationSystem, NL_POWER, TRANSFORM_K
from .coefficients import ASCoef, is_infinite
from .errors import DomainError, QuadratureFailure, SingularityOnPath
from .series import PowerSeries

_TWO_PI = 2 * math.pi
_TINY = 1e-9

#: Each panel carries the Lobatto nodes ``-cos(pi j / NODES_PER_PANEL)``,
#: ``j = 0 .. NODES_PER_PANEL``.
NODES_PER_PANEL = 32


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
            0.6 of 0) reach ``|value - exact| <= 2e-16`` at ``error <= 4e-15``;
            the criterion-12 loop (depths 1-4) reaches ``|value - ODE
            solution| <= 5e-16`` at ``error <= 1e-12``.
        panels: number of panels in the final subdivision.
    """

    value: complex
    error: float
    panels: int


def evaluate_series(series: PowerSeries, z: complex) -> complex:
    """Horner evaluation of the stored coefficients at ``z``."""
    acc = 0j
    for c in reversed(series.coeffs):
        acc = acc * (z - complex(float(series.center))) + complex(float(c))
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


def _check_finite(w: complex) -> complex:
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise SingularityOnPath(f"non-finite value {w!r} along the path")
    return w


def _inverse(cfg: ASConfig, level: int) -> Callable[[complex], complex]:
    """The level's inverse nonlinearity.  A fractional power continues its
    logarithm along the ordered stream of nodes it is called on."""
    if cfg.nonlinearity != NL_POWER:
        return lambda w: _check_finite(cmath.exp(w))
    e = 1 / cfg.alpha(level)
    if e.denominator == 1:
        k = int(e)

        def integer_power(w: complex) -> complex:
            if k < 0 and abs(w) < _TINY:
                raise SingularityOnPath(
                    f"argument {w!r} too close to a pole along the path"
                )
            return _check_finite(w ** k)

        return integer_power
    exponent = float(e)
    last_arg: Optional[float] = None

    def fractional_power(w: complex) -> complex:
        nonlocal last_arg
        if not (math.isfinite(w.real) and math.isfinite(w.imag)) or abs(w) < _TINY:
            raise SingularityOnPath(
                f"argument {w!r} too close to the branch point along the path"
            )
        arg = cmath.phase(w)
        if last_arg is not None:
            arg += _TWO_PI * round((last_arg - arg) / _TWO_PI)
        last_arg = arg
        return _check_finite(cmath.exp(exponent * complex(math.log(abs(w)), arg)))

    return fractional_power


def eval_convergent_path(
    system: ApproximationSystem,
    code: Sequence[ASCoef],
    path: Sequence[complex],
    tol: float = 1e-10,
    max_panels: int = 8192,
    max_rounds: int = 60,
) -> PathValue:
    """Evaluate the convergent with the given coefficient code at the end of
    ``path`` (a polyline starting at the system's center).

    Args:
        system: the approximation system the code came from.
        code: coefficients ``c_0 .. c_{n-1}``.
        path: complex waypoints; ``path[0]`` must equal the center.
        tol: target for the accumulated quadrature error estimate.

    Raises:
        DomainError: ``tol`` not positive (or NaN), an empty path, a
            non-finite waypoint, a path not anchored at the center, or a
            coefficient of the wrong kind or beyond float range.
        SingularityOnPath: see module docs; also a value that overflows
            float range along the path.
        QuadratureFailure: tolerance unreachable within the panel budget.
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

    panels: List[Tuple[complex, complex]] = list(segments)
    xi, cumulative, trailing = _rule()

    for _ in range(max_rounds):
        # One bottom-up sweep over the shared panel subdivision.
        node_points: List[List[complex]] = [
            [0.5 * (a + b) + 0.5 * (b - a) * x for x in xi] for a, b in panels
        ]
        tail_values: List[List[complex]] = [[conv] * len(xi) for _ in panels]
        total_err = 0.0
        panel_err = [0.0] * len(panels)

        try:
            for k in range(n - 1, -1, -1):
                c_k, m_k, b_k = levels[k]
                inverse = _inverse(cfg, k)
                out_panels: List[List[complex]] = []
                running = 0j  # cumulative integral from the path start
                for p, (a, b) in enumerate(panels):
                    pts = node_points[p]
                    integrand = [
                        c_k * (z - x0) ** m_k * inverse(w)
                        for z, w in zip(pts, tail_values[p])
                    ]
                    if cfg.transform == TRANSFORM_K:
                        out_panels.append([conv + v for v in integrand])
                        continue
                    half = 0.5 * (b - a)
                    err = abs(half) * sum(
                        abs(sum(map(mul, row, integrand))) for row in trailing
                    )
                    panel_err[p] = max(panel_err[p], err)
                    total_err += err
                    cums = [
                        running + half * sum(map(mul, row, integrand)) for row in cumulative
                    ]
                    running = cums[-1]
                    vals = [conv + cum for cum in cums]
                    if b_k is not None:
                        vals = [v + b_k * (z - x0) for v, z in zip(vals, pts)]
                    out_panels.append(vals)
                tail_values = out_panels
        except OverflowError as exc:
            raise SingularityOnPath(f"overflow along the path ({exc})") from None

        if total_err <= tol or cfg.transform == TRANSFORM_K:
            return PathValue(
                value=tail_values[-1][-1], error=total_err, panels=len(panels)
            )

        # Halve the panels that carry more than their share of the estimate.
        budget = tol / (2 * max(len(panels), 1))
        refined: List[Tuple[complex, complex]] = []
        for (a, b), err in zip(panels, panel_err):
            if err > budget:
                mid = 0.5 * (a + b)
                refined.extend([(a, mid), (mid, b)])
            else:
                refined.append((a, b))
        if len(refined) == len(panels) or len(refined) > max_panels:
            raise QuadratureFailure(
                f"error estimate {total_err:.3e} above tolerance {tol:.3e} "
                f"with {len(panels)} panels"
            )
        panels = refined

    raise QuadratureFailure(
        f"tolerance {tol:.3e} not reached after {max_rounds} refinement rounds"
    )
