"""Empirical convergence, monotonicity and separation reports, with export.

Reports are sample-based evidence, not proofs: a convergence report tabulates
distances between an element and its convergents under an explicitly named
metric; monotonicity and separation checks classify what the samples show and
surface witnesses for violations.

Rendering conventions (shared with the CLI): rationals as ``p/q``, certified
reals as ``[lo,hi]`` with outward-rounded decimal endpoints, complex values as
``re+im i``, infinite coefficients as ``inf``.  Floating output only appears
for inherently floating data (path-evaluation metrics) or on request via
``approx_digits``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Any, List, Optional, Sequence, Tuple

from .approx import ApproximationSystem
from .certified import Interval
from .coefficients import ASCoef, ComplexRational, _Infinity
from .core import (
    ORDER_NONE,
    ORDER_REVERSED,
    ExpansionSystem,
    OrderResult,
    coefficient_code,
    convergent,
    convergent_from_code,
    order_of,
)
from .errors import DomainError, UnsupportedInContext
from .patheval import eval_convergent_path, evaluate_series

# -- value rendering ---------------------------------------------------------

#: Significant digits used for interval endpoints when no precision is asked.
_INTERVAL_DIGITS = 12


def _decimal_str(value: Fraction, digits: int, rounding: str) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = rounding
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return str(quotient)


def render_value(value: Any, approx_digits: Optional[int] = None) -> str:
    """Render any report-visible value deterministically as text."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, _Infinity):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if approx_digits is not None:
            return _decimal_str(value, approx_digits, ROUND_HALF_EVEN)
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Interval):
        digits = approx_digits if approx_digits is not None else _INTERVAL_DIGITS
        lo = _decimal_str(value.lo, digits, ROUND_FLOOR)
        hi = _decimal_str(value.hi, digits, ROUND_CEILING)
        return f"[{lo},{hi}]"
    if isinstance(value, ComplexRational):
        if approx_digits is None:
            return str(value)
        re = _decimal_str(value.re, approx_digits, ROUND_HALF_EVEN)
        if not value.im:  # a zero imaginary part is dropped, as str() does
            return re
        im = _decimal_str(value.im, approx_digits, ROUND_HALF_EVEN)
        sign = "+" if not im.startswith("-") else ""
        return f"{re}{sign}{im} i"
    if isinstance(value, ASCoef):
        parts = [render_value(value.c, approx_digits), render_value(value.m, approx_digits)]
        if value.b is not None:
            parts.insert(0, render_value(value.b, approx_digits))
        return "(" + ",".join(parts) + ")"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, complex):
        sign = "+" if value.imag >= 0 else ""
        return f"{value.real!r}{sign}{value.imag!r} i"
    if isinstance(value, tuple):
        return "(" + ",".join(render_value(v, approx_digits) for v in value) + ")"
    return str(value)


# -- convergence reports -----------------------------------------------------

#: metric id -> element kinds it applies to; :func:`convergence_report`
#: defaults to the first that applies.  coeff-head re-expands each convergent
#: 8 levels deep, which a truncated germ cannot certify past n = 0, so germs
#: take grid-sup.
METRICS = {
    "abs": ("real",),
    "coeff-head": ("real", "series", "polynomial", "trig"),
    "grid-sup": ("germ",),
}


@dataclass(frozen=True)
class ReportRow:
    n: int
    proper: bool
    distance: Optional[Any]
    coeffs: Tuple[Any, ...]


@dataclass(frozen=True)
class ConvergenceReport:
    system_id: str
    element: str
    metric_id: str
    rows: Tuple[ReportRow, ...]


def _abs_distance(y: Any, approximant: Any) -> Any:
    diff = y - approximant
    if isinstance(diff, Interval):
        return diff.abs().hi
    return abs(diff)


def _coeff_head_distance(
    system: ExpansionSystem, mine: Sequence[Any], approximant: Any
) -> Fraction:
    """Distance ``2^-k`` from the first coefficient ``k`` at which the
    approximant's code leaves ``mine``, the element's own code."""
    probe_depth = len(mine)
    theirs = coefficient_code(system, approximant, probe_depth)
    for k in range(probe_depth):
        if mine[k] != theirs[k]:
            return Fraction(1, 2 ** k)
    return Fraction(0)


#: points of [0, 1/2] where ``grid-sup`` compares a germ with its convergent,
#: and the quadrature tolerance of the path evaluation there
GRID_SUP_POINTS = tuple(complex(j / 16) for j in range(9))
GRID_SUP_TOL = 1e-9


def _grid_sup_distance(system: ApproximationSystem, y: Any, code: Sequence[Any]) -> float:
    worst = 0.0
    center = complex(system.config.center)
    for point in GRID_SUP_POINTS:
        reference = evaluate_series(y, point)
        approx = eval_convergent_path(system, code, [center, point], tol=GRID_SUP_TOL).value
        worst = max(worst, abs(reference - approx))
    return worst


def convergence_report(
    system: ExpansionSystem, y: Any, n_max: int, metric: Optional[str] = None
) -> ConvergenceReport:
    """Tabulate distance(y, y^[n]) for n = 0..n_max under the named metric.

    Improper rows carry no distance.  The metric must match the system's
    element kind; without one, the first in :data:`METRICS` that does.
    """
    if metric is None:
        metric = next((m for m, kinds in METRICS.items() if system.kind in kinds), "abs")
    if metric not in METRICS:
        raise DomainError(f"unknown metric {metric!r}")
    if system.kind not in METRICS[metric]:
        raise DomainError(
            f"metric {metric!r} does not apply to {system.kind!r} elements"
        )
    if n_max < 0:
        raise DomainError(f"negative n_max {n_max}")
    # coeff-head compares codes 8 coefficients past the deepest convergent
    code = coefficient_code(system, y, n_max + 8 if metric == "coeff-head" else n_max)
    rows: List[ReportRow] = []
    for n in range(n_max + 1):
        trace = convergent_from_code(system, code[:n])
        head = tuple(code[: min(n, 8)])
        if not trace.proper:
            rows.append(ReportRow(n=n, proper=False, distance=None, coeffs=head))
            continue
        if metric == "abs":
            distance: Any = _abs_distance(y, trace.value)
        elif metric == "coeff-head":
            distance = _coeff_head_distance(system, code, trace.value)
        else:
            distance = _grid_sup_distance(system, y, code[:n])  # type: ignore[arg-type]
        rows.append(ReportRow(n=n, proper=True, distance=distance, coeffs=head))
    return ConvergenceReport(
        system_id=system.name,
        element=render_value(y),
        metric_id=metric,
        rows=tuple(rows),
    )


# -- monotonicity ------------------------------------------------------------

INCREASING = "increasing"
DECREASING = "decreasing"
VIOLATED = "violated"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class LevelClassification:
    level: int
    label: str
    observations: int
    witness: Optional[str] = None


@dataclass(frozen=True)
class MonotonicityReport:
    system_id: str
    levels: Tuple[LevelClassification, ...]

    @property
    def monotonic(self) -> bool:
        return all(lv.label in (INCREASING, DECREASING) for lv in self.levels)


def monotonicity_check(
    system: ExpansionSystem, pairs: Sequence[Tuple[Any, Any]], depth: int
) -> MonotonicityReport:
    """Classify each level's projection/expansion pair on ordered samples.

    Each pair must satisfy ``y < y'`` in the carrier order.  A pair
    contributes to level ``i+1`` only while its stages stay in the same
    coefficient fiber, re-ordered after each expansion step; coefficients are
    compared in the system's declared order.
    """
    if system.coefficient_order_kind == ORDER_NONE:
        raise UnsupportedInContext(
            f"{system.name} has unordered coefficients; monotonicity undefined"
        )
    reversed_order = system.coefficient_order_kind == ORDER_REVERSED
    up: List[Optional[str]] = [None] * depth
    down: List[Optional[str]] = [None] * depth
    counts = [0] * depth
    for idx, (y_small, y_large) in enumerate(pairs):
        if not y_small < y_large:
            raise DomainError(f"pair {idx} is not strictly ordered")
        a, b = y_small, y_large
        for i in range(depth):
            ca, cb = system.project(i, a), system.project(i, b)
            counts[i] += 1
            if ca != cb:
                tag = f"pair {idx} level {i}: P({a}) = {ca} vs P({b}) = {cb}"
                if (ca < cb) != reversed_order:
                    up[i] = up[i] or tag
                else:
                    down[i] = down[i] or tag
                break
            ea, eb = system.expand(i, a), system.expand(i, b)
            if system.elements_equal(i + 1, ea, eb):
                break
            tag = f"pair {idx} level {i}: E({a}) = {ea} vs E({b}) = {eb}"
            if ea < eb:
                if up[i] is None:
                    up[i] = tag
                a, b = ea, eb
            else:
                if down[i] is None:
                    down[i] = tag
                a, b = eb, ea
    levels = []
    for i in range(depth):
        if counts[i] == 0:
            levels.append(LevelClassification(i, INDETERMINATE, 0))
        elif up[i] and down[i]:
            levels.append(
                LevelClassification(i, VIOLATED, counts[i], f"{up[i]} / {down[i]}")
            )
        elif up[i]:
            levels.append(LevelClassification(i, INCREASING, counts[i]))
        elif down[i]:
            levels.append(LevelClassification(i, DECREASING, counts[i]))
        else:
            levels.append(LevelClassification(i, INDETERMINATE, counts[i]))
    return MonotonicityReport(system_id=system.name, levels=tuple(levels))


# -- separation --------------------------------------------------------------


@dataclass(frozen=True)
class SeparationRow:
    pair_index: int
    first_level: Optional[int]


@dataclass(frozen=True)
class SeparationReport:
    system_id: str
    depth: int
    rows: Tuple[SeparationRow, ...]

    @property
    def all_separated(self) -> bool:
        return all(r.first_level is not None for r in self.rows)


def separation_check(
    system: ExpansionSystem, pairs: Sequence[Tuple[Any, Any]], depth: int
) -> SeparationReport:
    """First level at which each pair's coefficients differ, if any."""
    rows = []
    for idx, (y, y_prime) in enumerate(pairs):
        if system.elements_equal(0, y, y_prime):
            raise DomainError(f"pair {idx} is not a pair of distinct elements")
        code_a = coefficient_code(system, y, depth)
        code_b = coefficient_code(system, y_prime, depth)
        first = None
        for i in range(depth):
            if code_a[i] != code_b[i]:
                first = i
                break
        rows.append(SeparationRow(pair_index=idx, first_level=first))
    return SeparationReport(system_id=system.name, depth=depth, rows=tuple(rows))


#: deepest convergent of the midpoint that :func:`finite_order_witness` tries
_WITNESS_MAX_DEPTH = 64


def finite_order_witness(
    system: ExpansionSystem, a: Any, b: Any
) -> Tuple[Any, OrderResult]:
    """Find a finite-order element strictly between ``a`` and ``b``.

    Walks the convergents of the midpoint until one lands strictly inside
    the interval; on rational inputs to the terminating real systems this
    always happens by the midpoint's own (finite) order.
    """
    if not a < b:
        raise DomainError("witness search needs a < b")
    mid = (a + b) / 2
    for n in range(1, _WITNESS_MAX_DEPTH + 1):
        trace = convergent(system, mid, n)
        if not trace.proper:
            continue
        w = trace.value
        if a < w < b:
            result = order_of(system, w, n + 4)
            if result.finite:
                return w, result
    raise DomainError(
        f"no finite-order element found in ({a}, {b}) to depth {_WITNESS_MAX_DEPTH}"
    )


# -- export ------------------------------------------------------------------


def _csv_cell(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def render_csv(report: ConvergenceReport, approx_digits: Optional[int] = None) -> str:
    """CSV rendering: header ``n,proper,distance,coeffs``; improper rows have
    an empty distance; the coeffs cell holds the first min(n,8) coefficients."""
    lines = ["n,proper,distance,coeffs"]
    for row in report.rows:
        distance = (
            "" if row.distance is None
            else _csv_cell(render_value(row.distance, approx_digits))
        )
        coeffs = _csv_cell(
            " ".join(render_value(c, approx_digits) for c in row.coeffs)
        )
        lines.append(f"{row.n},{render_value(row.proper)},{distance},{coeffs}")
    return "\n".join(lines) + "\n"


def _jsonable(report: ConvergenceReport, approx_digits: Optional[int]) -> dict:
    return {
        "system_id": report.system_id,
        "element": report.element,
        "metric_id": report.metric_id,
        "rows": [
            {
                "n": row.n,
                "proper": row.proper,
                "distance": (
                    None if row.distance is None
                    else render_value(row.distance, approx_digits)
                ),
                "coeffs": [render_value(c, approx_digits) for c in row.coeffs],
            }
            for row in report.rows
        ],
    }


def render_json(report: ConvergenceReport, approx_digits: Optional[int] = None) -> str:
    """Deterministic JSON rendering; re-exporting the parsed form is
    byte-identical because every value is already a string."""
    return json.dumps(
        _jsonable(report, approx_digits), sort_keys=True, separators=(",", ": "),
        indent=1,
    ) + "\n"


def export(
    report: ConvergenceReport,
    fmt: str,
    path: str,
    approx_digits: Optional[int] = None,
) -> None:
    """Write a report to ``path`` as ``csv`` or ``json``."""
    if fmt == "csv":
        text = render_csv(report, approx_digits)
    elif fmt == "json":
        text = render_json(report, approx_digits)
    else:
        raise DomainError(f"unknown export format {fmt!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
