"""Tests for numerical evaluation of approximation-system convergents along
paths in the complex plane, including analytic continuation of fractional
powers and the failure modes (poles on the path, exhausted panel budget)."""

import cmath
import math
import random
import sys
from fractions import Fraction

import pytest

from expansions import (
    ASCoef,
    ASConfig,
    ApproximationSystem,
    DomainError,
    PowerSeries,
    QuadratureFailure,
    SingularityOnPath,
    build_system,
    coefficient_code,
    constant_alpha,
    convergent,
    convergent_from_code,
    eval_convergent_path,
    evaluate_series,
    germ_from_polynomial,
    parse_expression,
)
from expansions import patheval
from expansions.patheval import NODES_PER_PANEL, _rule

F = Fraction


@pytest.fixture(autouse=True)
def error_within_tolerance(monkeypatch):
    """Every successful path evaluation in this module reports an error
    estimate within its tolerance."""

    def checked(system, code, path, tol=1e-10, **budgets):
        got = patheval.eval_convergent_path(system, code, path, tol, **budgets)
        assert got.error <= tol, (got, tol)
        return got

    monkeypatch.setattr(sys.modules[__name__], "eval_convergent_path", checked)


def binomial_germ(center: Fraction, alpha: Fraction, n: int, sign: int = 1) -> PowerSeries:
    coeffs, c = [], F(1)
    for k in range(n):
        coeffs.append(c * sign**k)
        c *= (alpha - k) / (k + 1)
    return PowerSeries.truncated(center, coeffs)


def test_evaluate_series() -> None:
    p = PowerSeries.exact_poly(0, [1, 0, -2])
    assert evaluate_series(p, 0.5) == pytest.approx(0.5)
    assert evaluate_series(p, 1j) == pytest.approx(3 + 0j)
    shifted = PowerSeries.exact_poly(1, [2, 1])
    assert evaluate_series(shifted, 1.25) == pytest.approx(2.25)


def test_real_segment_matches_exact_convergents() -> None:
    # Convergents of the inverse-square-root germ are polynomials, so the
    # quadrature along [0, 1/2] must land on their exact values.
    sysm = build_system("as-d-power-half")
    germ = binomial_germ(F(0), F(-1, 2), 64, sign=-1)
    code = coefficient_code(sysm, germ, 4)
    for n in range(1, 5):
        expected = evaluate_series(convergent(sysm, germ, n).value, 0.5)
        got = eval_convergent_path(sysm, code[:n], [0.0, 0.5])
        assert abs(got.value - expected) < 1e-10
        assert got.error < 1e-9
        assert got.panels >= 1
    # The depth-0 tower is the bare constant.
    empty = eval_convergent_path(sysm, [], [0.0, 0.5])
    assert empty.value == pytest.approx(1.0)


def test_polyline_and_complex_endpoint() -> None:
    sysm = build_system("as-d-power-half")
    germ = binomial_germ(F(0), F(-1, 2), 64, sign=-1)
    code = coefficient_code(sysm, germ, 3)
    direct = eval_convergent_path(sysm, code, [0.0, 0.3 + 0.2j])
    dogleg = eval_convergent_path(sysm, code, [0.0, 0.3, 0.3 + 0.2j])
    # Same endpoint, homotopic paths: the continuation agrees.
    assert abs(direct.value - dogleg.value) < 1e-9


def test_k_transform_pointwise() -> None:
    sysm = build_system("as-k-power-2")
    code = coefficient_code(sysm, germ_from_polynomial([1, 1, F(1, 4)]), 3)
    first = eval_convergent_path(sysm, code[:1], [0.0, 0.3])
    assert first.value == pytest.approx(1.3)
    third = eval_convergent_path(sysm, code[:3], [0.0, 0.3])
    expected = evaluate_series(convergent(sysm, germ_from_polynomial([1, 1, F(1, 4)]), 3).value, 0.3)
    assert abs(third.value - expected) < 1e-9


def test_square_root_loop_continuation() -> None:
    # The square-root germ at 1 continued around the origin: convergents of
    # increasing depth track the second branch value -1 ever more closely.
    cfg = ASConfig(transform="D", nonlinearity="power",
                   alphas=constant_alpha(-1), center=F(1))
    sysm = ApproximationSystem(cfg)
    germ = binomial_germ(F(1), F(1, 2), 64)
    code = coefficient_code(sysm, germ, 8)
    loop = [1, 1 + 1.5j, -1.6 + 1.5j, -1.6 - 1.5j, 1 - 1.5j, 1]
    dist = {}
    for n in (3, 6, 8):
        got = eval_convergent_path(sysm, code[:n], loop)
        assert got.error < 1e-9
        dist[n] = abs(got.value + 1)
    assert dist[8] < dist[6] < dist[3]
    assert dist[8] < 0.2


def test_singularity_on_path() -> None:
    # A straight run from 1 to -1 passes through the branch point at 0.
    cfg = ASConfig(transform="D", nonlinearity="power",
                   alphas=constant_alpha(-1), center=F(1))
    sysm = ApproximationSystem(cfg)
    germ = binomial_germ(F(1), F(1, 2), 64)
    code = coefficient_code(sysm, germ, 6)
    with pytest.raises(SingularityOnPath):
        eval_convergent_path(sysm, code, [1, -1])


def test_quadrature_budget_exhaustion() -> None:
    cfg = ASConfig(transform="D", nonlinearity="power",
                   alphas=constant_alpha(-1), center=F(1))
    sysm = ApproximationSystem(cfg)
    germ = binomial_germ(F(1), F(1, 2), 64)
    code = coefficient_code(sysm, germ, 6)
    loop = [1, 1 + 1.5j, -1.6 + 1.5j, -1.6 - 1.5j, 1 - 1.5j, 1]
    with pytest.raises(QuadratureFailure):
        eval_convergent_path(sysm, code, loop, tol=1e-30, max_panels=4, max_rounds=3)


def test_a_rejected_panel_rolls_back_the_branch_state() -> None:
    # as-kd-power-3 inverts with w^(1/3), whose logarithm is continued node by
    # node.  This loop halves its segments, so rejected panels advance the
    # branch state of that level; the accepted panels must not see it.
    sysm = build_system("as-kd-power-3")
    code = coefficient_code(sysm, parse_expression("exp(x)", "series", order=32), 3)
    path = [0, 2 + 2j, -2 + 2j, -2 - 2j, 0]
    got = eval_convergent_path(sysm, code, path, tol=1e-12)
    assert got.panels > len(path) - 1
    assert abs(got.value - (0.26976634619251816 + 0.04582402886649488j)) < 1e-10
    # the same path with every segment split at its midpoint
    split = path[:1] + [z for a, b in zip(path, path[1:]) for z in (0.5 * (a + b), b)]
    assert abs(eval_convergent_path(sysm, code, split, tol=1e-12).value - got.value) < 1e-10


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_a_panel_near_a_pole_spends_what_the_panels_before_it_left(tol) -> None:
    # exp(x) under D / power -1 is the tower 1 + int 1/(1 - log(1 + t)), whose
    # integrand has a pole at e - 1.  Close to it, rounding alone keeps a
    # panel's estimate above its length share of the tolerance at any width;
    # the smooth panels before it used almost none of theirs.
    sysm = ApproximationSystem(ASConfig(transform="D", nonlinearity="power",
                                        alphas=constant_alpha(-1)))
    code = coefficient_code(sysm, parse_expression("exp(x)", "series", order=32), 3)
    got = eval_convergent_path(sysm, code, [0, 1.718], tol=tol)
    # mpmath.quad at 30 digits
    assert abs(got.value - 23.772852397775048) < 1e-11


def test_wrong_coefficient_kind_is_a_domain_error() -> None:
    # An integer is no coefficient at all; the KD tower needs the derivative
    # term b and the D and K towers carry none.  The path evaluation refuses
    # each, as reconstruct does, and takes the right kind.
    with pytest.raises(DomainError):
        eval_convergent_path(build_system("as-d-power-half"), [3], [0, 0.5])
    with_b, without_b = ASCoef(c=F(1), m=1, b=F(2)), ASCoef(c=F(1), m=1)
    for system_id, wrong, right in (("as-d-power-half", with_b, without_b),
                                    ("as-k-power-2", with_b, without_b),
                                    ("as-kd-power-3", without_b, with_b)):
        sysm = build_system(system_id)
        with pytest.raises(DomainError):
            eval_convergent_path(sysm, [wrong], [0, 0.5])
        with pytest.raises(DomainError):
            sysm.reconstruct(0, wrong, sysm.neutral(1))
        eval_convergent_path(sysm, [right], [0, 0.5])
        assert sysm.reconstruct(0, right, sysm.neutral(1)) is not None


INV_SQRT_SCALES = (F(1), F(1, 2), F(3, 4), F(-1, 2), F(2, 3))


def test_inverse_square_root_convergents_match_exact_polynomials() -> None:
    # Every as-d-power-half convergent of (1 - s x)^(-1/2) is a polynomial
    # (degree 2^n - 1), so the exact backward pass is a reference the
    # quadrature never sees.
    sysm = build_system("as-d-power-half")
    rng = random.Random(12)
    for s in INV_SQRT_SCALES:
        germ = parse_expression(f"sqrt(1/(1 - ({s})*x))", "series", order=40)
        code = coefficient_code(sysm, germ, 6)
        for n in range(1, 7):
            exact = convergent_from_code(sysm, code[:n]).value
            for _ in range(2):
                z = cmath.rect(0.6 * rng.random() ** 0.5, rng.uniform(0, 2 * cmath.pi))
                got = eval_convergent_path(sysm, code[:n], [0, z])
                assert abs(got.value - evaluate_series(exact, z)) < 1e-12, (s, n, z)


def tower_by_ode(system: ApproximationSystem, code: list, path: list) -> list:
    """Values at the end of ``path`` of every level of the D/power tower of
    ``code``, solved as the ODE system y_k' = c_k (x-x0)^m_k y_{k+1}^(1/alpha_k)
    (y_n = 1, y_k(x0) = 1) with mpmath's Taylor-series integrator, one
    segment at a time.  Only integer 1/alpha_k, so no branch is chosen."""
    mpmath = pytest.importorskip("mpmath")
    cfg = system.config

    def mpf(q: Fraction):
        return mpmath.mpf(q.numerator) / q.denominator

    x0 = mpf(cfg.center)
    levels = [(mpf(c.c), int(c.m), int(1 / cfg.alpha(k))) for k, c in enumerate(code)]
    y = [mpmath.mpc(1)] * len(code)
    for a, b in zip(path, path[1:]):
        a, b = mpmath.mpc(a), mpmath.mpc(b)

        def rhs(s, ys, a=a, b=b):
            x = a + s * (b - a)
            tail = list(ys[1:]) + [1]
            return [(b - a) * c * (x - x0) ** m * w ** e
                    for (c, m, e), w in zip(levels, tail)]

        y = mpmath.odefun(rhs, 0, y)(1)
    return [complex(v) for v in y]


def test_square_root_loop_matches_ode_solution() -> None:
    # The criterion-12 loop: the square root at 1 carried around the origin
    # by the D / power -1 system.
    cfg = ASConfig(transform="D", nonlinearity="power",
                   alphas=constant_alpha(-1), center=F(1))
    sysm = ApproximationSystem(cfg)
    code = coefficient_code(sysm, binomial_germ(F(1), F(1, 2), 64), 4)
    loop = [1, 1 + 1.5j, -1.6 + 1.5j, -1.6 - 1.5j, 1 - 1.5j, 1]
    # Every level of this code is the same, so level k of the depth-4 tower
    # is the top of the depth-(4-k) tower: one solve gives all four.
    assert len(set(code)) == 1
    reference = tower_by_ode(sysm, code, loop)[::-1]
    # Depth 2 has a closed form: 1 + log((x+1)/2), once around -1.
    assert abs(reference[1] - (1 + 2j * cmath.pi)) < 1e-14
    for n in range(1, 5):
        got = eval_convergent_path(sysm, code[:n], loop)
        assert abs(got.value - reference[n - 1]) < 1e-12, n


def test_cumulative_rule_integrates_polynomials_exactly() -> None:
    # On one panel the rule is exact for degree <= NODES_PER_PANEL, and its
    # two trailing rows read off the top Chebyshev coefficients.
    xi, cumulative, trailing = _rule()
    n = NODES_PER_PANEL
    for d in range(n + 1):
        values = [x**d for x in xi]
        for x, row in zip(xi, cumulative):
            exact = (x ** (d + 1) - (-1) ** (d + 1)) / (d + 1)
            assert abs(sum(w * v for w, v in zip(row, values)) - exact) < 1e-14, d
    for k in range(n + 1):
        values = [math.cos(k * math.acos(x)) for x in xi]  # T_k at the nodes
        top = [sum(w * v for w, v in zip(row, values)) for row in trailing]
        assert top == pytest.approx([float(k == n - 1), float(k == n)], abs=1e-14), k


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), -math.inf])
def test_tolerance_that_cannot_be_met_is_a_domain_error(tol) -> None:
    # refused before any quadrature, and before the degenerate-path shortcut
    sysm = build_system("as-d-power-half")
    code = coefficient_code(sysm, parse_expression("sqrt(1/(1 - x))", "series", order=16), 3)
    for path in ([0, 0.5], [0], [0, 0]):
        with pytest.raises(DomainError):
            eval_convergent_path(sysm, code, path, tol=tol)
