"""Tests for the analysis toolbox: convergence reports, monotonicity and
separation checks, finite-order witnesses, and deterministic export."""

import json
import random
from fractions import Fraction

import pytest

from expansions import (
    ASCoef,
    BaseSystem,
    ComplexRational,
    ContinuedFractionSystem,
    ConvergenceReport,
    DomainError,
    EgyptianSystem,
    EngelSystem,
    FourierSystem,
    INF,
    Interval,
    NormTaylorSystem,
    Polynomial,
    PowerSeries,
    TaylorSystem,
    TrigPolynomial,
    UnsupportedInContext,
    build_system,
    convergence_report,
    export,
    finite_order_witness,
    monotonicity_check,
    render_csv,
    render_json,
    render_value,
    separation_check,
)

F = Fraction

PI_FRAC_60 = F(141592653589793238462643383279502884197169399375105820974944, 10**60)


def ordered_pairs(seed: int, count: int) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = rng.randrange(3, 400)
        a = F(rng.randrange(1, q - 1), q)
        b = a + F(1, rng.randrange(2, 50) * q)
        if b < 1:
            out.append((a, b))
    return out


def test_decimal_distances_exact() -> None:
    report = convergence_report(BaseSystem(10), F(1, 3), 6)
    assert len(report.rows) == 7
    for n, row in enumerate(report.rows):
        assert row.n == n and row.proper
        assert row.distance == F(1, 3) / 10**n
        assert row.coeffs == tuple([3] * min(n, 8))


def test_distance_zero_from_finite_order() -> None:
    report = convergence_report(BaseSystem(10), F(3, 8), 8)
    for row in report.rows:
        if row.n >= 3:
            assert row.distance == 0
        else:
            assert row.distance > 0


def test_cf_pi_distances_strictly_decreasing() -> None:
    report = convergence_report(ContinuedFractionSystem(), PI_FRAC_60, 5)
    # Prefixes ending in partial quotient 1 ([7,15,1] and [7,15,1,292,1])
    # decode improperly with a neutral tail — the usual tail ambiguity — so
    # rows 3 and 5 carry no distance and the decrease runs over the rest.
    assert [row.n for row in report.rows if not row.proper] == [3, 5]
    distances = [row.distance for row in report.rows if row.proper]
    assert all(a > b for a, b in zip(distances, distances[1:]))
    assert distances[-1] < F(1, 10**8)


def test_improper_rows_carry_no_distance() -> None:
    fixture = Polynomial.of(F(1, 2), 1, -1, 1, -1)
    report = convergence_report(NormTaylorSystem(), fixture, 5, metric="coeff-head")
    flags = [(row.proper, row.distance is None) for row in report.rows]
    assert [f[0] for f in flags] == [True, True, False, True, False, True]
    for proper, no_distance in flags:
        assert proper != no_distance
    csv = render_csv(report)
    improper_line = csv.splitlines()[3]
    assert improper_line.startswith("2,false,,")


def test_grid_sup_metric() -> None:
    sysm = build_system("as-d-power-half")
    coeffs, c = [], F(1)
    for k in range(64):
        coeffs.append(c * (-1) ** k)
        c *= (F(-1, 2) - k) / (k + 1)
    germ = PowerSeries.truncated(0, coeffs)
    report = convergence_report(sysm, germ, 4, metric="grid-sup")
    distances = [row.distance for row in report.rows]
    assert all(isinstance(d, float) for d in distances)
    assert distances[4] < distances[1]
    with pytest.raises(DomainError):
        convergence_report(BaseSystem(10), F(1, 3), 2, metric="grid-sup")


@pytest.mark.parametrize("system_id, y, metric", [
    ("cf", F(7, 10), "abs"),
    ("newton-forward", Polynomial.of(1, 2, 3), "coeff-head"),
    ("as-d-power-half", PowerSeries.of(1, 1, 1), "grid-sup"),
])
def test_default_metric_is_the_first_that_applies(system_id, y, metric) -> None:
    # the same rule as the CLI's report: the first METRICS entry for the kind
    report = convergence_report(build_system(system_id), y, 2)
    assert report.metric_id == metric
    assert report == convergence_report(build_system(system_id), y, 2, metric)


def test_metric_validation() -> None:
    with pytest.raises(DomainError):
        convergence_report(BaseSystem(10), F(1, 3), 2, metric="nope")
    with pytest.raises(DomainError):
        convergence_report(TaylorSystem(), PowerSeries.exact_poly(0, [1]), 2,
                           metric="abs")
    with pytest.raises(DomainError):
        convergence_report(BaseSystem(10), F(1, 3), -1)


def test_monotonicity_labels() -> None:
    # The unit-fraction systems declare the reversed coefficient order, under
    # which their coefficient maps are increasing like the positional ones;
    # continued fractions keep the standard order and classify decreasing.
    for sysm, label in [
        (BaseSystem(10), "increasing"),
        (EngelSystem(), "increasing"),
        (EgyptianSystem(), "increasing"),
        (ContinuedFractionSystem(), "decreasing"),
    ]:
        report = monotonicity_check(sysm, ordered_pairs(701, 500), 4)
        assert report.monotonic, sysm.name
        assert [lv.label for lv in report.levels] == [label] * 4


def test_monotonicity_violated_with_witness() -> None:
    shuffled = build_system("base10-shuffled")
    # sigma = 3d mod 10 sends 3,4 to 9,2 (order-breaking) and 0,1 to 0,3
    # (order-keeping): one pair of each makes level 0 outright violated.
    pairs = [(F(3, 10) + F(1, 100), F(4, 10) + F(1, 100)),
             (F(1, 100), F(1, 10) + F(1, 100))]
    report = monotonicity_check(shuffled, pairs, 2)
    assert not report.monotonic
    level0 = report.levels[0]
    assert level0.label == "violated"
    assert level0.witness


def test_monotonicity_needs_an_order() -> None:
    with pytest.raises(UnsupportedInContext):
        monotonicity_check(FourierSystem(), [], 2)
    with pytest.raises(UnsupportedInContext):
        monotonicity_check(build_system("as-d-power-half"), [], 2)
    with pytest.raises(DomainError):
        monotonicity_check(BaseSystem(10), [(F(1, 2), F(1, 3))], 2)


def test_separation() -> None:
    sysm = BaseSystem(10)
    report = separation_check(sysm, [(F(1, 3), F(1, 3) + F(1, 10**7))], 10)
    assert report.rows[0].first_level == 6
    assert report.all_separated

    # Distinct elements can coincide to the probed depth.
    shallow = separation_check(sysm, [(F(1, 3), F(1, 3) + F(1, 10**7))], 4)
    assert shallow.rows[0].first_level is None
    assert not shallow.all_separated

    with pytest.raises(DomainError):
        separation_check(sysm, [(F(1, 3), F(1, 3))], 4)

    one = ComplexRational.of(1)
    a = TrigPolynomial.of({0: one, 3: one})
    b = TrigPolynomial.of({0: one, 3: ComplexRational.of(2)})
    trig = separation_check(FourierSystem(), [(a, b)], 6)
    assert trig.rows[0].first_level == 3


def test_finite_order_witness() -> None:
    rng = random.Random(702)
    systems = [BaseSystem(10), ContinuedFractionSystem(), EgyptianSystem(),
               EngelSystem()]
    for sysm in systems:
        for _ in range(50):
            q = rng.randrange(3, 2000)
            a = F(rng.randrange(1, q - 1), q)
            b = a + F(1, rng.randrange(2, 200))
            if b >= 1:
                continue
            witness, order = finite_order_witness(sysm, a, b)
            assert a < witness < b
            assert order.finite
    with pytest.raises(DomainError):
        finite_order_witness(BaseSystem(10), F(1, 2), F(1, 3))


def test_csv_rendering() -> None:
    report = convergence_report(BaseSystem(10), F(1, 3), 2)
    assert render_csv(report) == (
        "n,proper,distance,coeffs\n"
        '0,true,"1/3",""\n'
        '1,true,"1/30","3"\n'
        '2,true,"1/300","3 3"\n'
    )
    empty = ConvergenceReport(system_id="x", element="", metric_id="abs", rows=())
    assert render_csv(empty) == "n,proper,distance,coeffs\n"


def test_json_roundtrip_and_determinism(tmp_path) -> None:
    report = convergence_report(ContinuedFractionSystem(), F(7, 10), 4)
    text = render_json(report)
    assert text == render_json(report)
    parsed = json.loads(text)
    re_encoded = json.dumps(parsed, sort_keys=True, separators=(",", ": "),
                            indent=1) + "\n"
    assert re_encoded == text
    assert parsed["system_id"] == "cf"
    assert parsed["rows"][3]["distance"] == "0"

    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    export(report, "csv", str(csv_path))
    export(report, "json", str(json_path))
    assert csv_path.read_text(encoding="utf-8") == render_csv(report)
    assert json_path.read_text(encoding="utf-8") == text
    with pytest.raises(DomainError):
        export(report, "xml", str(tmp_path / "out.xml"))


def test_render_value_conventions() -> None:
    assert render_value(F(1, 3)) == "1/3"
    assert render_value(F(10, 2)) == "5"
    assert render_value(True) == "true"
    assert render_value(None) == ""
    assert render_value(INF) == "inf"
    assert render_value(F(1, 3), approx_digits=5) == "0.33333"
    assert render_value(42) == "42"
    # Interval endpoints round outward, so the rendering still encloses.
    assert render_value(Interval(F(1, 3), F(1, 2)), approx_digits=4) == "[0.3333,0.5]"
    assert render_value(ComplexRational.of(1, -2)) == "1-2 i"
    assert render_value(ASCoef(c=F(1, 2), m=0)) == "(1/2,0)"
    assert render_value(ASCoef(c=F(3), m=1, b=F(1, 2))) == "(1/2,3,1)"
    assert render_value((F(1, 2), INF)) == "(1/2,inf)"
