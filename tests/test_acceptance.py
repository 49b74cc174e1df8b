"""Acceptance gate: twelve numbered criteria, one test and one printed
PASS line each (run with ``pytest -s`` to see the lines).

Each test re-derives its expected values from first principles or uses
frozen goldens that were verified against independent oracles in the
per-module suites; nothing here trusts intermediate library output.
"""

import math
import random
import time
from fractions import Fraction

from expansions import (
    ASConfig,
    ApproximationSystem,
    Polynomial,
    PowerSeries,
    build_system,
    coefficient_code,
    constant_alpha,
    convergent,
    convergent_from_code,
    detect_cycle,
    eval_convergent_path,
    evaluate_series,
    order_of,
    parse_expression,
    sample_element,
    system_ids,
    trajectory,
    translate_convergent,
    verify_homomorphism,
)
from expansions.morphisms import (
    as_d_shift_morphism,
    cf_shift_morphism,
    decimal_shift_morphism,
    newton_reflection_morphism,
)

F = Fraction


def _ok(num: int, text: str) -> None:
    print(f"criterion {num:02d}: PASS — {text}")


def binomial_series(alpha: Fraction, n: int, sign: int = 1, center: int = 0) -> PowerSeries:
    coeffs = []
    c = F(1)
    for k in range(n):
        coeffs.append(c * sign**k)
        c *= (alpha - k) / (k + 1)
    return PowerSeries.truncated(center, coeffs)


def test_criterion_01_egyptian_certified_irrational():
    start = time.perf_counter()
    system = build_system("egyptian")
    y = parse_expression("sqrt(1/2)", "real", bits=256)
    code = coefficient_code(system, y, 4)
    elapsed = time.perf_counter() - start
    assert code == [2, 5, 141, 68575]
    assert elapsed < 1.0
    _ok(1, f"sqrt(1/2) unit-fraction code {code} in {elapsed:.3f}s")


def test_criterion_02_decimal_digit_sums_exact():
    system = build_system("base10")
    rng = random.Random(20211)
    for _ in range(100):
        den = rng.randrange(2, 10**9)
        y = F(rng.randrange(0, den), den)
        code = coefficient_code(system, y, 12)
        for n in range(13):
            partial = sum(
                (code[i] * F(1, 10) ** (i + 1) for i in range(n)), F(0)
            )
            trace = convergent(system, y, n)
            assert trace.proper
            assert trace.value == partial
    _ok(2, "y^[n] equals the digit sum for 100 rationals, n <= 12")


def test_criterion_03_cf_termination_certificate():
    system = build_system("cf")
    rng = random.Random(31415)
    for _ in range(500):
        q = rng.randrange(2, 10_000)
        y = F(rng.randrange(1, q), q)
        result = order_of(system, y, 128)
        assert result.finite
        stages = trajectory(system, y, result.n)
        weights = [stage.numerator + stage.denominator for stage in stages]
        assert stages[-1] == 0
        assert all(a > b for a, b in zip(weights, weights[1:]))
    _ok(3, "500 rational codes terminate with p+q strictly decreasing")


def test_criterion_04_norm_taylor_properness_profile():
    system = build_system("norm-taylor")
    fixture = Polynomial.of(F(1, 2), F(1), F(-1), F(1), F(-1))
    at3 = convergent(system, fixture, 3)
    assert at3.proper
    assert at3.value == Polynomial.of(F(1, 2), F(1), F(-1))
    for n in (2, 4):
        trace = convergent(system, fixture, n)
        assert not trace.proper
        assert trace.improper_at == 0
    _ok(4, "fixture proper at 3, improper at 2 and 4")


def test_criterion_05_newton_reconstruction_and_reflection():
    forward = build_system("newton-forward")
    backward = build_system("newton-backward")
    reflection = newton_reflection_morphism()
    rng = random.Random(51413)
    for _ in range(100):
        deg = rng.randrange(0, 9)
        coeffs = [F(rng.randrange(-40, 41), rng.randrange(1, 9)) for _ in range(deg)]
        coeffs.append(F(rng.randrange(1, 41), rng.randrange(1, 9)))
        p = Polynomial.of(*coeffs)
        trace = convergent(forward, p, p.degree + 1)
        assert trace.proper and trace.value == p
        n = rng.randrange(0, p.degree + 2)
        direct = convergent(backward, p, n)
        routed = translate_convergent(reflection, p, n)
        assert direct.proper and routed.proper
        assert direct.value == routed.value
    _ok(5, "forward codes rebuild 100 polynomials; reflected == backward")


def test_criterion_06_as_d_half_on_inverse_square_root():
    system = build_system("as-d-power-half")
    germ = binomial_series(F(-1, 2), 40, sign=-1)
    code = coefficient_code(system, germ, 3)
    assert [(c.c, c.m) for c in code] == [(F(1, 2), 0), (F(3, 4), 0), (F(7, 8), 0)]
    y1 = convergent(system, germ, 1).value
    assert y1 == PowerSeries.exact_poly(0, [1, F(1, 2)])
    y2 = convergent(system, germ, 2).value
    assert y2.coeffs[:4] == (F(1), F(1, 2), F(3, 8), F(3, 32))
    _ok(6, "code head [1/2, 3/4, 7/8]; y^[1], y^[2] match exactly")


def test_criterion_07_as_d_neg1_exponential_cycle():
    system = build_system("as-d-power-neg1")
    germ = PowerSeries.truncated(0, [F(1, math.factorial(k)) for k in range(40)])
    code = coefficient_code(system, germ, 6)
    pairs = [(c.c, c.m) for c in code]
    assert pairs == [(F(1), 0), (F(-1), 0)] * 3
    assert detect_cycle(pairs, 3) == 2
    y2 = convergent(system, germ, 2).value
    assert y2.coefficient(0) == 1
    for k in range(1, 33):
        assert y2.coefficient(k) == F(1, k)
    _ok(7, "period-2 code on exp; y^[2] == 1 - log(1 - x) to order 32")


def test_criterion_08_as_d_neg1_alternation_at_half():
    config = ASConfig(
        transform="D", nonlinearity="power", alphas=constant_alpha(-1), center=F(1)
    )
    system = ApproximationSystem(config)
    for a in (F(1, 3), F(2, 5)):
        germ = binomial_series(a, 24, center=1)
        code = coefficient_code(system, germ, 6)
        assert [(c.c, c.m) for c in code] == [(a, 0), (1 - a, 0)] * 3
    half = binomial_series(F(1, 2), 24, center=1)
    code = coefficient_code(system, half, 8)
    assert all((c.c, c.m) == (F(1, 2), 0) for c in code)
    _ok(8, "x^a code alternates a, 1-a; constant 1/2 at the fixed point")


def test_criterion_09_as_kd_cube_streams():
    system = build_system("as-kd-power-3")
    germ = PowerSeries.exact_poly(0, [1, 3, 3, 1])
    code = coefficient_code(system, germ, 7)
    for i, c in enumerate(code):
        assert c.b is not None
        assert c.b == F(3, 2**i)
        assert c.c == F(3) / F(2) ** (2 * i - 1)
        assert c.m == 1
    _ok(9, "b_i = 3/2^i and c_i = 3/2^(2i-1) for i <= 6")


def test_criterion_10_head_coincidence_all_systems():
    for system_id in system_ids():
        system = build_system(system_id)
        rng = random.Random(f"head-{system_id}")
        for _ in range(50):
            y = sample_element(system_id, rng)
            code = coefficient_code(system, y, 6)
            for n in range(7):
                trace = convergent_from_code(system, code[:n])
                if not trace.proper:
                    continue
                recode = coefficient_code(system, trace.value, n)
                for i, (a, b) in enumerate(zip(code[:n], recode)):
                    assert a == b, (system_id, n, i)
    _ok(10, f"codes of convergents repeat the head on {len(system_ids())} systems x 50 samples")


def test_criterion_11_builtin_homomorphisms():
    cases = [
        ("newton-forward", newton_reflection_morphism()),
        ("base10", decimal_shift_morphism()),
        ("cf", cf_shift_morphism()),
        ("as-d-power-half", as_d_shift_morphism(build_system("as-d-power-half"))),
    ]
    for source_id, morphism in cases:
        rng = random.Random(f"hom-{source_id}")
        samples = [sample_element(source_id, rng) for _ in range(20)]
        report = verify_homomorphism(morphism, samples, 6)
        assert report.ok, (morphism.name, report)
    _ok(11, "4 morphisms verified on 20 samples x depth 6")


def test_criterion_12_path_evaluation():
    start = time.perf_counter()
    system = build_system("as-d-power-half")
    germ = binomial_series(F(-1, 2), 40, sign=-1)
    code = coefficient_code(system, germ, 4)
    for n in range(5):
        from_path = eval_convergent_path(system, code[:n], [0, 0.5])
        exact = evaluate_series(convergent_from_code(system, code[:n]).value, 0.5)
        assert abs(from_path.value - exact) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _ok(12, f"segment evaluation matches exact convergents in {elapsed:.2f}s")

    # Non-gating stretch: carrying sqrt around the origin should drift
    # toward the continued branch value -1 as the order grows.
    config = ASConfig(
        transform="D", nonlinearity="power", alphas=constant_alpha(-1), center=F(1)
    )
    loop_system = ApproximationSystem(config)
    loop_germ = binomial_series(F(1, 2), 40, center=1)
    loop = [1, 1 + 1.5j, -1.6 + 1.5j, -1.6 - 1.5j, 1 - 1.5j, 1]
    distances = {}
    for n in (3, 6, 8):
        loop_code = coefficient_code(loop_system, loop_germ, n)
        value = eval_convergent_path(loop_system, loop_code, loop).value
        distances[n] = abs(value - (-1))
        print(f"criterion 12 stretch: n={n} loop value {value:.6f}, |value+1|={distances[n]:.4f}")
    assert distances[8] < distances[6] < distances[3]
    assert distances[8] < 0.75
