"""Tests for the analytic approximation systems: the D/K/KD transforms with
power and log/exp nonlinearities, multiplicity bookkeeping, and coefficient
cycle detection."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expansions import (
    ASCoef,
    ASConfig,
    ApproximationSystem,
    DomainError,
    INF,
    OrderResult,
    PowerSeries,
    TruncationInconclusive,
    alpha_list,
    build_system,
    coefficient_code,
    constant_alpha,
    convergent_from_code,
    convergent,
    detect_cycle,
    order_of,
    render_value,
    roundtrip_check,
    sample_element,
    trajectory,
)
from expansions import series as series_module
from expansions.approx import multiplicity
from expansions.coefficients import is_infinite
from expansions.registry import system_ids

F = Fraction


def binomial_series(alpha: Fraction, n: int, sign: int = 1) -> PowerSeries:
    """Truncated germ of (1 + sign*x)**alpha."""
    coeffs = []
    c = F(1)
    for k in range(n):
        coeffs.append(c * sign**k)
        c *= (alpha - k) / (k + 1)
    return PowerSeries.truncated(0, coeffs)


def tan_over_x_germ(n: int) -> PowerSeries:
    """Germ of tan(x)/x via the recurrence tan' = 1 + tan^2."""
    a = [F(0)] * (n + 2)
    a[1] = F(1)
    for k in range(1, n + 1):
        conv = sum((a[i] * a[k - i] for i in range(1, k)), F(0))
        a[k + 1] = conv / (k + 1)
    return PowerSeries.truncated(0, a[1 : n + 1])


def exp_germ(n: int) -> PowerSeries:
    return PowerSeries.truncated(0, [F(1, math.factorial(k)) for k in range(n)])


def subtract_normalize_reciprocal_codes(coeffs: list, depth: int) -> list:
    """Plain-list replay of the K-transform loop with exponent -1: drop the
    constant, read off the leading term, normalize, and take the reciprocal
    by the convolution recurrence."""
    cur = list(coeffs)
    out = []
    for _ in range(depth):
        t = [F(0)] + cur[1:]
        m = next(k for k, c in enumerate(t) if c != 0)
        c = t[m]
        unit = [v / c for v in t[m:]]
        r = [F(1)] + [F(0)] * (len(unit) - 1)
        for j in range(1, len(unit)):
            r[j] = -sum((unit[k] * r[j - k] for k in range(1, j + 1)), F(0))
        out.append((c, m))
        cur = r
    return out


def test_multiplicity() -> None:
    assert multiplicity(PowerSeries.exact_poly(0, [0, 0, 0, 1, 0, -1])) == 3
    assert multiplicity(PowerSeries.exact_poly(0, [5])) == 0
    assert multiplicity(PowerSeries.zero()) is INF
    with pytest.raises(TruncationInconclusive):
        multiplicity(PowerSeries.truncated(0, [0, 0, 0]))


def test_detect_cycle() -> None:
    assert detect_cycle([(1, 0), (-1, 0), (1, 0), (-1, 0), (1, 0), (-1, 0)], 3) == 2
    assert detect_cycle([(1, 1), (-1, 1), (-1, 1), (-1, 1), (-1, 1)], 3) == 1
    assert detect_cycle([1, 2, 3, 4, 5, 6], 2) is None
    assert detect_cycle([1, 1, 1], 1) == 1
    # A preperiod is allowed as long as two full cycles remain in view.
    assert detect_cycle([2, 1, 1], 1) == 1
    # Not enough repetitions to certify the period: a preperiod plus two
    # full cycles must fit in the observed window.
    assert detect_cycle([2, 1], 1) is None


def test_config_validation() -> None:
    with pytest.raises(DomainError):
        ASConfig(transform="Q", nonlinearity="power", alphas=constant_alpha(1))
    with pytest.raises(DomainError):
        ASConfig(transform="D", nonlinearity="sin")
    with pytest.raises(DomainError):
        ASConfig(transform="D", nonlinearity="power")
    with pytest.raises(DomainError):
        ASConfig(transform="D", nonlinearity="logexp", order=1)
    with pytest.raises(DomainError):
        alpha_list([])


def test_alpha_schedules() -> None:
    sched = alpha_list([3, F(1, 3)])
    assert [sched(i) for i in range(4)] == [3, F(1, 3), F(1, 3), F(1, 3)]
    const = constant_alpha(F(-1))
    assert const(0) == const(7) == -1
    cfg = ASConfig(transform="D", nonlinearity="power", alphas=constant_alpha(2))
    with pytest.raises(DomainError):
        ASConfig(transform="D", nonlinearity="power",
                 alphas=constant_alpha(0)).alpha(0)
    assert cfg.alpha(5) == 2


def test_validate_rejects_bad_germs() -> None:
    power_sys = build_system("as-d-power-half")
    with pytest.raises(DomainError):
        trajectory(power_sys, PowerSeries.truncated(0, [2, 1]), 1)
    with pytest.raises(DomainError):
        trajectory(power_sys, PowerSeries.truncated(1, [1, 1]), 1)
    logexp_sys = build_system("as-d-logexp")
    with pytest.raises(DomainError):
        trajectory(logexp_sys, PowerSeries.truncated(0, [1, 1]), 1)
    # tan(x) itself has constant term 0; only tan(x)/x lives in a power system.
    with pytest.raises(DomainError):
        trajectory(build_system("as-k-power-neg1"),
                   PowerSeries.truncated(0, [0, 1, 0, F(1, 3)]), 1)


def test_d_power_half_square_root_germ() -> None:
    sysm = build_system("as-d-power-half")
    germ = binomial_series(F(-1, 2), 40, sign=-1)
    code = coefficient_code(sysm, germ, 3)
    assert [(c.c, c.m) for c in code] == [(F(1, 2), 0), (F(3, 4), 0), (F(7, 8), 0)]
    y1 = convergent(sysm, germ, 1).value
    assert y1 == PowerSeries.exact_poly(0, [1, F(1, 2)])
    y2 = convergent(sysm, germ, 2).value
    assert y2.coeffs[:4] == (F(1), F(1, 2), F(3, 8), F(3, 32))


def test_d_power_neg1_exponential_cycle() -> None:
    sysm = build_system("as-d-power-neg1")
    germ = exp_germ(40)
    code = coefficient_code(sysm, germ, 6)
    pairs = [(c.c, c.m) for c in code]
    assert pairs == [(F(1), 0), (F(-1), 0)] * 3
    assert detect_cycle(pairs, 3) == 2
    # The depth-2 convergent is 1 - log(1 - x).
    y2 = convergent(sysm, germ, 2).value
    for k in range(1, 33):
        assert y2.coefficient(k) == F(1, k)
    assert y2.coefficient(0) == 1


def test_d_power_neg1_exponent_alternation() -> None:
    # On (1 + u)^a the leading coefficients alternate a, 1-a; a = 1/2 is the
    # self-dual germ where the alternation degenerates to a constant.
    cfg = ASConfig(transform="D", nonlinearity="power",
                   alphas=constant_alpha(-1), center=F(1))
    sysm = ApproximationSystem(cfg)
    for a in (F(1, 3), F(2, 5)):
        coeffs = []
        c = F(1)
        for k in range(24):
            coeffs.append(c)
            c *= (a - k) / (k + 1)
        germ = PowerSeries.truncated(1, coeffs)
        code = coefficient_code(sysm, germ, 6)
        assert [(c.c, c.m) for c in code] == [(a, 0), (1 - a, 0)] * 3
    half = PowerSeries.truncated(
        1, [math.comb(2 * k, k) * F(1, 4) ** k / (1 - 2 * k) * (-1) ** k
            for k in range(24)])
    code = coefficient_code(sysm, half, 5)
    assert all((c.c, c.m) == (F(1, 2), 0) for c in code)


def test_kd_power_3_cube_germ() -> None:
    sysm = build_system("as-kd-power-3")
    germ = PowerSeries.exact_poly(0, [1, 3, 3, 1])
    code = coefficient_code(sysm, germ, 7)
    for i, c in enumerate(code):
        assert c.b is not None
        assert c.b == F(3, 2**i)
        assert c.c == F(3) * F(2) ** (1 - 2 * i)
        assert c.m == 1
    # Every stage is the cube of 1 + x/2^i, exactly.
    stages = trajectory(sysm, germ, 4)
    for i, stage in enumerate(stages):
        step = F(1, 2**i)
        assert stage == PowerSeries.exact_poly(0, [1, 3 * step, 3 * step**2, step**3])


def test_k_power_2_closed_form() -> None:
    sysm = build_system("as-k-power-2")
    germ = PowerSeries.exact_poly(0, [1, 1, F(1, 4)])
    stages = trajectory(sysm, germ, 4)
    for i, stage in enumerate(stages):
        h = F(1, 2 ** (i + 1))
        assert stage == PowerSeries.exact_poly(0, [1, 2 * h, h * h])
    code = coefficient_code(sysm, germ, 5)
    assert [(c.c, c.m) for c in code] == [(F(1, 2**i), 1) for i in range(5)]


def test_k_power_neg1_tan_germ_vs_list_oracle() -> None:
    sysm = build_system("as-k-power-neg1")
    germ = tan_over_x_germ(40)
    code = coefficient_code(sysm, germ, 7)
    golden = [(F(1, 3), 2), (F(-2, 5), 2), (F(-1, 210), 2), (F(-5, 126), 2),
              (F(-2, 495), 2), (F(-28, 2145), 2), (F(-1, 364), 2)]
    assert [(c.c, c.m) for c in code] == golden
    oracle = subtract_normalize_reciprocal_codes(list(germ.coeffs), 7)
    assert oracle == golden
    assert detect_cycle(golden, 3) is None


def test_k_logexp_tree_function_germ() -> None:
    # W(x) = sum (-1)^(n-1) n^(n-1) x^n / n! satisfies W = x e^{-W}, so
    # log(W/x) = -W: after one step every stage equals -W.
    sysm = build_system("as-k-logexp")
    w = [F(0)] + [F((-1) ** (n - 1) * n ** (n - 1), math.factorial(n))
                  for n in range(1, 30)]
    germ = PowerSeries.truncated(0, w)
    code = coefficient_code(sysm, germ, 6)
    pairs = [(c.c, c.m) for c in code]
    assert pairs == [(F(1), 1)] + [(F(-1), 1)] * 5
    assert detect_cycle(pairs, 2) == 1
    stages = trajectory(sysm, germ, 2)
    minus_w = PowerSeries.truncated(0, [-v for v in w])
    for k in range(min(12, stages[1].known_order)):
        assert stages[1].coefficient(k) == minus_w.coefficient(k)
        assert stages[2].coefficient(k) == minus_w.coefficient(k)


def test_d_logexp_tan_germ() -> None:
    sysm = build_system("as-d-logexp")
    a = [F(0)] * 41
    a[1] = F(1)
    for k in range(1, 40):
        conv = sum((a[i] * a[k - i] for i in range(1, k)), F(0))
        a[k + 1] = conv / (k + 1)
    germ = PowerSeries.truncated(0, a[:40])
    code = coefficient_code(sysm, germ, 4)
    assert [(c.c, c.m) for c in code] == [
        (F(1), 0), (F(2), 1), (F(2, 3), 1), (F(14, 15), 1)]


def test_reconstruct_edge_branches() -> None:
    d = build_system("as-d-power-half")
    k = build_system("as-k-power-2")
    one = PowerSeries.constant(0, 1)
    # A vanishing leading coefficient cannot be inverted.
    assert d.reconstruct(0, ASCoef(c=F(0), m=0), one) is None
    # K-style transforms kill the constant term, so multiplicity 0 is absurd.
    assert k.reconstruct(0, ASCoef(c=F(1), m=0), one) is None
    # The neutral branch insists on a neutral tail and a zero coefficient.
    assert d.reconstruct(0, ASCoef(c=F(0), m=INF), one) == one
    assert d.reconstruct(0, ASCoef(c=F(1), m=INF), one) is None
    assert d.reconstruct(0, ASCoef(c=F(0), m=INF),
                         PowerSeries.exact_poly(0, [1, 1])) is None
    # A coefficient that is not rational is refused, not run as a float.
    for bad in (ASCoef(c=0.5, m=1), ASCoef(c="1/2", m=1)):
        with pytest.raises(DomainError, match="must be rational"):
            k.reconstruct(0, bad, one)


def test_a_neutral_stage_ends_the_code() -> None:
    # 1 + x is 1 + (x/1)^2 with a neutral tail: its K step has multiplicity 1,
    # and every later level sees the neutral 1 and reads (0, inf).
    sysm = build_system("as-k-power-2")
    germ = PowerSeries.of(1, 1)
    assert [(c.c, c.m) for c in coefficient_code(sysm, germ, 3)] == [
        (F(1), 1), (F(0), INF), (F(0), INF)]
    assert order_of(sysm, germ, 3) == OrderResult(finite=True, n=1)


def test_a_truncated_germ_is_never_certified_neutral() -> None:
    sysm = build_system("as-d-power-half")
    assert sysm.is_neutral(0, PowerSeries.exact_poly(0, [1]))
    assert not sysm.is_neutral(0, PowerSeries.truncated(0, [1, 1, 0]))
    with pytest.raises(TruncationInconclusive, match="cannot be certified neutral"):
        sysm.is_neutral(0, PowerSeries.truncated(0, [1, 0, 0]))


def test_roundtrips_randomized() -> None:
    rng = random.Random(501)
    for system_id in ("as-d-power-half", "as-d-power-neg1", "as-d-logexp",
                      "as-k-power-2", "as-k-logexp"):
        sysm = build_system(system_id)
        for _ in range(4):
            y = sample_element(system_id, rng)
            assert roundtrip_check(sysm, y, rng.randrange(0, 4))


def test_code_transforms_each_level_once(monkeypatch) -> None:
    # coefficient_code takes each level's coefficient and tail from one step,
    # so the transform and its leading data are read once per level.
    sysm = build_system("as-kd-power-3")
    germ = PowerSeries.exact_poly(0, [1, 3, 3, 1])
    expected = coefficient_code(sysm, germ, 5)
    calls = []
    transformed = ApproximationSystem._transformed

    def counting(self, y):
        calls.append(y)
        return transformed(self, y)

    monkeypatch.setattr(ApproximationSystem, "_transformed", counting)
    assert coefficient_code(sysm, germ, 5) == expected
    assert len(calls) == 5


# -- the level maps against the composition of public series operations ------------

def chain_transformed(system, y):
    """A level's coefficient and transformed germ, one public operation at a
    time: differentiate, subtract the constant, scan for the first nonzero."""
    cfg = system.config
    b = None
    if cfg.transform == "D":
        t = y.differentiate()
    elif cfg.transform == "K":
        t = y - PowerSeries.constant(cfg.center, y.coefficient(0))
    else:
        d = y.differentiate()
        b = d.coefficient(0)
        t = d - PowerSeries.constant(cfg.center, b)
    m = next((k for k, a in enumerate(t.coeffs) if a), None)
    if m is None:
        if not t.exact:
            raise TruncationInconclusive(
                f"all {len(t.coeffs)} known coefficients vanish; multiplicity "
                "cannot be certified")
        return ASCoef(c=F(0), m=INF, b=b), t
    return ASCoef(c=t.coefficient(m), m=m, b=b), t


def chain_step(system, i, y):
    """``step`` as shift_down m times, scale by 1/c, then the kernel."""
    cfg = system.config
    coefficient, t = chain_transformed(system, y)
    if is_infinite(coefficient.m):
        return coefficient, system.neutral(i + 1)
    for _ in range(coefficient.m):
        t = t.shift_down()
    t = t.scale(1 / coefficient.c)
    if cfg.nonlinearity == "power":
        return coefficient, t.power(cfg.alpha(i), cfg.order)
    return coefficient, t.log(cfg.order)


def chain_reconstruct(system, i, c, tail):
    """``reconstruct`` as the kernel, shift_up m times, scale by c, add b,
    then integrate (D, KD) or add the constant term (K)."""
    cfg = system.config
    if is_infinite(c.m):
        if c.c != 0 or not system.is_neutral(i + 1, tail):
            return None
        transformed = PowerSeries.zero(cfg.center)
    else:
        if c.c == 0 or (cfg.transform != "D" and c.m < 1):
            return None
        if cfg.nonlinearity == "power":
            u = tail.power(1 / cfg.alpha(i), cfg.order)
        else:
            u = tail.exp(cfg.order)
        for _ in range(c.m):
            u = u.shift_up()
        transformed = u.scale(c.c)
    conv = cfg.constant_term
    if cfg.transform == "K":
        return PowerSeries.constant(cfg.center, conv) + transformed
    if c.b is not None:
        transformed = transformed + PowerSeries.constant(cfg.center, c.b)
    return transformed.integrate(conv)


def outcome(run):
    """``run()``'s germ or coefficient, read in full, or its refusal."""
    try:
        value = run()
    except (TruncationInconclusive, DomainError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, tuple):
        return tuple(outcome(lambda v=v: v) for v in value)
    if isinstance(value, PowerSeries):
        return value.center, tuple(value.coeffs), value.known_order, value.exact
    return value


CENTRE_ONE = ApproximationSystem(ASConfig(
    transform="D", nonlinearity="power", alphas=constant_alpha(-1), center=F(1)))
LEVEL_SYSTEMS = [(sid, build_system(sid), sid) for sid in system_ids() if sid.startswith("as-")]
LEVEL_SYSTEMS.append(("as-d-power-neg1@1", CENTRE_ONE, "as-d-power-neg1"))


@pytest.mark.parametrize("name, system, sampler", LEVEL_SYSTEMS,
                         ids=[name for name, _, _ in LEVEL_SYSTEMS])
@settings(max_examples=25, deadline=None)
@given(rng=st.randoms(use_true_random=False), keep=st.integers(1, 24),
       zero_from=st.integers(1, 24), exact=st.booleans())
@example(rng=random.Random(0), keep=1, zero_from=1, exact=False)  # order 0
@example(rng=random.Random(0), keep=24, zero_from=1, exact=False)  # all-zero tail
def test_level_maps_match_the_public_op_chain(name, system, sampler, rng, keep, zero_from, exact):
    # a registry sample, cut to `keep` coefficients (down to an order-0
    # germ) and zero from `zero_from` on (all-zero tails), exact or not
    cs = list(sample_element(sampler, rng).coeffs)[:keep]
    cs[zero_from:] = [F(0)] * len(cs[zero_from:])
    y = (PowerSeries.exact_poly if exact else PowerSeries.truncated)(system.center, cs)
    stepped = outcome(lambda: system.step(0, y))
    assert stepped == outcome(lambda: chain_step(system, 0, y))
    if isinstance(stepped[0], str):
        return
    c, tail = system.step(0, y)
    for rest in (tail, system.neutral(1)):
        assert outcome(lambda: system.reconstruct(0, c, rest)) == \
            outcome(lambda: chain_reconstruct(system, 0, c, rest))


def test_a_level_builds_one_stream_each_way_besides_its_kernel(monkeypatch):
    # as-kd-power-3 at depth 4 on a truncated sample: the code's three steps
    # and the backward pass's four reconstructs build two streams each, the
    # index map and the power kernel
    system = build_system("as-kd-power-3")
    y = sample_element("as-kd-power-3", random.Random(5))
    built = []
    init = series_module._Stream.__init__
    monkeypatch.setattr(series_module._Stream, "__init__",
                        lambda stream, *args: built.append(1) or init(stream, *args))
    code = coefficient_code(system, y, 4)
    assert len(built) <= 2 * 3
    built.clear()
    trace = convergent_from_code(system, code)
    assert trace.proper and len(built) <= 2 * 4


def test_germ_codes_at_depth_4_and_order_64_are_pinned():
    # the seven as-* systems on registry samples Random(0..9) at depth 4 and
    # ASConfig's default order 64: the code, the convergent's first 8
    # coefficients and the recode, rendered; the sha256 of the records, as
    # JSON with sorted keys, pins every coefficient those levels compute
    records = []
    for sid in (s for s in system_ids() if s.startswith("as-")):
        system = build_system(sid)
        for seed in range(10):
            code = coefficient_code(system, sample_element(sid, random.Random(seed)), 4)
            trace = convergent_from_code(system, code)
            record = {"system": sid, "seed": seed, "proper": trace.proper,
                      "code": [render_value(c) for c in code]}
            if trace.proper:
                record["head"] = [render_value(c) for c in trace.value.coeffs[:8]]
                record["recode"] = [render_value(c)
                                    for c in coefficient_code(system, trace.value, 4)]
            records.append(record)
    assert sum(r["proper"] for r in records) == 70
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "9fadc59c2b354b05cdb4c9de06d5f2890fc3e4273145fa81e95c8d53d6f65a9b"
