"""Lazy truncated series: kernel coefficients are computed on first read and
kept, a lazy series behaves like its fully computed twin, only what a caller
reads gets computed, deep chains stay inside the recursion limit, and inputs
come fully computed."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansions import (
    ApproximationSystem,
    ASConfig,
    DomainError,
    PowerSeries,
    TruncationInconclusive,
    build_system,
    coefficient_code,
    constant_alpha,
    convergent_from_code,
    parse_expression,
    sample_element,
    system_ids,
)
from expansions import series as series_module

F = Fraction

bounded = settings(max_examples=60, deadline=None)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
tails = st.lists(rationals, min_size=0, max_size=11)


def plain_power(h, alpha):
    """``n p_n = sum_{k=1..n} ((alpha+1)k - n) h_k p_{n-k}``, ``p_0 = 1``."""
    p = [F(1)]
    for n in range(1, len(h)):
        p.append(sum(((alpha + 1) * k - n) * h[k] * p[n - k] for k in range(1, n + 1)) / n)
    return p


def plain_log(h):
    """``n l_n = n h_n - sum_{k=1..n-1} k l_k h_{n-k}``, ``l_0 = 0``."""
    out = [F(0)]
    for n in range(1, len(h)):
        out.append((n * h[n] - sum(k * out[k] * h[n - k] for k in range(1, n))) / n)
    return out


def plain_exp(f):
    """``n e_n = sum_{k=1..n} k f_k e_{n-k}``, ``e_0 = 1``."""
    e = [F(1)]
    for n in range(1, len(f)):
        e.append(sum(k * f[k] * e[n - k] for k in range(1, n + 1)) / n)
    return e


def germ(coeffs, lazy_input):
    """A truncated germ; with ``lazy_input`` its own coefficients are a stream
    too, so the kernel reads them on demand."""
    g = PowerSeries.truncated(0, coeffs)
    return g.scale(1) if lazy_input else g


def read_in_order(series, order):
    """Read the coefficients at ``order`` first, then all of them."""
    first = {k: series.coefficient(k) for k in order}
    full = list(series.coeffs)
    assert all(full[k] == v for k, v in first.items())
    return full


@st.composite
def kernel_case(draw):
    kind = draw(st.sampled_from(("power", "log", "exp")))
    coeffs = [F(0) if kind == "exp" else F(1)] + draw(tails)
    order = draw(st.permutations(range(len(coeffs))))
    partial = order[: draw(st.integers(0, len(coeffs)))]
    alpha = draw(rationals.filter(lambda a: a != 0))
    return kind, coeffs, partial, alpha, draw(st.booleans())


@bounded
@given(kernel_case())
def test_kernels_match_plain_recurrence_in_any_read_order(case):
    kind, coeffs, partial, alpha, lazy_input = case
    g = germ(coeffs, lazy_input)
    if kind == "power":
        got, want = g.power(alpha), plain_power(coeffs, alpha)
    elif kind == "log":
        got, want = g.log(), plain_log(coeffs)
    else:
        got, want = g.exp(), plain_exp(coeffs)
    assert got.known_order == len(coeffs) - 1
    assert read_in_order(got, partial) == want


@bounded
@given(st.lists(rationals, min_size=1, max_size=9), st.booleans())
def test_lazy_series_equals_and_hashes_like_its_computed_twin(coeffs, exact_twin):
    coeffs[0] = F(1)
    lazy = PowerSeries.truncated(0, coeffs).power(F(1, 2))
    values = list(PowerSeries.truncated(0, coeffs).power(F(1, 2)).coeffs)
    twin = PowerSeries.truncated(0, values)
    assert lazy.coeffs.computed == 0
    assert lazy == twin and twin == lazy
    assert hash(lazy) == hash(twin)
    assert lazy.coeffs == tuple(values) and lazy.coeffs[1:3] == tuple(values[1:3])
    assert lazy.coeffs[-1] == values[-1]
    with pytest.raises(IndexError):
        lazy.coeffs[-len(values) - 1]
    assert str(lazy) == str(twin) and repr(lazy) == repr(twin)
    if exact_twin and values[-1] != 0:
        exact = PowerSeries.exact_poly(0, values)
        assert exact == lazy and hash(exact) == hash(lazy)
    longer = PowerSeries.truncated(0, values + [F(0)])
    assert lazy != longer


def test_linear_operations_stay_lazy_on_truncated_series():
    g = PowerSeries.truncated(0, [1, 2, 3, 4]).power(F(1, 3))
    ops = [
        g + g, g - PowerSeries.constant(0, 1), g.scale(3), g.shift_down(),
        g.shift_up(5), g.differentiate(), g.integrate(2), g * g,
    ]
    assert g.coeffs.computed == 0
    for out in ops:
        assert not out.exact and out.coeffs.computed == 0
    assert g.shift_up(5).coefficient(0) == 5 and g.coeffs.computed == 0
    # divide reads the constant term it divides by, and builds its quotient
    quotient = g.divide(g)
    assert not quotient.exact and quotient.coeffs.computed == 0
    assert g.coeffs.computed == 1
    assert g.integrate(2).coefficient(2) == g.coefficient(1) / 2
    assert g.coeffs.computed == 2

    # coefficient k of a product of two kernel streams reads coefficients
    # 0..k of each factor
    for k in range(6):
        a = PowerSeries.truncated(0, [1, 2, 3, 4, 5, 6, 7, 8]).power(F(1, 3))
        b = PowerSeries.truncated(0, [0, 1, -1, 2, F(1, 2), 3]).exp()
        value = (a * b).coefficient(k)
        assert a.coeffs.computed <= k + 1 and b.coeffs.computed <= k + 1
        assert value == sum(a.coefficient(i) * b.coefficient(k - i) for i in range(k + 1))


@bounded
@given(st.lists(rationals, max_size=7), st.lists(rationals, max_size=7), rationals,
       rationals, st.integers(min_value=2, max_value=4))
def test_exact_and_truncated_twins_agree_on_linear_operations(cs, ds, center, factor, pad):
    # each linear operation on an exact polynomial and on its truncated twin
    # (the same coefficients and some zeros) agrees up to the twin's order
    p, q = PowerSeries.exact_poly(center, cs), PowerSeries.exact_poly(center, ds)
    g = PowerSeries.truncated(center, cs + [0] * pad)
    h = PowerSeries.truncated(center, ds + [0] * pad)
    ops = {
        "scale": lambda a, b: a.scale(factor), "neg": lambda a, b: -a,
        "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
        "differentiate": lambda a, b: a.differentiate(),
        "integrate": lambda a, b: a.integrate(factor), "reflect": lambda a, b: a.reflect(),
        "mul": lambda a, b: a * b,
    }
    outs = {name: (op(p, q), op(g, h)) for name, op in ops.items()}
    assert outs["neg"][1].coeffs.computed == 0 and outs["reflect"][1].coeffs.computed == 0
    for name, (exact, twin) in outs.items():
        assert exact.exact and not twin.exact, name
        assert exact.center == twin.center, name
        for k in range(twin.known_order + 1):
            assert exact.coefficient(k) == twin.coefficient(k), (name, k)


def test_errors_raise_when_a_lazy_series_is_built():
    # every check runs at the call, so no exception can escape a later read
    one = PowerSeries.truncated(0, [1]).power(F(1, 2))
    with pytest.raises(TruncationInconclusive):
        one.shift_down()
    with pytest.raises(TruncationInconclusive):
        one.differentiate()
    two = PowerSeries.truncated(0, [2, 1]).scale(1)
    for kernel in (lambda g: g.power(F(1, 2)), lambda g: g.log(), lambda g: g.exp()):
        with pytest.raises(DomainError):
            kernel(two)
    with pytest.raises(DomainError):
        two + PowerSeries.constant(1, 1)
    assert two.coeffs.computed == 1


def test_backward_pass_and_recode_compute_only_what_they_read():
    system = build_system("as-kd-power-3")
    y = sample_element("as-kd-power-3", random.Random(0))
    code = coefficient_code(system, y, 4)
    trace = convergent_from_code(system, code)
    assert trace.proper
    assert coefficient_code(system, trace.value, 4) == code
    level0 = trace.value.coeffs
    # kernels run to ASConfig.order = 64: 67 known coefficients, which the
    # eager kernels computed in full
    assert len(level0) == 67
    assert level0.computed <= 12


def test_deep_chain_stays_inside_the_recursion_limit():
    # 1/(1-x) on K / power 1: every level emits (1, 1) and sheds one
    # coefficient; 150 levels chain about 600 streams
    order, depth = 400, 150
    system = ApproximationSystem(ASConfig(
        transform="K", nonlinearity="power", alphas=constant_alpha(1), order=order))
    y = PowerSeries.truncated(0, [1] * (order + 1))
    code = coefficient_code(system, y, depth)

    eager, stage = [], y
    for i in range(depth):
        eager.append(system.project(i, stage))
        if i < depth - 1:
            stage = system.expand(i, stage)
            stage = PowerSeries.truncated(stage.center, stage.coeffs)  # computed in full
    assert code == eager

    trace = convergent_from_code(system, code)
    assert trace.proper
    assert coefficient_code(system, trace.value, depth) == code
    assert trace.value == PowerSeries.of(*[1] * (depth + 1))


def test_inputs_come_fully_computed(monkeypatch):
    germs = [
        parse_expression(text, "series", order=24)
        for text in ("exp(x)", "sqrt(1/(1 - x))", "(1 + x)^3 + log(1 + x)", "1/(1 - x)")
    ]
    germs += [
        sample_element(sid, random.Random(sid)) for sid in system_ids() if sid.startswith("as-")
    ]
    for g in germs:
        assert isinstance(g.coeffs, tuple)

    # so a repeated operation on the same input repeats all of its work
    pushes = []
    push = series_module._Row.push
    monkeypatch.setattr(series_module._Row, "push",
                        lambda row, num, den: pushes.append(1) or push(row, num, den))
    system = build_system("as-d-power-half")
    y = parse_expression("sqrt(1/(1 - x))", "series", order=24)
    counts = []
    for _ in range(2):
        pushes.clear()
        code = coefficient_code(system, y, 3)
        trace = convergent_from_code(system, code)
        coefficient_code(system, trace.value, 3)
        counts.append(len(pushes))
    assert counts[0] == counts[1] > 0


def test_deep_chain_computes_only_what_the_code_reads(monkeypatch):
    # the probe above: the germ of level i is read up to coefficient 150 - i,
    # and each coefficient past the first makes one push in the index map's
    # row and one in the power kernel's, so the code needs 2 * (1 + ... + 149)
    # pushes; computing each germ in full would cost 82 350
    order, depth = 400, 150
    system = ApproximationSystem(ASConfig(
        transform="K", nonlinearity="power", alphas=constant_alpha(1), order=order))
    y = PowerSeries.truncated(0, [1] * (order + 1))
    pushes = []
    push = series_module._Row.push
    monkeypatch.setattr(series_module._Row, "push",
                        lambda row, num, den: pushes.append(1) or push(row, num, den))
    assert len(coefficient_code(system, y, depth)) == depth
    assert len(pushes) <= 22350


def test_a_read_walks_a_chain_with_one_getitem_call(monkeypatch):
    # 70 shift_up/shift_down pairs are 140 streams over a tuple; the walk
    # fills each memo before its rule indexes it, so no stream reads another
    # through __getitem__
    g = PowerSeries.truncated(0, [1] * 101)
    for _ in range(70):
        g = g.shift_up(1).shift_down()
    calls = []
    getitem = series_module._Stream.__getitem__
    monkeypatch.setattr(series_module._Stream, "__getitem__",
                        lambda stream, k: calls.append(k) or getitem(stream, k))
    assert g.coefficient(100) == 1
    assert calls == [100]


def chain_step(g, op):
    """One link of a random chain; ops that would empty or grow the germ
    past 8 coefficients turn into their inverse."""
    n = len(g.coeffs)
    if op == "shift_down":
        return g.shift_down() if n > 2 else g.shift_up(1)
    if op == "shift_up":
        return g.shift_up(F(1, 2)) if n < 8 else g.shift_down()
    if op == "differentiate":
        return g.differentiate() if n > 2 else g.integrate(1)
    if op == "integrate":
        return g.integrate(-1) if n < 8 else g.differentiate()
    if op == "scale":
        return g.scale(F(-3, 2))
    if op == "plus":
        return PowerSeries.constant(0, F(2, 3)) + g
    if op == "minus":
        return g - PowerSeries.constant(0, 1)
    if op == "halve":
        return g - g.scale(F(1, 2))  # reads g twice
    if op == "add_third":
        return g.scale(F(1, 3)) + g
    c0 = g.coefficient(0)
    if op == "exp":
        return (g - PowerSeries.constant(0, c0)).exp()
    g = g + PowerSeries.constant(0, 1 - c0)
    return g.power(F(1, 2)) if op == "power" else g.log()


CHAIN_OPS = ("shift_down", "shift_up", "differentiate", "integrate", "scale", "plus",
             "minus", "halve", "add_third", "power", "log", "exp")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(CHAIN_OPS), min_size=161, max_size=200),
       st.lists(rationals, min_size=2, max_size=7), st.randoms(use_true_random=False))
def test_long_chains_read_in_any_order_match_their_computed_twin(ops, coeffs, rnd):
    # every op adds at least one stream, so each chain is over 160 links; a
    # generator that reads past a source's memo means an offset too small
    getitem, depth, misses = series_module._Stream.__getitem__, [0], []

    def read(stream, k):
        if depth[0] and k >= stream.computed:
            misses.append(k)
        depth[0] += 1
        try:
            return getitem(stream, k)
        finally:
            depth[0] -= 1

    series_module._Stream.__getitem__ = read
    try:
        lazy = twin = PowerSeries.truncated(0, coeffs)
        stages = []
        for op in ops:
            lazy = chain_step(lazy, op)
            twin = PowerSeries.truncated(0, chain_step(twin, op).coeffs)  # computed in full
            stages.append((lazy, twin))
            if rnd.random() < 0.1:
                k = rnd.randrange(len(twin.coeffs))
                assert lazy.coeffs[k] == twin.coeffs[k]
        for lazy, twin in [stages[-1]] + rnd.sample(stages, 8):
            order = rnd.sample(range(len(twin.coeffs)), len(twin.coeffs))
            assert [lazy.coeffs[k] for k in order] == [twin.coeffs[k] for k in order]
    finally:
        series_module._Stream.__getitem__ = getitem
    assert misses == []


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(CHAIN_OPS + ("rescale", "integrate_differentiate")),
                min_size=1, max_size=40),
       st.lists(rationals, min_size=2, max_size=7), st.randoms(use_true_random=False))
def test_row_denominators_do_not_creep(ops, coeffs, rnd):
    # each stream's row holds integers over the lcm of the reduced
    # denominators of the coefficients it has computed, so scaling by 2/3
    # and back, or integrating and differentiating, leaves no extra factor
    built = []
    init = series_module._Stream.__init__

    def record(stream, *args):
        built.append(stream)
        init(stream, *args)

    series_module._Stream.__init__ = record
    try:
        g = PowerSeries.truncated(0, coeffs)
        for op in ops:
            if op == "rescale":
                g = g.scale(F(2, 3)).scale(F(3, 2))
            elif op == "integrate_differentiate":
                g = g.integrate(F(1, 5)).differentiate()
            else:
                g = chain_step(g, op)
            if rnd.random() < 0.3:
                g.coefficient(rnd.randrange(len(g.coeffs)))
        list(g.coeffs)
    finally:
        series_module._Stream.__init__ = init
    for stream in built:
        row = stream._row
        assert len(row.ints) == stream.computed
        assert row.den == math.lcm(*(F(n, row.den).denominator for n in row.ints))
