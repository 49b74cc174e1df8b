"""Tests of the benchmark's own oracles and accounting.

Run from the repository root with ``python3 -m pytest perfbench``.  The
oracle tests use known values only; the accounting tests run a few rounds
of one workload against the library in ``src/``.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

import oracles as O

ROOT = Path(__file__).resolve().parent.parent


def test_cf_of_sqrt2_minus_1_is_all_twos():
    ast = ("sub", ("sqrt", ("num", F(2))), ("num", F(1)))
    assert O.irrational_code(ast, "cf", 300, 1024) == [2] * 300


def test_engel_of_e_minus_2_counts_up():
    # e - 2 = 1/2! + 1/3! + ... = 1/2 (1 + 1/3 (1 + 1/4 (...)))
    ast = ("sub", ("e",), ("num", F(2)))
    assert O.irrational_code(ast, "engel", 40, 256) == list(range(2, 42))


def test_egyptian_head_of_sqrt_half():
    ast = ("sqrt", ("num", F(1, 2)))
    assert O.irrational_code(ast, "egyptian", 4, 256) == [2, 5, 141, 68575]


def test_kd_cube_closed_form_and_series_oracle_agree():
    closed = O.criterion_code("kd-cube", F(1), 6)
    assert closed[:3] == ["(3,6,1)", "(3/2,3/2,1)", "(3/4,3/8,1)"]
    for i, text in enumerate(closed):
        assert text.startswith(f"({O.render_fraction(F(3, 2 ** i))},")
    cube = O.Series([1, 3, 3, 1], exact=True)
    assert O.germ_code("as-kd-power-3", cube, 6) == closed


def test_series_oracle_matches_criteria_6_to_8():
    inv_sqrt = [F(1)]
    for k in range(40):
        inv_sqrt.append(inv_sqrt[-1] * (F(1, 2) + k) / (k + 1))
    assert O.germ_code("as-d-power-half", O.Series(inv_sqrt, False), 4) == \
        O.criterion_code("inv-sqrt", F(1), 4)
    exp = [F(1)]
    for k in range(1, 40):
        exp.append(exp[-1] / k)
    assert O.germ_code("as-d-power-neg1", O.Series(exp, False), 6) == \
        O.criterion_code("exp", F(1), 6)
    a, x_pow = F(2, 5), [F(1)]
    for k in range(24):
        x_pow.append(x_pow[-1] * (a - k) / (k + 1))
    assert O.germ_code("as-d-power-neg1@1", O.Series(x_pow, False), 6) == \
        O.criterion_code("x-pow", a, 6)


def test_truncated_germ_is_inconclusive_when_knowledge_runs_out():
    with pytest.raises(O.Inconclusive):
        O.germ_code("as-kd-power-3", O.Series([1, F(1, 2), 0, 0], False), 3)


def test_rational_codes_and_convergents():
    assert O.rational_code("cf", F(7, 10), 4) == [1, 2, 3, O.INF]
    assert O.rational_code("base10", F(1, 3), 3) == [3, 3, 3]
    assert O.real_convergent("cf", [1, 2, 3, O.INF]) == (F(7, 10), None)
    assert O.real_convergent("cf", [2, 1]) == (None, 1)
    assert O.real_convergent("base10-shuffled", [9]) == (F(3, 10), None)


def test_segment_and_loop_references():
    # y^[1] on D / power 1/2 with c = 1/2: 1 + x/2
    assert O.d_half_convergent(((F(1, 2), 0),)) == [F(1), F(1, 2)]
    assert O.horner_60([F(1), F(1, 2)], 0.5 + 0j) == 1.25
    # n = 1 on D / power -1 at centre 1: y = 1 + a (z - 1); a closed loop returns to 1
    loop = (1 + 0j, 1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 0j)
    assert abs(O.loop_value(((F(1, 2), 0),), loop, 1 + 0j) - 1) < 1e-12
    assert O.parse_complex("-0.5-1.25e-05 i") == complex(-0.5, -1.25e-05)


def test_newton_and_norm_oracles():
    p = [F(1), F(-2), F(0), F(1)]  # 1 - 2x + x^3
    assert O.newton_code("newton-forward", p, 4) == [1, -1, 6, 6]
    fixture = [F(1, 2), F(1), F(-1), F(1), F(-1)]
    assert O.norm_taylor_improper(fixture, 3) is None
    assert O.norm_taylor_improper(fixture, 2) == 0
    assert O.norm_taylor_improper(fixture, 4) == 0


def test_corrupted_real_output_is_a_failure():
    op = dict(system="cf", bits=256, depth=3, over_deep=False, rational=None,
              ast=("sub", ("sqrt", ("num", F(2))), ("num", F(1))))
    assert O.check_real(op, {"code": "2 2 2", "convergent": "5/12"})[0]
    assert not O.check_real(op, {"code": "2 2 3", "convergent": "5/12"})[0]
    assert not O.check_real(op, {"code": "2 2 2", "convergent": "5/13"})[0]
    assert not O.check_real(op, {"exc": "PrecisionExhausted"})[0]
    assert O.check_real(dict(op, over_deep=True), {"exc": "PrecisionExhausted"})[0]


@pytest.fixture()
def bench(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return run


def _result(bench, workload, seconds=0.0):
    from workloads import WORKLOADS

    sys.path.insert(0, str(bench.SRC))
    run = bench.Run(WORKLOADS[workload], 3)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = bench.measure(run, seconds)
    return code, json.loads(buffer.getvalue().strip().splitlines()[-1])


def test_corrupted_outputs_are_counted_as_failed(bench, monkeypatch):
    from workloads import PolySystems

    original = PolySystems.execute

    def corrupt(self, lib, systems, op, y):
        out = original(self, lib, systems, op, y)
        if op["system"] == "taylor" and op["n"] > 0:
            code, trace = out["raw"]
            out["raw"] = ([c + 1 for c in code], trace)
        return out

    monkeypatch.setattr(PolySystems, "execute", corrupt)
    code, result = _result(bench, "poly-systems")
    assert code == 0
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert result["metrics"]["ok_ratio"]["value"] < 1


def test_clean_run_reports_every_end_to_end_metric(bench):
    code, result = _result(bench, "poly-systems")
    assert code == 0 and result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_trace_reports_every_per_layer_metric():
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {name: unit for name, (_, unit) in Tracer().metrics().items()}
    emitted.update({"trace.overhead_ratio": "ratio", "trace.spans": "count"})
    assert emitted == expected
