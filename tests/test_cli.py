"""End-to-end tests for the command-line frontend.

Every test drives ``expansions.cli.main`` in-process with an argv list and
asserts on captured stdout/stderr and the exit code, so the goldens here pin
the exact bytes a shell user sees.
"""

import hashlib
import io
import itertools
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from expansions import BaseSystem, ContinuedFractionSystem, DomainError, Morphism
from expansions import cli
from expansions.cli import build_parser, main, morphism_samples
from expansions.registry import build_system, system_ids


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Registry listing
# ---------------------------------------------------------------------------


def test_systems_list_covers_registry():
    code, out, err = run_cli("systems", "list")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == len(system_ids())
    listed = [line.split()[0] for line in lines]
    assert listed == list(system_ids())


def test_each_registry_id_names_its_system():
    assert all(build_system(system_id).name == system_id for system_id in system_ids())


# ---------------------------------------------------------------------------
# expand / convergent / order
# ---------------------------------------------------------------------------


def test_expand_continued_fraction():
    code, out, err = run_cli(
        "expand", "--system", "cf", "--input", "7/10", "--depth", "4"
    )
    assert (code, out, err) == (0, "1 2 3 inf\n", "")


def test_expand_certified_irrational():
    code, out, err = run_cli(
        "expand",
        "--system", "egyptian",
        "--input", "sqrt(1/2)",
        "--depth", "4",
        "--bits", "256",
    )
    assert (code, out, err) == (0, "2 5 141 68575\n", "")


# input and expected `--emit trace` output (stages top down) per real system
TRACE_GOLDENS = {
    "base10": ("1/3", "3: 0\n2: 3/10\n1: 33/100\n0: 333/1000\n"),
    "base10-shuffled": ("pi-3", "3: 0\n2: 1/10\n1: 41/100\n0: 141/1000\n"),
    "cf": ("sqrt(2)-1", "4: 0\n3: 1/2\n2: 2/5\n1: 5/12\n0: 12/29\n"),
    "egyptian": ("sqrt(1/2)", "3: 0\n2: 1/141\n1: 146/705\n0: 997/1410\n"),
    "engel": ("e-2", "4: 0\n3: 1/5\n2: 3/10\n1: 13/30\n0: 43/60\n"),
}


@pytest.mark.parametrize("system", TRACE_GOLDENS)
def test_convergent_trace_lists_stages_top_down(system):
    text, golden = TRACE_GOLDENS[system]
    code, out, err = run_cli(
        "convergent",
        "--system", system,
        "--input", text,
        "--bits", "64",
        "--order", str(golden.count("\n") - 1),
        "--emit", "trace",
    )
    assert code == 0 and err == ""
    assert out == golden


REAL_SYSTEM_IDS = ("base10", "base10-shuffled", "cf", "egyptian", "engel")
REAL_INPUTS = ("pi-3", "e-2", "sqrt(2)-1", "sqrt(1/2)", "(sqrt(2)-1)/3", "1/(pi)", "pi/4",
               "sqrt(3)-1", "7/10", "1/3", "e/3", "(pi-3)*7")


def test_real_convergent_traces_are_pinned():
    # 60 `--emit trace` runs (47 exit 0, 10 exhausted, 3 improper): the
    # sha256 of their argv, exit codes, stdout and stderr, as JSON with
    # sorted keys, pins every byte the real systems print here
    records = []
    for system, text in itertools.product(REAL_SYSTEM_IDS, REAL_INPUTS):
        argv = ["convergent", "--system", system, "--input", text,
                "--bits", "256", "--order", "12", "--emit", "trace"]
        code, out, err = run_cli(*argv)
        records.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    assert sorted(r["exit"] for r in records) == [0] * 47 + [3] * 10 + [4] * 3
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "599a1805e37ad27b98805af1220f82e04f16fd69caf4281d73dfe1e579de9d18")


POLY_TRACE_INPUTS = ("0", "5/3", "x^2", "1 + 2*x - x^3/3", "(x - 1)^4", "x^5/7 - x + 1/2",
                     "1/2 + x - x^2 + x^3 - x^4")
SERIES_TRACE_INPUTS = {
    "taylor": POLY_TRACE_INPUTS + ("exp(x)", "1/(1 - x)"),
    "newton-forward": POLY_TRACE_INPUTS,
    "newton-backward": POLY_TRACE_INPUTS,
    "newton-reflected": POLY_TRACE_INPUTS,
    "norm-taylor": POLY_TRACE_INPUTS + ("x/2 - x^2/4", "(x/2)^3"),
    "fourier": ("1 + i", "E(1) + 1/2*E(-1)", "(1/2 + i)*E(2) - E(-1) + 3", "E(1) + E(-2)"),
}


def test_series_convergent_traces_are_pinned():
    # 172 `--emit trace` runs of the series, polynomial and trig systems at
    # orders 0, 2, 4 and 7 (161 exit 0, 9 norm-taylor non-members, 2
    # improper): the sha256 of their argv, exit codes, stdout and stderr, as
    # JSON with sorted keys, pins every byte those systems print here
    records = []
    for system, texts in SERIES_TRACE_INPUTS.items():
        for text, order in itertools.product(texts, ("0", "2", "4", "7")):
            argv = ["convergent", "--system", system, "--input", text,
                    "--order", order, "--emit", "trace"]
            code, out, err = run_cli(*argv)
            records.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    assert sorted(r["exit"] for r in records) == [0] * 161 + [2] * 9 + [4] * 2
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "41a1f46dd9b574ca101409b1db95c895a939fed57b08a11641603e3fea4c02e0")


def test_convergent_value_with_decimal_rendering():
    code, out, err = run_cli(
        "convergent",
        "--system", "base10",
        "--input", "1/3",
        "--order", "3",
        "--approx", "8",
    )
    assert (code, out, err) == (0, "0.333\n", "")


def test_order_finite_and_censored():
    code, out, _ = run_cli(
        "order", "--system", "taylor", "--input", "1 + x^2", "--max", "10"
    )
    assert (code, out) == (0, "finite(3)\n")
    code, out, _ = run_cli(
        "order",
        "--system", "taylor",
        "--input", "exp",
        "--max", "6",
        "--series-order", "6",
    )
    assert (code, out) == (0, "infinite-up-to(6)\n")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_csv_file(tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, err = run_cli(
        "report",
        "--system", "base10",
        "--input", "1/3",
        "--nmax", "4",
        "--out", str(out_path),
    )
    assert (code, out, err) == (0, "", "")
    assert out_path.read_text() == (
        'n,proper,distance,coeffs\n'
        '0,true,"1/3",""\n'
        '1,true,"1/30","3"\n'
        '2,true,"1/300","3 3"\n'
        '3,true,"1/3000","3 3 3"\n'
        '4,true,"1/30000","3 3 3 3"\n'
    )


def test_report_json_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(
            "report",
            "--system", "base10",
            "--input", "1/3",
            "--nmax", "3",
            "--format", "json",
            "--out", str(path),
        )
        assert code == 0
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0])
    assert doc["metric_id"] == "abs"
    assert [row["n"] for row in doc["rows"]] == [0, 1, 2, 3]


_GERM_REPORTS = [
    pytest.param(("--system", "as-k-power-2", "--input", "exp(x)"), id="as-k-power-2"),
    pytest.param(("--system", "as-d-logexp", "--input", "exp(x)-1"), id="as-d-logexp"),
    pytest.param(("--system", "as-d-power-half", "--input", "sqrt(1/(1 - x))"),
                 id="as-d-power-half"),
]


@pytest.mark.parametrize("element", _GERM_REPORTS)
def test_report_on_a_germ_system_defaults_to_grid_sup(tmp_path, element):
    # coeff-head re-expands truncated-germ convergents, which cannot certify
    # past n = 0, so germs default to grid-sup and refuse coeff-head
    path = tmp_path / "r.json"
    code, out, err = run_cli("report", *element, "--nmax", "1", "--format", "json",
                             "--out", str(path))
    assert (code, out, err) == (0, "", "")
    doc = json.loads(path.read_text())
    assert doc["system_id"] == element[1]
    assert doc["metric_id"] == "grid-sup"
    assert [row["n"] for row in doc["rows"]] == [0, 1]
    code, out, err = run_cli("report", *element, "--nmax", "1", "--metric", "coeff-head",
                             "--out", str(tmp_path / "r.csv"))
    assert (code, out) == (2, "")
    assert err == "error: DomainError: metric 'coeff-head' does not apply to 'germ' elements\n"


# ---------------------------------------------------------------------------
# morphism verify
# ---------------------------------------------------------------------------


def test_morphism_verify_builtins():
    for spec in ("newton-reflection", "decimal-shift", "cf-shift", "as-d-shift"):
        code, out, err = run_cli(
            "morphism", "verify",
            "--spec", spec,
            "--samples", "6",
            "--depth", "4",
        )
        assert code == 0 and err == "", spec
        assert out == "ok: no violation found on 6 samples to depth 4\n", spec


def _decimal_to_cf_identity():
    return Morphism(name="decimal-to-cf-identity", source=BaseSystem(10),
                    target=ContinuedFractionSystem(),
                    map_element=lambda i, y: y, map_coeff=lambda i, c: c)


def _decimal_affine():
    return Morphism(name="decimal-affine", source=BaseSystem(10), target=BaseSystem(10),
                    map_element=lambda i, y: y / 2 + Fraction(1, 4),
                    map_coeff=lambda i, c: c)


@pytest.mark.parametrize("broken, lines", [
    (_decimal_to_cf_identity,
     "violation: equation=expansion level=0 sample=0\n"
     "detail: map(E_0 y) = 49762/88549 != E'_0(map y) = 38787/201979\n"),
    (_decimal_affine,
     "violation: equation=neutral level=0 sample=None\n"
     "detail: map(neutral_0) = 1/4 != 0\n"),
])
def test_morphism_verify_prints_the_first_violation(monkeypatch, broken, lines):
    # a violation is a finding, not a failure of the command
    monkeypatch.setitem(cli._BUILTIN_MORPHISMS, "cf-shift", broken)
    assert run_cli("morphism", "verify", "--spec", "cf-shift") == (0, lines, "")


# ---------------------------------------------------------------------------
# approximation systems
# ---------------------------------------------------------------------------


def test_as_run_derivative_power():
    code, out, err = run_cli(
        "as", "run",
        "--transform", "d",
        "--nonlinearity", "power",
        "--alpha", "1/2",
        "--input", "sqrt(1/(1 - x))",
        "--depth", "3",
    )
    assert (code, out, err) == (0, "c: 1/2 3/4 7/8\nm: 0 0 0\n", "")


def test_as_run_kd_reports_three_streams():
    code, out, err = run_cli(
        "as", "run",
        "--transform", "kd",
        "--nonlinearity", "power",
        "--alpha", "3",
        "--input", "(1 + x)^3",
        "--depth", "2",
    )
    assert (code, out, err) == (0, "c: 6 3/2\nm: 1 1\nb: 3 3/2\n", "")


@pytest.mark.parametrize("transform, lines", [
    ("d", "c: 1 1 1\nm: 0 0 0\n"),
    ("k", "c: 1 1/2 3/8\nm: 1 1 1\n"),
    ("kd", "c: 2\nm: 1\nb: 1\n"),
])
def test_as_run_prints_the_certified_prefix_before_exit_3(transform, lines):
    # series(1,1,1,1) knows four coefficients, too few for depth 6
    argv = ("as", "run", "--transform", transform, "--nonlinearity", "power",
            "--alpha", "1/2", "--input", "series(1,1,1,1)", "--depth", "6")
    code, out, err = run_cli(*argv)
    assert (code, out) == (3, lines)
    assert err.startswith("error: TruncationInconclusive: ") and err.count("\n") == 1
    if transform == "d":
        # the same germ and system through expand
        assert run_cli("expand", "--system", "as-d-power-half", *argv[8:]) == (
            3, "(1,0) (1,0) (1,0)\n", err)
    if transform == "k":
        assert run_cli(*argv, "--approx", "2") == (3, "c: 1 0.5 0.38\nm: 1 1 1\n", err)


def test_as_eval_along_real_segment():
    code, out, err = run_cli(
        "as", "eval",
        "--transform", "d",
        "--nonlinearity", "power",
        "--alpha", "1/2",
        "--input", "sqrt(1/(1 - x))",
        "--order", "3",
        "--path", "0,0.5",
    )
    assert code == 0 and err == ""
    value_line, error_line, panels_line = out.splitlines()
    assert value_line.startswith("value: 1.39608424901962")
    assert float(error_line.split(": ")[1]) < 1e-12
    assert panels_line == "panels: 1"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_code_parse_error():
    code, out, err = run_cli(
        "expand", "--system", "base10", "--input", "1 +", "--depth", "2"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ParseError:")


def test_exit_code_unknown_system():
    code, _, err = run_cli(
        "expand", "--system", "nope", "--input", "1/2", "--depth", "2"
    )
    assert code == 2
    assert err.startswith("error: DomainError:")


def test_exit_code_improper_convergent():
    code, _, err = run_cli(
        "convergent",
        "--system", "norm-taylor",
        "--input", "1/2 + x - x^2 + x^3 - x^4",
        "--order", "2",
    )
    assert code == 4
    assert err == "error: Improper: convergent improper at level 0\n"


def test_exit_code_precision_exhausted():
    code, _, err = run_cli(
        "expand",
        "--system", "cf",
        "--input", "sqrt(1/2)",
        "--bits", "16",
        "--depth", "40",
    )
    assert code == 3
    assert err.startswith("error: PrecisionExhausted:")


def test_expand_prints_the_certified_prefix_before_exit_3():
    # 256 bits certify 100 partial quotients of sqrt(2) - 1, not the 101st
    argv = ("--system", "cf", "--input", "sqrt(2)-1", "--depth", "101")
    code, out, err = run_cli("expand", *argv)
    assert (code, out) == (3, " ".join(["2"] * 100) + "\n")
    assert err.startswith("error: PrecisionExhausted: floor undecidable on [")
    assert err.count("\n") == 1
    # rendered as expand renders a code
    code, out, _ = run_cli("expand", *argv, "--approx", "3")
    assert (code, out) == (3, " ".join(["2"] * 100) + "\n")
    # other verbs print no prefix
    assert run_cli("convergent", "--system", "cf", "--input", "sqrt(2)-1",
                   "--order", "101") == (3, "", err)


@pytest.mark.parametrize("text, depth, words", [("series(1,2,3)", 4, 3), ("exp(x)", 40, 33)])
def test_expand_prints_the_last_known_taylor_coefficient(text, depth, words):
    # the failing level's coefficient is certified; only its remainder is not
    code, out, err = run_cli("expand", "--system", "taylor", "--input", text,
                             "--depth", str(depth))
    assert code == 3 and len(out.split()) == words
    assert out.startswith("1 2 3\n" if words == 3 else "1 1 1/2 1/6 ")
    assert err == ("error: TruncationInconclusive: shifting down an order-0 germ"
                   " leaves no known coefficients\n")


def test_exit_code_truncated_knowledge():
    code, _, err = run_cli(
        "order",
        "--system", "taylor",
        "--input", "exp",
        "--max", "12",
        "--series-order", "6",
    )
    assert code == 3
    assert err.startswith("error: TruncationInconclusive:")


# ---------------------------------------------------------------------------
# config files and determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", ["sqrt(2)-1", "pi-3", "e-2"])
def test_exit_code_bits_beyond_the_limit(text):
    code, out, err = run_cli("expand", "--system", "cf", "--input", text,
                             "--bits", "100000000000", "--depth", "3")
    assert (code, out) == (2, "")
    assert err == "error: DomainError: bits must be at most 1048576, got 100000000000\n"


def test_exit_code_bits_beyond_the_limit_spares_exact_inputs():
    code, out, err = run_cli("expand", "--system", "cf", "--input", "1/3",
                             "--bits", "100000000000", "--depth", "3")
    assert (code, out, err) == (0, "3 inf inf\n", "")


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "expansions", "systems", "list"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli("systems", "list")[1]


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "cf", "input": "7/10", "depth": 4}))
    code, out, _ = run_cli("expand", "--config", str(cfg))
    assert (code, out) == (0, "1 2 3 inf\n")
    code, out, _ = run_cli("expand", "--config", str(cfg), "--depth", "2")
    assert (code, out) == (0, "1 2\n")


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "cf", "bogus-key": 1}))
    code, _, err = run_cli(
        "expand", "--config", str(cfg), "--input", "7/10", "--depth", "2"
    )
    assert code == 2
    assert "unknown config key" in err


def test_repeated_invocations_are_byte_identical():
    first = run_cli("expand", "--system", "engel", "--input", "3/8", "--depth", "5")
    second = run_cli("expand", "--system", "engel", "--input", "3/8", "--depth", "5")
    assert first == second
    assert first[0] == 0


def test_exit_code_negative_depth():
    code, out, err = run_cli(
        "expand", "--system", "cf", "--input", "7/10", "--depth", "-1"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: DomainError:")


def test_exit_code_deep_nesting():
    text = "(" * 3000 + "7/10" + ")" * 3000
    code, out, err = run_cli(
        "expand", "--system", "cf", "--input", text, "--depth", "2"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ParseError:")


def test_constant_trig_expression_is_a_trig_polynomial():
    code, out, err = run_cli(
        "expand", "--system", "fourier", "--input", "1 + i", "--depth", "2"
    )
    assert (code, out, err) == (0, "(1+1 i,1+1 i) (0,0)\n", "")


@pytest.mark.parametrize("text, words", [
    ("E(1)/2", "(0,0) (0,1/2) (0,0)"),
    ("E(1)/(2*i)", "(0,0) (0,0-1/2 i) (0,0)"),
])
def test_trig_polynomial_divided_by_a_constant(text, words):
    code, out, err = run_cli("expand", "--system", "fourier", "--input", text, "--depth", "3")
    assert (code, out, err) == (0, words + "\n", "")


def test_exit_codes_sqrt_of_enclosure():
    near_zero = "sqrt(sqrt(2)-141421356237/100000000000)"
    code, out, err = run_cli(
        "expand", "--system", "cf", "--input", near_zero, "--bits", "16",
        "--depth", "3",
    )
    assert code == 3 and out == ""
    assert err.startswith("error: PrecisionExhausted:")
    code, out, err = run_cli(
        "expand", "--system", "cf", "--input", "sqrt(1-sqrt(2))", "--bits", "64",
        "--depth", "3",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: DomainError: sqrt of negative value")


def test_exit_code_out_of_range_counts_and_digits(tmp_path):
    # a negative series order or sample count and an --approx below 1 are
    # domain errors, also where the output has no digits to round and where
    # --approx comes from a config file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"approx": 0}))
    third = ("--system", "base10", "--input", "1/3")
    for argv in (
        ("expand", "--system", "taylor", "--input", "exp(x)", "--depth", "5",
         "--series-order", "-1"),
        ("convergent", "--system", "base10", "--input", "pi-3", "--order", "3",
         "--approx", "0"),
        ("expand", *third, "--depth", "3", "--approx", "0"),
        ("expand", *third, "--depth", "3", "--config", str(cfg)),
        ("morphism", "verify", "--spec", "decimal-shift", "--samples", "-3"),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: DomainError:"), argv
    code, out, _ = run_cli("morphism", "verify", "--spec", "decimal-shift",
                           "--samples", "0")
    assert (code, out) == (0, "ok: no violation found on 0 samples to depth 6\n")
    with pytest.raises(DomainError):
        morphism_samples("decimal-shift", -3, random.Random(0))


def test_exit_code_huge_input_outside_unit_interval():
    # the message names the side of [0, 1), not a value too long to print
    for text, bits, side in (("2^20000", "256", "at or above 1"),
                             ("pi*2^20000", "64", "at or above 1"),
                             ("0-2^20000", "256", "below 0")):
        code, out, err = run_cli("expand", "--system", "base10", "--input", text,
                                 "--bits", bits, "--depth", "2")
        assert (code, out) == (2, "")
        assert err == f"error: DomainError: element lies outside [0, 1), {side}\n"


def _decimal(n):
    """``str(n)`` past the interpreter's int/str digit limit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(saved)


_HUGE = "pi*2^20000-pi*2^20000"


@pytest.mark.parametrize("argv, code, out, err", [
    (("expand", "--system", "egyptian", "--input", "1/(2^20000)", "--depth", "1"),
     0, "{n}\n", ""),
    (("convergent", "--system", "egyptian", "--input", "1/(2^20000)", "--order", "1"),
     0, "1/{n}\n", ""),
    (("expand", "--system", "newton-forward", "--input", "2^20000*x", "--depth", "2"),
     0, "0 {n}\n", ""),
    (("expand", "--system", "cf", "--input", _HUGE, "--bits", "64", "--depth", "2"),
     3, "", "error: PrecisionExhausted: sign undecidable on [-"),
    (("expand", "--system", "base10", "--input", f"1/({_HUGE})", "--bits", "64",
      "--depth", "2"),
     3, "", "error: PrecisionExhausted: cannot invert interval straddling zero: [-"),
    (("expand", "--system", "base10", "--input", "sqrt(-2^20000)", "--depth", "2"),
     2, "", "error: DomainError: sqrt of negative value -{n}\n"),
])
def test_numbers_past_the_int_digit_limit(argv, code, out, err):
    # certified results and error messages print every digit
    got_code, got_out, got_err = run_cli(*argv)
    n = _decimal(2 ** 20000)
    assert (got_code, got_out) == (code, out.format(n=n))
    assert got_err.startswith(err.format(n=n))
    if code == 3:
        assert got_err.endswith("]\n") and len(got_err) > 2 * len(n)


def test_cli_restores_the_int_digit_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        for argv in (("expand", "--system", "egyptian", "--input", "1/(2^20000)",
                      "--depth", "1"),
                     ("expand", "--system", "cf", "--input", _HUGE, "--bits", "64",
                      "--depth", "2")):
            run_cli(*argv)
            assert sys.get_int_max_str_digits() == 5000
        with pytest.raises(SystemExit):
            run_cli("expand", "--depth", "x")
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(saved)


def test_bad_config_and_out_files_are_domain_errors(tmp_path):
    def config(text):
        path = tmp_path / f"cfg{len(list(tmp_path.iterdir()))}.json"
        path.write_text(text)
        return str(path)

    third = ("--system", "cf", "--input", "1/3")
    for argv in (
        ("expand", *third, "--depth", "2", "--config", str(tmp_path / "missing.json")),
        ("expand", *third, "--depth", "2", "--config", str(tmp_path)),
        ("expand", *third, "--depth", "2", "--config", config("{bad")),
        ("expand", *third, "--config", config('{"depth": "x"}')),
        ("expand", *third, "--depth", "2", "--config", config('{"bits": "abc"}')),
        ("expand", *third, "--config", config('{"depth": 2.5}')),
        ("convergent", *third, "--order", "2", "--config", config('{"emit": "bogus"}')),
        ("report", *third, "--nmax", "3", "--config", config('{"format": "xml"}')),
        ("expand", *third, "--depth", "2", "--config", config('{"handler": 1}')),
        ("report", *third, "--nmax", "3", "--out", str(tmp_path / "no" / "x.csv")),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: DomainError: ") and err.endswith("\n"), argv


def test_config_values_read_as_flag_text(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "base10", "input": "pi-3", "depth": "4",
                               "bits": 64}))
    code, out, _ = run_cli("expand", "--config", str(cfg))
    assert (code, out) == run_cli("expand", "--system", "base10", "--input", "pi-3",
                                  "--depth", "4", "--bits", "64")[:2]
    assert (code, out) == (0, "1 4 1 5\n")


def test_config_file_supplies_emit(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"emit": "trace"}))
    third = ("--system", "cf", "--input", "7/10", "--order", "2")
    traced = run_cli("convergent", *third, "--emit", "trace")
    assert traced[1].count("\n") == 3
    assert run_cli("convergent", *third, "--config", str(cfg)) == traced
    assert run_cli("convergent", *third, "--config", str(cfg),
                   "--emit", "value") == run_cli("convergent", *third)


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_as_eval_refuses_a_tolerance_that_cannot_be_met(tol):
    code, out, err = run_cli(
        "as", "eval", "--transform", "d", "--nonlinearity", "power", "--alpha", "1/2",
        "--input", "sqrt(1/(1 - x))", "--order", "3", "--path", "0,0.5", "--tol", tol,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: DomainError:")


@pytest.mark.parametrize("args, kind", [
    (("--nonlinearity", "logexp", "--input", "exp(x) - 1", "--order", "2",
      "--path", "0,800"), "SingularityOnPath"),
    (("--nonlinearity", "power", "--alpha", "1/2", "--input", "sqrt(1/(1-x))",
      "--order", "3", "--path", "0,1e300"), "SingularityOnPath"),
    (("--nonlinearity", "power", "--alpha", "1/2", "--input", "1 + 10^400*x",
      "--order", "1", "--path", "0,0.5"), "DomainError"),
    (("--nonlinearity", "power", "--alpha", "1/2", "--input", "sqrt(1/(1-x))",
      "--order", "3", "--path", "nan,0.5"), "DomainError"),
    (("--nonlinearity", "power", "--alpha", "1/2", "--input", "1+10^150*x+10^150*x^2",
      "--order", "3", "--path", "0,0;1e100,1e100"), "SingularityOnPath"),
])
def test_as_eval_out_of_float_range_exits_2(args, kind):
    # overflow along the path, a code coefficient beyond float range and a
    # NaN waypoint
    code, out, err = run_cli("as", "eval", "--transform", "d", *args)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {kind}:") and err.count("\n") == 1


def test_report_on_a_coefficient_beyond_float_range_exits_2(tmp_path):
    # the grid-sup metric evaluates the germ itself at each grid point
    code, out, err = run_cli("report", "--system", "as-d-power-half",
                             "--input", "1/(1-10^400*x)", "--nmax", "1",
                             "--out", str(tmp_path / "r.csv"))
    assert (code, out) == (2, "")
    assert err.startswith("error: DomainError:") and err.count("\n") == 1
    assert "beyond float range" in err


@pytest.mark.parametrize("argv", [
    ("expand", "--system", "cf", "--input", "0^-1", "--depth", "2"),
    ("expand", "--system", "cf", "--input", "(1/2-1/2)^-3", "--depth", "2"),
    ("expand", "--system", "fourier", "--input", "0^-1", "--depth", "2"),
    ("expand", "--system", "fourier", "--input", "(E(0)-1)^-1", "--depth", "2"),
    ("as", "run", "--transform", "d", "--nonlinearity", "power", "--alpha", "i^-1",
     "--input", "exp(x)", "--depth", "2"),
])
def test_zero_to_a_negative_power_exits_2(argv):
    assert run_cli(*argv) == (2, "", "error: DomainError: division by zero\n")


@pytest.mark.parametrize("system_id, text", [
    ("taylor", "x^200000"),
    ("fourier", "E(1)^200000"),
    ("newton-forward", "(1+x)^513"),
    ("taylor", "pow(200000)"),
])
def test_an_exact_power_past_the_degree_bound_exits_2_promptly(system_id, text):
    start = time.perf_counter()
    code, out, err = run_cli("expand", "--system", system_id, "--input", text, "--depth", "2")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: DomainError: exponents above ") and err.count("\n") == 1


def test_exact_and_truncated_powers_keep_their_output():
    # (1+x)^300 and exp(x)^100000 print what k-fold multiplication printed;
    # the truncated power takes log2(k) products instead of k
    binomials = " ".join(str(math.comb(300, k)) for k in range(301))
    assert run_cli("expand", "--system", "taylor", "--input", "(1+x)^300",
                   "--depth", "400") == (0, binomials + " 0" * 99 + "\n", "")
    start = time.perf_counter()
    code, out, err = run_cli("expand", "--system", "taylor", "--input", "exp(x)^100000",
                             "--series-order", "8", "--depth", "9")
    assert time.perf_counter() - start < 1
    heads = [str(Fraction(10 ** (5 * k), math.factorial(k))) for k in range(9)]
    assert (code, out, err) == (0, " ".join(heads) + "\n", "")


# ---------------------------------------------------------------------------
# every long option, as a flag and through --config
# ---------------------------------------------------------------------------

#: one command line per subcommand that sets each of its long options, with
#: values that differ from the defaults
_EVERY_OPTION = {
    ("expand",): {
        "system": "base10", "input": "pi-3", "bits": "8", "series-order": "8",
        "approx": "3", "depth": "6",
    },
    ("convergent",): {
        "system": "base10", "input": "pi-3", "bits": "64", "series-order": "8",
        "approx": "3", "order": "3", "emit": "trace",
    },
    ("order",): {
        "system": "taylor", "input": "exp", "bits": "64", "series-order": "4", "max": "6",
    },
    ("report",): {
        "system": "base10", "input": "pi-3", "bits": "64", "series-order": "16",
        "approx": "3", "nmax": "1", "metric": "coeff-head", "out": "report.out",
        "format": "json",
    },
    ("morphism", "verify"): {"spec": "cf-shift", "samples": "3", "depth": "3", "seed": "5"},
    ("as", "run"): {
        "input": "exp(x)", "series-order": "3", "approx": "3", "depth": "3",
        "transform": "k", "nonlinearity": "power", "alpha": "2",
    },
    ("as", "eval"): {
        "input": "sqrt(1/(1 - x))", "series-order": "16", "order": "3",
        "transform": "d", "nonlinearity": "power", "alpha": "-1", "path": "0;0,12",
        "tol": "1e-2",
    },
}

#: options these commands do not take: they would change no output
_REFUSED_OPTIONS = {
    ("as", "run"): {"system": "base10", "bits": "64"},
    ("as", "eval"): {"system": "base10", "bits": "64", "approx": "3"},
    ("order",): {"approx": "3"},
}


def _long_options(command):
    args = build_parser().parse_args(list(command))
    return {opt[2:] for action in args.config_parser._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt not in ("--help", "--config")}


def test_every_option_table_covers_every_long_option():
    for command, options in _EVERY_OPTION.items():
        assert set(options) == _long_options(command), command


@pytest.mark.parametrize("command, option", [
    pytest.param(command, option, id=" ".join(command) + " --" + option)
    for command, options in _REFUSED_OPTIONS.items() for option in options
])
def test_an_option_that_changes_nothing_is_refused(capsys, command, option):
    # a full command line of the table above plus one option it lacks
    flags = {**_EVERY_OPTION[command], option: _REFUSED_OPTIONS[command][option]}
    argv = [f for key, value in flags.items() for f in (f"--{key}", value)]
    with pytest.raises(SystemExit) as info:
        main([*command, *argv])
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert f"unrecognized arguments: --{option}" in captured.err


def _run_options(command, flags, config):
    """Run ``command`` in the current directory with ``flags`` as flags and
    ``config`` through a ``--config`` file; return the result and the text of
    the report it wrote, if any."""
    cfg = Path("cfg.json")
    cfg.write_text(json.dumps(config))
    argv = [f for key, value in flags.items() for f in (f"--{key}", value)]
    result = run_cli(*command, *argv, "--config", str(cfg))
    report = Path("report.out")
    written = report.read_text() if report.exists() else None
    report.unlink(missing_ok=True)
    return result, written


@pytest.mark.parametrize("command, option", [
    pytest.param(command, option, id=" ".join(command) + " --" + option)
    for command, options in _EVERY_OPTION.items() for option in options
])
def test_every_option_reads_the_same_from_config(tmp_path, monkeypatch, command, option):
    monkeypatch.chdir(tmp_path)
    options = _EVERY_OPTION[command]
    others = {key: value for key, value in options.items() if key != option}
    assert (_run_options(command, others, {option: options[option]})
            == _run_options(command, options, {}))


def test_every_option_changes_some_output(tmp_path, monkeypatch):
    # otherwise the table above could not tell a lost config value from a
    # kept one; a passing verify prints no sample, so --seed cannot show
    monkeypatch.chdir(tmp_path)
    inert = set().union(*_EVERY_OPTION.values())
    for command, options in _EVERY_OPTION.items():
        full = _run_options(command, options, {})
        for option in options:
            others = {key: value for key, value in options.items() if key != option}
            if _run_options(command, others, {}) != full:
                inert.discard(option)
    assert inert == {"seed"}


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------


def _readme_examples():
    """argv and expected stdout lines of each ``$ expansions`` example in
    README's Command line block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    examples = []
    for chunk in block.strip().split("\n\n"):
        lines = chunk.splitlines()
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        assert command.startswith("$ expansions ")
        argv = shlex.split(command)[2:]
        verb = " ".join(word for word in argv[:2] if not word.startswith("-"))
        examples.append(pytest.param(argv, lines, id=verb))
    return examples


@pytest.mark.parametrize("argv, lines", _readme_examples())
def test_readme_examples(tmp_path, monkeypatch, argv, lines):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    if argv[:2] != ["as", "eval"]:
        assert out.splitlines() == lines
        return
    # as in test_as_eval_along_real_segment, the value is pinned to 14
    # decimals and the error only below 1e-12: quadrature digits past that
    # are not part of the contract
    (value, error, panels), (want_value, want_error, want_panels) = out.splitlines(), lines
    prefix = len("value: 1.") + 14
    assert value[:prefix] == want_value[:prefix]
    assert float(error.split(": ")[1]) < 1e-12
    assert float(want_error.split(": ")[1]) < 1e-12
    assert panels == want_panels
