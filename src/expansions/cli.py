"""Command-line frontend.

One pipeline runs every verb: ``_main`` fills unset options from the
``--config`` JSON file (keyed by the long flag names; explicit flags win),
builds the system, parses ``--input`` and hands all three to the verb's
handler.  Handlers wrap the library one-to-one and render with the analysis
serializers, so stdout is deterministic: identical invocations produce
identical bytes.

Exit codes: 0 success; 2 parse/domain errors; 3 exhausted precision or
truncated knowledge, after ``expand`` and ``as run`` have printed the
coefficients certified before the failing level; 4 an improper convergent
where a proper one was demanded; 141 (128 + SIGPIPE) when the reader of
stdout closed it before the output was written, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence

from .analysis import METRICS, convergence_report, export, render_value
from .approx import NL_LOGEXP, NL_POWER, ApproximationSystem, ASConfig
from .core import ExpansionSystem, coefficient_code, convergent, order_of
from .errors import (
    DomainError,
    ExpansionError,
    ParseError,
    PrecisionExhausted,
    QuadratureFailure,
    SingularityOnPath,
    TruncationInconclusive,
    UnsupportedInContext,
)
from .exprs import (
    DEFAULT_BITS,
    DEFAULT_SERIES_ORDER,
    parse_alpha_schedule,
    parse_expression,
    parse_path,
)
from .morphisms import (
    Morphism,
    as_d_shift_morphism,
    cf_shift_morphism,
    decimal_shift_morphism,
    newton_reflection_morphism,
    verify_homomorphism,
)
from .patheval import DEFAULT_TOL, eval_convergent_path
from .registry import build_system, get_entry, system_ids

#: exit code when stdout's reader goes away early, as a shell reports SIGPIPE
EXIT_BROKEN_PIPE = 141


class _ImproperDemand(ExpansionError):
    """Raised internally when a subcommand needs a proper convergent."""


# -- option plumbing ---------------------------------------------------------


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from the ``--config`` file, then check ``--approx``.

    A config value is converted and checked as the same text given to its
    flag would be.
    """
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise DomainError(f"cannot read config file: {exc}") from None
        except ValueError as exc:
            raise DomainError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise DomainError("config file must hold a JSON object")
        actions = {action.dest: action for action in args.config_parser._actions}
        for key, value in data.items():
            action = actions.get(key.replace("-", "_"))
            if action is None or not hasattr(args, action.dest):
                raise DomainError(f"unknown config key {key!r}")
            if value is None:
                continue
            value = _config_value(key, action, str(value))
            if getattr(args, action.dest) is None:
                setattr(args, action.dest, value)
    approx = getattr(args, "approx", None)
    if approx is not None and approx < 1:
        raise DomainError(f"--approx needs a whole number >= 1, got {approx!r}")


def _config_value(key: str, action: argparse.Action, text: str) -> Any:
    try:
        value = action.type(text) if action.type else text
    except ValueError:
        raise DomainError(f"config key {key!r}: invalid value {text!r}") from None
    if action.choices is not None and value not in action.choices:
        raise DomainError(f"config key {key!r}: invalid choice {text!r}")
    return value


def _require(args: argparse.Namespace, attr: str) -> Any:
    value = getattr(args, attr)
    if value is None:
        raise DomainError(f"missing required --{attr.replace('_', '-')}")
    return value


def _get(args: argparse.Namespace, attr: str, default: Any) -> Any:
    value = getattr(args, attr, None)
    return default if value is None else value


def _parse_element(system: ExpansionSystem, text: str, args: argparse.Namespace) -> Any:
    return parse_expression(
        text,
        system.kind,
        order=int(_get(args, "series_order", DEFAULT_SERIES_ORDER)),
        bits=int(_get(args, "bits", DEFAULT_BITS)),
        center=Fraction(getattr(system, "center", 0)),
    )


def _build_as_system(args: argparse.Namespace) -> ApproximationSystem:
    transform = str(_require(args, "transform")).upper()
    nonlinearity = str(_require(args, "nonlinearity"))
    order = int(_get(args, "series_order", ASConfig.order))
    alphas = None
    if nonlinearity == NL_POWER:
        alphas = parse_alpha_schedule(str(_require(args, "alpha")))
    config = ASConfig(
        transform=transform, nonlinearity=nonlinearity, alphas=alphas, order=order
    )
    return ApproximationSystem(config)


# -- subcommand handlers -----------------------------------------------------


def _cmd_systems_list(args: argparse.Namespace, system: None, y: None) -> int:
    for system_id in system_ids():
        entry = get_entry(system_id)
        print(f"{entry.id:<18} {entry.factory().kind:<11} {entry.description}")
    return 0


def _print_code(args: argparse.Namespace, code: Sequence[Any]) -> None:
    approx = getattr(args, "approx", None)
    print(" ".join(render_value(c, approx) for c in code))


def _print_as_code(args: argparse.Namespace, code: Sequence[Any]) -> None:
    approx = getattr(args, "approx", None)
    print("c: " + " ".join(render_value(c.c, approx) for c in code))
    print("m: " + " ".join(render_value(c.m, approx) for c in code))
    if code and code[0].b is not None:
        print("b: " + " ".join(render_value(c.b, approx) for c in code))


def _cmd_code(args: argparse.Namespace, system: ExpansionSystem, y: Any) -> int:
    args.print_code(args, coefficient_code(system, y, int(_require(args, "depth"))))
    return 0


def _cmd_convergent(args: argparse.Namespace, system: ExpansionSystem, y: Any) -> int:
    n = int(_require(args, "order"))
    approx = getattr(args, "approx", None)
    trace = convergent(system, y, n)
    if not trace.proper:
        raise _ImproperDemand(f"convergent improper at level {trace.improper_at}")
    if _get(args, "emit", "value") == "trace":
        for k in range(trace.n, -1, -1):
            print(f"{k}: {render_value(trace.stages[k], approx)}")
    else:
        print(render_value(trace.value, approx))
    return 0


def _cmd_order(args: argparse.Namespace, system: ExpansionSystem, y: Any) -> int:
    print(str(order_of(system, y, int(_require(args, "max")))))
    return 0


def _cmd_report(args: argparse.Namespace, system: ExpansionSystem, y: Any) -> int:
    n_max = int(_require(args, "nmax"))
    fmt = args.format or "csv"
    out = _require(args, "out")
    report = convergence_report(system, y, n_max, args.metric)
    try:
        export(report, fmt, out, getattr(args, "approx", None))
    except OSError as exc:
        raise DomainError(f"cannot write report: {exc}") from None
    return 0


_BUILTIN_MORPHISMS: Dict[str, Callable[[], Morphism]] = {
    "newton-reflection": newton_reflection_morphism,
    "decimal-shift": lambda: decimal_shift_morphism()[1],
    "cf-shift": lambda: cf_shift_morphism()[1],
    "as-d-shift": lambda: as_d_shift_morphism(build_system("as-d-power-half"))[1],
}


def builtin_morphism(spec_id: str) -> Morphism:
    """Construct one of the named built-in morphisms."""
    if spec_id not in _BUILTIN_MORPHISMS:
        raise DomainError(f"unknown morphism spec {spec_id!r}")
    return _BUILTIN_MORPHISMS[spec_id]()


def morphism_samples(spec_id: str, count: int, rng: random.Random) -> List[Any]:
    """Draw verification samples for a built-in morphism's source system."""
    sampler = get_entry(builtin_morphism(spec_id).source.name).sampler
    if count < 0:
        raise DomainError(f"negative sample count {count}")
    return [sampler(rng) for _ in range(count)]


def _cmd_morphism_verify(args: argparse.Namespace, system: None, y: None) -> int:
    spec_id = _require(args, "spec")
    count = int(_get(args, "samples", 20))
    depth = int(_get(args, "depth", 6))
    rng = random.Random(int(_get(args, "seed", 0)))
    morphism = builtin_morphism(spec_id)
    samples = morphism_samples(spec_id, count, rng)
    report = verify_homomorphism(morphism, samples, depth)
    if report.ok:
        print(f"ok: no violation found on {count} samples to depth {depth}")
    else:
        print(
            f"violation: equation={report.equation} level={report.level}"
            f" sample={report.sample_index}"
        )
        print(f"detail: {report.detail}")
    return 0


def _cmd_as_eval(args: argparse.Namespace, system: ExpansionSystem, y: Any) -> int:
    n = int(_require(args, "order"))
    tol = float(_get(args, "tol", DEFAULT_TOL))
    path = parse_path(str(_require(args, "path")))
    code = coefficient_code(system, y, n)
    result = eval_convergent_path(system, code, path, tol=tol)
    print(f"value: {render_value(result.value)}")
    print(f"error: {result.error!r}")
    print(f"panels: {result.panels}")
    return 0


# -- parser assembly ---------------------------------------------------------


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file of option defaults")
    # the file's values are checked against this parser's options
    parser.set_defaults(config_parser=parser)


def _add_common(parser: argparse.ArgumentParser, *extra: str) -> None:
    _add_config(parser)
    # a germ parser builds its system from --transform, --nonlinearity and
    # --alpha and parses no real, so it takes no --system or --bits
    germ = "germ" in extra
    if not germ:
        # the system the pipeline builds before parsing --input
        parser.set_defaults(build=lambda args: build_system(_require(args, "system")))
        parser.add_argument("--system", help="system id from `systems list`")
    parser.add_argument("--input", help="element expression")
    if not germ:
        parser.add_argument("--bits", type=int, help="certified-real precision bits")
    parser.add_argument(
        "--series-order", type=int, dest="series_order",
        help="knowledge order for inexact series",
    )
    if "approx" in extra:
        parser.add_argument(
            "--approx", type=int, help="render numbers as decimals with this many digits"
        )
    for name in extra:
        if name == "depth":
            parser.add_argument("--depth", type=int, help="number of coefficients")
        elif name == "order":
            parser.add_argument("--order", type=int, help="convergent index")
        elif name == "max":
            parser.add_argument("--max", type=int, help="depth bound")
        elif name == "germ":
            parser.add_argument("--transform", choices=("d", "k", "kd", "D", "K", "KD"))
            parser.add_argument("--nonlinearity", choices=(NL_POWER, NL_LOGEXP))
            parser.add_argument("--alpha", help="exponent schedule")
            parser.set_defaults(build=_build_as_system)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expansions",
        description="expansion systems: coefficient codes, convergents, reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    systems = sub.add_parser("systems", help="registry operations")
    systems_sub = systems.add_subparsers(dest="subcommand", required=True)
    systems_list = systems_sub.add_parser("list", help="list built-in systems")
    systems_list.set_defaults(handler=_cmd_systems_list)

    expand = sub.add_parser("expand", help="coefficient code of an element")
    _add_common(expand, "approx", "depth")
    expand.set_defaults(handler=_cmd_code, print_code=_print_code)

    conv = sub.add_parser("convergent", help="n-th convergent of an element")
    _add_common(conv, "approx", "order")
    conv.add_argument("--emit", choices=("value", "trace"), default=None)
    conv.set_defaults(handler=_cmd_convergent)

    order = sub.add_parser("order", help="least depth at which the element is neutral")
    _add_common(order, "max")
    order.set_defaults(handler=_cmd_order)

    report = sub.add_parser("report", help="convergence report to a file")
    _add_common(report, "approx")
    report.add_argument("--nmax", type=int, help="largest convergent index")
    report.add_argument("--metric", choices=tuple(METRICS), help="distance metric")
    report.add_argument("--out", help="output file path")
    report.add_argument("--format", choices=("csv", "json"), help="output format")
    report.set_defaults(handler=_cmd_report)

    morphism = sub.add_parser("morphism", help="morphism operations")
    morphism_sub = morphism.add_subparsers(dest="subcommand", required=True)
    verify = morphism_sub.add_parser("verify", help="check a built-in morphism")
    _add_config(verify)
    verify.add_argument("--spec", help="built-in morphism id")
    verify.add_argument("--samples", type=int, help="number of samples (default 20)")
    verify.add_argument("--depth", type=int, help="levels to check (default 6)")
    verify.add_argument("--seed", type=int, help="sample RNG seed (default 0)")
    verify.set_defaults(handler=_cmd_morphism_verify)

    as_cmd = sub.add_parser("as", help="approximation-system operations")
    as_sub = as_cmd.add_subparsers(dest="subcommand", required=True)

    as_run = as_sub.add_parser("run", help="coefficient code of a germ")
    _add_common(as_run, "approx", "depth", "germ")
    as_run.set_defaults(handler=_cmd_code, print_code=_print_as_code)

    as_eval = as_sub.add_parser("eval", help="evaluate a convergent along a path")
    _add_common(as_eval, "order", "germ")
    as_eval.add_argument("--path", help="semicolon-separated re,im points")
    as_eval.add_argument("--tol", type=float, help="quadrature tolerance")
    as_eval.set_defaults(handler=_cmd_as_eval)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Certified numbers may have any length: lift the interpreter's int/str
    # digit limit (Python >= 3.10.7) for this call only, so a host that
    # imports the library keeps its own.
    saved = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = _main(argv)
        # flushed here, so that a reader who closed stdout early is met below
        # and not by the interpreter's flush at shutdown
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout now writes to the null device, so the flush at shutdown of
        # what is still buffered cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def _main(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    build = getattr(args, "build", None)
    try:
        _apply_config(args)
        system = y = None
        if build is not None:
            system = build(args)
            y = _parse_element(system, _require(args, "input"), args)
        return args.handler(args, system, y)
    except ParseError as exc:
        return _fail("ParseError", exc)
    except _ImproperDemand as exc:
        return _fail("Improper", exc, code=4)
    except (PrecisionExhausted, TruncationInconclusive, QuadratureFailure) as exc:
        # a code verb still prints what it certified before the failing level
        prefix = getattr(exc, "prefix", ())
        if prefix and hasattr(args, "print_code"):
            args.print_code(args, prefix)
        return _fail(type(exc).__name__, exc, code=3)
    except (DomainError, UnsupportedInContext, SingularityOnPath) as exc:
        return _fail(type(exc).__name__, exc)
    except ZeroDivisionError as exc:
        return _fail("DomainError", exc)


def _fail(kind: str, exc: BaseException, code: int = 2) -> int:
    sys.stderr.write(f"error: {kind}: {exc}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
