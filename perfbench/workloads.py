"""The four benchmark workloads.

A workload is a *cycle* of rounds.  Every round has the same composition
(the same systems, bit budgets, depths and orders, in a seeded order), and
the seed draws the concrete inputs of each round, so the mix of operation
costs does not depend on the seed while the inputs do.  A cycle holds at
least 100 operations; the benchmark runs it repeatedly for the measured
time.

Each operation is a plain-data descriptor (``dict``) that records what the
oracle and a replay need: system id, expression or sampler draw, bits,
depth or order, path and tolerance.  ``cli`` turns a descriptor into the
``expansions`` command line that reproduces it.

Only ``build_systems``, ``build_round`` and ``execute`` touch the library;
they receive the imported package as ``lib`` and call it through module
attributes, so the tracer can wrap the entry points.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from typing import Any, Dict, List, Tuple

from oracles import INF, ast_text, render_fraction

Op = Dict[str, Any]


def _rng(seed: int, *tags: object) -> random.Random:
    return random.Random("/".join(str(t) for t in (seed,) + tags))


def _series_text(coeffs, exact: bool = False) -> str:
    name = "poly" if exact else "series"
    return f"{name}(" + ", ".join(render_fraction(c) for c in coeffs) + ")"


def _poly_text(coeffs) -> str:
    terms = [f"({render_fraction(c)})*x^{k}" for k, c in enumerate(coeffs) if c]
    return " + ".join(terms) or "0"


def _quote(text: str) -> str:
    return '"' + text + '"'


# -- plain-data snapshots of library values (read attributes, call nothing) --


def plain(value: Any) -> Any:
    kind = type(value).__name__
    if value is None or isinstance(value, (int, F, str)):
        return value
    if kind == "_Infinity":
        return INF
    if kind == "ComplexRational":
        return (value.re, value.im)
    if kind in ("Polynomial", "PowerSeries"):
        return tuple(value.coeffs)
    if kind == "TrigPolynomial":
        return tuple((k, plain(a)) for k, a in value.terms)
    if isinstance(value, tuple):
        return tuple(plain(v) for v in value)
    raise TypeError(f"no snapshot for {kind}")


# -- reals-certified ----------------------------------------------------------------

REAL_SYSTEMS = ("base10", "base10-shuffled", "cf", "egyptian", "engel")
REAL_BITS = (256, 1024, 4096)


def in_budget_depth(system: str, bits: int) -> int:
    """A depth far inside what ``bits`` certifies for every family used.

    Measured certified depths at 256/1024/4096 bits: base10 76/306/1231,
    cf 70/223/721 at the slowest (e-2), egyptian 6/8/10, engel 17/37/74 at
    the slowest; these depths take at most a quarter of that (egyptian:
    two levels less, a factor four in bits).
    """
    if system.startswith("base10") or system == "cf":
        return {256: 16, 1024: 64, 4096: 128}[bits]
    if system == "egyptian":
        return bits.bit_length() - 5
    return math.isqrt(bits) // 2


def over_deep_depth(system: str, bits: int) -> int:
    """A depth no input of these families can certify at ``bits``."""
    if system.startswith("base10"):
        return bits // 2
    if system == "cf":
        return bits
    if system == "egyptian":
        return 2 * bits.bit_length()
    return bits // 4


def _nonsquare(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        k = rng.randint(lo, hi)
        if math.isqrt(k) ** 2 != k:
            return k


def irrational_ast(family: int, rng: random.Random) -> tuple:
    """One irrational in (0, 1) from five families."""
    num = lambda q: ("num", F(q))  # noqa: E731
    if family == 0:
        k = _nonsquare(rng, 2, 999)
        return ("sub", ("sqrt", num(k)), num(math.isqrt(k)))
    if family in (1, 2):
        k = rng.randint(1, 9)
        const = ("sub", ("pi",), num(3)) if family == 1 else ("sub", ("e",), num(2))
        return ("mul", const, num(F(k, k + 1)))
    if family == 3:
        a, b = _nonsquare(rng, 2, 99), _nonsquare(rng, 2, 99)
        top = ("sub", ("sqrt", num(a)), num(math.isqrt(a)))
        return ("div", top, ("add", ("sqrt", num(b)), num(rng.randint(1, 5))))
    while True:
        q = F(rng.randint(1, 49), rng.randint(2, 50))
        if q < 1 and not (math.isqrt(q.numerator) ** 2 == q.numerator
                          and math.isqrt(q.denominator) ** 2 == q.denominator):
            return ("sqrt", num(q))


class RealsCertified:
    """25 operations a round: every system at 256 and 1024 bits, the 4096-bit
    operations (two each of base10 and base10-shuffled and one cf, the p90
    class, and one each of egyptian and engel), five rationals and three
    over-deep requests.  Slots rotate through the five irrational families
    from round to round."""

    name = "reals-certified"
    cycle_rounds = 4

    def build_systems(self, lib) -> Dict[str, Any]:
        return {s: lib.build_system(s) for s in REAL_SYSTEMS}

    @staticmethod
    def slots(r: int) -> List[Tuple[str, int, str]]:
        out = [(system, bits, "in") for system in REAL_SYSTEMS for bits in (256, 1024)]
        out += [(system, 4096, "in") for system in
                ("base10", "base10", "base10-shuffled", "base10-shuffled",
                 "cf", "egyptian", "engel")]
        out += [(system, REAL_BITS[(r + i) % 3], "rational")
                for i, system in enumerate(REAL_SYSTEMS)]
        out += [(REAL_SYSTEMS[(3 * r + k) % 5], (256, 1024)[(r + k) % 2], "over")
                for k in range(3)]
        return out

    def build_round(self, lib, systems, seed: int, r: int) -> List[Tuple[Op, Any]]:
        ops: List[Op] = []
        for slot, (system, bits, kind) in enumerate(self.slots(r)):
            rng = _rng(seed, self.name, r, slot)
            op = dict(system=system, bits=bits, over_deep=kind == "over",
                      depth=over_deep_depth(system, bits) if kind == "over"
                      else in_budget_depth(system, bits))
            if kind == "rational":
                q = lib.sample_element(system, rng)
                op.update(ast=None, rational=q, text=render_fraction(q))
            else:
                ast = irrational_ast((r + slot) % 5, rng)
                op.update(ast=ast, rational=None, text=ast_text(ast))
            ops.append(op)
        _rng(seed, self.name, r, "order").shuffle(ops)
        return [(op, None) for op in ops]

    def execute(self, lib, systems, op: Op, inp: Any) -> Dict[str, Any]:
        system = systems[op["system"]]
        y = lib.parse_expression(op["text"], "real", bits=op["bits"])
        code = lib.coefficient_code(system, y, op["depth"])
        trace = lib.convergent_from_code(system, code)
        render = lib.render_value
        return {
            "code": " ".join(render(c) for c in code),
            "convergent": render(trace.value) if trace.proper
            else f"improper@{trace.improper_at}",
        }

    def cli(self, op: Op) -> str:
        common = (f"--system {op['system']} --input {_quote(op['text'])} "
                  f"--bits {op['bits']}")
        return (f"expansions expand {common} --depth {op['depth']} && "
                f"expansions convergent {common} --order {op['depth']}")


# -- germ-codes -----------------------------------------------------------------------

AS_IDS = ("as-d-power-half", "as-d-power-neg1", "as-d-logexp", "as-k-power-2",
          "as-k-power-neg1", "as-k-logexp", "as-kd-power-3")
CENTER_ONE = "as-d-power-neg1@1"  # criterion 8 / 12 system: D, power -1, centre 1

INV_SQRT_SCALES = (F(1), F(1, 2), F(3, 4), F(-1, 2), F(2, 3))
X_POW_EXPONENTS = (F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(2, 3))

#: criterion -> (system, expression in the series language, series order)
CRITERIA = {
    "inv-sqrt": ("as-d-power-half", "sqrt(1/(1 - ({p})*x))", 40),
    "exp": ("as-d-power-neg1", "exp(x)", 40),
    "x-pow": (CENTER_ONE, "pow({p}) at 1", 24),
    "kd-cube": ("as-kd-power-3", "(1 + x)^3", 40),
}


def _germ_systems(lib) -> Dict[str, Any]:
    systems = {s: lib.build_system(s) for s in AS_IDS}
    systems[CENTER_ONE] = lib.ApproximationSystem(lib.ASConfig(
        transform="D", nonlinearity="power", alphas=lib.constant_alpha(-1),
        center=F(1)))
    return systems


def _criterion_input(lib, systems, criterion: str, param: F) -> Tuple[str, Any]:
    system_id, template, order = CRITERIA[criterion]
    text = template.format(p=render_fraction(param))
    center = systems[system_id].config.center
    return text, lib.parse_expression(text, "series", order=order, center=center)


def _as_cli(op: Op, verb: str, extra: str) -> str:
    if op["system"] == CENTER_ONE:
        return "(centre-1 system: not expressible on the CLI; use run.py --replay)"
    return (f"expansions {verb} --system {op['system']} --input {_quote(op['text'])} "
            f"--series-order {op.get('order', 32)} {extra}")


class GermCodes:
    """15 operations a round: four KD samples at n = 4 (the tail, a quarter
    of the operations, which holds p90), one more KD sample and one sample
    of each other ``as-*`` id at a rotating n, and the four criterion 6-9
    germs at a rotating n.  n stays at most 4: one KD
    operation at n = 5 takes 0.35 s and at n = 6 about 4 s, too long for a
    cycle that repeats."""

    name = "germ-codes"
    cycle_rounds = 7
    tail_depth = 4
    tail_samples = 4

    def build_systems(self, lib) -> Dict[str, Any]:
        return _germ_systems(lib)

    def build_round(self, lib, systems, seed: int, r: int) -> List[Tuple[Op, Any]]:
        slots = [("as-kd-power-3", self.tail_depth)] * self.tail_samples
        slots += [(system, 1 + (r + i) % 4) for i, system in enumerate(AS_IDS)]
        out: List[Tuple[Op, Any]] = []
        for slot, (system, n) in enumerate(slots):
            # The tail germs are one fixed draw for every seed: a KD operation
            # costs 18-100 ms depending on the sample, and with 28 samples the
            # tail's mean and p90 would still swing 10-15 % from seed to seed.
            tail = slot < self.tail_samples
            rng = _rng("tail", self.name, r, slot) if tail else _rng(seed, self.name, r, slot)
            germ = lib.sample_element(system, rng)
            coeffs = tuple(germ.coeffs)
            op = dict(system=system, n=n, criterion=None, param=None, coeffs=coeffs,
                      exact=germ.exact, text=_series_text(coeffs, germ.exact))
            out.append((op, germ))
        rng = _rng(seed, self.name, r, "criteria")
        params = {"inv-sqrt": rng.choice(INV_SQRT_SCALES), "exp": F(1),
                  "x-pow": rng.choice(X_POW_EXPONENTS), "kd-cube": F(1)}
        for j, (criterion, param) in enumerate(params.items()):
            text, germ = _criterion_input(lib, systems, criterion, param)
            op = dict(system=CRITERIA[criterion][0], n=1 + (r + j) % 4, criterion=criterion,
                      param=param, text=text, order=CRITERIA[criterion][2])
            out.append((op, germ))
        _rng(seed, self.name, r, "order").shuffle(out)
        return out

    def execute(self, lib, systems, op: Op, germ: Any) -> Dict[str, Any]:
        system = systems[op["system"]]
        n = op["n"]
        render = lib.render_value
        code = lib.coefficient_code(system, germ, n)
        trace = lib.convergent_from_code(system, code)
        result = {"code": [render(c) for c in code], "proper": trace.proper}
        if trace.proper:
            recode = lib.coefficient_code(system, trace.value, n)
            result["recode"] = [render(c) for c in recode]
            result["head"] = [render(c) for c in trace.value.coeffs[:8]]
        return result

    def cli(self, op: Op) -> str:
        n = op["n"]
        return (_as_cli(op, "expand", f"--depth {n}") + " && "
                + _as_cli(op, "convergent", f"--order {n} --emit trace"))


# -- path-eval -----------------------------------------------------------------------


#: acceptance criterion 12: a loop around the branch point 0 of x^(1/2)
LOOP = (1 + 0j, 1 + 1.5j, -1.6 + 1.5j, -1.6 - 1.5j, 1 - 1.5j, 1 + 0j)


def loop_path(rng: random.Random) -> List[complex]:
    """The criterion-12 loop, run one way or the other.  The two directions
    cost the same (the values are conjugate), so the seed varies the inputs
    without varying the work."""
    if rng.random() < 0.5:
        return list(LOOP)
    return [z.conjugate() for z in LOOP]


class PathEval:
    name = "path-eval"
    cycle_rounds = 4
    orders = (2, 3, 4, 5, 6, 7, 8)
    tols = (1e-10, 1e-12)
    segments_per_order = 3
    # x^(1/3): the criterion-12 loop costs 6-9 panels per level at every
    # order (x^(1/2) needs 15 from order 5 on, x^(2/5) 12-22 depending on
    # the corners), so the loop work does not swing with the seed
    loop_exponent = F(1, 3)

    def build_systems(self, lib) -> Dict[str, Any]:
        return _germ_systems(lib)

    def build_round(self, lib, systems, seed: int, r: int) -> List[Tuple[Op, Any]]:
        out: List[Tuple[Op, Any]] = []
        path = loop_path(_rng(seed, self.name, r, "loop"))
        text, germ = _criterion_input(lib, systems, "x-pow", self.loop_exponent)
        for n in self.orders:
            tol = self.tols[(r + n) % 2]
            op = dict(system=CENTER_ONE, criterion="x-pow", param=self.loop_exponent,
                      n=n, tol=tol,
                      loop=True, path=path, center=1, text=text, order=24)
            out.append((op, germ))
        rng = _rng(seed, self.name, r, "segments")
        for n in self.orders:
            for j in range(self.segments_per_order):
                tol = self.tols[(r + n + j) % 2]
                s = rng.choice(INV_SQRT_SCALES)
                radius, angle = 0.6 * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi)
                end = complex(radius * math.cos(angle), radius * math.sin(angle))
                text, germ = _criterion_input(lib, systems, "inv-sqrt", s)
                op = dict(system="as-d-power-half", criterion="inv-sqrt", param=s, n=n,
                          tol=tol, loop=False, path=[0j, end], center=0, text=text,
                          order=40)
                out.append((op, germ))
        _rng(seed, self.name, r, "order").shuffle(out)
        return out

    def execute(self, lib, systems, op: Op, germ: Any) -> Dict[str, Any]:
        system = systems[op["system"]]
        render = lib.render_value
        code = lib.coefficient_code(system, germ, op["n"])
        value = lib.eval_convergent_path(system, code, op["path"], tol=op["tol"])
        return {"code": [render(c) for c in code], "value": render(value.value),
                "error": render(value.error), "panels": value.panels}

    def cli(self, op: Op) -> str:
        if op["loop"]:
            return "(centre-1 system: not expressible on the CLI; use run.py --replay)"
        path = ";".join(f"{z.real!r},{z.imag!r}" for z in op["path"])
        return ("expansions as eval --transform d --nonlinearity power --alpha 1/2 "
                f"--input {_quote(op['text'])} --series-order {op['order']} "
                f"--order {op['n']} --path {_quote(path)} --tol {op['tol']!r}")


# -- poly-systems ------------------------------------------------------------------------

POLY_IDS = ("taylor", "newton-forward", "newton-backward", "newton-reflected",
            "fourier", "norm-taylor")

#: acceptance criterion 4: every peel-off stage has sup-norm <= 1 on [0, 1],
#: while some of its truncations do not
NORM_FIXTURE = (F(1, 2), F(1), F(-1), F(1), F(-1))


def norm_member(rng: random.Random) -> List[F]:
    """A member of the norm-restricted system with improper convergents:
    ``(1 - eps) s * fixture + q`` with ``sum |q_k| <= eps`` keeps every stage
    inside the unit ball."""
    eps = F(1, 8)
    s = F(rng.randint(16, 20), 20)
    weights = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
    total = sum(abs(w) for w in weights) or 1
    q = [eps * w / total for w in weights]
    size = max(len(NORM_FIXTURE), len(q))
    base = [(1 - eps) * s * (NORM_FIXTURE[k] if k < len(NORM_FIXTURE) else 0)
            for k in range(size)]
    out = [b + (q[k] if k < len(q) else 0) for k, b in enumerate(base)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _small_fraction(rng: random.Random, nonzero: bool = False) -> F:
    while True:
        q = F(rng.randint(-9, 9), rng.randint(1, 6))
        if q or not nonzero:
            return q


def _poly_coeffs(rng: random.Random, degree: int) -> List[F]:
    """The registry samplers' coefficient law at a fixed degree."""
    return [_small_fraction(rng) for _ in range(degree)] + [_small_fraction(rng, True)]


def _bounded_coeffs(rng: random.Random, degree: int) -> List[F]:
    """The norm-taylor registry law (sum of |c_k| below 1) at a fixed degree."""
    coeffs = _poly_coeffs(rng, degree)
    budget = F(rng.randint(1, 99), 100)
    total = sum(abs(c) for c in coeffs)
    return [c * budget / total for c in coeffs]


def _trig_amps(rng: random.Random, top: int) -> Dict[int, Tuple[F, F]]:
    amps = {}
    for mode in range(-top, top + 1):
        if abs(mode) == top or rng.random() < 0.5:
            amps[mode] = (F(rng.randint(-5, 5), rng.randint(1, 4)),
                          F(rng.randint(-5, 5), rng.randint(1, 4)))
    amps.setdefault(top, (F(1), F(0)))
    if amps[top] == (0, 0):
        amps[top] = (F(1), F(0))
    return amps


class PolySystems:
    """One sample per system a round, at a degree (top mode for fourier)
    rotating over the cycle, with the registry samplers' coefficient laws,
    plus one norm-taylor member built from the criterion-4 fixture.
    Each sample runs at n = 0..degree+1."""

    name = "poly-systems"
    cycle_rounds = 7

    def build_systems(self, lib) -> Dict[str, Any]:
        return {s: lib.build_system(s) for s in POLY_IDS}

    def build_round(self, lib, systems, seed: int, r: int) -> List[Tuple[Op, Any]]:
        out: List[Tuple[Op, Any]] = []
        samples = []
        for i, system in enumerate(POLY_IDS):
            rng = _rng(seed, self.name, r, system)
            degree = 2 + (r + i) % 7
            if system == "fourier":
                samples.append((system, _trig_amps(rng, 1 + (r + i) % 4)))
            elif system == "norm-taylor":
                samples.append((system, _bounded_coeffs(rng, degree)))
                samples.append((system, norm_member(rng)))
            else:
                samples.append((system, _poly_coeffs(rng, degree)))
        for system, data in samples:
            if system == "fourier":
                amps = tuple(sorted(data.items()))
                y = lib.TrigPolynomial.of({k: lib.ComplexRational.of(*a) for k, a in amps})
                top = max(abs(k) for k, _ in amps)
                fields = dict(amps=amps, text=" + ".join(
                    f"({render_fraction(a[0])} + ({render_fraction(a[1])})*i)*E({k})"
                    for k, a in amps))
            else:
                coeffs = tuple(data)
                if system == "taylor":
                    y = lib.PowerSeries.exact_poly(0, coeffs)
                    text = _series_text(coeffs, True)
                else:
                    y = lib.Polynomial.of(*coeffs)
                    text = _poly_text(coeffs)
                top = len(coeffs) - 1
                fields = dict(coeffs=coeffs, text=text)
            for n in range(0, top + 2):
                out.append((dict(system=system, n=n, **fields), y))
        _rng(seed, self.name, r, "order").shuffle(out)
        return out

    def execute(self, lib, systems, op: Op, y: Any) -> Dict[str, Any]:
        system = systems[op["system"]]
        render = lib.render_value
        code = lib.coefficient_code(system, y, op["n"])
        trace = lib.convergent_from_code(system, code)
        return {
            "rendered": " ".join(render(c) for c in code) + " | "
            + (render(trace.value) if trace.proper else f"improper@{trace.improper_at}"),
            "raw": (code, trace),
        }

    @staticmethod
    def finish(out: Dict[str, Any]) -> None:
        code, trace = out.pop("raw")
        out["code"] = [plain(c) for c in code]
        out["conv"] = plain(trace.value) if trace.proper else f"improper@{trace.improper_at}"

    def cli(self, op: Op) -> str:
        return (f"expansions convergent --system {op['system']} "
                f"--input {_quote(op['text'])} --order {op['n']} --emit trace")


WORKLOADS = {w.name: w for w in (RealsCertified(), GermCodes(), PathEval(), PolySystems())}
