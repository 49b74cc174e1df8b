"""Independent oracles for the benchmark's outputs.

Nothing in this module imports or calls ``expansions``: every expected value
is derived here from first principles, so a defect in the library cannot
hide behind a check that runs the same code.

* Real codes: ``mpmath`` interval arithmetic at twice the benchmark's bit
  budget or more (irrational inputs), exact ``Fraction`` digit algorithms
  (rational inputs and re-expansion of convergents).
* Germ codes: a separate power-series implementation (power through
  ``exp(alpha * log h)``) for the forward map of the approximation systems,
  plus the closed forms of acceptance criteria 6-9.
* Path values: the exact convergent evaluated by 60-digit Horner on
  segments, and a Runge-Kutta integration of the convergent's ODE tower on
  loops.
* Polynomial systems: finite differences, interpolation conditions and a
  sup-norm decision by ``mpmath`` root finding.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction as F
from typing import Dict, List, Optional, Sequence, Tuple

INF = "inf"


class Inconclusive(Exception):
    """The oracle cannot decide at the precision or order it was given."""


def render_fraction(q: F) -> str:
    q = F(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- certified reals -----------------------------------------------------------
#
# Expressions are ASTs of tuples:
#   ("num", Fraction) | ("sqrt", a) | ("pi",) | ("e",)
#   | ("add"|"sub"|"mul"|"div", a, b)


def ast_text(node: tuple) -> str:
    """Render an AST in the library's expression language."""
    op = node[0]
    if op == "num":
        return render_fraction(node[1])
    if op in ("pi", "e"):
        return op
    if op == "sqrt":
        return f"sqrt({ast_text(node[1])})"
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    return f"({ast_text(node[1])}){sym}({ast_text(node[2])})"


def _iv_eval(node: tuple, iv):
    op = node[0]
    if op == "num":
        q = F(node[1])
        return iv.mpf(q.numerator) / iv.mpf(q.denominator)
    if op == "pi":
        return +iv.pi
    if op == "e":
        return +iv.e
    if op == "sqrt":
        return iv.sqrt(_iv_eval(node[1], iv))
    a, b = _iv_eval(node[1], iv), _iv_eval(node[2], iv)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    return a / b


def _iv_bounds(v) -> Tuple[F, F]:
    """Exact rational endpoints of an ``mpmath.iv`` interval."""
    out = []
    for sign, man, exp, _ in v._mpi_:
        q = F(man << exp) if exp >= 0 else F(man, 1 << -exp)
        out.append(-q if sign else q)
    return out[0], out[1]


def _iv_floor(v) -> Optional[int]:
    lo, hi = (math.floor(b) for b in _iv_bounds(v))
    return lo if lo == hi else None


def _iv_ceil(v) -> Optional[int]:
    lo, hi = (math.ceil(b) for b in _iv_bounds(v))
    return lo if lo == hi else None


def _true_digit_to_code(system: str, d: int) -> int:
    return (3 * d) % 10 if system == "base10-shuffled" else d


def _code_digit_to_true(system: str, c: int) -> int:
    if system == "base10-shuffled":
        return next(d for d in range(10) if (3 * d) % 10 == c)
    return c


def interval_code(node: tuple, system: str, depth: int, prec: int) -> List:
    """Certified code prefix (at most ``depth`` long) of the irrational number
    ``node`` in ``(0, 1)``, computed with ``mpmath.iv`` at ``prec`` bits."""
    from mpmath import iv

    saved = iv.prec
    iv.prec = prec
    try:
        y = _iv_eval(node, iv)
        out: List = []
        while len(out) < depth:
            if _iv_bounds(y)[0] <= 0:
                break  # enclosure touches zero: nothing certified beyond
            if system in ("base10", "base10-shuffled"):
                d = _iv_floor(10 * y)
                if d is None:
                    break
                out.append(_true_digit_to_code(system, d))
                y = 10 * y - d
            elif system == "cf":
                r = 1 / y
                q = _iv_floor(r)
                if q is None:
                    break
                out.append(q)
                y = r - q
            elif system in ("egyptian", "engel"):
                c = _iv_ceil(1 / y)
                if c is None:
                    break
                out.append(c)
                y = y - iv.mpf(1) / c if system == "egyptian" else y * c - 1
            else:
                raise ValueError(f"unknown real system {system!r}")
        return out
    finally:
        iv.prec = saved


def irrational_code(node: tuple, system: str, depth: int, bits: int) -> List:
    """True code of an irrational input to ``depth`` levels, starting at
    ``2 * bits + 64`` bits and doubling until the prefix is certified."""
    prec = 2 * bits + 64
    while True:
        code = interval_code(node, system, depth, prec)
        if len(code) >= depth:
            return code
        if prec > 64 * bits + 4096:
            raise Inconclusive(f"{system} code not certified to depth {depth}")
        prec *= 2


def rational_code(system: str, y: F, depth: int) -> List:
    """Exact code of a rational ``y`` in ``[0, 1)``."""
    y = F(y)
    out: List = []
    for _ in range(depth):
        if system in ("base10", "base10-shuffled"):
            d = math.floor(10 * y)
            out.append(_true_digit_to_code(system, d))
            y = 10 * y - d
        elif y == 0:
            out.append(INF)
        elif system == "cf":
            q = math.floor(1 / y)
            out.append(q)
            y = 1 / y - q
        else:
            c = math.ceil(1 / y)
            out.append(c)
            y = y - F(1, c) if system == "egyptian" else y * c - 1
    return out


def real_convergent(system: str, code: Sequence) -> Tuple[Optional[F], Optional[int]]:
    """Backward pass of a real code: ``(value, None)`` when proper, else
    ``(None, level)`` with the level at which reconstruction fails."""
    t = F(0)
    for i in range(len(code) - 1, -1, -1):
        c = code[i]
        if system in ("base10", "base10-shuffled"):
            t = (_code_digit_to_true(system, c) + t) / 10
            continue
        if c == INF:
            if t != 0:
                return None, i
            continue
        if system == "cf":
            if c == 1 and t == 0:
                return None, i
            t = 1 / (c + t)
        elif system == "egyptian":
            if not t < F(1, c * (c - 1)):
                return None, i
            t = F(1, c) + t
        else:
            if not t < F(1, c - 1):
                return None, i
            t = (1 + t) / c
    return t, None


def code_text(code: Sequence) -> str:
    return " ".join(str(c) for c in code)


def check_real(op: dict, out: dict) -> Tuple[bool, str]:
    """Check one real-expansion operation against the oracle."""
    system, depth = op["system"], op["depth"]
    exc = out.get("exc")
    if op["rational"] is not None:
        expected = rational_code(system, op["rational"], depth)
    elif exc == "PrecisionExhausted" and op["over_deep"]:
        return True, "precision exhausted on an over-deep request"
    elif exc is not None:
        return False, f"unexpected {exc}"
    else:
        try:
            expected = irrational_code(op["ast"], system, depth, op["bits"])
        except Inconclusive as err:
            return False, f"oracle: {err}"
    if exc is not None:
        return False, f"unexpected {exc}"
    if out["code"] != code_text(expected):
        return False, "code differs from the oracle"
    value, improper = real_convergent(system, expected)
    if improper is not None:
        ok = out["convergent"] == f"improper@{improper}"
        return ok, "" if ok else "properness differs from the oracle"
    got = F(out["convergent"])
    if got != value:
        return False, "convergent differs from the oracle"
    # exact re-expansion: the convergent repeats the code's head
    if rational_code(system, got, depth) != list(expected):
        return False, "convergent does not re-expand to the code"
    return True, ""


# -- power series germs -------------------------------------------------------------


class Series:
    """Germ ``sum coeffs[k] (x - c)^k``; ``exact`` means zero beyond."""

    __slots__ = ("coeffs", "exact")

    def __init__(self, coeffs: Sequence[F], exact: bool) -> None:
        cs = [F(c) for c in coeffs]
        if exact:
            while cs and cs[-1] == 0:
                cs.pop()
        self.coeffs = cs
        self.exact = exact

    def coef(self, k: int) -> F:
        if k < len(self.coeffs):
            return self.coeffs[k]
        if self.exact:
            return F(0)
        raise Inconclusive(f"coefficient {k} beyond the known order")

    def limit(self, order: int) -> "Series":
        """Keep at most ``order + 1`` coefficients (exact stays exact only if
        nothing was cut)."""
        if len(self.coeffs) <= order + 1:
            return self
        return Series(self.coeffs[: order + 1], False)


def _mul(a: Sequence[F], b: Sequence[F], size: int) -> List[F]:
    out = [F(0)] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[: size - i]):
                out[i + j] += x * y
    return out


def _log1(h: List[F]) -> List[F]:
    """log of a series with constant term 1: integral of h' / h."""
    n = len(h)
    dh = [k * h[k] for k in range(1, n)]
    q: List[F] = []  # q = h' / h, by long division (h[0] == 1)
    for k in range(n - 1):
        q.append(dh[k] - sum((h[j] * q[k - j] for j in range(1, k + 1)), F(0)))
    return [F(0)] + [q[k] / (k + 1) for k in range(n - 1)]


def _exp0(f: List[F]) -> List[F]:
    """exp of a series with constant term 0: e' = f' e."""
    n = len(f)
    e = [F(1)]
    for m in range(1, n):
        e.append(sum((k * f[k] * e[m - k] for k in range(1, m + 1)), F(0)) / m)
    return e


def series_power(s: Series, alpha: F, order: int) -> Series:
    """``s ** alpha`` for constant term 1, by repeated products when the
    result is a polynomial, else through ``exp(alpha * log s)``."""
    if s.exact and alpha.denominator == 1 and alpha >= 0:
        acc = [F(1)]
        for _ in range(int(alpha)):
            acc = _mul(acc, s.coeffs, len(acc) + len(s.coeffs) - 1)
        return Series(acc, True)
    if s.coef(0) != 1:
        raise ValueError("power needs constant term 1")
    n = order if s.exact else min(order, len(s.coeffs) - 1)
    h = [s.coef(k) if k < len(s.coeffs) else F(0) for k in range(n + 1)]
    return Series(_exp0([alpha * c for c in _log1(h)]), False)


def series_log(s: Series, order: int) -> Series:
    if s.coef(0) != 1:
        raise ValueError("log needs constant term 1")
    n = order if s.exact else min(order, len(s.coeffs) - 1)
    h = [s.coef(k) if k < len(s.coeffs) else F(0) for k in range(n + 1)]
    return Series(_log1(h), False)


#: (transform, nonlinearity, alpha, center) of each germ system the benchmark uses
AS_CONFIGS: Dict[str, Tuple[str, str, Optional[F], F]] = {
    "as-d-power-half": ("D", "power", F(1, 2), F(0)),
    "as-d-power-neg1": ("D", "power", F(-1), F(0)),
    "as-d-logexp": ("D", "logexp", None, F(0)),
    "as-k-power-2": ("K", "power", F(2), F(0)),
    "as-k-power-neg1": ("K", "power", F(-1), F(0)),
    "as-k-logexp": ("K", "logexp", None, F(0)),
    "as-kd-power-3": ("KD", "power", F(3), F(0)),
    "as-d-power-neg1@1": ("D", "power", F(-1), F(1)),
}


def _transform(s: Series, transform: str) -> Tuple[Optional[F], Series]:
    if transform == "K":
        return None, Series([F(0)] + s.coeffs[1:], s.exact)
    if not s.exact and len(s.coeffs) < 2:
        raise Inconclusive("derivative of an order-0 germ")
    d = Series([k * s.coeffs[k] for k in range(1, len(s.coeffs))], s.exact)
    if transform == "D":
        return None, d
    b = d.coef(0)
    return b, Series([F(0)] + d.coeffs[1:], d.exact)


def germ_code(system: str, germ: Series, depth: int) -> List[str]:
    """Rendered forward code ``(c,m)`` / ``(b,c,m)`` of ``germ``.

    Raises:
        Inconclusive: the truncated germ does not determine the code (the
            library answers ``TruncationInconclusive`` there).
    """
    transform, nonlinearity, alpha, _ = AS_CONFIGS[system]
    # Each level reads a few leading coefficients; the kernels never need
    # more than this many to fix the remaining levels.
    order = 4 * depth + 12
    y = germ.limit(order)
    out: List[str] = []
    for level in range(depth):
        b, t = _transform(y, transform)
        m = next((k for k, c in enumerate(t.coeffs) if c != 0), None)
        if m is None:
            if not t.exact:
                raise Inconclusive("all known coefficients vanish")
            head = [render_fraction(b)] if b is not None else []
            out.append("(" + ",".join(head + ["0", "inf"]) + ")")
            y = Series([F(1)] if nonlinearity == "power" else [], True)
            continue
        c = t.coeffs[m]
        head = [render_fraction(b)] if b is not None else []
        out.append("(" + ",".join(head + [render_fraction(c), str(m)]) + ")")
        normalized = Series([x / c for x in t.coeffs[m:]], t.exact)
        if not normalized.exact and len(normalized.coeffs) == 0:
            raise Inconclusive("nothing known after the leading term")
        if nonlinearity == "power":
            y = series_power(normalized, alpha, order)
        else:
            y = series_log(normalized, order)
    return out


def criterion_code(name: str, param: F, depth: int) -> List[str]:
    """Closed-form codes of acceptance criteria 6-9."""
    out = []
    for i in range(depth):
        if name == "inv-sqrt":  # (1 - s x)^(-1/2) on as-d-power-half
            c = param * (1 - F(1, 2 ** (i + 1)))
            out.append(f"({render_fraction(c)},0)")
        elif name == "exp":  # exp(x) on as-d-power-neg1
            out.append("(1,0)" if i % 2 == 0 else "(-1,0)")
        elif name == "x-pow":  # x^a at 1 on D / power -1
            c = param if i % 2 == 0 else 1 - param
            out.append(f"({render_fraction(c)},0)")
        elif name == "kd-cube":  # (1 + x)^3 on as-kd-power-3
            b, c = F(3, 2 ** i), F(3) / F(2) ** (2 * i - 1)
            out.append(f"({render_fraction(b)},{render_fraction(c)},1)")
        else:
            raise ValueError(name)
    return out


def criterion_convergent_head(name: str, param: F, n: int) -> Optional[List[F]]:
    """Known leading coefficients of the ``n``-th convergent, if any."""
    if name == "inv-sqrt" and param == 1 and n == 1:
        return [F(1), F(1, 2)]
    if name == "inv-sqrt" and param == 1 and n == 2:
        return [F(1), F(1, 2), F(3, 8), F(3, 32)]
    if name == "exp" and n == 2:
        return [F(1)] + [F(1, k) for k in range(1, 8)]
    return None


def check_germ(op: dict, out: dict) -> Tuple[bool, str]:
    n = op["n"]
    exc = out.get("exc")
    try:
        if op["criterion"] is not None:
            expected = criterion_code(op["criterion"], op["param"], n)
        else:
            expected = germ_code(op["system"], Series(op["coeffs"], op["exact"]), n)
    except Inconclusive:
        ok = exc == "TruncationInconclusive"
        return ok, "" if ok else "oracle expects TruncationInconclusive"
    if exc is not None:
        return False, f"unexpected {exc}"
    if out["code"] != expected:
        return False, "code differs from the oracle"
    if out["proper"] is not True:
        return False, "convergent of a genuine code must be proper"
    if out["recode"] != expected:
        return False, "convergent does not re-expand to the code"
    head = criterion_convergent_head(op["criterion"], op["param"], n)
    if head is not None and [F(x) for x in out["head"][: len(head)]] != head:
        return False, "convergent differs from the closed form"
    return True, ""


# -- path evaluation ------------------------------------------------------------------


def _poly_mul(a: List[F], b: List[F]) -> List[F]:
    return _mul(a, b, len(a) + len(b) - 1)


@functools.lru_cache(maxsize=None)
def d_half_convergent(code: Tuple[Tuple[F, int], ...]) -> List[F]:
    """Exact convergent of a code on the D / power 1/2 system at 0: each level
    is ``1 + integral c t^m y_{k+1}(t)^2 dt`` (the inverse power is 2)."""
    y = [F(1)]
    for c, m in reversed(code):
        integrand = [F(0)] * m + [c * a for a in _poly_mul(y, y)]
        y = [F(1)] + [a / (k + 1) for k, a in enumerate(integrand)]
    return y


def horner_60(coeffs: Sequence[F], z: complex) -> complex:
    """Horner evaluation at the binary value of ``z`` with 60 significant
    digits, rounded once to a float complex."""
    import mpmath

    with mpmath.workdps(60):
        acc = mpmath.mpc(0)
        w = mpmath.mpc(mpmath.mpf(z.real), mpmath.mpf(z.imag))
        for c in reversed(coeffs):
            acc = acc * w + mpmath.mpf(c.numerator) / c.denominator
        return complex(acc)


def _rk4_segment(code: Sequence[Tuple[float, int]], ys: List[complex], a: complex,
                 b: complex, center: complex, steps: int) -> List[complex]:
    """Classical Runge-Kutta across one segment of the D / power -1 tower
    ``y_k' = c_k (z - x0)^m_k / y_{k+1}`` with ``y_n = 1``."""
    n = len(code)
    dz = b - a
    h = 1.0 / steps

    def deriv(z: complex, y: List[complex]) -> List[complex]:
        return [dz * c * (z - center) ** m / (y[k + 1] if k + 1 < n else 1)
                for k, (c, m) in enumerate(code)]

    for j in range(steps):
        z = a + dz * (j * h)
        k1 = deriv(z, ys)
        k2 = deriv(z + dz * (h / 2), [y + h / 2 * d for y, d in zip(ys, k1)])
        k3 = deriv(z + dz * (h / 2), [y + h / 2 * d for y, d in zip(ys, k2)])
        k4 = deriv(z + dz * h, [y + h * d for y, d in zip(ys, k3)])
        ys = [y + h / 6 * (p + 2 * q + 2 * r + s)
              for y, p, q, r, s in zip(ys, k1, k2, k3, k4)]
    return ys


@functools.lru_cache(maxsize=None)
def loop_value(code: Tuple[Tuple[F, int], ...], path: Tuple[complex, ...],
               center: complex) -> complex:
    """Level-0 value at the end of ``path`` of the convergent with this code
    on the D / power -1 system (every level starts at 1 at the centre).

    Each segment is integrated with a step count doubled until two
    successive answers agree to 1e-13 relative, so the branch the tower
    follows is fixed by continuity along the path, as in the library."""
    fcode = [(float(c), m) for c, m in code]
    ys = [1 + 0j] * len(fcode)
    for a, b in zip(path, path[1:]):
        steps = 64
        coarse = _rk4_segment(fcode, ys, a, b, center, steps)
        while True:
            steps *= 2
            fine = _rk4_segment(fcode, ys, a, b, center, steps)
            scale = 1 + max(abs(y) for y in fine)
            if max(abs(f - c) for f, c in zip(fine, coarse)) < 1e-13 * scale:
                break
            if steps > 1 << 16:
                raise Inconclusive("Runge-Kutta tower did not converge")
            coarse = fine
        ys = fine
    return ys[0]


def parse_complex(text: str) -> complex:
    """Parse the library's ``re+im i`` rendering of a complex float."""
    body = text.strip()
    if not body.endswith(" i"):
        raise ValueError(f"not a complex rendering: {text!r}")
    body = body[:-2]
    cut = max(body.rfind("+"), body.rfind("-"))
    while cut > 0 and body[cut - 1] in "eE":
        cut = max(body.rfind("+", 0, cut - 1), body.rfind("-", 0, cut - 1))
    return complex(float(body[:cut]), float(body[cut:]))


#: a path value passes within this many times its tolerance (relative to
#: 1 + |reference|); the library's estimate is heuristic, so the factor
#: leaves room for propagation through the nonlinearity
PATH_TOL_FACTOR = 100


def check_path(op: dict, out: dict) -> Tuple[bool, str]:
    if out.get("exc") is not None:
        return False, f"unexpected {out['exc']}"
    n = op["n"]
    expected = criterion_code(op["criterion"], op["param"], n)
    if out["code"] != expected:
        return False, "code differs from the closed form"
    code = tuple((op["param"] * (1 - F(1, 2 ** (i + 1))), 0) for i in range(n)) \
        if op["criterion"] == "inv-sqrt" else \
        tuple((op["param"] if i % 2 == 0 else 1 - op["param"], 0) for i in range(n))
    got = parse_complex(out["value"])
    if op["loop"]:
        # real code and centre: the mirrored path gives the conjugate value
        path = tuple(op["path"])
        mirrored = path[1].imag < 0
        if mirrored:
            path = tuple(z.conjugate() for z in path)
        ref = loop_value(code, path, complex(op["center"]))
        if mirrored:
            ref = ref.conjugate()
    else:
        ref = horner_60(d_half_convergent(code), op["path"][-1])
    if abs(got - ref) > PATH_TOL_FACTOR * op["tol"] * (1 + abs(ref)):
        return False, f"value {got} differs from reference {ref}"
    return True, ""


# -- polynomial systems ---------------------------------------------------------------


def horner(coeffs: Sequence, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def newton_code(system: str, coeffs: Sequence[F], n: int) -> List[F]:
    """Difference coefficients at 0: forward ``D^i p(0)``, backward
    ``N^i p(0)``, reflected ``(-N)^i p(0)``."""
    out = []
    for i in range(n):
        if system == "newton-forward":
            v = sum((F((-1) ** (i - j) * math.comb(i, j)) * horner(coeffs, F(j))
                     for j in range(i + 1)), F(0))
        else:
            v = sum((F((-1) ** j * math.comb(i, j)) * horner(coeffs, F(-j))
                     for j in range(i + 1)), F(0))
            if system == "newton-reflected":
                v *= (-1) ** i
        out.append(v)
    return out


def sup_norm_cmp(coeffs: Sequence[F], bound: F = F(1)) -> Optional[bool]:
    """Whether ``max |p| <= bound`` on ``[0, 1]``; ``None`` when too close to
    call at 60 digits."""
    import mpmath

    if not coeffs:
        return True
    ends = [abs(horner(coeffs, F(0))), abs(horner(coeffs, F(1)))]
    if max(ends) > bound:
        return False
    deriv = [k * coeffs[k] for k in range(1, len(coeffs))]
    while deriv and deriv[-1] == 0:
        deriv.pop()
    if len(deriv) < 2:
        return True  # monotone: the endpoints decide
    with mpmath.workdps(60):
        roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                  for c in reversed(deriv)],
                                 maxsteps=400, extraprec=400)
        peak = mpmath.mpf(0)
        for r in roots:
            if abs(mpmath.im(r)) < mpmath.mpf(10) ** -40 and 0 < mpmath.re(r) < 1:
                x = mpmath.re(r)
                v = abs(mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * x ** k
                                    for k, c in enumerate(coeffs)))
                peak = max(peak, v)
        gap = peak - mpmath.mpf(bound.numerator) / bound.denominator
        if abs(gap) < mpmath.mpf(10) ** -40:
            return None
        return bool(gap < 0)


def norm_taylor_improper(coeffs: Sequence[F], n: int) -> Optional[int]:
    """Level of the failed reconstruction of the ``n``-th convergent (the
    highest ``i`` whose stage ``p[i:n]`` leaves the unit sup-norm ball), or
    ``None`` when proper."""
    head = list(coeffs[:n])
    for i in range(n - 1, -1, -1):
        verdict = sup_norm_cmp(_strip(head[i:]))
        if verdict is None:
            raise Inconclusive("sup norm within 1e-40 of the bound")
        if not verdict:
            return i
    return None


def _strip(cs: Sequence[F]) -> List[F]:
    out = list(cs)
    while out and out[-1] == 0:
        out.pop()
    return out


def check_poly(op: dict, out: dict) -> Tuple[bool, str]:
    if out.get("exc") is not None:
        return False, f"unexpected {out['exc']}"
    system, n = op["system"], op["n"]
    code, conv = out["code"], out["conv"]
    if system == "fourier":
        amps = dict(op["amps"])
        zero = (F(0), F(0))
        exp_code = [(amps.get(0, zero), amps.get(0, zero))] + [
            (amps.get(-i, zero), amps.get(i, zero)) for i in range(1, n)
        ]
        if code != exp_code[:n]:
            return False, "code differs from the oracle"
        want = tuple(sorted((k, a) for k, a in amps.items() if abs(k) < n and a != zero))
        return (conv == want, "" if conv == want else "convergent differs")
    coeffs = list(op["coeffs"])
    if system in ("taylor", "norm-taylor"):
        exp_code = [coeffs[i] if i < len(coeffs) else F(0) for i in range(n)]
    else:
        exp_code = newton_code(system, coeffs, n)
    if list(code) != exp_code:
        return False, "code differs from the oracle"
    if system == "norm-taylor":
        try:
            improper = norm_taylor_improper(exp_code, n)
        except Inconclusive:
            return True, "undecided by the oracle"
        if improper is not None:
            ok = conv == f"improper@{improper}"
            return ok, "" if ok else "properness differs from the oracle"
    if system in ("taylor", "norm-taylor"):
        ok = list(conv) == _strip(exp_code)
        return ok, "" if ok else "convergent differs from the truncation"
    # Newton convergents: degree < n and interpolation at the nodes
    if len(conv) > n:
        return False, "convergent degree too high"
    sign = 1 if system == "newton-forward" else -1
    for j in range(n):
        x = F(sign * j)
        if horner(conv, x) != horner(coeffs, x):
            return False, f"convergent misses the node {x}"
    return True, ""


CHECKS = {
    "reals-certified": check_real,
    "germ-codes": check_germ,
    "path-eval": check_path,
    "poly-systems": check_poly,
}
