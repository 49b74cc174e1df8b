"""Expression parsing for CLI inputs.

One small LL(1) grammar serves every element kind; a context object decides
what names mean and which operations the parsed values support:

* ``real``: exact rationals, promoted to certified intervals by ``pi``, ``e``
  and non-square ``sqrt``;
* ``series``/``germ``: power-series germs about a base point (``... at c``
  suffix), with ``exp``/``log``/``sqrt`` usable on composite arguments and
  ``sin``/``cos``/``tan``/``cosh``/``pow(a)`` on the variable itself;
* ``polynomial``: exact polynomials in ``x`` (exact series at center 0);
* ``trig``: trigonometric polynomials built from the basis ``E(k)`` and the
  imaginary unit ``i``.

Grammar::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' '-'? INTEGER)?
    atom   := NUMBER | NAME ('(' expr (',' expr)* ')')? | '(' expr ')'

Parse errors carry the offending position.  Parentheses, call arguments and
prefix signs nest at most ``MAX_NESTING`` levels deep, and an exact integer
power reaches at most degree, or widest trig mode, ``MAX_DEGREE``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, List, Optional, Sequence

from .approx import alpha_list
from .certified import Interval, _Message, e_interval, pi_interval, sqrt_interval
from .coefficients import CONE, ComplexRational
from .errors import DomainError, ParseError, PrecisionExhausted, UnsupportedInContext
from .series import PowerSeries, power_by_squaring
from .trig import TrigPolynomial

# -- tokens ------------------------------------------------------------------

_PUNCT = "+-*/^(),"


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "name" | "punct" | "end"
    text: str
    pos: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdigit():
                    raise ParseError("digits must follow a decimal point", j)
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


# -- parser ------------------------------------------------------------------

#: deepest nesting of parentheses, call arguments and prefix signs accepted
MAX_NESTING = 64

#: largest degree, or widest trig mode, that an exact integer power may
#: reach; squaring costs about the square of the size in coefficient products
MAX_DEGREE = 512


def _check_power(k: int, size: int) -> None:
    """Refuse ``base^k``, for a base of degree or widest mode ``size``, when
    the power would pass :data:`MAX_DEGREE`, before any product is taken."""
    if k > 1 and k * size > MAX_DEGREE:
        raise DomainError(f"exponents above {max(1, MAX_DEGREE // size)} take a base "
                          f"of size {size} past size {MAX_DEGREE}")


class _Parser:
    def __init__(self, tokens: Sequence[Token]) -> None:
        self.tokens = tokens
        self.k = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.k]

    def advance(self) -> Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            tok = self.peek()
            raise ParseError(f"expected {text!r}, found {tok.text or 'end'!r}", tok.pos)
        return self.advance()

    def nested(self, parse: Callable[["_Env"], Any], env: "_Env") -> Any:
        """``parse(env)`` one nesting level deeper.

        Nesting recurses, so the depth is bounded to turn hostile input into
        a ``ParseError`` before it can exhaust the interpreter stack.
        """
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"expression nested deeper than {MAX_NESTING} levels", self.peek().pos
            )
        self.depth += 1
        value = parse(env)
        self.depth -= 1
        return value

    def parse_expr(self, env: "_Env") -> Any:
        value = self.parse_term(env)
        while self.at_punct("+") or self.at_punct("-"):
            op = self.advance().text
            rhs = self.parse_term(env)
            value = env.add(value, rhs) if op == "+" else env.sub(value, rhs)
        return value

    def parse_term(self, env: "_Env") -> Any:
        value = self.parse_unary(env)
        while self.at_punct("*") or self.at_punct("/"):
            op = self.advance().text
            rhs = self.parse_unary(env)
            value = env.mul(value, rhs) if op == "*" else env.div(value, rhs)
        return value

    def parse_unary(self, env: "_Env") -> Any:
        if self.at_punct("-"):
            self.advance()
            return env.neg(self.nested(self.parse_unary, env))
        if self.at_punct("+"):
            self.advance()
            return self.nested(self.parse_unary, env)
        return self.parse_power(env)

    def parse_power(self, env: "_Env") -> Any:
        base = self.parse_atom(env)
        if self.at_punct("^"):
            self.advance()
            sign = 1
            if self.at_punct("-"):
                self.advance()
                sign = -1
            tok = self.peek()
            if tok.kind != "num" or "." in tok.text:
                raise ParseError("exponent must be an integer literal", tok.pos)
            self.advance()
            return env.pow(base, sign * int(tok.text))
        return base

    def parse_atom(self, env: "_Env") -> Any:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return env.number(Fraction(tok.text))
        if tok.kind == "name":
            self.advance()
            return env.name(self, tok)
        if self.at_punct("("):
            self.advance()
            value = self.nested(self.parse_expr, env)
            self.expect_punct(")")
            return value
        raise ParseError(f"expected a value, found {tok.text or 'end'!r}", tok.pos)

    def parse_full(self, env: "_Env") -> Any:
        value = self.parse_expr(env)
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return value


# -- environments ------------------------------------------------------------


class _Env:
    """Context-specific meaning of literals, names and operators; ``div``
    and ``pow`` are each context's own."""

    def number(self, value: Fraction) -> Any:
        raise NotImplementedError

    def name(self, parser: _Parser, tok: Token) -> Any:
        raise NotImplementedError

    def add(self, a: Any, b: Any) -> Any:
        return a + b

    def sub(self, a: Any, b: Any) -> Any:
        return a - b

    def neg(self, a: Any) -> Any:
        return -a

    def mul(self, a: Any, b: Any) -> Any:
        return a * b

    def _parse_paren_arg(self, parser: _Parser, env: "_Env") -> Any:
        parser.expect_punct("(")
        value = parser.nested(parser.parse_expr, env)
        parser.expect_punct(")")
        return value


class _ScalarEnv(_Env):
    def __init__(self, bits: int = 256, exact_only: bool = False,
                 variables: Optional[dict] = None) -> None:
        self.bits = bits
        self.exact_only = exact_only
        self.variables = variables or {}

    def number(self, value: Fraction) -> Any:
        return value

    def _inexact(self, tok: Token) -> None:
        if self.exact_only:
            raise ParseError(f"{tok.text} is not exact here", tok.pos)

    def name(self, parser: _Parser, tok: Token) -> Any:
        if tok.text in self.variables:
            return self.variables[tok.text]
        if tok.text == "pi":
            self._inexact(tok)
            return pi_interval(self.bits)
        if tok.text == "e":
            self._inexact(tok)
            return e_interval(self.bits)
        if tok.text == "sqrt":
            arg = self._parse_paren_arg(parser, self)
            if isinstance(arg, Fraction):
                root = sqrt_interval(arg, self.bits)
                if root.is_point():
                    return root.lo
            elif arg.hi < 0:
                raise DomainError(_Message("sqrt of negative value {}", arg))
            elif arg.lo < 0:
                raise PrecisionExhausted(_Message("sign of sqrt argument {} undecidable", arg))
            else:
                root = Interval(
                    sqrt_interval(arg.lo, self.bits).lo,
                    sqrt_interval(arg.hi, self.bits).hi,
                )
            self._inexact(tok)
            return root
        raise ParseError(f"unknown name {tok.text!r}", tok.pos)

    def div(self, a: Any, b: Any) -> Any:
        try:
            return a / b
        except ZeroDivisionError:
            raise DomainError("division by zero") from None

    def pow(self, a: Any, k: int) -> Any:
        try:
            return a ** k
        except ZeroDivisionError:
            raise DomainError("division by zero") from None


class _SeriesEnv(_Env):
    """Series about ``center``.

    ``order`` bounds the knowledge of inexact results.  With ``order=None``
    every value must stay an exact polynomial: only ``x``, numbers and ring
    operations are accepted, and division only by nonzero constants.
    """

    def __init__(self, center: Fraction, order: Optional[int]) -> None:
        self.center = center
        self.order = order

    def number(self, value: Fraction) -> PowerSeries:
        return PowerSeries.constant(self.center, value)

    def _x(self) -> PowerSeries:
        return PowerSeries.exact_poly(self.center, (self.center, 1))

    def _require_x(self, arg: PowerSeries, tok: Token) -> None:
        if arg != self._x():
            raise UnsupportedInContext(
                f"{tok.text} accepts only the bare variable as argument"
            )

    def _table(self, fill: Callable[[List[Fraction]], None]) -> PowerSeries:
        coeffs = [Fraction(0)] * (self.order + 1)
        fill(coeffs)
        return PowerSeries.truncated(self.center, coeffs)

    def name(self, parser: _Parser, tok: Token) -> PowerSeries:
        text = tok.text
        if text == "x":
            return self._x()
        if self.order is None:
            raise ParseError(f"unknown name {tok.text!r}", tok.pos)
        if text in ("series", "poly"):
            coeffs = self._coeff_list(parser)
            if text == "poly":
                return PowerSeries.exact_poly(self.center, coeffs)
            return PowerSeries.truncated(self.center, coeffs)
        if text == "pow":
            exponent = self._parse_paren_arg(parser, _ScalarEnv(exact_only=True))
            if not isinstance(exponent, Fraction):
                raise ParseError("pow needs an exact rational exponent", tok.pos)
            if exponent.denominator == 1:
                _check_power(int(exponent), 1)
            return self._x().power(exponent, self.order)
        if text in ("exp", "log", "sqrt"):
            arg = self._x()
            if parser.at_punct("("):
                arg = self._parse_paren_arg(parser, self)
            if text == "exp":
                return arg.exp(self.order)
            if text == "log":
                return arg.log(self.order)
            return arg.power(Fraction(1, 2), self.order)
        if text in ("sin", "cos", "tan", "cosh"):
            if parser.at_punct("("):
                self._require_x(self._parse_paren_arg(parser, self), tok)
            if self.center != 0:
                raise DomainError(
                    f"{text} series is available at center 0 only, not {self.center}"
                )
            if text == "tan":
                cos = self._table(_TABLES["cos"])
                return self._table(_TABLES["sin"]).divide(cos, self.order)
            return self._table(_TABLES[text])
        raise ParseError(f"unknown name {tok.text!r}", tok.pos)

    def _coeff_list(self, parser: _Parser) -> List[Fraction]:
        scalar = _ScalarEnv(exact_only=True)
        parser.expect_punct("(")
        coeffs = [parser.parse_expr(scalar)]
        while parser.at_punct(","):
            parser.advance()
            coeffs.append(parser.parse_expr(scalar))
        parser.expect_punct(")")
        return coeffs

    def div(self, a: PowerSeries, b: PowerSeries) -> PowerSeries:
        if b.exact and len(b.coeffs) <= 1:
            constant = b.coefficient(0)
            if constant == 0:
                raise DomainError("division by zero")
            return a.scale(1 / constant)
        if self.order is None:
            raise DomainError("polynomial division only by constants")
        return a.divide(b, self.order)

    def pow(self, a: PowerSeries, k: int) -> PowerSeries:
        one = PowerSeries.constant(self.center, 1)
        if k >= 0:
            _check_power(k, a.degree if a.exact else 0)
            return power_by_squaring(a, k, one)
        if self.order is None:
            raise DomainError("negative powers are not polynomials")
        return one.divide(self.pow(a, -k), self.order)


def _fill_parity(start: int, sign: int) -> Callable[[List[Fraction]], None]:
    """Filler of ``sum_j sign^j x^(2j+start) / (2j+start)!``: sin, cos, cosh."""

    def fill(coeffs: List[Fraction]) -> None:
        for k in range(start, len(coeffs), 2):
            coeffs[k] = Fraction(sign ** (k // 2), math.factorial(k))

    return fill


_TABLES = {
    "sin": _fill_parity(1, -1),
    "cos": _fill_parity(0, -1),
    "cosh": _fill_parity(0, 1),
}


class _TrigEnv(_Env):
    """Values are ``TrigPolynomial``; a number or ``i`` is the mode-0 constant."""

    def number(self, value: Fraction) -> TrigPolynomial:
        return TrigPolynomial.basis(0, ComplexRational.of(value))

    def name(self, parser: _Parser, tok: Token) -> TrigPolynomial:
        if tok.text == "i":
            return TrigPolynomial.basis(0, ComplexRational.of(0, 1))
        if tok.text == "E":
            mode = self._parse_paren_arg(
                parser, _ScalarEnv(exact_only=True)
            )
            if not isinstance(mode, Fraction) or mode.denominator != 1:
                raise ParseError("E(k) needs an integer mode", tok.pos)
            return TrigPolynomial.basis(int(mode), CONE)
        raise ParseError(f"unknown name {tok.text!r}", tok.pos)

    def div(self, a: TrigPolynomial, b: TrigPolynomial) -> TrigPolynomial:
        if not b.without_modes(0).is_zero():
            raise DomainError("can only divide by scalar trig values")
        if b.is_zero():
            raise DomainError("division by zero")
        return a.scale(CONE / b.amplitude(0))

    def pow(self, a: TrigPolynomial, k: int) -> TrigPolynomial:
        if k < 0:
            if not a.without_modes(0).is_zero():
                raise DomainError("negative powers only apply to scalars")
            return self.div(TrigPolynomial.basis(0, CONE), self.pow(a, -k))
        _check_power(k, max((abs(mode) for mode, _ in a.terms), default=0))
        return power_by_squaring(a, k, TrigPolynomial.basis(0, CONE))


# -- entry points --------------------------------------------------------------

#: element kinds accepted by :func:`parse_expression`
CONTEXTS = ("real", "series", "germ", "polynomial", "trig")


def _split_at_clause(tokens: List[Token]) -> tuple:
    for idx, tok in enumerate(tokens):
        if tok.kind == "name" and tok.text == "at":
            if tokens[idx + 1].kind == "end":
                raise ParseError("missing base point after 'at'", tok.pos)
            head = tokens[:idx] + [Token("end", "", tok.pos)]
            tail = tokens[idx + 1:]
            return head, tail
    return tokens, None


def parse_expression(
    text: str,
    context: str,
    order: int = 32,
    bits: int = 256,
    center: Fraction = Fraction(0),
) -> Any:
    """Parse ``text`` as an element of the given kind.

    ``order`` bounds inexact series knowledge; ``bits`` sets the precision of
    certified reals, which only the ``real`` context produces; ``center`` is
    the series base point unless the expression carries an ``at c`` suffix.
    The ``polynomial`` context parses exact series at center 0 and uses none
    of the three; the ``trig`` context returns every value, scalars included,
    as a ``TrigPolynomial``.
    """
    if context not in CONTEXTS:
        raise DomainError(f"unknown parse context {context!r}")
    tokens = tokenize(text)
    env: _Env
    if context == "real":
        env = _ScalarEnv(bits)
    elif context == "polynomial":
        env = _SeriesEnv(Fraction(0), order=None)
    elif context == "trig":
        env = _TrigEnv()
    else:
        if order is not None and order < 0:
            raise DomainError(f"series order must be >= 0, got {order}")
        tokens, tail = _split_at_clause(tokens)
        if tail is not None:
            at_value = _Parser(tail).parse_full(_ScalarEnv(exact_only=True))
            center = Fraction(at_value)
        env = _SeriesEnv(center, order)
    value = _Parser(tokens).parse_full(env)
    if isinstance(value, PowerSeries) and not value.exact:
        # computed in full here, so no parse work is deferred into (and then
        # memoised across) the operations that read the input
        value = PowerSeries.truncated(value.center, value.coeffs)
    return value


def parse_alpha_schedule(text: str) -> Callable[[int], Fraction]:
    """Parse an exponent schedule: a constant, a comma list (last value
    repeats), or an index expression in ``i`` such as ``1/(i+2)``."""
    tokens = tokenize(text)
    has_index = any(t.kind == "name" and t.text == "i" for t in tokens)
    if has_index:
        def schedule(index: int) -> Fraction:
            env = _ScalarEnv(exact_only=True, variables={"i": Fraction(index)})
            value = _Parser(tokens).parse_full(env)
            return Fraction(value)

        schedule(0)  # validate eagerly so bad schedules fail at parse time
        return schedule
    env = _ScalarEnv(exact_only=True)
    values = [_Parser(tokenize(part)).parse_full(env) for part in text.split(",")]
    return alpha_list(values)


def parse_path(text: str) -> List[complex]:
    """Parse a path: ``;``-separated points, each ``re`` or ``re,im``; a
    string without ``;`` is a comma list of real points."""
    pairs = ";" in text
    points: List[complex] = []
    offset = 0
    for group in text.split(";" if pairs else ","):
        parts = group.split(",") if pairs else [group]
        if not group.strip() or len(parts) > 2:
            message = "path points are 're' or 're,im'" if pairs else "empty path point"
            raise ParseError(message, offset)
        try:
            points.append(complex(*(float(part) for part in parts)))
        except ValueError:
            raise ParseError(f"bad path point {group.strip()!r}", offset)
        offset += len(group) + 1
    return points
