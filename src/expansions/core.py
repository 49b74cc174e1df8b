"""Graded expansion systems and the operations every system shares.

A system assigns to each level ``i >= 0`` a space of elements with a neutral
element, a coefficient projection ``project(i, y)``, an expansion step
``expand(i, y)``, and a partial inverse ``reconstruct(i, c, tail)`` of
``y -> (project(i, y), expand(i, y))``.  Expanding forward from an element
yields its coefficient code; reconstructing backward from the level-``n``
neutral yields the ``n``-th convergent.

Reconstruction is *partial*: a coefficient/tail pair may fall outside the
image of level ``i``, in which case ``reconstruct`` returns ``None`` and the
convergent is improper at level ``i``.  Improperness is reported as data
(:class:`ConvergentTrace.improper_at`), never as an exception.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .errors import (
    DomainError,
    PrecisionExhausted,
    TruncationInconclusive,
    UnsupportedInContext,
)

#: Possible values of :attr:`ExpansionSystem.coefficient_order_kind`.
ORDER_STANDARD = "standard"
ORDER_REVERSED = "reversed"
ORDER_NONE = "unordered"


class ExpansionSystem:
    """Base class for graded expansion systems.

    Subclasses implement the per-level maps.  Elements are plain values
    (``Fraction``, :class:`~expansions.certified.Interval`, series,
    polynomials, ...); the system knows how to compare them and which
    coefficient order, if any, its coefficient spaces carry.

    Attributes:
        name: short identifier used in reports and the CLI registry.
        kind: element kind tag (``"real"``, ``"series"``, ``"polynomial"``,
            ``"trig"``, ``"germ"``) used to pick rendering and metrics.
        coefficient_order_kind: ``"standard"``, ``"reversed"`` or
            ``"unordered"``; the order against which monotonicity of the
            coefficient map is judged.
    """

    name: str = "?"
    kind: str = "?"
    coefficient_order_kind: str = ORDER_NONE

    # -- per-level maps (subclass responsibility) -------------------------

    def neutral(self, i: int) -> Any:
        raise NotImplementedError

    def validate(self, i: int, y: Any) -> None:
        """Raise :class:`DomainError` if ``y`` is not a level-``i`` element."""

    def project(self, i: int, y: Any) -> Any:
        raise NotImplementedError

    def expand(self, i: int, y: Any) -> Any:
        raise NotImplementedError

    def reconstruct(self, i: int, c: Any, tail: Any) -> Optional[Any]:
        """Inverse of ``y -> (project, expand)`` where defined, else ``None``."""
        raise NotImplementedError

    def step(self, i: int, y: Any) -> Tuple[Any, Any]:
        """``(project(i, y), expand(i, y))``; a system whose two maps share
        work overrides this to do it once."""
        return self.project(i, y), self.expand(i, y)

    def backward_pass(self, coeffs: Sequence[Any]) -> "ConvergentTrace":
        """Seed the level-``n`` neutral and reconstruct down to level 0; a
        system with a cheaper form of the same chain overrides this."""
        n = len(coeffs)
        stages: List[Optional[Any]] = [None] * (n + 1)
        stages[n] = self.neutral(n)
        for i in range(n - 1, -1, -1):
            nxt = self.reconstruct(i, coeffs[i], stages[i + 1])
            if nxt is None:
                return ConvergentTrace(n=n, stages=stages, improper_at=i)
            stages[i] = nxt
        return ConvergentTrace(n=n, stages=stages, improper_at=None)

    # -- comparisons -------------------------------------------------------

    def is_neutral(self, i: int, y: Any) -> bool:
        return self.elements_equal(i, y, self.neutral(i))

    def elements_equal(self, i: int, a: Any, b: Any) -> bool:
        return a == b

    def coefficients_equal(self, i: int, a: Any, b: Any) -> bool:
        return a == b

    def compare_coefficients(self, i: int, a: Any, b: Any) -> int:
        """Return -1/0/+1 per the declared order on the level-``i`` coefficients.

        Raises:
            UnsupportedInContext: if the coefficient space is unordered.
        """
        if self.coefficient_order_kind == ORDER_NONE:
            raise UnsupportedInContext(
                f"coefficients of {self.name} carry no declared order"
            )
        if a == b:
            return 0
        less = a < b
        if self.coefficient_order_kind == ORDER_REVERSED:
            less = not less
        return -1 if less else 1


@dataclass(frozen=True)
class OrderResult:
    """Result of :func:`order_of`.

    ``finite`` is True when the trajectory reached the neutral element at
    level ``n``; otherwise ``n`` is the depth up to which neutrality was ruled
    out.
    """

    finite: bool
    n: int

    def __str__(self) -> str:
        return f"finite({self.n})" if self.finite else f"infinite-up-to({self.n})"


_UNREAD = object()


class LazyStages(abc.Sequence):
    """Read-only stages of a backward pass: entry ``k`` is ``build(k)``, run
    on its first read and kept, except a level-0 ``value`` built already."""

    __slots__ = ("_stages", "_build")

    def __init__(self, length: int, build: Callable[[int], Any], value: Any = _UNREAD) -> None:
        self._stages = [value] + [_UNREAD] * (length - 1)
        self._build = build

    def __len__(self) -> int:
        return len(self._stages)

    def __getitem__(self, k: Any) -> Any:
        if isinstance(k, slice):
            return [self[j] for j in range(len(self))[k]]
        stage = self._stages[k]
        if stage is _UNREAD:
            k %= len(self._stages)
            stage = self._stages[k] = self._build(k)
        return stage

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, LazyStages)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class ConvergentTrace:
    """Backward reconstruction record for one convergent.

    Attributes:
        n: convergent index (number of coefficients consumed).
        stages: ``stages[k]`` is the level-``k`` stage of the convergent for
            ``k = n`` (the neutral seed) down to the failure point; entries
            below a failed reconstruction are ``None``.  A read-only sequence,
            which may build each stage when it is read (:class:`LazyStages`).
        improper_at: level index of the failed reconstruction, or ``None``
            if every step landed in the image.
    """

    n: int
    stages: Sequence[Optional[Any]]
    improper_at: Optional[int]

    @property
    def proper(self) -> bool:
        return self.improper_at is None

    @property
    def value(self) -> Optional[Any]:
        """The convergent itself (level-0 stage), or ``None`` if improper."""
        return self.stages[0]


def trajectory(system: ExpansionSystem, y: Any, n: int) -> List[Any]:
    """Expansion stages ``[y_0, ..., y_n]`` with ``y_0 = y``."""
    if n < 0:
        raise DomainError(f"negative depth {n}")
    system.validate(0, y)
    stages = [y]
    for i in range(n):
        stages.append(system.expand(i, stages[-1]))
    return stages


def coefficient_code(system: ExpansionSystem, y: Any, n: int) -> List[Any]:
    """First ``n`` coefficients ``[c_0, ..., c_{n-1}]`` of ``y``.

    A ``PrecisionExhausted`` or ``TruncationInconclusive`` raised at some
    level carries that ``level`` and the ``prefix`` of coefficients certified
    before it, plus that level's own coefficient when ``project`` still
    reads it after ``step`` ran out of known order there.
    """
    if n < 0:
        raise DomainError(f"negative depth {n}")
    system.validate(0, y)
    if n == 0:
        return []
    code: List[Any] = []
    try:
        for i in range(n - 1):
            c, y = system.step(i, y)
            code.append(c)
        code.append(system.project(n - 1, y))
    except (PrecisionExhausted, TruncationInconclusive) as exc:
        # A germ's known order runs out in ``expand`` one level before
        # ``project`` reads past it; a real step fails on its coefficient's
        # own predicate, which projecting again would only repeat.
        if isinstance(exc, TruncationInconclusive) and len(code) < n - 1:
            try:
                code.append(system.project(len(code), y))
            except TruncationInconclusive:
                pass
        exc.level, exc.prefix = len(code), code
        raise
    return code


def convergent_from_code(
    system: ExpansionSystem, coeffs: Sequence[Any]
) -> ConvergentTrace:
    """Backward pass: seed the level-``n`` neutral and reconstruct down to 0
    (:meth:`ExpansionSystem.backward_pass`)."""
    return system.backward_pass(coeffs)


def convergent(system: ExpansionSystem, y: Any, n: int) -> ConvergentTrace:
    """The ``n``-th convergent of ``y``: code prefix, then backward pass."""
    return convergent_from_code(system, coefficient_code(system, y, n))


def order_of(system: ExpansionSystem, y: Any, max_depth: int) -> OrderResult:
    """Least ``n <= max_depth`` whose stage is neutral, else infinite-up-to."""
    if max_depth < 0:
        raise DomainError(f"negative depth {max_depth}")
    system.validate(0, y)
    stage = y
    for i in range(max_depth + 1):
        if system.is_neutral(i, stage):
            return OrderResult(finite=True, n=i)
        if i < max_depth:
            stage = system.expand(i, stage)
    return OrderResult(finite=False, n=max_depth)


def properness_profile(
    system: ExpansionSystem, y: Any, n_max: int
) -> List[Optional[int]]:
    """For each ``n`` in ``0..n_max``, the improper level of ``y``'s ``n``-th
    convergent (``None`` when proper)."""
    code = coefficient_code(system, y, n_max)
    return [convergent_from_code(system, code[:n]).improper_at for n in range(n_max + 1)]


def head_coincidence(system: ExpansionSystem, y: Any, n: int) -> bool:
    """Check that the ``n``-th convergent reproduces ``y``'s first ``n``
    coefficients when expanded again.  Improper convergents pass vacuously
    (there is nothing to re-expand)."""
    code = coefficient_code(system, y, n)
    trace = convergent_from_code(system, code)
    if not trace.proper:
        return True
    recode = coefficient_code(system, trace.value, n)
    return all(
        system.coefficients_equal(i, a, b) for i, (a, b) in enumerate(zip(code, recode))
    )


def roundtrip_check(system: ExpansionSystem, y: Any, n: int) -> bool:
    """Verify that reconstruction inverts expansion along ``y``'s trajectory.

    For each level ``i < n``, feeds ``(project(i, y_i), y_{i+1})`` back through
    ``reconstruct`` and compares with ``y_i``.
    """
    stages = trajectory(system, y, n)
    for i in range(n):
        back = system.reconstruct(i, system.project(i, stages[i]), stages[i + 1])
        if back is None or not system.elements_equal(i, back, stages[i]):
            return False
    return True
