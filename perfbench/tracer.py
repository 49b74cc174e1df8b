"""Span tracer for the benchmark's traced run.

The tracer wraps public entry points of ``expansions`` from the outside: it
replaces module functions (wherever a module bound them by import) and class
methods with timing wrappers, and restores them afterwards.  The library is
not modified.

Each call of a wrapped entry records a span (name, start, end, parent span,
operation id) in compact arrays kept in memory; ``write`` dumps them when the
benchmark ends.  Self time is the span's duration minus the time covered by
its child spans, including the tracer's own bookkeeping for those children,
so the self times of all spans add up to the traced wall time.

Layer counters are taken at the same boundaries from the values the entries
return: coefficient counts and bit sizes, interval endpoint sizes, panels.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span records beyond this many are aggregated but not stored
MAX_SPANS = 1_000_000

#: traced entry name -> how its timings are reported
ENTRIES = (
    "series.power", "series.log", "series.exp", "series.mul",
    "approx.project", "approx.expand", "approx.reconstruct",
    "core.coefficient_code", "core.convergent_from_code",
    "realsys.project", "realsys.expand", "realsys.reconstruct",
    "certified.interval_ops", "certified.constants",
    "exprs.parse_expression",
    "patheval.eval_convergent_path",
    "polynomials.sup_norm_le",
    "seriessys.project", "seriessys.expand", "seriessys.reconstruct",
    "analysis.render_value",
)

#: count metrics; each must repeat exactly across runs with one seed
COUNTS = (
    "series.coeffs_out", "series.coeff_bits_max", "certified.endpoint_bits_max",
    "approx.convergent_len_max", "patheval.panels", "realsys.exhausted",
)

_INTERVAL_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__truediv__", "__rtruediv__", "__pow__", "reciprocal",
                 "abs", "sign", "floor", "ceil", "lt")


def _fraction_bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = {name: 0 for name in COUNTS}
        self.op = -1
        self._stack: List[list] = []  # [span index, name, child time]
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn: Callable, post: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records a span called ``name``; ``post``
        sees the result (or the exception) after the span has ended."""
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.span_start)
            if index < MAX_SPANS:
                tracer.span_name.append(name_id)
                tracer.span_parent.append(stack[-1][0] if stack else -1)
                tracer.span_op.append(tracer.op)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            else:
                index = -1
                tracer.dropped += 1
            frame = [index, name, 0.0]
            stack.append(frame)
            outcome: Any = None
            start = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += (end - start) - frame[2]
                if index >= 0:
                    tracer.span_start[index] = start
                    tracer.span_end[index] = end
                if post is not None:
                    post(outcome, stack)
                if stack:
                    stack[-1][2] += perf_counter() - start

        traced.__wrapped__ = fn
        return traced

    # -- counters --------------------------------------------------------------

    def _series_post(self, result: Any, stack: list) -> None:
        coeffs = getattr(result, "coeffs", None)
        if coeffs is not None:
            self.counts["series.coeffs_out"] += len(coeffs)
            bits = _fraction_bits(coeffs)
            if bits > self.counts["series.coeff_bits_max"]:
                self.counts["series.coeff_bits_max"] = bits

    def _interval_post(self, result: Any, stack: list) -> None:
        lo = getattr(result, "lo", None)
        if lo is not None:
            bits = _fraction_bits((lo, result.hi))
            if bits > self.counts["certified.endpoint_bits_max"]:
                self.counts["certified.endpoint_bits_max"] = bits

    def _reconstruct_post(self, result: Any, stack: list) -> None:
        coeffs = getattr(result, "coeffs", None)
        if coeffs is not None and len(coeffs) > self.counts["approx.convergent_len_max"]:
            self.counts["approx.convergent_len_max"] = len(coeffs)

    def _panels_post(self, result: Any, stack: list) -> None:
        self.counts["patheval.panels"] += getattr(result, "panels", 0)

    def _realsys_post(self, result: Any, stack: list) -> None:
        # count each exhaustion once, at the outermost real-system map
        if type(result).__name__ == "PrecisionExhausted" and not any(
                frame[1].startswith("realsys.") for frame in stack):
            self.counts["realsys.exhausted"] += 1

    # -- installation ----------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, lib_modules: List[Any], fn: Callable, wrapper: Callable) -> None:
        for module in lib_modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def _patch_maps(self, module: Any, base: type, prefix: str, post=None) -> None:
        for cls in list(vars(module).values()):
            if isinstance(cls, type) and issubclass(cls, base) and cls.__module__ == module.__name__:
                for attr in ("project", "expand", "reconstruct"):
                    if attr in cls.__dict__:
                        self._patch(cls, attr, self.span(f"{prefix}.{attr}",
                                                         cls.__dict__[attr], post))

    def install(self, lib: Any) -> None:
        """Wrap the traced entry points of the imported package ``lib``."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "expansions" or name.startswith("expansions."))]
        get = lambda name: sys.modules[f"expansions.{name}"]  # noqa: E731
        core, exprs, analysis = get("core"), get("exprs"), get("analysis")
        patheval, polynomials, certified = get("patheval"), get("polynomials"), get("certified")
        series = get("series")

        for fn, name, post in (
            (core.coefficient_code, "core.coefficient_code", None),
            (core.convergent_from_code, "core.convergent_from_code", None),
            (exprs.parse_expression, "exprs.parse_expression", None),
            (analysis.render_value, "analysis.render_value", None),
            (patheval.eval_convergent_path, "patheval.eval_convergent_path",
             self._panels_post),
            (polynomials.sup_norm_le, "polynomials.sup_norm_le", None),
            (certified.sqrt_interval, "certified.constants", self._interval_post),
            (certified.pi_interval, "certified.constants", self._interval_post),
            (certified.e_interval, "certified.constants", self._interval_post),
        ):
            self._patch_function(mods, fn, self.span(name, fn, post))

        interval = certified.Interval
        for attr in _INTERVAL_OPS:
            self._patch(interval, attr, self.span("certified.interval_ops",
                                                  interval.__dict__[attr],
                                                  self._interval_post))
        power_series = series.PowerSeries
        for attr, name in (("power", "series.power"), ("log", "series.log"),
                           ("exp", "series.exp"), ("__mul__", "series.mul")):
            self._patch(power_series, attr, self.span(name, power_series.__dict__[attr],
                                                      self._series_post))
        approx = get("approx")
        cls = approx.ApproximationSystem
        self._patch(cls, "project", self.span("approx.project", cls.__dict__["project"]))
        self._patch(cls, "expand", self.span("approx.expand", cls.__dict__["expand"]))
        self._patch(cls, "reconstruct", self.span("approx.reconstruct",
                                                  cls.__dict__["reconstruct"],
                                                  self._reconstruct_post))
        self._patch_maps(get("realsys"), core.ExpansionSystem, "realsys", self._realsys_post)
        self._patch_maps(get("seriessys"), core.ExpansionSystem, "seriessys")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------------

    def run_op(self, op_index: int, fn: Callable, *args) -> Any:
        """Run one benchmark operation under a root span ``bench.op``."""
        self.op = op_index
        return self.span("bench.op", fn)(*args)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        out: Dict[str, Tuple[float, str]] = {}
        for name in ENTRIES:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
        out["bench.op.self_s"] = (self.self_s.get("bench.op", 0.0), "s")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        return out

    def module_self_s(self) -> Dict[str, float]:
        """Self time per module (the part of an entry name before the first dot)."""
        out: Dict[str, float] = defaultdict(float)
        for name, value in self.self_s.items():
            out[name.split(".")[0]] += value
        return dict(out)

    def write(self, path: str) -> None:
        """Write the spans as gzipped TSV: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("index\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_start)):
                handle.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                             f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                             f"{self.span_parent[i]}\t{self.span_op[i]}\n")
