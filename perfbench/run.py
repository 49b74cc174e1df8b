"""Benchmark driver for ``expansions``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reals-certified --seed 1 --seconds 10 --trace 0

One process, one thread, one caller: a closed loop that sends the next
operation when the previous one has returned.  The library is imported from
``src/`` next to this directory; nothing is installed.

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass (see ``tracer.py``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Lines before it repeat the figures for people, with the sample
count, the failed ratio and the environment.

``--replay OP`` runs one operation (``<round>.<index>`` as printed for a
failure) once, prints its command line, output and oracle verdict.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

from pace import Pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: set-up is repeated this many times per run and reported as the median
SETUP_REPS = 7

#: the cycle of operations is timed at least this many times
MIN_PASSES = 2

#: untraced and traced passes of the traced run, each
TRACE_PASSES = 3

#: predicted dominant layer (module with the most traced self time) per workload
PREDICTED_LAYER = {
    "reals-certified": ("certified", "realsys"),
    "germ-codes": ("series",),
    "path-eval": ("patheval",),
    "poly-systems": ("polynomials", "seriessys"),
}


def _fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def _import_library():
    for name in [n for n in sys.modules if n == "expansions" or n.startswith("expansions.")]:
        del sys.modules[name]
    lib = importlib.import_module("expansions")
    if Path(lib.__file__).resolve().parent != SRC / "expansions":
        raise ImportError(f"expansions imported from {lib.__file__}, not from {SRC}")
    return lib


def _fingerprint() -> str:
    digest = hashlib.sha256()
    for directory in (SRC / "expansions", HERE):
        for path in sorted(directory.glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Run:
    """One workload and seed: the library, its systems and the cycle of
    operations, with every output seen so far."""

    def __init__(self, workload, seed: int) -> None:
        self.wl = workload
        self.seed = seed
        self.pace = Pace(workload.name)
        self.setup_times: List[float] = []
        for _ in range(SETUP_REPS):
            before = self.pace.tick()
            start = perf_counter()
            lib = _import_library()
            systems = workload.build_systems(lib)
            rounds = [workload.build_round(lib, systems, seed, r)
                      for r in range(workload.cycle_rounds)]
            elapsed = perf_counter() - start
            self.setup_times.append(elapsed * self.pace.factor(before, self.pace.tick()))
        self.lib, self.systems = lib, systems
        self.ops = [(f"{r}.{i}", op, inp) for r, ops in enumerate(rounds)
                    for i, (op, inp) in enumerate(ops)]
        self.outputs: Dict[str, str] = {}
        self.results: Dict[str, Dict[str, Any]] = {}
        self.nondeterministic: List[str] = []
        self.wall_busy = 0.0  # operation time before pacing, for the report

    def op(self, key: str) -> Tuple[Dict[str, Any], Any]:
        return next((op, inp) for k, op, inp in self.ops if k == key)

    def execute(self, op: Dict[str, Any], inp: Any) -> Dict[str, Any]:
        try:
            return self.wl.execute(self.lib, self.systems, op, inp)
        except ZeroDivisionError:
            return {"exc": "DomainError"}  # the CLI's mapping
        except self.lib.ExpansionError as exc:
            return {"exc": type(exc).__name__}
        except Exception as exc:  # an undocumented failure is a result to check
            return {"exc": f"undocumented {type(exc).__name__}: {exc}"}

    def run_ops(self, ops, tracer=None) -> Dict[str, float]:
        """Run ``ops`` once in order; return each one's latency in seconds at
        reference speed (see ``pace.py``)."""
        finish = getattr(self.wl, "finish", None)
        latencies: Dict[str, float] = {}
        chunk: List[str] = []
        chunk_s = 0.0
        before = self.pace.tick()
        for index, (key, op, inp) in enumerate(ops):
            start = perf_counter()
            if tracer is None:
                out = self.execute(op, inp)
            else:
                out = tracer.run_op(index, self.execute, op, inp)
            latencies[key] = perf_counter() - start
            chunk.append(key)
            chunk_s += latencies[key]
            if finish is not None and "exc" not in out:
                finish(out)
            text = json.dumps(out, sort_keys=True, default=str)
            if self.outputs.setdefault(key, text) != text:
                self.nondeterministic.append(key)
            self.results[key] = out
            if chunk_s >= self.pace.CHUNK_S or index == len(ops) - 1:
                after = self.pace.tick()
                factor = self.pace.factor(before, after)
                for done in chunk:
                    latencies[done] *= factor
                self.wall_busy += chunk_s
                chunk, chunk_s, before = [], 0.0, after
        return latencies

    def check(self) -> Tuple[Dict[str, str], float]:
        """Oracle verdict for every operation run: key -> reason, empty when
        the output is correct."""
        from oracles import CHECKS

        start = perf_counter()
        check = CHECKS[self.wl.name]
        verdicts = {}
        for key, op, _ in self.ops:
            if key in self.results:
                ok, reason = check(op, self.results[key])
                verdicts[key] = "" if ok else (reason or "wrong output")
        return verdicts, perf_counter() - start

    def digest(self) -> str:
        digest = hashlib.sha256()
        for key, _, _ in self.ops:
            digest.update(self.outputs[key].encode())
        return digest.hexdigest()

    def report_failures(self, verdicts: Dict[str, str], limit: int = 5) -> int:
        bad = [(key, reason) for key, reason in verdicts.items() if reason]
        for key, reason in bad[:limit]:
            sys.stderr.write(
                f"FAILED {key}: {reason}\n  replay: {self.wl.cli(self.op(key)[0])}\n"
                f"  or: python3 perfbench/run.py --workload {self.wl.name} "
                f"--seed {self.seed} --replay {key}\n")
        return len(bad)


def _determinism_gate(run: Run, counts: Dict[str, int]) -> List[str]:
    """Compare this run's output digest (and counts) with earlier runs of the
    same code, workload and seed; record them on first sight."""
    problems = [f"output of {key} changed between repeats" for key in run.nondeterministic]
    OUT_DIR.mkdir(exist_ok=True)
    state_path = OUT_DIR / f"state-{run.wl.name}-s{run.seed}-{_fingerprint()}.json"
    state = json.loads(state_path.read_text()) if state_path.exists() else {}
    current = {"digest": run.digest(), **{f"count:{k}": v for k, v in counts.items()}}
    for key, value in current.items():
        if key in state and state[key] != value:
            problems.append(f"{key} is {value}, an earlier run had {state[key]}")
    state.update({k: v for k, v in current.items() if k not in state})
    tmp = state_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, sort_keys=True))
    os.replace(tmp, state_path)
    for problem in problems:
        sys.stderr.write(f"DETERMINISM: {problem}\n")
    return problems


def _emit(correct: bool, attempted: int, failed: int,
          metrics: Dict[str, Tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def _header(run: Run, what: str) -> None:
    print(f"workload {run.wl.name}  seed {run.seed}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()}  closed loop, 1 caller, 1 thread; {what}")


def _per_op(passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Each operation's median latency over the passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


def measure(run: Run, seconds: float) -> int:
    """End-to-end metrics.  The cycle runs again and again for ``seconds``
    (at least ``MIN_PASSES`` times); an operation's latency is the median of
    its repeats at reference speed."""
    passes: List[Dict[str, float]] = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(run.run_ops(run.ops))
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts, oracle_s = run.check()
    bad = run.report_failures(verdicts)
    problems = _determinism_gate(run, {})
    latencies = sorted(_per_op(passes).values())
    attempted = len(passes) * len(run.ops)
    failed = len(passes) * bad
    _header(run, f"{len(passes)} passes over {len(run.ops)} operations")
    print(f"latency samples {len(latencies)} (median of {len(passes)} repeats each, at "
          f"reference speed); {wall:.2f} s wall, {run.wall_busy:.2f} s busy before pacing "
          f"= x{run.wall_busy / (sum(latencies) * len(passes)):.3f} host slowdown; "
          f"oracle {oracle_s:.2f} s untimed")
    print(f"failed_ratio {failed / attempted!r} ({failed} of {attempted})")
    metrics = {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1000 * _percentile(latencies, 0.9), "ms"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    _emit(failed == 0 and not problems, attempted, failed, metrics)
    return 1 if problems else 0


def trace(run: Run) -> int:
    """Per-layer metrics from ``TRACE_PASSES`` untraced and as many traced
    passes over the cycle.  Counts must agree between the traced passes;
    self times come from the fastest one."""
    from tracer import Tracer

    untraced = sum(_per_op([run.run_ops(run.ops) for _ in range(TRACE_PASSES)]).values())
    tracers, passes = [], []
    for _ in range(TRACE_PASSES):
        tracer = Tracer()
        tracer.install(run.lib)
        try:
            passes.append(run.run_ops(run.ops, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    traced = sum(_per_op(passes).values())
    tracer = min(tracers, key=lambda t: sum(t.self_s.values()))
    verdicts, oracle_s = run.check()
    bad = run.report_failures(verdicts)
    problems = _determinism_gate(run, tracers[0].counts)
    for other in tracers[1:]:
        if other.counts != tracers[0].counts:
            problems.append(f"counts differ between traced passes: {tracers[0].counts} "
                            f"vs {other.counts}")
            sys.stderr.write(f"DETERMINISM: {problems[-1]}\n")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{run.wl.name}-s{run.seed}.tsv.gz"
    tracer.write(str(spans_path))

    modules = tracer.module_self_s()
    total = sum(modules.values())
    ranked = sorted(modules.items(), key=lambda kv: -kv[1])
    top = next((m for m, _ in ranked if m != "bench"), "none")
    predicted = PREDICTED_LAYER[run.wl.name]
    _header(run, f"traced passes over {len(run.ops)} operations")
    print(f"tracing overhead: traced {traced:.3f} s vs untraced {untraced:.3f} s "
          f"(median of {TRACE_PASSES} passes each, at reference speed) "
          f"= x{traced / untraced:.3f}; "
          f"{len(tracer.span_start)} spans kept, {tracer.dropped} dropped, "
          f"written to {spans_path.relative_to(ROOT)}; oracle {oracle_s:.2f} s untimed")
    print("self time by module: " + ", ".join(
        f"{m} {v:.3f}s ({100 * v / total:.1f}%)" for m, v in ranked))
    print(f"dominant layer {top}, predicted {'/'.join(predicted)}: "
          f"{'confirmed' if top in predicted else 'MISPREDICTED'}")
    attempted = TRACE_PASSES * len(run.ops)
    failed = TRACE_PASSES * bad
    print(f"failed_ratio {failed / attempted!r} ({failed} of {attempted})")
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    metrics["trace.spans"] = (len(tracer.span_start) + tracer.dropped, "count")
    _emit(failed == 0 and not problems, attempted, failed, metrics)
    return 1 if problems else 0


def replay(run: Run, key: str) -> int:
    op, inp = run.op(key)
    print("command:", run.wl.cli(op))
    run.run_ops([(key, op, inp)])
    print("output:", json.dumps(run.results[key], default=str))
    reason = run.check()[0][key]
    print("oracle:", "correct" if not reason else f"FAILED: {reason}")
    return 0 if not reason else 1


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", help="run one operation, <round>.<index>")
    args = parser.parse_args(argv)

    if not (SRC / "expansions" / "__init__.py").is_file():
        return _fail(f"no library sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    try:
        run = Run(WORKLOADS[args.workload], args.seed)
    except ImportError as exc:
        return _fail(str(exc))
    if args.replay:
        return replay(run, args.replay)
    gc.collect()
    run.run_ops([entry for entry in run.ops if entry[0].startswith("0.")])  # warm-up
    if args.trace:
        return trace(run)
    return measure(run, args.seconds)


if __name__ == "__main__":
    raise SystemExit(main())
