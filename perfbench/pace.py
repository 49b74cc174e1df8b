"""Reference kernels that pace the benchmark's clock.

The host shares its cores with other tenants.  For minutes at a time it runs
this code 20-80 % slower, so a wall-clock latency mixes the program's work
with the host's load.  Each workload therefore has a fixed pure-Python
reference kernel with the same kind of work as its operations.  The
benchmark times the kernel between operations and reports every latency at
reference speed:

    latency * reference time / (kernel time around the operation)

The reference time is a constant: the fastest of 300 calls on an Intel Xeon
at 2.1 GHz (a shared virtual machine) with Python 3.11.7, so it only sets
the unit.  A faster library lowers the reported latency.  Host load raises the operation's time and the kernel's
time together, so it mostly cancels.  The kernels never call ``expansions``,
so a change to the library cannot move them.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction as F
from time import perf_counter
from typing import Callable, Dict, Tuple

_H = [F(1)] + [F((-1) ** k * (k % 7 + 1), 1 << (k % 3)) for k in range(1, 20)]


def series_power() -> list:
    """germ-codes: a rational power-series power (alpha = 1/3), order 22."""
    alpha, out = F(1, 3), [F(1)]
    for m in range(1, 23):
        acc = F(0)
        for k in range(1, min(m, len(_H) - 1) + 1):
            acc += ((alpha + 1) * k - m) * _H[k] * out[m - k]
        out.append(acc / m)
    return out


_LO = F(math.isqrt(2 << 8192) - (1 << 4096), 1 << 4096)
_HI = _LO + F(1, 1 << 4096)


def real_digits() -> list:
    """reals-certified: continued-fraction steps on a 4096-bit enclosure of
    sqrt(2) - 1 with exact rational endpoints."""
    lo, hi, out = _LO, _HI, []
    for _ in range(120):
        lo, hi = 1 / hi, 1 / lo
        q = math.floor(lo)
        out.append(q)
        lo, hi = lo - q, hi - q
    return out


def chebyshev() -> complex:
    """path-eval: a naive complex Chebyshev transform of 65 samples and
    Clenshaw sums, in floats."""
    n = 64
    values = [cmath.exp(0.3j * j) / (2 + math.cos(j)) for j in range(n + 1)]
    coeffs = []
    for k in range(n + 1):
        acc = 0j
        for j in range(n + 1):
            w = 0.5 if j in (0, n) else 1.0
            acc += w * values[j] * math.cos(math.pi * k * j / n)
        coeffs.append(2.0 / n * acc)
    total = 0j
    for x in (-1.0, -0.5, 0.0, 0.5, 1.0) * 4:
        b1 = b2 = 0j
        for a in reversed(coeffs[1:]):
            b1, b2 = a + 2 * x * b1 - b2, b1
        total += coeffs[0] + x * b1 - b2
    return total


_P = [F(k % 5 - 2, k % 3 + 1) for k in range(9)]


def remainder_sequence() -> list:
    """poly-systems: a Sturm-style remainder sequence of a degree-8 rational
    polynomial and sign evaluations along it."""
    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        return a

    chain = [_P, [k * c for k, c in enumerate(_P) if k]]
    while len(chain[-1]) > 1:
        r = rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    signs = []
    for x in (F(0), F(1, 3), F(1, 2), F(2, 3), F(1)):
        signs.append([sum(c * x ** k for k, c in enumerate(p)) > 0 for p in chain])
    return signs


#: workload -> (kernel, its time in seconds on an idle host)
KERNELS: Dict[str, Tuple[Callable[[], object], float]] = {
    "reals-certified": (real_digits, 1.37e-3),
    "germ-codes": (series_power, 1.95e-3),
    "path-eval": (chebyshev, 1.47e-3),
    "poly-systems": (remainder_sequence, 1.60e-3),
}


class Pace:
    """Times a workload's reference kernel; ``factor`` converts a wall time
    measured next to the kernel into time at reference speed."""

    #: operations are grouped until they take this long, then paced again
    CHUNK_S = 0.025

    def __init__(self, workload: str) -> None:
        self.kernel, self.reference_s = KERNELS[workload]

    def tick(self) -> float:
        start = perf_counter()
        self.kernel()
        return perf_counter() - start

    def factor(self, before: float, after: float) -> float:
        return self.reference_s / ((before + after) / 2)
