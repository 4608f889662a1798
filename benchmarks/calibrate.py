"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark's host is a few shared cores whose speed drifts by 10-25%
over minutes, much the same for any pure-Python work.  The end-to-end timings
are therefore scaled to a machine of fixed speed: each timed request is
followed, outside its timer, by one run of the kernel below, and each
request time is multiplied by ``NOMINAL_S`` over the median kernel time of
the ``2 * WINDOW + 1`` requests around it.  A timing so reads as the
seconds it would take on a machine where the kernel takes ``NOMINAL_S``,
which is about what it took on the machine the benchmark was defined on
(2 vCPUs, Python 3.11).  Over three minutes of that machine, the kernel's
30-second medians followed those of fixed hypeuler requests with a
correlation of 0.9, and scaling cut their spread about fourfold.

The kernel does the kind of work hypeuler does, in roughly its
proportions: a truncated product of two sparse series keyed by tuples with
``Fraction`` coefficients, then the result written out as text.  It never
calls hypeuler, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.005
WINDOW = 15

_ORDER = 14
_A = {(k, k % 3): Fraction(k + 1, 2 * k + 3) for k in range(_ORDER + 1)}
_B = {(k, k % 5): Fraction(3 * k - 7, k + 2) for k in range(_ORDER + 1)}


def kernel() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    product: dict[tuple[int, ...], Fraction] = {}
    for _ in range(6):
        for ka, ca in _A.items():
            for kb, cb in _B.items():
                if ka[0] + kb[0] > _ORDER:
                    continue
                key = (ka[0] + kb[0], ka[1], kb[1])
                product[key] = product.get(key, 0) + ca * cb
    text = " + ".join(f"{c}*x{k}" for k, c in sorted(product.items()))
    return len(text)


def timed() -> float:
    """Wall time of one run of the kernel.

    The collector is off meanwhile, so the time does not depend on how
    many objects the calling process holds.
    """
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        gc.enable()


def scale(times: list[float], kernel_s: list[float]) -> list[float]:
    """Each time scaled by the machine speed measured around it.

    ``kernel_s[i]`` is the kernel time measured right after ``times[i]``.
    """
    out = []
    for i, t in enumerate(times):
        around = kernel_s[max(0, i - WINDOW) : i + WINDOW + 1]
        out.append(t * NOMINAL_S / statistics.median(around))
    return out
