"""The machine's speed, measured beside the benchmark's own operations.

The benchmark runs on shared virtual machines whose speed drifts with other
tenants' load, by up to 2x for stretches of seconds to minutes, and every
operation of a run slows together. So the end-to-end run times a fixed piece
of pure-Python work, the reference kernel, between its operations, a few times
a second, and once after the last. Each operation's time is then scaled by
``REFERENCE_S / k``, where ``k`` is the mean of the kernel times just before
and after it: the time the operation would take on a machine where the kernel
takes ``REFERENCE_S``. The kernel uses none of the engine's code, so a change
to the engine moves the scaled times as much as the raw ones. The benchmark
and the CLI runs it spawns share one CPU, so the kernel runs where they run.
"""

from __future__ import annotations

import gc
import heapq
from bisect import bisect_left, bisect_right
from statistics import mean
from time import perf_counter

# About the kernel's time at full speed on the machine the bounds were set on
# (2 vCPUs of a shared Intel Xeon host, CPython 3.11).
REFERENCE_S = 0.010

KERNEL_ITEMS = 3_000

# A span of timed work is scaled by the kernels run this close to it, or as
# close as the span is long.
WINDOW_S = 0.5


def kernel() -> int:
    """Fixed work of the kinds the engine does: split and parse CSV text,
    fill dicts of tuples, push and pop a heap, join strings."""
    text = "\n".join(",".join(str((i * 7919 + j * 104_729) % 100_003) for j in range(4))
                     for i in range(KERNEL_ITEMS))
    table: dict[int, tuple[int, int]] = {}
    for i, line in enumerate(text.split("\n")):
        cells = [int(c) for c in line.split(",")]
        table[cells[0]] = (i, cells[1] + cells[2] - cells[3])
    heap: list[tuple[int, int]] = []
    for key, (_, weight) in table.items():
        heapq.heappush(heap, (weight, key))
    order = [heapq.heappop(heap)[1] for _ in range(len(heap))]
    return len(",".join(map(str, order)))


def time_kernel() -> tuple[float, float]:
    """Run one kernel now; return (its midpoint, its seconds). The cyclic
    collector is off meanwhile, so the engine's objects in the heap do not
    slow the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        end = perf_counter()
        return (start + end) / 2, end - start
    finally:
        if enabled:
            gc.enable()


def scales(kernels: list[tuple[float, float]],
           spans: list[tuple[float, float]]) -> list[float]:
    """One scale factor per ``(start, end)`` span of timed work:
    ``REFERENCE_S`` over the mean time of the kernels run before or after the
    span within ``WINDOW_S`` or the span's own length, whichever is longer, or
    of the nearest kernel if none was. ``kernels`` holds ``(time, seconds)``
    pairs in time order."""
    times = [t for t, _ in kernels]
    factors = []
    for start, end in spans:
        pad = max(WINDOW_S, end - start)
        lo = bisect_left(times, start - pad)
        hi = bisect_right(times, end + pad)
        if lo == hi:
            nearest = min(range(len(times)), key=lambda i: abs(times[i] - start))
            lo, hi = nearest, nearest + 1
        factors.append(REFERENCE_S / mean(s for _, s in kernels[lo:hi]))
    return factors
