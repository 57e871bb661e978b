"""Host-speed probe: scale measured times to one reference host speed.

On a shared 2-vCPU host the same deterministic operation takes from
1x to 2x its best time depending on what the neighbours do, and the
slow phases last tens of seconds, so medians of raw times from two runs
a minute apart can differ by 40%.  The slowdown is a common factor: a
fixed pure-Python kernel timed next to an operation slows by the same
factor.  Every in-process operation time is therefore reported as

    seconds * REFERENCE_S / probe()

with ``probe()`` the mean of the kernel timed right before and right
after the operation: host seconds at the speed where the kernel takes
``REFERENCE_S``.  Work that runs in other processes (set-ups, served
requests) may sit on the other core, where this probe does not track
it, and stays raw.  The kernel is benchmark code
with the collector off, so no change to the program (its heap size
included) can alter it.  The summary line before the JSON result keeps
the raw median.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: Kernel iterations, and the kernel's time on an uncontended core of the
#: host the benchmark was defined on.
KERNEL_ITERATIONS = 13_000
REFERENCE_S = 0.010


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _kernel(iterations: int) -> int:
    """Attribute reads, dict updates, calls and small tuples: the
    interpreter work the simulator's hot loops are made of."""
    table: dict[int, int] = {}
    total = 0
    for i in range(iterations):
        cell = _Cell(i & 7, i)
        table[cell.key] = table.get(cell.key, 0) + cell.value
        total += len(tuple(x for x in (i, i + 1, i + 2)))
    return total


def probe() -> float:
    """Seconds the kernel takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = perf_counter()
        _kernel(KERNEL_ITERATIONS)
        return perf_counter() - began
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` measured when the kernel took ``probe_s``, at reference speed."""
    return seconds * REFERENCE_S / probe_s
