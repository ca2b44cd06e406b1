"""Host-speed calibration for the benchmark's host-time metrics.

On a shared host a vCPU runs at a speed that changes from one moment to
the next, and the share of time it runs slowly drifts over minutes.  A
fixed reference loop, run for a short window just before and just after
each measured interval, tells how fast the host ran around it.  Each
measured time is scaled to the speed at which one reference unit takes
``NOMINAL_S``:

    reported = measured * NOMINAL_S / mean reference unit time

The window's *mean* unit time is used: it covers fast and slow moments in
the proportion the measured interval met them, where the best unit of a
window would only tell that a fast moment came by.  The loop uses no code
of the program, so a change to the program moves the measured time and
leaves the reference alone.
"""

from __future__ import annotations

import gc
import time

#: One reference unit's time on the 2-vCPU host the benchmark was tuned
#: on, at its fast speed.
NOMINAL_S = 0.002
#: How long each reference reading runs.
WINDOW_S = 0.2


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, following):
        self.key = key
        self.value = value
        self.next = following


def _reference_unit() -> int:
    """Fixed interpreter work: allocation, dict and list traffic, calls."""
    table = {}
    head = None
    total = 0
    for i in range(4000):
        head = _Node(i * 2654435761 % 1021, i, head)
        table[head.key] = table.get(head.key, 0) + head.value
        total += len(str(i))
    while head is not None:
        total += table[head.key] & 7
        head = head.next
    return total


def reference_seconds(window: float = WINDOW_S) -> float:
    """Mean seconds per reference unit over the next ``window`` seconds.

    The collector is off meanwhile, so the reading does not depend on how
    many objects the measured program left on the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        units = 0
        started = time.perf_counter()
        while True:
            _reference_unit()
            units += 1
            elapsed = time.perf_counter() - started
            if elapsed >= window:
                return elapsed / units
    finally:
        if enabled:
            gc.enable()


def speed_factor(before: float, after: float) -> float:
    """The scale for a time measured between two reference readings."""
    return NOMINAL_S / ((before + after) / 2)
