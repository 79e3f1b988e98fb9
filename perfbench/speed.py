"""Machine-speed probe: takes host CPU contention out of op times.

On a shared host the whole machine runs up to ~1.5x slower for minutes at
a time while other tenants are busy.  Between ops (outside any timed
region) the worker times a fixed pure-Python kernel every ``INTERVAL_S``
on the CPU the ops run on, and an op's time is scaled by
``REFERENCE_S / probe`` (median of the last few probes): it is reported at
the machine speed at which the kernel takes ``REFERENCE_S``.

The probe counts its own thread's CPU time, not wall time.  A slower CPU
slows it exactly as it slows the ops, but work the program adds on that
CPU (a server thread, work after a reply, a background thread in the
worker) only delays it, which CPU time does not count; that work shows in
the op times and is not scaled away.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

#: Kernel CPU time that defines the reference machine speed.
REFERENCE_S = 0.0037
INTERVAL_S = 0.1
#: Probes whose median gives the factor in force.
WINDOW = 3
KERNEL_ITERS = 30000


def kernel() -> int:
    """Interpreter-bound work: integer arithmetic and dict stores."""
    table = {}
    acc = 0
    for i in range(KERNEL_ITERS):
        acc = (acc + i * 7) % 1000003
        table[i & 1023] = acc
    return acc + min(table.values())


class SpeedProbe:
    def __init__(self) -> None:
        self._recent: deque = deque(maxlen=WINDOW)
        self._next = 0.0
        self.samples: list[float] = []

    def poll(self) -> None:
        """Probe when the last probe is older than ``INTERVAL_S``."""
        if time.monotonic() >= self._next:
            self.measure()

    def measure(self) -> None:
        t0 = time.thread_time()
        kernel()
        dt = time.thread_time() - t0
        self._recent.append(dt)
        self.samples.append(dt)
        self._next = time.monotonic() + INTERVAL_S

    def factor(self) -> float:
        """Multiplier from measured time to reference-speed time."""
        return REFERENCE_S / statistics.median(self._recent)


def at_reference_speed(metrics: dict, units: dict, factor: float) -> dict:
    """Times multiplied by ``factor``, rates divided by it; counts, sizes
    and ratios as measured."""
    out = {}
    for name, value in metrics.items():
        unit = units[name]
        if unit in ("s", "ms"):
            value *= factor
        elif unit.endswith("/s"):
            value /= factor
        out[name] = value
    return out
