"""Interpreter speed, sampled while a cell runs.

The benchmark runs on a share of a host whose CPU speed drifts by tens
of percent over seconds to minutes, while the process keeps its CPU
(process CPU time tracks wall time), so neither longer runs nor CPU time
take the drift out of a cell's wall time. :class:`SpeedSampler` measures
the drift where it happens: a timer signal interrupts the cell every
``INTERVAL_S`` and times a fixed pure-Python kernel, which touches none
of the program's state. ``scale()`` is ``REFERENCE_KERNEL_S`` over the
median kernel time, so ``wall seconds * scale`` are *reference seconds*:
the seconds the cell would have taken with the kernel at its reference
speed. Each cell's end-to-end times are reported that way, each rescaled
by the samples taken during the interval it times.

A handler runs between two bytecodes of the program, so the program's
results do not change (the benchmark's fingerprint gate checks every
cell). The sampler takes 1-1.5% of a cell.
"""

from __future__ import annotations

import math
import signal
import time
from statistics import median
from types import TracebackType
from typing import Any, List, Optional, Tuple, Type

#: Seconds between two samples.
INTERVAL_S = 0.025
#: Samples taken outside the timer as well, before and after the cell, so
#: that a cell shorter than the interval still has a speed.
EDGE_SAMPLES = 5
#: Fewest samples inside an interval for its own speed; a shorter interval
#: takes the speed of the whole block.
MIN_WINDOW_SAMPLES = 8
#: Median kernel time inside a cell on the machine the benchmark was
#: defined on (2-CPU shared Intel Xeon container, CPython 3.11), which
#: fixes the unit of reference seconds. Never change it: doing so would
#: rescale every recorded result.
REFERENCE_KERNEL_S = 0.0002


def kernel() -> int:
    """Fixed interpreter work: loop, integer and float arithmetic, dict and
    list operations, a sort. Deterministic, and local state only."""
    table = {}
    keys = []
    total = 0.0
    for i in range(600):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + 1
        total += (i % 17) * 0.5
        keys.append(key)
    keys.sort()
    return len(table) + keys[-1] + int(total)


class SpeedSampler:
    """Samples the kernel's time while the ``with`` block runs."""

    def __init__(self) -> None:
        #: (perf_counter at the end of the sample, kernel seconds)
        self.samples: List[Tuple[float, float]] = []
        self._previous: Any = None

    def _sample(self, *_args: Any) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def __enter__(self) -> "SpeedSampler":
        for _ in range(EDGE_SAMPLES):
            kernel()  # warm-up: the interpreter specialises the loop
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(
        self,
        _type: Optional[Type[BaseException]],
        _value: Optional[BaseException],
        _traceback: Optional[TracebackType],
    ) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Reference seconds per wall second between two ``perf_counter``
        readings (by default, over the whole block)."""
        window = [kernel_s for at, kernel_s in self.samples if start <= at <= end]
        if len(window) < MIN_WINDOW_SAMPLES:
            window = [kernel_s for _, kernel_s in self.samples]
        return REFERENCE_KERNEL_S / median(window)
