"""Calibrated wall-clock timing.

The CPU speed of a shared or virtualised host can drift by 1.4x and more
between phases lasting seconds, invisibly to the guest, so raw wall clock
does not repeat.  Every timed interval is therefore bracketed by a fixed
pure-Python loop, and the interval is rescaled to the speed at which that
loop takes exactly :data:`REFERENCE_MS`.

The loop walks a 16 MiB buffer in pseudo-random order.  Measured against
fixed engine work (page parsing, cold drills, joins) interleaved with
candidate loops, a loop that also misses the caches tracks the drift
about twice as closely as pure integer arithmetic does, because the slow
phases slow memory access more than arithmetic.  The loop allocates no
GC-tracked object (small ints only; the buffer is a ``bytes``), so the
program's heap cannot change its cost.
"""

from __future__ import annotations

import random
import time

__all__ = ["REFERENCE_MS", "Calibrator", "spin"]

#: Iterations of one calibration loop pass.  Fixed forever: changing it
#: (or the buffer) changes the unit every calibrated figure is expressed in.
_SPIN_ITERATIONS = 1_500
#: Passes per reading; the fastest is kept, which drops passes hit by an
#: interrupt or a preemption.
_PASSES = 3
#: A reading's nominal duration.  Calibrated times are "milliseconds on a
#: machine where one reading takes exactly this long".
REFERENCE_MS = 1.0

_BUFFER_BITS = 24
_MASK = (1 << _BUFFER_BITS) - 1


def spin(buffer: bytes, iterations: int = _SPIN_ITERATIONS) -> int:
    """The calibration loop: a linear-congruential walk over ``buffer``."""
    index = 12345
    acc = 0
    for __ in range(iterations):
        index = (index * 1103515245 + 12345) & _MASK
        acc += buffer[index]
    return acc


class Calibrator:
    """Brackets timed intervals and converts them to reference time.

    Use :meth:`bracket` around each interval: it returns the factor that
    turns that interval's raw seconds into calibrated seconds.  Every
    reading is kept for the diagnostics line.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._before: float | None = None
        self._buffer = random.Random(0).randbytes(1 << _BUFFER_BITS)

    def _reading_ms(self) -> float:
        best = float("inf")
        for __ in range(_PASSES):
            start = time.perf_counter()
            spin(self._buffer)
            best = min(best, time.perf_counter() - start)
        return best * _PASSES * 1e3

    def begin(self) -> None:
        self._before = self._reading_ms()
        self.readings.append(self._before)

    def end(self) -> float:
        """Close the interval opened by :meth:`begin`; return its factor."""
        if self._before is None:
            raise RuntimeError("Calibrator.end() without begin()")
        after = self._reading_ms()
        self.readings.append(after)
        factor = REFERENCE_MS / ((self._before + after) / 2.0)
        self._before = None
        return factor
