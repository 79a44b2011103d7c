"""Operation timing that factors out the host's changing speed.

On a shared host the same Python loop can take 1.4 times longer for
seconds at a time, because other tenants load the physical cores; CPU
time inflates exactly as wall time does, so neither removes it.  The
program under test is interpreted Python, and slows down by the same
factor as any other interpreted loop.  So the clock measures a fixed
reference loop between operations and reports each operation's time in
*reference seconds*: host seconds times ``REFERENCE_S`` over the
reference loop's latest time.  On a host running at the speed where the
loop takes ``REFERENCE_S``, reference seconds are host seconds.

The reference loop touches no code of the repository, so no change to
the program can move it.
"""

from __future__ import annotations

import time


def reference_loop() -> int:
    """A fixed mix of dict, integer and loop work, ~0.5 ms."""
    table = {}
    total = 0
    for i in range(4_000):
        key = i & 127
        table[key] = table.get(key, 0) + i
        total += key * 3 % 7
    return total


class Clock:
    """Times operations in reference seconds."""

    #: The reference loop's time at the host speed reference seconds
    #: are quoted at.
    REFERENCE_S = 0.0005

    def __init__(self) -> None:
        self._scale = 1.0

    def calibrate(self) -> None:
        """Measure the host's speed now (the faster of two loops).

        Called right before every operation: the host's speed changes
        within milliseconds, and a measurement even one short operation
        old scales the next one noticeably worse.
        """
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - start)
        self._scale = self.REFERENCE_S / best

    def since(self, start: float) -> float:
        """Reference seconds since ``start``, a ``time.perf_counter()``."""
        return (time.perf_counter() - start) * self._scale

    def span(self, start: float) -> float:
        """Like :meth:`since`, for an interval long enough to contain
        changes of the host's speed.

        The host's speed is measured again at the end, and the interval
        is scaled by the mean of the speeds before and after it.
        """
        seconds = time.perf_counter() - start
        before = self._scale
        self.calibrate()
        return seconds * (before + self._scale) / 2
