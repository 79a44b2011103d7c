"""One loop timer for a stream of deadlines that arrive in order.

Every observation in the service has a deadline: the front-end's
``deadline_ms``, the supervisor's hang budget for the request in a
shard's pipe, the client's attempt deadline.  Each is the same length
for every request, so deadlines come in order, and almost all of them
are met.  Scheduling and cancelling a loop timer per request costs
about 1.6 µs a pair; a :class:`LazyTimer` instead keeps one loop timer
alive and lets it lag behind: arming a deadline later than the one
already scheduled only records it, and a timer that fires early
re-arms itself for the deadline then current.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional


class LazyTimer:
    """Calls ``callback(*args)`` once the armed deadline has passed."""

    __slots__ = ("_loop", "_callback", "_args", "_handle", "deadline")

    def __init__(
        self, loop: asyncio.AbstractEventLoop, callback: Callable, *args
    ) -> None:
        self._loop = loop
        self._callback = callback
        self._args = args
        self._handle: Optional[asyncio.TimerHandle] = None
        #: The deadline in loop time, or ``None`` while disarmed.
        self.deadline: Optional[float] = None

    def arm(self, deadline: float) -> None:
        """Expect the callback at ``deadline`` (loop time) unless disarmed."""
        self.deadline = deadline
        handle = self._handle
        if handle is None or handle.when() > deadline:
            if handle is not None:
                handle.cancel()
            self._handle = self._loop.call_at(deadline, self._fire)

    def disarm(self) -> None:
        """The deadline was met; the loop timer lapses when it fires."""
        self.deadline = None

    def cancel(self) -> None:
        """Disarm and drop the loop timer now."""
        self.deadline = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        deadline = self.deadline
        if deadline is None:
            return
        if deadline > self._loop.time():
            self._handle = self._loop.call_at(deadline, self._fire)
            return
        self.deadline = None
        self._callback(*self._args)
