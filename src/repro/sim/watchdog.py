"""Livelock/deadlock detection for simulation runs.

A protocol bug (or an unlucky fault schedule) can leave the simulator
making "progress" forever: retries rescheduling retries, a request
ping-ponging between a cache and its home directory, a phase that never
drains.  Under CI that reads as a hung job killed by the outer timeout
with no forensics.  The :class:`Watchdog` turns it into a prompt,
diagnosable failure: it drives the engine in bounded chunks and checks
four budgets between chunks --

* **wall clock** -- hard cap on real seconds per engine drain;
* **events** -- hard cap on dispatched events per engine drain;
* **progress window** -- messages delivered since the last shared access
  completed anywhere (a livelocked protocol delivers plenty of messages
  while completing nothing);
* **retry storm** -- protocol retries accumulated since the last
  completion (the classic signature of a timeout loop).

On any violation it raises :class:`~repro.errors.WatchdogError` carrying
a forensic bundle: the head of the event queue (what the run is waiting
on), the hottest blocks in the stalled window (what it is fighting
over), per-node protocol residue (who is stuck), retry totals, and the
tail of the observability ring when capture is on.  The bundle is a
JSON-able dict; :func:`save_bundle` writes it atomically for CI
artifacts.

An unguarded run's timing is unchanged.  A guarded run pays on its hot
paths: a counter increment and a per-block dict update per delivery,
and a reset per access completion; budget checks run once per chunk
(default every 4096 events).  The retry counters move only while the
protocol's recovery machinery is armed (fault injection, an adversarial
network), so only then does a completion also re-read them -- a sum
over every node's cache and directory.  docs/robustness.md gives the
measured cost of a guarded run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from ..errors import ConfigError, WatchdogError
from ..obs.bundle import build_failure_bundle, save_bundle
from .engine import Engine
from .metrics import METRICS

__all__ = [
    "DEFAULT_WATCHDOG",
    "Watchdog",
    "WatchdogConfig",
    "save_bundle",
]


@dataclass(frozen=True)
class WatchdogConfig:
    """Budgets for one engine drain (one workload phase).

    Defaults are sized for the quick-scale CI workloads: a healthy phase
    finishes in well under a second and a few hundred thousand events,
    so 60 s / 50 M events only ever fire on a genuinely stuck run, and
    the progress budgets trip long before the hard caps do.  ``None``
    disables an individual budget.
    """

    #: Real seconds allowed per engine drain.
    wall_clock_s: Optional[float] = 60.0
    #: Dispatched events allowed per engine drain.
    max_events: Optional[int] = 50_000_000
    #: Deliveries allowed since the last access completion.
    progress_window: Optional[int] = 100_000
    #: Protocol retries allowed since the last access completion.
    retry_storm: Optional[int] = 10_000
    #: Real seconds allowed for the whole run *segment* -- measured from
    #: the watchdog's last :meth:`Watchdog.arm` (construction, or the
    #: moment a checkpoint restore hands it a resumed machine), never
    #: from the original run's start.  ``None`` disables it.
    run_wall_clock_s: Optional[float] = None
    #: Events per chunk between budget checks.
    check_every: int = 4096

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ConfigError("watchdog check_every must be >= 1")
        for name in ("wall_clock_s", "max_events", "progress_window",
                     "retry_storm", "run_wall_clock_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"watchdog {name} must be positive or None")


#: CI-friendly defaults (same as the dataclass defaults, named for use
#: in configuration code and docs).
DEFAULT_WATCHDOG = WatchdogConfig()


class Watchdog:
    """Guards one machine's engine drains against livelock and hangs.

    Attach by passing ``watchdog=Watchdog(...)`` to
    :class:`~repro.sim.machine.Machine` (or
    :func:`~repro.sim.machine.simulate`); the machine routes every phase
    drain through :meth:`run_engine` and feeds :meth:`note_delivery` /
    :meth:`note_completion` from its hot paths.
    """

    def __init__(
        self,
        config: WatchdogConfig = DEFAULT_WATCHDOG,
        bundle_path: Union[str, Path, None] = None,
    ) -> None:
        self.config = config
        #: When set, a tripped watchdog also writes its forensic bundle
        #: here (atomically) before raising -- CI jobs collect the file.
        self.bundle_path = Path(bundle_path) if bundle_path else None
        self._machine = None
        self._since_progress = 0
        self._block_deliveries: Dict[int, int] = {}
        self._retry_baseline = 0
        self._run_epoch = time.monotonic()
        self.trips = 0

    def attach(self, machine) -> None:
        self._machine = machine

    def arm(self) -> None:
        """Restart every budget clock from *now*.

        Called when a run segment begins at a point other than watchdog
        construction -- most importantly after a checkpoint restore
        (``repro-trace resume``), where wall-clock and progress budgets
        must measure the resumed segment, not the original run.  Without
        this, a watchdog built minutes before the resume would trip its
        run budget immediately, and stale delivery counters from a
        previous machine would poison the progress window.
        """
        self._run_epoch = time.monotonic()
        self._since_progress = 0
        self._block_deliveries.clear()
        self._retry_baseline = self._total_retries()

    # ------------------------------------------------------------------
    # hot-path hooks (kept to plain increments)
    # ------------------------------------------------------------------

    def note_delivery(self, block: int) -> None:
        self._since_progress += 1
        self._block_deliveries[block] = (
            self._block_deliveries.get(block, 0) + 1
        )

    def note_completion(self) -> None:
        self._since_progress = 0
        self._block_deliveries.clear()
        # Without recovery the retry counters never move, so the baseline
        # needs no re-read (the sum is most of a completion's cost).
        machine = self._machine
        if machine is not None and machine.recovery is not None:
            self._retry_baseline = self._total_retries()

    # ------------------------------------------------------------------
    # engine driving
    # ------------------------------------------------------------------

    def run_engine(self, engine: Engine) -> int:
        """Drain ``engine`` in chunks, enforcing every budget.

        Drop-in replacement for ``engine.run()``: returns the number of
        dispatched events, or raises :class:`WatchdogError`.
        """
        config = self.config
        start = time.monotonic()
        dispatched = 0
        # A fresh drain is progress by definition: the previous phase
        # completed, so stall counters restart from zero.
        self.note_completion()
        while engine.pending():
            dispatched += engine.run(max_events=config.check_every)
            if (
                config.wall_clock_s is not None
                and time.monotonic() - start > config.wall_clock_s
            ):
                self._trip(
                    engine,
                    f"wall-clock budget exceeded: phase still running after "
                    f"{config.wall_clock_s:g}s "
                    f"({dispatched} events dispatched)",
                )
            if (
                config.run_wall_clock_s is not None
                and time.monotonic() - self._run_epoch
                > config.run_wall_clock_s
            ):
                self._trip(
                    engine,
                    f"run wall-clock budget exceeded: "
                    f"{config.run_wall_clock_s:g}s since the watchdog was "
                    f"last armed",
                )
            if (
                config.max_events is not None
                and dispatched >= config.max_events
            ):
                self._trip(
                    engine,
                    f"event budget exceeded: {dispatched} events dispatched "
                    f"in one phase (budget {config.max_events})",
                )
            if (
                config.progress_window is not None
                and self._since_progress > config.progress_window
            ):
                self._trip(
                    engine,
                    f"no forward progress: {self._since_progress} messages "
                    f"delivered since the last access completed "
                    f"(window {config.progress_window})",
                )
            if config.retry_storm is not None:
                retries = self._total_retries() - self._retry_baseline
                if retries > config.retry_storm:
                    self._trip(
                        engine,
                        f"retry storm: {retries} protocol retries since the "
                        f"last access completed (budget {config.retry_storm})",
                    )
        return dispatched

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _total_retries(self) -> int:
        machine = self._machine
        if machine is None:
            return 0
        total = 0
        for node in machine.nodes:
            total += node.cache.request_retries
            total += node.cache.poisoned_reissues
            total += node.directory.inval_retries
        return total

    def _trip(self, engine: Engine, reason: str) -> None:
        self.trips += 1
        METRICS.inc("watchdog.trips")
        bundle = self.forensic_bundle(engine, reason)
        if self.bundle_path is not None:
            save_bundle(bundle, self.bundle_path)
            hint = f"; forensic bundle written to {self.bundle_path}"
        else:
            hint = ""
        raise WatchdogError(
            f"watchdog tripped at t={engine.now}: {reason}{hint}",
            bundle=bundle,
        )

    def forensic_bundle(self, engine: Engine, reason: str) -> dict:
        """Everything a human needs to diagnose the stall, as JSON-able
        plain data (delegates to :func:`repro.obs.bundle.build_failure_bundle`)."""
        return build_failure_bundle(
            engine,
            reason,
            machine=self._machine,
            since_progress=self._since_progress,
            block_deliveries=self._block_deliveries,
            retries_since_progress=(
                self._total_retries() - self._retry_baseline
                if self._machine is not None
                else None
            ),
        )
