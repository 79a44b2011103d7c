"""Watchdog: budget trips, forensic bundles, and unchanged output.

Livelocks are manufactured with self-rescheduling callbacks -- no
protocol bug required -- so each budget is exercised in isolation and
fast: events, progress window and wall clock on a bare :class:`Engine`,
the retry storm on a recovery-armed machine whose retry counters are
bumped directly.
"""

import json
import time

import pytest

from repro.errors import ConfigError, WatchdogError
from repro.experiments.common import workload_for
from repro.sim.engine import Engine
from repro.sim.faults import PRESETS
from repro.sim.machine import Machine, simulate
from repro.sim.metrics import METRICS
from repro.sim.watchdog import (
    DEFAULT_WATCHDOG,
    Watchdog,
    WatchdogConfig,
    save_bundle,
)


def _livelocked_engine():
    """An engine whose queue never drains: each tick schedules the next."""
    engine = Engine()

    def tick():
        engine.schedule(10, tick)

    engine.schedule(0, tick)
    return engine


class TestConfig:
    def test_defaults_are_sane(self):
        assert DEFAULT_WATCHDOG.wall_clock_s == 60.0
        assert DEFAULT_WATCHDOG.max_events == 50_000_000
        assert DEFAULT_WATCHDOG.check_every >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"check_every": 0},
            {"wall_clock_s": 0},
            {"wall_clock_s": -1.0},
            {"max_events": 0},
            {"progress_window": -5},
            {"retry_storm": 0},
        ],
    )
    def test_bad_budgets_are_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            WatchdogConfig(**kwargs)

    def test_none_disables_a_budget(self):
        config = WatchdogConfig(
            wall_clock_s=None,
            max_events=100,
            progress_window=None,
            retry_storm=None,
        )
        assert config.wall_clock_s is None


class TestTrips:
    def test_event_budget(self):
        watchdog = Watchdog(
            WatchdogConfig(max_events=500, check_every=64, wall_clock_s=None)
        )
        with pytest.raises(WatchdogError, match="event budget exceeded"):
            watchdog.run_engine(_livelocked_engine())
        assert watchdog.trips == 1

    def test_progress_window(self):
        watchdog = Watchdog(
            WatchdogConfig(
                max_events=None,
                wall_clock_s=None,
                progress_window=200,
                retry_storm=None,
                check_every=64,
            )
        )
        engine = Engine()

        def tick():
            # Every delivery on the same block, never a completion.
            watchdog.note_delivery(0x80)
            engine.schedule(10, tick)

        engine.schedule(0, tick)
        with pytest.raises(WatchdogError, match="no forward progress") as exc:
            watchdog.run_engine(engine)
        bundle = exc.value.bundle
        assert bundle["hot_blocks"][0]["block"] == "0x80"
        assert bundle["deliveries_since_progress"] > 200

    def test_completions_reset_the_progress_window(self):
        watchdog = Watchdog(
            WatchdogConfig(
                max_events=2_000,
                wall_clock_s=None,
                progress_window=200,
                retry_storm=None,
                check_every=64,
            )
        )
        engine = Engine()

        def tick():
            watchdog.note_delivery(0x80)
            watchdog.note_completion()  # constant progress: never trips
            engine.schedule(10, tick)

        engine.schedule(0, tick)
        # Dies on the (tighter) event budget, not the progress window.
        with pytest.raises(WatchdogError, match="event budget"):
            watchdog.run_engine(engine)

    def test_wall_clock(self):
        watchdog = Watchdog(
            WatchdogConfig(
                wall_clock_s=0.05,
                max_events=None,
                progress_window=None,
                retry_storm=None,
                check_every=1,
            )
        )
        engine = Engine()

        def tick():
            time.sleep(0.02)
            engine.schedule(10, tick)

        engine.schedule(0, tick)
        with pytest.raises(WatchdogError, match="wall-clock budget"):
            watchdog.run_engine(engine)

    def test_trip_counts_in_metrics(self):
        METRICS.reset()
        watchdog = Watchdog(
            WatchdogConfig(max_events=100, check_every=10, wall_clock_s=None)
        )
        with pytest.raises(WatchdogError):
            watchdog.run_engine(_livelocked_engine())
        assert METRICS.snapshot()["counters"]["watchdog.trips"] == 1


class TestRetryStorm:
    """The retry budget, on a machine whose recovery layer is armed."""

    def _storm(self, completing):
        watchdog = Watchdog(
            WatchdogConfig(
                wall_clock_s=None,
                max_events=2_000,
                progress_window=None,
                retry_storm=300,
                check_every=64,
            )
        )
        machine = Machine(seed=0, faults=PRESETS["light"], watchdog=watchdog)
        assert machine.recovery is not None
        engine = machine.engine

        def tick():
            machine.nodes[3].cache.request_retries += 1
            if completing:
                watchdog.note_completion()
            engine.schedule(10, tick)

        engine.schedule(0, tick)
        with pytest.raises(WatchdogError) as exc:
            watchdog.run_engine(engine)
        return exc.value

    def test_retries_without_completion_trip_the_storm(self):
        error = self._storm(completing=False)
        assert "retry storm" in str(error)
        assert error.bundle["retries"]["total_since_progress"] > 300

    def test_each_completion_rebases_the_budget(self):
        # The same retries, each followed by a completion: the storm
        # budget never fills, so the event budget trips instead.
        assert "event budget" in str(self._storm(completing=True))


class _CountingWatchdog(Watchdog):
    """Counts completions and the retry sums taken inside them."""

    def __init__(self):
        super().__init__(DEFAULT_WATCHDOG)
        self.completions = 0
        self.completion_sums = 0
        self._completing = False

    def note_completion(self):
        self.completions += 1
        self._completing = True
        try:
            super().note_completion()
        finally:
            self._completing = False

    def _total_retries(self):
        if self._completing:
            self.completion_sums += 1
        return super()._total_retries()


class TestCompletionCost:
    def _run(self, **faults):
        watchdog = _CountingWatchdog()
        simulate(
            workload_for("moldyn", True),
            iterations=3,
            seed=5,
            watchdog=watchdog,
            **faults,
        )
        assert watchdog.completions > 100
        return watchdog

    def test_fault_free_run_sums_no_retries_per_completion(self):
        assert self._run().completion_sums == 0

    def test_recovery_armed_run_sums_retries_at_every_completion(self):
        watchdog = self._run(faults=PRESETS["light"], fault_seed=1)
        assert watchdog.completion_sums == watchdog.completions


class TestForensics:
    def _tripped(self, bundle_path=None):
        watchdog = Watchdog(
            WatchdogConfig(max_events=300, check_every=64, wall_clock_s=None),
            bundle_path=bundle_path,
        )
        with pytest.raises(WatchdogError) as exc:
            watchdog.run_engine(_livelocked_engine())
        return exc.value

    def test_bundle_contents(self):
        error = self._tripped()
        bundle = error.bundle
        assert "event budget" in bundle["reason"]
        assert bundle["events_pending"] >= 1
        assert bundle["pending_head"][0]["callback"].endswith("tick")
        assert bundle["pending_head"][0]["time_ns"] >= bundle["sim_time_ns"]
        # The bundle must be plain JSON-able data for CI artifacts.
        json.dumps(bundle)

    def test_bundle_written_to_disk(self, tmp_path):
        path = tmp_path / "forensics" / "bundle.json"
        error = self._tripped(bundle_path=path)
        assert str(path) in str(error)
        on_disk = json.loads(path.read_text())
        assert on_disk["reason"] == error.bundle["reason"]
        assert on_disk["pending_head"] == error.bundle["pending_head"]

    def test_save_bundle_is_atomic_and_pretty(self, tmp_path):
        path = tmp_path / "nested" / "b.json"
        returned = save_bundle({"reason": "test", "nested": {"x": 1}}, path)
        assert returned == path
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"reason": "test", "nested": {"x": 1}}
        assert "\n  " in text  # indented


class TestGuardedRuns:
    def test_guarded_run_is_identical_to_unguarded(self):
        workload = workload_for("barnes", True)
        plain = simulate(workload, iterations=3, seed=5)
        guarded = simulate(
            workload, iterations=3, seed=5, watchdog=Watchdog(DEFAULT_WATCHDOG)
        )
        assert list(guarded.events) == list(plain.events)

    def test_healthy_run_never_trips(self):
        watchdog = Watchdog(DEFAULT_WATCHDOG)
        simulate(
            workload_for("barnes", True),
            iterations=3,
            seed=5,
            watchdog=watchdog,
        )
        assert watchdog.trips == 0


class TestRunBudget:
    """run_wall_clock_s measures the whole run segment since arm()."""

    def _watchdog(self):
        return Watchdog(
            WatchdogConfig(
                run_wall_clock_s=5.0,
                wall_clock_s=None,
                max_events=1_000,
                progress_window=None,
                retry_storm=None,
                check_every=10,
            )
        )

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ConfigError):
            WatchdogConfig(run_wall_clock_s=0)

    def test_stale_epoch_trips_immediately(self):
        watchdog = self._watchdog()
        # Simulate a watchdog built long before this run segment began
        # (the pre-fix resume behaviour).
        watchdog._run_epoch = time.monotonic() - 3600.0
        with pytest.raises(WatchdogError, match="run wall-clock budget"):
            watchdog.run_engine(_livelocked_engine())

    def test_arm_restarts_the_budget(self):
        watchdog = self._watchdog()
        watchdog._run_epoch = time.monotonic() - 3600.0
        watchdog.arm()
        # Freshly armed: dies on the event budget, not the run clock.
        with pytest.raises(WatchdogError, match="event budget"):
            watchdog.run_engine(_livelocked_engine())

    def test_arm_resets_progress_counters(self):
        watchdog = self._watchdog()
        watchdog.note_delivery(0x40)
        watchdog.note_delivery(0x40)
        watchdog.arm()
        assert watchdog._since_progress == 0
        assert watchdog._block_deliveries == {}


class TestResumeRearm:
    def test_checkpoint_restore_arms_the_watchdog(self):
        from repro.sim import checkpoint as ckpt
        from repro.sim.machine import Machine

        workload = workload_for("barnes", True)
        machine = Machine(seed=5)
        iterations = machine.begin_workload(workload, 3)
        machine.run_iteration(workload, 0)
        snapshot = ckpt.capture(machine, workload, 2, iterations)

        watchdog = Watchdog(DEFAULT_WATCHDOG)
        watchdog._run_epoch = time.monotonic() - 3600.0
        watchdog.note_delivery(0x40)
        before = time.monotonic()
        ckpt.restore(snapshot, watchdog=watchdog)
        # The restore re-armed every budget clock: the resumed segment is
        # measured from now, and stale counters are gone.
        assert watchdog._run_epoch >= before
        assert watchdog._since_progress == 0
