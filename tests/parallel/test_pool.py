"""Tests for the shard loop: both executors, failure handling, section
order and fault propagation."""

import json
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ShardError
from repro.experiments.runner import run_experiments
from repro.parallel.journal import JOURNAL_FILE, RunJournal
from repro.parallel.plan import ExperimentShard, Plan, TraceShard, plan_run
from repro.parallel.pool import run_plan
from repro.sim.metrics import METRICS

TRACES = {"table5": ("appbt",), "tables1-3-4": ()}


def experiment_shard(name, index=0, cache_dir=None):
    return ExperimentShard(
        index=index,
        name=name,
        quick=True,
        seed=0,
        cache_dir=cache_dir,
        shard_seed=index + 1,
    )


class TestCrashedWorkers:
    def test_failed_shard_raises_shard_error_with_descriptor(self):
        plan = Plan(
            traces=(), experiments=(experiment_shard("nonexistent"),)
        )
        with pytest.raises(ShardError) as exc:
            run_plan(plan, jobs=2)
        assert len(exc.value.failures) == 1
        shard, error = exc.value.failures[0]
        assert shard.name == "nonexistent"
        assert "KeyError" in error
        assert "nonexistent" in str(exc.value)

    def test_remaining_shards_still_run_and_metrics_merge(self):
        """One bad shard must not discard the good shards' work."""
        plan = Plan(
            traces=(),
            experiments=(
                experiment_shard("nonexistent", index=0),
                experiment_shard("tables1-3-4", index=1),
            ),
        )
        METRICS.reset()
        with pytest.raises(ShardError) as exc:
            run_plan(plan, jobs=2)
        # Only the bad shard failed; the good one completed and its
        # worker-side metrics were merged before the raise.
        assert len(exc.value.failures) == 1
        assert METRICS.counter("shard.experiment") == 1
        assert METRICS.counter("shard.experiment.failed") == 1

    def test_failed_trace_shard_named_in_error(self, tmp_path):
        bad_trace = TraceShard(
            app="no-such-app",
            iterations=4,
            seed=0,
            quick=True,
            cache_dir=str(tmp_path),
            shard_seed=1,
        )
        plan = Plan(traces=(bad_trace,), experiments=())
        with pytest.raises(ShardError) as exc:
            run_plan(plan, jobs=1)
        shard, _ = exc.value.failures[0]
        assert shard.app == "no-such-app"
        assert METRICS.counter("shard.trace.failed") >= 1


class _BreaksAfter:
    """A pool stub: runs ``submit`` inline ``ok`` times, then is broken."""

    ok = 0

    def __init__(self, *args, **kwargs):
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        if self.submitted > self.ok:
            raise BrokenProcessPool("A child process terminated abruptly")
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, *args, **kwargs):
        pass


class TestBrokenPool:
    @pytest.mark.parametrize("ok", [0, 1, 2])
    def test_a_refused_submit_fails_that_shard_and_every_later_one(
        self, tmp_path, monkeypatch, ok
    ):
        monkeypatch.setattr(
            "repro.parallel.pool.ProcessPoolExecutor",
            type("Stub", (_BreaksAfter,), {"ok": ok}),
        )
        plan = Plan(
            traces=(),
            experiments=tuple(
                experiment_shard("tables1-3-4", index=index)
                for index in range(3)
            ),
        )
        seen = []
        METRICS.reset()
        with RunJournal.create(tmp_path / "run", plan, {}) as journal:
            with pytest.raises(ShardError) as exc:
                run_plan(plan, jobs=2, journal=journal, on_section=seen.append)
        failed = [shard.index for shard, _error in exc.value.failures]
        assert failed == list(range(ok, 3))
        assert all(
            "BrokenProcessPool" in error
            for _shard, error in exc.value.failures
        )
        # The shards submitted before the break finished and were handed on.
        assert len(seen) == ok
        assert METRICS.counter("shard.experiment") == ok
        lines = (tmp_path / "run" / JOURNAL_FILE).read_text().splitlines()
        errors = [json.loads(line)["outcome"]["error"] for line in lines]
        assert len(errors) == 3
        assert errors.count(None) == ok


class TestInProcessExecutor:
    NAMES = ["tables1-3-4", "figure5"]

    @pytest.mark.parametrize("journaled", [False, True])
    def test_jobs_1_runs_every_shard_here(
        self, tmp_path, monkeypatch, journaled
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("jobs=1 built a ProcessPoolExecutor")

        monkeypatch.setattr(
            "repro.parallel.pool.ProcessPoolExecutor", no_pool
        )
        METRICS.reset()
        METRICS.inc("caller.counter", 7)
        _, stats = run_experiments(
            self.NAMES,
            quick=True,
            jobs=1,
            run_dir=str(tmp_path / "run") if journaled else None,
        )
        assert [entry["pid"] for entry in stats] == [os.getpid()] * 2
        # The shards' metrics merge into the caller's; nothing is lost.
        assert METRICS.counter("caller.counter") == 7
        assert METRICS.counter("shard.experiment") == len(self.NAMES)


class TestOnSection:
    #: table5 outlasts the static tables, so at jobs=2 the second
    #: section finishes first and must still be handed on second.
    NAMES = ["table5", "tables1-3-4"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sections_arrive_once_each_in_plan_order(self, jobs):
        seen = []
        sections, _ = run_experiments(
            self.NAMES, quick=True, jobs=jobs, on_section=seen.append
        )
        assert [section[0] for section in seen] == self.NAMES
        assert seen == sections


class TestFaultPropagation:
    def test_plan_carries_fault_fields(self, tmp_path):
        plan = plan_run(
            ["table5"],
            True,
            0,
            str(tmp_path),
            TRACES,
            fault_spec="drop=0.05",
            fault_seed=9,
        )
        for shard in plan.traces + plan.experiments:
            assert shard.fault_spec == "drop=0.05"
            assert shard.fault_seed == 9

    def test_faultless_plan_keeps_historical_seeds(self, tmp_path):
        """fault_spec=None must not perturb derived shard seeds (cached
        traces from fault-free runs stay valid)."""
        base = plan_run(["table5"], True, 0, str(tmp_path), TRACES)
        explicit = plan_run(
            ["table5"],
            True,
            0,
            str(tmp_path),
            TRACES,
            fault_spec=None,
            fault_seed=5,
        )
        assert [s.shard_seed for s in base.traces] == [
            s.shard_seed for s in explicit.traces
        ]
        assert [s.shard_seed for s in base.experiments] == [
            s.shard_seed for s in explicit.experiments
        ]

    def test_fault_spec_changes_derived_seeds(self, tmp_path):
        base = plan_run(["table5"], True, 0, str(tmp_path), TRACES)
        faulty = plan_run(
            ["table5"],
            True,
            0,
            str(tmp_path),
            TRACES,
            fault_spec="drop=0.05",
        )
        assert [s.shard_seed for s in base.experiments] != [
            s.shard_seed for s in faulty.experiments
        ]
