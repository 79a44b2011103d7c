"""Exploration campaigns: budgets, forking, artifacts, replay fidelity."""

import json

import pytest

from repro.errors import SimulationError, TraceError
from repro.ioutil import canonical_digest
from repro.explore.artifact import (
    ExploreArtifact,
    load_artifact,
    save_artifact,
)
from repro.explore.runner import (
    ExploreConfig,
    episode_seed,
    explore,
    replay_artifact,
)

_DSMC_QUICK = {
    "buffers_per_proc": 1,
    "rare_blocks_per_proc": 6,
    "contended_buffers": 2,
}


def _config(**overrides):
    base = dict(
        app="dsmc",
        iterations=2,
        seed=0,
        strategy="random-walk",
        episodes=2,
        workload_kwargs=_DSMC_QUICK,
    )
    base.update(overrides)
    return ExploreConfig(**base)


@pytest.fixture(scope="module")
def violation_artifact():
    """A deterministic overtake violation found by random-walk."""
    report = explore(
        _config(seed=1, episodes=3, oracles=("overtake",))
    )
    violations = report.violations
    assert violations, "expected random-walk to reorder a contended block"
    return violations[0].artifact


class TestEpisodeSeeds:
    def test_deterministic(self):
        assert episode_seed(0, 3) == episode_seed(0, 3)

    def test_distinct_across_episodes_and_bases(self):
        seeds = {episode_seed(b, e) for b in range(4) for e in range(16)}
        assert len(seeds) == 64


class TestCleanRuns:
    """Fault-free runs must survive the default oracle battery."""

    @pytest.mark.parametrize("strategy", ["random-walk", "pct"])
    def test_no_violations_under_default_oracles(self, strategy):
        report = explore(_config(strategy=strategy))
        assert [r.outcome for r in report.results] == ["ok", "ok"]
        assert report.violations == []
        assert report.total_events > 0

    def test_delay_bounded_is_clean_too(self):
        report = explore(_config(strategy="delay-bounded", episodes=1))
        assert report.results[0].outcome == "ok"


class TestBudgets:
    def test_event_budget_stops_the_episode(self):
        report = explore(_config(episodes=1, budget_events=200))
        result = report.results[0]
        assert result.outcome == "budget-exhausted"
        assert result.events >= 200

    def test_wall_budget_caps_the_campaign(self):
        report = explore(_config(episodes=50, budget_wall_s=0.0))
        assert len(report.results) == 0


class TestForkValidation:
    @pytest.mark.parametrize("fork_at", [0, 2, 5])
    def test_fork_must_be_interior(self, fork_at):
        with pytest.raises(SimulationError, match="fork_at"):
            explore(_config(fork_at=fork_at))


class TestViolationArtifacts:
    def test_artifact_records_the_failure(self, violation_artifact):
        assert violation_artifact.oracle == "overtake"
        assert violation_artifact.failure["message"]
        assert violation_artifact.decisions
        assert violation_artifact.oracles == ["overtake"]
        assert violation_artifact.forensics is not None

    def test_save_load_roundtrip(self, violation_artifact, tmp_path):
        path = tmp_path / "case.repro"
        save_artifact(violation_artifact, path)
        loaded = load_artifact(path)
        assert loaded.decisions == violation_artifact.decisions
        assert loaded.failure == violation_artifact.failure
        assert loaded.config == violation_artifact.config

    def test_corrupt_artifact_refused(self, violation_artifact, tmp_path):
        path = tmp_path / "case.repro"
        save_artifact(violation_artifact, path)
        document = json.loads(path.read_text())
        document["decisions"] = document["decisions"][:-1]
        path.write_text(json.dumps(document))
        with pytest.raises(TraceError, match="integrity"):
            load_artifact(path)

    def test_format_1_artifact_refused(self, violation_artifact, tmp_path):
        # Format-1 artifacts carry the retired check_invariants option.
        document = json.loads(json.dumps(violation_artifact.to_document()))
        document["format"] = 1
        document["config"]["options"]["check_invariants"] = True
        document["sha256"] = canonical_digest(
            {
                key: value
                for key, value in document.items()
                if key not in ("sha256", "manifest")
            }
        )
        path = tmp_path / "old.repro"
        path.write_text(json.dumps(document))
        with pytest.raises(TraceError, match="artifact format 1"):
            load_artifact(path)

    def test_wrong_kind_refused(self, tmp_path):
        path = tmp_path / "bogus.repro"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(TraceError, match="not a .repro"):
            load_artifact(path)

    def test_artifacts_written_under_out_dir(self, tmp_path):
        explore(
            _config(seed=1, episodes=3, oracles=("overtake",)),
            out_dir=tmp_path,
        )
        saved = sorted(tmp_path.glob("*.repro"))
        assert saved
        for path in saved:
            load_artifact(path)  # every saved artifact verifies


class TestReplay:
    def test_replay_is_byte_identical(self, violation_artifact):
        result = replay_artifact(violation_artifact)
        assert result.reproduced
        execution = result.execution
        assert execution.outcome == "violation"
        recorded = violation_artifact.failure
        assert execution.failure["oracle"] == recorded["oracle"]
        assert execution.failure["message"] == recorded["message"]
        assert execution.failure["sim_time_ns"] == recorded["sim_time_ns"]
        assert (
            execution.failure["events_processed"]
            == recorded["events_processed"]
        )
        assert (
            list(execution.network.decisions)
            == list(violation_artifact.decisions)
        )

    def test_replay_twice_agrees(self, violation_artifact):
        first = replay_artifact(violation_artifact)
        second = replay_artifact(violation_artifact)
        assert (
            first.execution.failure["sim_time_ns"]
            == second.execution.failure["sim_time_ns"]
        )
        assert (
            list(first.execution.network.decisions)
            == list(second.execution.network.decisions)
        )

    def test_clean_artifact_replays_clean(self, violation_artifact):
        # Same run config, empty log: replay degrades to FIFO, which is
        # clean, and "reproduced" means "matched the recorded outcome".
        clean = ExploreArtifact(
            config=violation_artifact.config,
            strategy={"name": "fifo"},
            decisions=[],
            oracles=["overtake"],
        )
        result = replay_artifact(clean)
        assert result.execution.outcome == "ok"
        assert result.reproduced


class TestForkedExploration:
    def test_forked_violation_replays_from_scratch(self):
        report = explore(
            _config(
                seed=1,
                iterations=3,
                episodes=3,
                fork_at=2,
                oracles=("overtake",),
            )
        )
        violations = report.violations
        assert violations
        artifact = violations[0].artifact
        # The artifact's log includes the FIFO prefix, so a replay that
        # starts from scratch (no checkpoint) lands on the same failure.
        result = replay_artifact(artifact)
        assert result.reproduced
        assert (
            result.execution.failure["sim_time_ns"]
            == artifact.failure["sim_time_ns"]
        )


class TestFaultyExploration:
    def test_faults_compose_with_exploration(self):
        report = explore(
            _config(
                episodes=1,
                fault_spec="drop=0.01,dup=0.01",
                fault_seed=7,
                oracles=("quiescence", "liveness"),
            )
        )
        # Recovery retries make the run complete despite drops.
        assert report.results[0].outcome in ("ok", "violation")
        assert report.results[0].events > 0
