"""Drive schedule-exploration episodes and replay recorded failures.

:func:`explore` runs ``episodes`` independent schedules of one workload
under a strategy (each episode's policy seeded from a hash of the base
seed, like the parallel runner's shard seeds), watching the invariant
oracles after every delivery, at every iteration boundary, and at the
end of the run.  A violation stops the episode and is packaged as a
replayable :class:`~repro.explore.artifact.ExploreArtifact` with a
forensics bundle photographed at the failure point.

:func:`replay_artifact` re-executes an artifact's decision log through a
:class:`~repro.explore.strategies.ReplayPolicy`; because the explored
machine is deterministic in (workload streams, seed, fault seed,
decision log), the replay reproduces the original run byte-for-byte up
to the failure.

Crash-point exploration (``fork_at=N``) runs startup plus the first N
iterations once under FIFO, captures a PR 4 checkpoint in memory, and
restores it for every episode -- divergent suffixes without
re-simulating prefixes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import (
    OracleViolation,
    ProtocolError,
    ReproError,
    SimulationError,
    WatchdogError,
)
from ..obs.bundle import build_failure_bundle
from ..protocol.stache import DEFAULT_OPTIONS, StacheOptions
from ..sim import checkpoint as ckpt
from ..sim.faults import FaultProfile
from ..sim.machine import Machine
from ..sim.metrics import METRICS
from ..sim.params import PAPER_PARAMS
from ..workloads.recorded import RecordedWorkload, materialize
from ..workloads.registry import make_workload
from .artifact import ExploreArtifact, save_artifact
from .network import DEFAULT_DEFER_CAP, ExploringNetwork
from .oracles import DEFAULT_ORACLES, parse_oracles
from .strategies import DeliveryPolicy, FifoPolicy, ReplayPolicy, make_policy


@dataclass
class ExploreConfig:
    """One exploration campaign: a workload, a strategy, and budgets."""

    app: str
    iterations: Optional[int] = None
    seed: int = 0
    strategy: str = "random-walk"
    episodes: int = 10
    budget_events: Optional[int] = None
    budget_wall_s: Optional[float] = None
    fault_spec: Optional[str] = None
    fault_seed: int = 0
    quantum_ns: Optional[int] = None
    defer_cap: int = DEFAULT_DEFER_CAP
    pct_depth: int = 3
    delay_bound: int = 4
    fork_at: Optional[int] = None
    oracles: Sequence[str] = DEFAULT_ORACLES
    workload_kwargs: dict = field(default_factory=dict)


@dataclass
class EpisodeResult:
    """What one explored schedule did."""

    episode: int
    policy_seed: int
    outcome: str  # "ok" | "violation" | "budget-exhausted"
    oracle: Optional[str] = None
    message: Optional[str] = None
    events: int = 0
    decisions: int = 0
    artifact: Optional[ExploreArtifact] = None
    artifact_path: Optional[str] = None


@dataclass
class ExploreReport:
    """The campaign summary ``repro-explore run`` prints."""

    config: ExploreConfig
    results: List[EpisodeResult]

    @property
    def violations(self) -> List[EpisodeResult]:
        return [r for r in self.results if r.outcome == "violation"]

    @property
    def total_events(self) -> int:
        return sum(r.events for r in self.results)


def episode_seed(base_seed: int, episode: int) -> int:
    """Derived per-episode policy seed (stable across hosts)."""
    digest = hashlib.sha256(
        f"repro-explore:{base_seed}:{episode}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big")


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------


def _workload_descriptor(
    config: ExploreConfig, workload: RecordedWorkload, iterations: int
) -> dict:
    return {
        "name": config.app,
        "kwargs": dict(config.workload_kwargs),
        "seed": config.seed,
        "iterations": iterations,
    }


def build_workload(
    workload_config: dict,
) -> Tuple[RecordedWorkload, int]:
    """Rebuild the (frozen) workload an artifact's config names or embeds."""
    if "recorded" in workload_config:
        workload = RecordedWorkload.from_dict(workload_config["recorded"])
        return workload, len(workload.iteration_phases)
    iterations = workload_config["iterations"]
    live = make_workload(
        workload_config["name"], **workload_config.get("kwargs", {})
    )
    return (
        materialize(live, workload_config["seed"], iterations),
        iterations,
    )


def artifact_config(
    config: ExploreConfig, workload: RecordedWorkload, iterations: int
) -> dict:
    """The replayable half of an artifact (see ``.repro`` format docs)."""
    return {
        "workload": _workload_descriptor(config, workload, iterations),
        "seed": config.seed,
        "options": asdict(DEFAULT_OPTIONS),
        "fault_spec": config.fault_spec,
        "fault_seed": config.fault_seed,
        "quantum_ns": config.quantum_ns,
        "defer_cap": config.defer_cap,
    }


def _faults_from(spec: Optional[str]) -> Optional[FaultProfile]:
    if spec is None:
        return None
    profile = FaultProfile.parse(spec)
    return profile if profile.is_active else None


def _classify(exc: ReproError) -> str:
    if isinstance(exc, OracleViolation):
        return exc.oracle
    if isinstance(exc, WatchdogError):
        return "liveness"
    if isinstance(exc, ProtocolError):
        return "coherence"
    return "simulation"


@dataclass
class _Execution:
    """Everything :func:`_execute` learns about one run."""

    machine: Machine
    outcome: str
    failure: Optional[dict] = None
    forensics: Optional[dict] = None

    @property
    def network(self) -> ExploringNetwork:
        return self.machine.network


def _execute(
    run_config: dict,
    workload: RecordedWorkload,
    iterations: int,
    policy: DeliveryPolicy,
    oracle_specs: Sequence[str],
    budget_events: Optional[int] = None,
    deadline: Optional[float] = None,
    fork: Optional[Tuple[ckpt.Checkpoint, int]] = None,
    stop_after: Optional[int] = None,
) -> _Execution:
    """Run one schedule under ``policy``; never raises on a violation.

    ``run_config`` is the artifact-shaped config dict (seed, options,
    faults, quantum, defer cap).  With ``fork=(checkpoint, at)``, the
    machine restores the FIFO prefix checkpoint instead of re-simulating
    iterations ``1..at``.  With ``stop_after=N``, the run pauses at the
    iteration-``N`` boundary without end-of-run folds -- the quiescent
    state :func:`_prefix_checkpoint` captures from.
    """
    faults = _faults_from(run_config.get("fault_spec"))
    fault_seed = run_config.get("fault_seed", 0)
    options = StacheOptions(**run_config["options"])
    oracles = parse_oracles(oracle_specs)

    def factory(engine, params, deliver):
        return ExploringNetwork(
            engine,
            params,
            deliver,
            policy=policy,
            faults=faults,
            fault_seed=fault_seed,
            quantum_ns=run_config.get("quantum_ns"),
            defer_cap=run_config.get("defer_cap", DEFAULT_DEFER_CAP),
        )

    if fork is not None:
        machine, workload = ckpt.restore(fork[0])
        machine.network.set_policy(policy)
        first_iteration = fork[1] + 1
    else:
        machine = Machine(
            params=PAPER_PARAMS,
            options=options,
            seed=run_config["seed"],
            faults=faults,
            fault_seed=fault_seed,
            network_factory=factory,
        )
        first_iteration = 1

    for oracle in oracles:
        oracle.attach(machine)

    def on_delivery(msg):
        for oracle in oracles:
            oracle.after_delivery(msg)

    machine.deliver_hooks.append(on_delivery)

    try:
        if fork is None:
            machine.begin_workload(workload, iterations)
        last = stop_after if stop_after is not None else iterations
        for index in range(first_iteration, last + 1):
            machine.run_iteration(workload, index)
            for oracle in oracles:
                oracle.at_quiescence(index)
            if (
                budget_events is not None
                and machine.engine.events_processed >= budget_events
            ):
                return _Execution(machine, "budget-exhausted")
            if deadline is not None and time.monotonic() > deadline:
                return _Execution(machine, "budget-exhausted")
        if stop_after is not None:
            return _Execution(machine, "ok")
        collector = machine.finish_workload()
        for oracle in oracles:
            oracle.at_end(collector)
    except ReproError as exc:
        oracle_name = _classify(exc)
        failure = {
            "oracle": oracle_name,
            "error": type(exc).__name__,
            "message": str(exc),
            "sim_time_ns": machine.engine.now,
            "events_processed": machine.engine.events_processed,
            "at_decision": len(machine.network.decisions),
            "event_context": getattr(exc, "event_context", None),
        }
        forensics = build_failure_bundle(
            machine.engine,
            f"{oracle_name} violation: {exc}",
            machine=machine,
        )
        METRICS.inc("explore.violations")
        return _Execution(machine, "violation", failure, forensics)
    return _Execution(machine, "ok")


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------


def explore(
    config: ExploreConfig,
    out_dir: Optional[Union[str, Path]] = None,
) -> ExploreReport:
    """Run one exploration campaign; write ``.repro`` artifacts for any
    violations under ``out_dir`` (when given)."""
    live = make_workload(config.app, **config.workload_kwargs)
    iterations = (
        config.iterations
        if config.iterations is not None
        else live.default_iterations
    )
    workload = materialize(live, config.seed, iterations)
    run_config = artifact_config(config, workload, iterations)
    deadline = (
        time.monotonic() + config.budget_wall_s
        if config.budget_wall_s is not None
        else None
    )

    fork: Optional[Tuple[ckpt.Checkpoint, int]] = None
    if config.fork_at is not None:
        if not 1 <= config.fork_at < iterations:
            raise SimulationError(
                f"fork_at={config.fork_at} must be inside [1, "
                f"{iterations - 1}] for a {iterations}-iteration run"
            )
        fork = (_prefix_checkpoint(run_config, workload, config.fork_at,
                                   iterations), config.fork_at)

    results: List[EpisodeResult] = []
    for episode in range(config.episodes):
        if deadline is not None and time.monotonic() > deadline:
            break
        seed = episode_seed(config.seed, episode)
        policy = make_policy(
            config.strategy,
            seed=seed,
            pct_depth=config.pct_depth,
            delay_bound=config.delay_bound,
        )
        METRICS.inc("explore.episodes")
        execution = _execute(
            run_config,
            workload,
            iterations,
            policy,
            config.oracles,
            budget_events=config.budget_events,
            deadline=deadline,
            fork=fork,
        )
        result = EpisodeResult(
            episode=episode,
            policy_seed=seed,
            outcome=execution.outcome,
            events=execution.machine.engine.events_processed,
            decisions=len(execution.network.decisions),
        )
        if execution.outcome == "violation":
            result.oracle = execution.failure["oracle"]
            result.message = execution.failure["message"]
            result.artifact = ExploreArtifact(
                config=run_config,
                strategy=policy.describe(),
                decisions=list(execution.network.decisions),
                failure=execution.failure,
                forensics=execution.forensics,
                oracles=list(config.oracles),
            )
            if out_dir is not None:
                target = Path(out_dir)
                target.mkdir(parents=True, exist_ok=True)
                path = target / (
                    f"{config.app}-{config.strategy}-ep{episode:03d}.repro"
                )
                save_artifact(result.artifact, path)
                result.artifact_path = str(path)
        results.append(result)
    return ExploreReport(config=config, results=results)


def _prefix_checkpoint(
    run_config: dict,
    workload: RecordedWorkload,
    fork_at: int,
    iterations: int,
) -> ckpt.Checkpoint:
    """Run startup + iterations 1..fork_at once under FIFO and capture."""
    execution = _execute(
        run_config,
        workload,
        iterations,
        FifoPolicy(),
        oracle_specs=(),
        stop_after=fork_at,
    )
    if execution.outcome != "ok":
        raise SimulationError(
            "the FIFO prefix itself failed before the fork point: "
            f"{execution.failure}"
        )
    return ckpt.capture(
        execution.machine, workload, fork_at + 1, iterations
    )


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------


@dataclass
class ReplayResult:
    execution: _Execution
    policy: ReplayPolicy
    artifact_oracle: Optional[str] = None

    @property
    def reproduced(self) -> bool:
        """Did the replay fail the same way the artifact recorded?"""
        recorded = self.artifact_oracle
        if recorded is None:
            return self.execution.outcome == "ok"
        return (
            self.execution.outcome == "violation"
            and self.execution.failure["oracle"] == recorded
        )


def replay_artifact(
    artifact: ExploreArtifact,
    extra_oracles: Sequence[str] = (),
) -> ReplayResult:
    """Re-execute an artifact's decision log; returns the replayed run.

    The re-recorded decision log (``result.execution.network.decisions``)
    is the *canonical* form of the input log -- clamped and truncated to
    the decisions actually consumed -- which is what the shrinker feeds
    forward between passes.
    """
    workload, iterations = build_workload(artifact.config["workload"])
    policy = ReplayPolicy(artifact.decisions)
    oracle_specs = list(artifact.oracles) + [
        spec for spec in extra_oracles if spec not in artifact.oracles
    ]
    execution = _execute(
        artifact.config,
        workload,
        iterations,
        policy,
        oracle_specs,
    )
    return ReplayResult(
        execution=execution,
        policy=policy,
        artifact_oracle=artifact.oracle,
    )
