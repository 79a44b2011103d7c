"""The shard planner.

A run plan has two stages:

1. **Trace shards** -- one per unique ``(workload, iterations, seed,
   quick)`` simulation any requested experiment needs.  Workers simulate
   and write the on-disk trace cache, so the expensive step runs once,
   in parallel, instead of once per experiment process.
2. **Experiment shards** -- one per requested experiment.  Workers
   regenerate the table/figure text (replaying traces from the cache
   warmed by stage 1) and the parent merges outputs back in plan order.

The planner never reorders anything observable: experiment shards carry
their position in the requested name list, and the pool's merge sorts by
it, so ``--jobs N`` output is byte-identical to ``--jobs 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..experiments.common import iterations_for
from .seeds import derive_seed


@dataclass(frozen=True)
class TraceShard:
    """One simulation to run and write into the trace cache."""

    app: str
    iterations: int
    seed: int
    quick: bool
    cache_dir: str
    shard_seed: int
    #: Fault-injection profile spec the worker must configure before
    #: simulating (``None`` = reliable interconnect).
    fault_spec: Optional[str] = None
    fault_seed: int = 0


@dataclass(frozen=True)
class ExperimentShard:
    """One experiment to regenerate (``index`` = position in the plan)."""

    index: int
    name: str
    quick: bool
    seed: int
    cache_dir: Optional[str]
    shard_seed: int
    fault_spec: Optional[str] = None
    fault_seed: int = 0


@dataclass(frozen=True)
class Plan:
    """An ordered two-stage run plan."""

    traces: Tuple[TraceShard, ...]
    experiments: Tuple[ExperimentShard, ...]

    @property
    def n_shards(self) -> int:
        return len(self.traces) + len(self.experiments)


def plan_run(
    names: Sequence[str],
    quick: bool,
    seed: int,
    cache_dir: Optional[str],
    traces_by_experiment: Mapping[str, Iterable[str]],
    fault_spec: Optional[str] = None,
    fault_seed: int = 0,
) -> Plan:
    """Build the shard plan for one runner invocation.

    ``traces_by_experiment`` maps each experiment name to the workloads
    it replays through the shared trace cache (empty for experiments
    that simulate privately or not at all).  Without a ``cache_dir``
    there is nowhere to hand traces across processes, so the warming
    stage is skipped and each worker simulates what it needs.

    ``fault_spec`` propagates the runner's ``--fault-profile`` into
    every worker; the derived shard seeds fold it in only when set, so
    fault-free plans keep their historical seeds (and cached traces).
    """

    def config_tag(base: str) -> str:
        if fault_spec is None:
            return base
        return f"{base},faults={fault_spec}:{fault_seed}"

    traces: List[TraceShard] = []
    if cache_dir is not None:
        seen: Dict[Tuple[str, int, int, bool], None] = {}
        for name in names:
            for app in traces_by_experiment.get(name, ()):
                key = (app, iterations_for(app, quick), seed, quick)
                if key not in seen:
                    seen[key] = None
                    traces.append(
                        TraceShard(
                            app=app,
                            iterations=key[1],
                            seed=seed,
                            quick=quick,
                            cache_dir=cache_dir,
                            shard_seed=derive_seed(
                                "trace",
                                app,
                                config_tag(f"it={key[1]},quick={quick}"),
                                seed,
                            ),
                            fault_spec=fault_spec,
                            fault_seed=fault_seed,
                        )
                    )
    experiments = tuple(
        ExperimentShard(
            index=index,
            name=name,
            quick=quick,
            seed=seed,
            cache_dir=cache_dir,
            shard_seed=derive_seed(
                name, None, config_tag(f"quick={quick}"), seed
            ),
            fault_spec=fault_spec,
            fault_seed=fault_seed,
        )
        for index, name in enumerate(names)
    )
    return Plan(traces=tuple(traces), experiments=experiments)
