"""Configuration for the online prediction service.

One frozen dataclass carries every tunable the service layers share:
shard count, queue bounds, the per-request deadline, the supervisor's
hang budget, and the checkpoint cadence.  Validation names the offending
field the way :class:`~repro.sim.faults.FaultProfile` does, and
:meth:`ServeConfig.fingerprint` hashes the fields a shard checkpoint
must agree on -- restoring predictor state into a service with a
different shard count (a different hash ring) would silently route
blocks to predictors that never saw them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import CosmosConfig
from ..core.eviction import EVICTION_POLICIES
from ..errors import ConfigError
from ..ioutil import canonical_digest
from .hashring import VNODES

#: Bump when the shard-checkpoint schema changes.  Format 2 pickles
#: the predictor objects; format 1 stored readable-tuple snapshots.
STATE_FORMAT = 2


@dataclass(frozen=True)
class ServeConfig:
    """Shared knobs for the front-end, supervisor, and workers."""

    #: Worker processes; each owns one shard of every tenant's blocks.
    shards: int = 2
    #: Bind address for the TCP front-end (port 0 = ephemeral).
    host: str = "127.0.0.1"
    port: int = 0
    #: In-flight observations per shard before admission sheds load.
    queue_depth: int = 32
    #: Per-request deadline: past it the front-end answers degraded.
    deadline_ms: float = 250.0
    #: Supervisor hang budget: a worker silent this long after being
    #: handed an observation is declared stuck and SIGKILLed (the
    #: serving-side analogue of a watchdog wall-clock budget).
    hang_timeout_ms: float = 2_000.0
    #: A shard checkpoints its predictor banks every this many trained
    #: observations (count-based, so cadence is deterministic).
    checkpoint_every: int = 64
    #: The run's seed.  Its only effect here is on :meth:`fingerprint`:
    #: services with different seeds never restore each other's
    #: checkpoints from one directory.
    seed: int = 0
    #: Per-tenant predictor memory budgets, in table entries per shard
    #: (each tenant's bank within a shard gets its own budget; 0 =
    #: unbounded, the default).  Under a budget a worker *evicts* cold
    #: state instead of growing -- it never crashes on memory -- and
    #: responses whose observation evicted carry ``degraded:
    #: "evicting"`` so clients can tell a budgeted answer from a full
    #: one.
    tenant_mhr_budget: int = 0
    tenant_pht_budget: int = 0
    #: Replacement policy for budgeted tenant banks.
    eviction: str = "lru"

    def __post_init__(self) -> None:
        for name in ("shards", "queue_depth", "checkpoint_every"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(
                    f"serve config field {name!r}: {value} must be >= 1"
                )
        for name in ("deadline_ms", "hang_timeout_ms"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigError(
                    f"serve config field {name!r}: {value} ms must be "
                    f"positive"
                )
        for name in ("tenant_mhr_budget", "tenant_pht_budget"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(
                    f"serve config field {name!r}: {value} must be >= 0 "
                    f"(0 = unbounded)"
                )
        if self.eviction not in EVICTION_POLICIES:
            raise ConfigError(
                f"serve config field 'eviction': {self.eviction!r} is not "
                f"one of {', '.join(EVICTION_POLICIES)}"
            )
        if self.hang_timeout_ms < self.deadline_ms:
            raise ConfigError(
                f"serve config field 'hang_timeout_ms': hang budget "
                f"{self.hang_timeout_ms} ms must be >= the request "
                f"deadline ({self.deadline_ms} ms); otherwise every "
                f"deadline miss would SIGKILL a healthy worker"
            )

    def predictor_config(self) -> CosmosConfig:
        """The Cosmos configuration each tenant bank is built with."""
        return CosmosConfig(
            mhr_capacity=self.tenant_mhr_budget,
            pht_capacity=self.tenant_pht_budget,
            eviction=self.eviction,
        )

    def fingerprint(self) -> str:
        """Hash of everything a shard checkpoint must agree on.

        Only fields that change *which state a shard owns* or how it is
        framed participate: shard count and vnodes (the ring), the
        checkpoint cadence (outbox-trim arithmetic), the seed, and the
        state format version.  Latency knobs deliberately do not -- a
        deadline tweak must not discard learned state.  Memory budgets
        do not either, on purpose: tightening a budget must *shrink*
        restored state (the worker re-enforces it on warm restore), not
        throw it all away.
        """
        return canonical_digest(
            {
                "format": STATE_FORMAT,
                "shards": self.shards,
                "vnodes": VNODES,
                "checkpoint_every": self.checkpoint_every,
                "seed": self.seed,
            }
        )
