"""Online serving of Cosmos predictions (ROADMAP item 5).

The paper's predictor only ever runs inside the closed-loop simulator;
this package lifts it into a long-running service: an asyncio front-end
accepts streamed ``<block, sender, type>`` observations and answers with
the predictor's next-message guess, with per-tenant predictor banks
sharded across a supervised pool of worker processes.

The robustness layer is the point, not an afterthought:

* a **supervisor** detects worker crashes (pipe EOF) and hangs (a
  watchdog-style response budget), SIGKILLs stragglers, and
  warm-restores replacement workers from periodic checkpoints written
  in the :mod:`repro.sim.checkpoint` two-frame format;
* the **client** retries with per-request deadlines and bounded
  exponential backoff, idempotent via sequence numbers exactly like
  :mod:`repro.protocol.recovery`;
* **bounded queues** shed load with explicit ``RETRY_AFTER`` responses
  instead of buffering without bound;
* while a shard is down or over deadline the front-end serves a
  **last-message fallback** prediction tagged ``degraded=true``, and a
  circuit breaker re-admits a restored worker once it holds every
  admitted observation;
* :mod:`repro.serve.chaos` scripts deterministic worker-kill / stall /
  queue-flood / slow-client faults, and :mod:`repro.serve.loadgen`
  replays simulator traces against the service, publishing mergeable
  latency histograms through :mod:`repro.sim.metrics`.

See ``docs/serving.md`` for the architecture and the per-scenario
runbook; the CLI entry point is ``repro-serve``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".chaos": ("ChaosScript",),
        ".client": ("ServeClient",),
        ".config": ("ServeConfig",),
        ".frontend": ("PredictionService",),
        ".hashring": ("HashRing",),
        ".loadgen": ("LoadReport", "replay_trace"),
        ".protocol": ("Request", "Response", "Status"),
        ".supervisor": ("ShardSupervisor",),
    },
)
