"""Parallel execution of independent experiment cells.

The paper's evaluation is a grid -- applications x nodes x predictor
configurations -- and every ``(workload, seed, config)`` cell is
independent: prediction accuracy depends only on per-block message
order, which is latency-insensitive.  This package shards that grid
across a ``spawn`` process pool and merges results back in plan order,
so the parallel path emits byte-identical experiment text to the serial
one.

* :mod:`repro.parallel.seeds` -- deterministic per-shard seed derivation
  (``hashlib`` over the cell identity, independent of pool scheduling).
* :mod:`repro.parallel.plan` -- the shard planner: a trace-warming stage
  (one shard per unique simulation, written to the on-disk trace cache)
  followed by one shard per experiment.
* :mod:`repro.parallel.pool` -- the worker pool and the ordered merge.
* :mod:`repro.parallel.journal` -- the durable run journal behind
  ``--run-dir`` / ``--resume``: fsync'd per-shard completion records
  that survive ``kill -9`` and let a resumed run re-execute only the
  missing or failed shards.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".journal": ("RunJournal", "shard_digest"),
        ".plan": ("ExperimentShard", "Plan", "TraceShard", "plan_run"),
        ".pool": ("ShardOutcome", "run_plan"),
        ".seeds": ("derive_seed",),
    },
)
