"""repro: reproduction of "Using Prediction to Accelerate Coherence Protocols".

Mukherjee & Hill, ISCA 1998.  The package provides:

* :mod:`repro.core` -- the Cosmos two-level coherence-message predictor;
* :mod:`repro.protocol` -- a Stache-style full-map write-invalidate
  directory protocol (the coherence substrate);
* :mod:`repro.sim` -- a discrete-event 16-node machine simulator;
* :mod:`repro.workloads` -- models of the paper's five benchmarks;
* :mod:`repro.predictors` -- baseline and directed predictors;
* :mod:`repro.accel` -- prediction-to-action integration and the
  Section 4.4 speedup model;
* :mod:`repro.analysis` -- accuracy, signature, adaptation, and
  memory-overhead analyses;
* :mod:`repro.experiments` -- drivers regenerating every table and
  figure of the paper's evaluation;
* :mod:`repro.parallel` -- sharded parallel execution of independent
  experiment cells over a ``spawn`` worker pool, fed by the
  content-addressed on-disk trace cache (:mod:`repro.trace.cache`);
* :mod:`repro.obs` -- deep observability: the structured event log,
  Perfetto timeline export, misprediction forensics, and run
  manifests.

Quickstart::

    from repro import CosmosConfig, evaluate_trace, make_workload, simulate

    trace = simulate(make_workload("appbt"), iterations=30, seed=1)
    result = evaluate_trace(trace.events, CosmosConfig(depth=2))
    print(f"overall accuracy: {result.overall_accuracy:.1%}")
"""

from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "._version": ("__version__",),
        ".core": (
            "CosmosConfig",
            "CosmosPredictor",
            "EvaluationResult",
            "MemoryOverhead",
            "PredictorBank",
            "evaluate_trace",
        ),
        ".errors": (
            "ConfigError",
            "ProtocolError",
            "ReproError",
            "SimulationError",
            "TraceError",
            "WorkloadError",
        ),
        ".protocol": ("Message", "MessageType", "Role", "StacheOptions"),
        ".sim": ("Machine", "PAPER_PARAMS", "SystemParams", "simulate"),
        ".trace": ("TraceCollector", "TraceEvent", "load_trace", "save_trace"),
        ".workloads": ("Workload", "all_workloads", "make_workload"),
    },
)
