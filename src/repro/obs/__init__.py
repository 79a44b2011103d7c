"""repro.obs: the deep observability layer.

Six cooperating pieces, all off by default and all zero-cost-when-off:

* :mod:`repro.obs.log` -- the structured event log: a process-global,
  levelled, ring-buffered :data:`OBS` that the simulator, protocol
  controllers, fault injector, and evaluation loop emit into.  Disabled
  sites cost one boolean attribute check (guarded ``if OBS.msg: ...``),
  enforced at <= 2% overhead by ``benchmarks/bench_core.py``.
* :mod:`repro.obs.timeline` -- renders the event log as Chrome
  trace-event / Perfetto JSON (``--trace-events``): one lane per node
  (cache + directory threads) plus network message/fault/retry lanes.
* :mod:`repro.obs.forensics` -- misprediction capture rings: the MHR
  pattern, matched PHT entry, and noise-filter state behind every recent
  misprediction (``repro-trace explain``, the ``mispredict-profile``
  experiment).
* :mod:`repro.obs.manifest` -- deterministic run manifests attached to
  metrics JSON, timeline exports, and trace-cache entries so every
  artifact names the run that produced it.
* :mod:`repro.obs.spans` -- causal transaction spans: a stable id per
  coherence transaction, threaded through every message that serves it
  (same ``if SPANS.enabled`` gating discipline as :data:`OBS`).
* :mod:`repro.obs.critpath` -- offline critical-path analysis over the
  span records: segment classification (indirection / transfer / queue /
  retry / predicted-shortcut) and per-prediction-outcome latency
  attribution (``repro-trace critical-path``, the ``critical-path``
  experiment).

See ``docs/observability.md`` for the end-to-end story.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".bundle": ("build_failure_bundle", "save_bundle"),
        ".critpath": (
            "CriticalPath",
            "CritPathSummary",
            "Segment",
            "attribute",
            "critical_path",
            "fold_critpath_metrics",
            "replay_outcomes",
            "summarize",
        ),
        ".forensics": (
            "ForensicsReport",
            "MispredictRecord",
            "explain_trace",
            "format_pattern",
            "format_tuple",
        ),
        ".log": ("DEFAULT_CAPACITY", "LEVELS", "OBS", "ObsLog"),
        ".manifest": ("OBS_SCHEMA_VERSION", "build_manifest"),
        ".spans": (
            "SEGMENT_KINDS",
            "SPANS",
            "SpanTracer",
            "Transaction",
            "build_transactions",
            "format_span_tree",
        ),
        ".timeline": (
            "export_trace_events",
            "save_trace_events",
            "validate_trace_events",
        ),
    },
)
