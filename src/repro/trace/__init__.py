"""Coherence-message trace infrastructure."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".cache": ("TraceCache", "TraceCacheKey", "trace_key"),
        ".collector": ("TraceCollector",),
        ".events": ("TraceEvent",),
        ".filters": (
            "blocks_touched",
            "by_block",
            "by_node",
            "by_role",
            "from_iteration",
            "iteration_span",
            "split_by_endpoint",
            "up_to_iteration",
        ),
        ".io": ("iter_trace", "load_trace", "save_trace"),
    },
)
