"""Discrete-event machine simulator substrate."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".engine": ("Engine",),
        ".machine": ("Machine", "simulate"),
        ".memory_map": ("Allocator", "MemoryMap"),
        ".metrics": ("METRICS", "Metrics", "dump_metrics_json"),
        ".network": ("Network",),
        ".node": ("Node",),
        ".params": ("PAPER_PARAMS", "SystemParams"),
    },
)
