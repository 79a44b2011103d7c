"""Analyses over coherence-message traces and evaluation results."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".accuracy": ("AccuracyRow", "depth_sweep", "filter_sweep"),
        ".adaptation": (
            "AdaptationCurve",
            "Transition",
            "TransitionSnapshot",
            "accuracy_curve",
            "transition_progress",
        ),
        ".arcs": ("Arc", "arcs_from_result", "measure_arcs"),
        ".bounds": (
            "OptimalityBound",
            "measure_bounds",
            "optimal_table_accuracy",
        ),
        ".dot": ("signature_graph_dot",),
        ".overhead": (
            "MacroblockPoint",
            "OverheadRow",
            "PreallocationReport",
            "macroblock_sweep",
            "overhead_sweep",
            "pht_size_histogram",
            "preallocation_report",
        ),
        ".plotting": ("ascii_chart", "sparkline"),
        ".report": ("render_matrix", "render_table"),
        ".signatures": (
            "Signature",
            "dominant_signature",
            "extract_signatures",
        ),
        ".traffic": (
            "FanoutStats",
            "TrafficSummary",
            "measure_fanout",
            "summarize_traffic",
        ),
    },
)
