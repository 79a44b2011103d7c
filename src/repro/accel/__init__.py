"""Prediction-to-action integration and the Section 4.4 runtime model."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".actions": (
            "ACTION_RULES",
            "ActionRule",
            "ProtocolAction",
            "RecoveryClass",
            "actions_for",
            "format_table2",
        ),
        ".integration": (
            "AccelerationComparison",
            "PredictiveDirectoryController",
            "PredictiveMachine",
            "compare_acceleration",
        ),
        ".model": (
            "F",
            "R",
            "SpeedupSeries",
            "figure5_series",
            "relative_time",
            "speedup",
            "speedup_percent",
        ),
    },
)
