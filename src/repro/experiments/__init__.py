"""Drivers regenerating every table and figure of the paper's evaluation."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".bounds": ("BoundsResult", "run_bounds"),
        ".common": (
            "DEFAULT_ITERATIONS",
            "clear_trace_cache",
            "get_trace",
            "iterations_for",
            "workload_for",
        ),
        ".figure2": ("Figure2Result", "ProducerConsumerMicro", "run_figure2"),
        ".figure5": ("Figure5Result", "run_figure5"),
        ".figure8": (
            "Figure8Result",
            "MigratoryMicro",
            "SelfInvalidationMicro",
            "run_figure8",
        ),
        ".figures6_7": ("AppSignatures", "Figures67Result", "run_figures6_7"),
        ".hardware": (
            "CapacityPoint",
            "ConfidencePoint",
            "HardwareResult",
            "run_hardware",
        ),
        ".integration": ("IntegrationResult", "run_integration"),
        ".mispredict": ("MispredictProfileResult", "run_mispredict_profile"),
        ".paper_data": (
            "PAPER_FIGURE5_EXAMPLE",
            "PAPER_TABLE5",
            "PAPER_TABLE6",
            "PAPER_TABLE7",
            "PAPER_TABLE8",
            "PAPER_TIME_TO_ADAPT",
        ),
        ".protocols": (
            "ProtocolComparisonResult",
            "ProtocolPoint",
            "run_protocol_comparison",
        ),
        ".replacement": (
            "ReplacementPoint",
            "ReplacementResult",
            "evaluate_with_history_loss",
            "run_replacement_study",
        ),
        ".scaling": (
            "ScalingPoint",
            "ScalingResult",
            "SeedStudyResult",
            "run_scaling",
            "run_seed_study",
        ),
        ".sensitivity": ("SensitivityResult", "run_sensitivity"),
        ".table5": ("Table5Result", "run_table5"),
        ".table6": ("Table6Result", "run_table6"),
        ".table7": ("Table7Result", "run_table7"),
        ".table8": (
            "TABLE8_CHECKPOINTS",
            "TABLE8_TRANSITIONS",
            "Table8Result",
            "run_table8",
        ),
        ".traffic": ("TrafficResult", "run_traffic"),
    },
)
