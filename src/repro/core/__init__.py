"""The Cosmos coherence-message predictor (the paper's contribution)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".bank": ("PredictorBank",),
        ".config": ("CosmosConfig",),
        ".evaluation": (
            "ArcStats",
            "EvaluationResult",
            "IterationCheckpoint",
            "Tally",
            "evaluate_trace",
        ),
        ".memory": ("MemoryOverhead",),
        ".predictor": ("CosmosPredictor", "Observation"),
        ".tuples": ("MessageTuple", "format_tuple", "pack", "unpack"),
    },
)
