"""The Cosmos coherence-message predictor (the paper's contribution)."""

from .bank import PredictorBank
from .config import CosmosConfig
from .evaluation import (
    ArcStats,
    EvaluationResult,
    IterationCheckpoint,
    Tally,
    evaluate_trace,
)
from .memory import MemoryOverhead
from .predictor import CosmosPredictor, Observation
from .tuples import MessageTuple, format_tuple, pack, unpack

__all__ = [
    "ArcStats",
    "CosmosConfig",
    "CosmosPredictor",
    "EvaluationResult",
    "IterationCheckpoint",
    "MemoryOverhead",
    "MessageTuple",
    "Observation",
    "PredictorBank",
    "Tally",
    "evaluate_trace",
    "format_tuple",
    "pack",
    "unpack",
]
