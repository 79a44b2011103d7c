"""Baseline and directed coherence-message predictors.

These are the comparison points of the paper's Section 7: directed
predictors (migratory, dynamic self-invalidation) that recognize one
sharing pattern known a priori, simple per-block baselines
(last-message, most-common), an oracle ceiling, and a static-signature
replayer, all behind the same :class:`MessagePredictor` interface as
Cosmos.
"""

from .base import MessagePredictor
from .dsi import DSIPredictor
from .last_message import LastMessagePredictor
from .migratory import MigratoryPredictor
from .most_common import MostCommonPredictor
from .hybrid import HybridCosmos
from .oracle import OraclePredictor
from .set_predictor import SetCosmos
from .static import StaticSignaturePredictor
from .variants import GlobalHistoryCosmos, TypeOnlyCosmos

__all__ = [
    "DSIPredictor",
    "GlobalHistoryCosmos",
    "HybridCosmos",
    "LastMessagePredictor",
    "SetCosmos",
    "TypeOnlyCosmos",
    "MessagePredictor",
    "MigratoryPredictor",
    "MostCommonPredictor",
    "OraclePredictor",
    "StaticSignaturePredictor",
]
