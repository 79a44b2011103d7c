"""Baseline and directed coherence-message predictors.

These are the comparison points of the paper's Section 7: directed
predictors (migratory, dynamic self-invalidation) that recognize one
sharing pattern known a priori, simple per-block baselines
(last-message, most-common), an oracle ceiling, and a static-signature
replayer, all behind the same :class:`MessagePredictor` interface as
Cosmos.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        ".base": ("MessagePredictor",),
        ".dsi": ("DSIPredictor",),
        ".last_message": ("LastMessagePredictor",),
        ".migratory": ("MigratoryPredictor",),
        ".most_common": ("MostCommonPredictor",),
        ".hybrid": ("HybridCosmos",),
        ".oracle": ("OraclePredictor",),
        ".set_predictor": ("SetCosmos",),
        ".static": ("StaticSignaturePredictor",),
        ".variants": ("GlobalHistoryCosmos", "TypeOnlyCosmos"),
    },
)
