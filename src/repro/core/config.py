"""Configuration of a Cosmos predictor."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .eviction import EVICTION_POLICIES


@dataclass(frozen=True)
class CosmosConfig:
    """Parameters of one Cosmos predictor.

    Attributes:
        depth: number of ``<sender, type>`` tuples held in each Message
            History Register (the paper sweeps 1-4; Table 5).
        filter_max_count: saturating-counter ceiling of the noise filter
            (paper Section 3.6 / Table 6); ``0`` disables filtering, i.e.
            a misprediction immediately replaces the stored prediction.
        macroblock_bytes: group predictions for all cache blocks within
            an aligned region of this many bytes into one MHR/PHT pair
            (Section 7 suggests Johnson & Hwu-style macroblocks to cut
            Cosmos' memory).  ``None`` (default) keeps per-block tables.
        confidence_threshold: emit a prediction only when its filter
            counter has reached this value, trading coverage for the
            precision that speculative actions need (Section 4's
            misprediction costs).  Requires ``filter_max_count >=
            confidence_threshold``; 0 (default) predicts always.
        mhr_capacity: bound the MHR table to this many entries per
            predictor module, evicting per the configured ``eviction``
            policy; an evicted block's PHT goes with it (a hardware
            predictor cannot grow without bound; the paper's tables are
            effectively unbounded because Stache directory state is
            persistent).  ``0`` (the default) is unbounded.  The
            predictor keeps live/peak/eviction accounting for the
            memory-frontier studies.
        pht_capacity: bound the *total* pattern entries per predictor
            module (across all blocks), evicting individual
            ``(block, pattern)`` entries per the ``eviction`` policy.
            ``0`` (the default) is unbounded.
        eviction: replacement policy for the bounded tables -- ``lru``
            (exact, default), ``clock`` (second chance), or ``decay``
            (clock with a saturating use counter).  Ignored while both
            capacities are 0.
    """

    depth: int = 1
    filter_max_count: int = 0
    macroblock_bytes: "int | None" = None
    confidence_threshold: int = 0
    mhr_capacity: int = 0
    pht_capacity: int = 0
    eviction: str = "lru"

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigError(f"MHR depth must be >= 1, got {self.depth}")
        if self.filter_max_count < 0:
            raise ConfigError(
                f"filter_max_count must be >= 0, got {self.filter_max_count}"
            )
        if self.macroblock_bytes is not None:
            if self.macroblock_bytes < 1:
                raise ConfigError("macroblock_bytes must be positive")
            if self.macroblock_bytes & (self.macroblock_bytes - 1):
                raise ConfigError("macroblock_bytes must be a power of two")
        if self.confidence_threshold < 0:
            raise ConfigError("confidence_threshold must be >= 0")
        if self.confidence_threshold > self.filter_max_count:
            raise ConfigError(
                "confidence_threshold cannot exceed filter_max_count: the "
                "counter saturates there and would never reach a higher bar"
            )
        if self.mhr_capacity < 0:
            raise ConfigError(
                f"mhr_capacity must be >= 0 (0 = unbounded), "
                f"got {self.mhr_capacity}"
            )
        if self.pht_capacity < 0:
            raise ConfigError(
                f"pht_capacity must be >= 0 (0 = unbounded), "
                f"got {self.pht_capacity}"
            )
        if self.eviction not in EVICTION_POLICIES:
            raise ConfigError(
                f"eviction must be one of {EVICTION_POLICIES}, "
                f"got {self.eviction!r}"
            )

    @property
    def has_filter(self) -> bool:
        return self.filter_max_count > 0

    def describe(self) -> str:
        filt = (
            f"saturating counter (max {self.filter_max_count})"
            if self.has_filter
            else "none"
        )
        macro = (
            f", macroblock={self.macroblock_bytes}B"
            if self.macroblock_bytes is not None
            else ""
        )
        bound = ""
        if self.mhr_capacity or self.pht_capacity:
            caps = []
            if self.mhr_capacity:
                caps.append(f"mhr<={self.mhr_capacity}")
            if self.pht_capacity:
                caps.append(f"pht<={self.pht_capacity}")
            bound = f", {self.eviction}[{', '.join(caps)}]"
        return f"Cosmos(depth={self.depth}, filter={filt}{macro}{bound})"
