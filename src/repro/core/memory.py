"""Memory-overhead accounting for Cosmos predictors (paper Table 7).

The paper's formula, from the Table 7 caption:

    Ratio = total PHT entries / total MHR entries
    Ovhd  = TUPLE_BYTES * (depth + Ratio * (depth + 1)) * 100
            / BLOCK_BYTES  [%]

with a 2-byte tuple (12 bits processor + 4 bits type) and a 128-byte
block.  An MHR entry costs ``depth`` tuples; a PHT entry costs one pattern
(``depth`` tuples) plus one prediction tuple, i.e. ``depth + 1`` tuples.
MHR entries count blocks referenced at least once; PHTs are only
allocated once a block's reference count exceeds the MHR depth, which is
why lightly-touched applications (dsmc) can have ratios below one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from .config import CosmosConfig

#: Storage of one ``<sender, type>`` tuple: 12 bits of processor id plus
#: 4 bits of message type (Table 7's caption).
TUPLE_BYTES = 2

#: The block size Table 7 normalizes its overhead to.
BLOCK_BYTES = 128


@dataclass(frozen=True)
class MemoryOverhead:
    """Table 7 quantities for one predictor configuration.

    Entry counts are *live* entries; a capacity-bounded bank that has
    been evicting reports smaller tables than it once held, so the
    high-water marks ride along (``-1`` = not tracked).
    """

    mhr_entries: int
    pht_entries: int
    depth: int
    peak_mhr_entries: int = -1
    peak_pht_entries: int = -1

    @property
    def ratio(self) -> float:
        """PHT entries per MHR entry."""
        if self.mhr_entries == 0:
            return 0.0
        return self.pht_entries / self.mhr_entries

    @property
    def overhead_percent(self) -> float:
        """Average predictor memory per block, as a % of the block size."""
        tuples_per_block = self.depth + self.ratio * (self.depth + 1)
        return TUPLE_BYTES * tuples_per_block * 100.0 / BLOCK_BYTES

    @property
    def bytes_per_block(self) -> float:
        """Average predictor bytes per referenced block."""
        return self.overhead_percent * BLOCK_BYTES / 100.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ratio={self.ratio:.1f} ovhd={self.overhead_percent:.1f}% "
            f"({self.mhr_entries} MHRs, {self.pht_entries} PHT entries)"
        )


def estimated_table_bytes(
    config: CosmosConfig, mhr_entries: int, pht_entries: int
) -> int:
    """Estimated predictor storage for given entry counts (Table 7 model).

    An MHR entry holds ``depth`` tuples; a PHT entry holds one pattern
    (``depth`` tuples) plus one prediction tuple.
    """
    depth = config.depth
    return TUPLE_BYTES * (
        mhr_entries * depth + pht_entries * (depth + 1)
    )


def memory_report(
    config: CosmosConfig, predictors: Iterable
) -> Dict[str, int]:
    """Storage totals over Cosmos ``predictors`` built under ``config``.

    The one place predictor memory is summed (bank overhead, ``pred.mem.*``
    counters, a serve worker's ``"memory"``).  Entry counts are live;
    peaks ride along so bounded runs don't deflate memory reports.
    """
    mhr_live = pht_live = peak_mhr = peak_pht = 0
    evictions_mhr = evictions_pht = 0
    for predictor in predictors:
        mhr_live += predictor.mhr_entries
        pht_live += predictor.pht_entries
        peak_mhr += predictor.peak_mhr_entries
        peak_pht += predictor.peak_pht_entries
        evictions_mhr += predictor.evictions_mhr
        evictions_pht += predictor.evictions_pht
    return {
        "mhr_live": mhr_live,
        "pht_live": pht_live,
        "peak_mhr": peak_mhr,
        "peak_pht": peak_pht,
        "evictions_mhr": evictions_mhr,
        "evictions_pht": evictions_pht,
        "bytes_est": estimated_table_bytes(config, mhr_live, pht_live),
        "peak_bytes_est": estimated_table_bytes(config, peak_mhr, peak_pht),
    }
