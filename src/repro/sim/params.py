"""Simulated system parameters (paper Table 3).

The paper's target is a 16-node machine with single-processor nodes; the
parameters below default to the values of Table 3.  Cosmos' prediction
accuracy is insensitive to most of them (Section 5 notes that stretching
the network latency from 40 ns to 1 us barely moves the prediction rates;
the sensitivity cases in ``tests/experiments/test_experiments.py`` check
that claim), but they shape message timing and therefore interleavings.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class SystemParams:
    """Machine parameters, defaulting to the paper's Table 3."""

    n_nodes: int = 16
    cache_block_bytes: int = 64
    cache_bytes: int = 1 << 20  # one megabyte
    memory_access_ns: int = 120
    network_latency_ns: int = 40
    network_interface_ns: int = 60
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigError("need at least two nodes for coherence traffic")
        if self.cache_block_bytes & (self.cache_block_bytes - 1):
            raise ConfigError("cache block size must be a power of two")
        if self.page_bytes % self.cache_block_bytes:
            raise ConfigError("page size must be a multiple of the block size")

    @property
    def blocks_per_page(self) -> int:
        return self.page_bytes // self.cache_block_bytes

    @property
    def one_way_message_ns(self) -> int:
        """End-to-end latency of one coherence message.

        Source network interface + wire + destination network interface.
        """
        return 2 * self.network_interface_ns + self.network_latency_ns

    def describe(self) -> str:
        """Render the parameters as an aligned table (paper Table 3).

        The simulator does not model the processor clock, cache
        associativity (its caches are direct-mapped), the memory bus or
        the network message size, so those rows print Table 3's values.
        """
        rows = [
            ("Number of parallel machine nodes", str(self.n_nodes)),
            ("Processor speed", "1 GHz"),
            ("Cache block size", f"{self.cache_block_bytes} bytes"),
            ("Cache size", f"{self.cache_bytes // (1 << 20)} megabyte"),
            ("Cache associativity", "direct-mapped"),
            ("Main memory access time", f"{self.memory_access_ns} ns"),
            ("Memory bus coherence protocol", "MOESI"),
            ("Memory bus width", "256 bits"),
            ("Memory bus clock time", "250 MHz"),
            ("Network message size", "256 bytes"),
            ("Network latency", f"{self.network_latency_ns} ns"),
            ("Network Interface access time", f"{self.network_interface_ns} ns"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


#: The exact configuration of the paper's Table 3.
PAPER_PARAMS = SystemParams()
