"""Tests for access-latency statistics: the machine's per-access latency
column, one issue-to-completion latency per shared access."""

import pytest

from repro.sim.machine import _CACHE_HIT_NS, Machine
from repro.workloads.moldyn import MolDyn


class TestMachineRecording:
    @pytest.fixture(scope="class")
    def machine(self):
        machine = Machine(seed=2)
        machine.run_workload(
            MolDyn(force_blocks=6, coord_blocks=6, cold_blocks=0),
            iterations=4,
        )
        return machine

    def test_every_access_recorded(self, machine):
        assert len(machine.access_latencies) == machine.accesses_issued

    def test_misses_cost_more_than_hits(self, machine):
        # Hits cost a fixed latency each: a remote-homed block hit in
        # the cache, or a locally-homed one served from memory.  The
        # rest of the column is what the misses cost.
        cache_hits = sum(node.cache.hits for node in machine.nodes)
        local_hits = sum(node.directory.local_hits for node in machine.nodes)
        latencies = machine.access_latencies
        misses = len(latencies) - cache_hits - local_hits
        miss_ns = sum(latencies) - (
            cache_hits * _CACHE_HIT_NS
            + local_hits * machine.params.memory_access_ns
        )
        assert misses > 0
        assert miss_ns / misses >= sum(latencies) / len(latencies)

    def test_miss_latency_at_least_round_trip(self, machine):
        # An access slower than a local memory access went to the
        # network: at least request + response.
        slow = sorted(
            latency
            for latency in machine.access_latencies
            if latency > machine.params.memory_access_ns
        )
        assert slow
        median = slow[len(slow) // 2]
        assert median >= 2 * machine.params.one_way_message_ns

    def test_latencies_nonnegative(self, machine):
        assert min(machine.access_latencies) >= 0
