"""Tests for the inline integration of predictions into the protocol."""

from repro.accel.integration import (
    PredictiveMachine,
    compare_acceleration,
)
from repro.core.config import CosmosConfig
from repro.experiments.figure2 import ProducerConsumerMicro
from repro.obs.spans import SPANS, build_transactions
from repro.protocol.messages import MessageType
from repro.sim.machine import Machine
from repro.workloads.moldyn import MolDyn


class TestInlineIntegration:
    def test_predictive_machine_grants_exclusive(self):
        machine = PredictiveMachine(seed=3, config=CosmosConfig(depth=1))
        machine.run_workload(ProducerConsumerMicro(), iterations=20)
        assert machine.exclusive_grants > 0

    def test_exclusive_grants_keep_their_spans(self):
        # A granted read is still the requester's transaction: the
        # directory must admit, start and finish it under the span id
        # the request carried.
        machine = PredictiveMachine(seed=3, config=CosmosConfig(depth=1))
        SPANS.enable()
        try:
            machine.run_workload(ProducerConsumerMicro(), iterations=20)
            transactions = build_transactions(SPANS.records)
        finally:
            SPANS.disable()
            SPANS.set_clock(None)
        assert machine.exclusive_grants > 0
        assert transactions
        unadmitted = [t.txn for t in transactions.values() if not t.admits]
        unfinished = [t.txn for t in transactions.values() if not t.finishes]
        assert unadmitted == [] and unfinished == []

    def test_grants_eliminate_upgrades(self):
        # The producer reads then writes every iteration; once the
        # directory predicts the upgrade, the upgrade transaction
        # disappears from the wire.
        plain = Machine(seed=3)
        plain.run_workload(ProducerConsumerMicro(), iterations=25)
        predictive = PredictiveMachine(seed=3, config=CosmosConfig(depth=1))
        predictive.run_workload(ProducerConsumerMicro(), iterations=25)

        def upgrades(machine):
            return sum(
                1
                for e in machine.collector.events
                if e.mtype is MessageType.UPGRADE_REQUEST
            )

        assert upgrades(predictive) < upgrades(plain)
        assert (
            predictive.network.messages_sent < plain.network.messages_sent
        )

    def test_comparison_helper(self):
        comparison = compare_acceleration(
            lambda: MolDyn(
                force_blocks=8, coord_blocks=8, cold_blocks=0
            ),
            iterations=10,
            seed=5,
        )
        assert comparison.baseline_messages > 0
        assert comparison.exclusive_grants > 0
        assert 0.0 <= comparison.message_reduction < 1.0
        assert comparison.time_speedup > 0.9  # never catastrophically worse

    def test_protocol_stays_correct_under_prediction(self):
        # The accelerated machine must satisfy every protocol invariant
        # (controllers raise ProtocolError otherwise) and run to
        # completion on a contended workload.
        machine = PredictiveMachine(seed=1, config=CosmosConfig(depth=2))
        machine.run_workload(
            MolDyn(force_blocks=12, coord_blocks=12, cold_blocks=0),
            iterations=8,
        )
        assert machine.collector.events


class TestDataPush:
    def test_pushes_happen_and_get_accepted(self):
        machine = PredictiveMachine(
            seed=3,
            config=CosmosConfig(depth=1),
            grant_exclusive=False,
            push_data=True,
        )
        machine.run_workload(ProducerConsumerMicro(), iterations=25)
        assert machine.pushes > 0
        assert machine.pushed_blocks_accepted > 0

    def test_push_converts_consumer_misses_to_hits(self):
        plain = Machine(seed=3)
        plain.run_workload(ProducerConsumerMicro(), iterations=25)
        predictive = PredictiveMachine(
            seed=3,
            config=CosmosConfig(depth=1),
            grant_exclusive=False,
            push_data=True,
        )
        predictive.run_workload(ProducerConsumerMicro(), iterations=25)

        def consumer_requests(machine):
            return sum(
                1
                for e in machine.collector.events
                if e.mtype is MessageType.GET_RO_REQUEST
            )

        assert consumer_requests(predictive) < consumer_requests(plain)

    def test_push_never_violates_swmr(self):
        # The protocol invariant checks run throughout; a clean run on a
        # contended workload with both actions enabled is the assertion.
        machine = PredictiveMachine(
            seed=1,
            config=CosmosConfig(depth=2),
            grant_exclusive=True,
            push_data=True,
        )
        machine.run_workload(
            MolDyn(force_blocks=12, coord_blocks=12, cold_blocks=0),
            iterations=10,
        )
        assert machine.collector.events

    def test_comparison_reports_pushes(self):
        comparison = compare_acceleration(
            lambda: MolDyn(force_blocks=8, coord_blocks=8, cold_blocks=0),
            iterations=10,
            seed=5,
            grant_exclusive=False,
            push_data=True,
        )
        assert comparison.pushes > 0
        assert comparison.time_speedup > 0.9


class TestStallAccounting:
    def test_acceleration_cuts_total_stall(self):
        comparison = compare_acceleration(
            lambda: ProducerConsumerMicro(),
            iterations=25,
            seed=3,
            grant_exclusive=True,
            push_data=True,
        )
        assert comparison.baseline_stall_ns > 0
        assert comparison.stall_reduction > 0.0
        assert comparison.stall_reduction < 1.0
