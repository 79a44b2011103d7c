"""The exploring interconnect: ordering, liveness, checkpoints, recovery."""

import pytest

from repro.errors import SimulationError
from repro.explore.network import DEFAULT_DEFER_CAP, ExploringNetwork
from repro.explore.strategies import (
    DEFER_REST,
    DeliveryPolicy,
    FifoPolicy,
    RandomWalkPolicy,
)
from repro.protocol.messages import Message, MessageType
from repro.sim.checkpoint import capture, restore
from repro.sim.engine import Engine
from repro.sim.faults import FaultProfile
from repro.sim.machine import Machine
from repro.sim.network import Network
from repro.sim.params import PAPER_PARAMS


class AlwaysDefer(DeliveryPolicy):
    """Adversarial worst case: defer everything, forever."""

    name = "always-defer"

    def decide(self, enabled):
        return DEFER_REST


def _msg(src=0, dst=1, block=0):
    return Message(
        src=src, dst=dst, mtype=MessageType.GET_RO_REQUEST, block=block
    )


def make_exploring(policy=None, **kwargs):
    engine = Engine()
    delivered = []
    network = ExploringNetwork(
        engine, PAPER_PARAMS, delivered.append, policy=policy, **kwargs
    )
    return engine, network, delivered


class TestValidation:
    def test_defer_cap_must_be_positive(self):
        with pytest.raises(SimulationError, match="defer_cap"):
            make_exploring(defer_cap=0)

    def test_quantum_must_be_positive(self):
        with pytest.raises(SimulationError, match="quantum"):
            make_exploring(quantum_ns=0)


class TestFifoEquivalence:
    def test_fifo_policy_preserves_admission_order(self):
        engine, network, delivered = make_exploring(FifoPolicy())
        for block in (0, 64, 128, 192):
            network.send(_msg(block=block))
        engine.run()
        assert [m.block for m in delivered] == [0, 64, 128, 192]

    def test_same_messages_as_plain_network(self):
        plain_engine = Engine()
        plain: list = []
        plain_net = Network(plain_engine, PAPER_PARAMS, plain.append)
        engine, network, delivered = make_exploring(FifoPolicy())
        for n in (plain_net, network):
            for block in (0, 64, 0, 128):
                n.send(_msg(block=block))
        plain_engine.run()
        engine.run()
        assert [m.block for m in delivered] == [m.block for m in plain]


class TestLiveness:
    def test_defer_cap_forces_delivery(self):
        engine, network, delivered = make_exploring(
            AlwaysDefer(), defer_cap=3
        )
        network.send(_msg(block=0))
        network.send(_msg(block=64))
        engine.run()
        # Despite an always-defer policy, both messages arrive, in
        # admission order, within the skew bound.
        assert [m.block for m in delivered] == [0, 64]
        assert engine.now <= PAPER_PARAMS.one_way_message_ns + (
            network.max_skew_ns
        )

    def test_queue_always_drains(self):
        engine, network, delivered = make_exploring(
            RandomWalkPolicy(seed=3, defer_prob=0.9)
        )
        for i in range(20):
            network.send(_msg(src=i % 16, dst=(i + 1) % 16, block=i * 64))
        engine.run()
        assert len(delivered) == 20


class TestDecisionLog:
    def test_every_policy_consultation_is_recorded(self):
        engine, network, delivered = make_exploring(
            RandomWalkPolicy(seed=1, defer_prob=0.5)
        )
        for i in range(8):
            network.send(_msg(block=i * 64))
        engine.run()
        # One log entry per consultation: each non-defer entry delivers
        # exactly one message (a DEFER_REST may force-deliver several
        # ripe messages at once, so <=, not ==).
        picks = [d for d in network.decisions if d != DEFER_REST]
        assert network.decisions
        assert len(picks) <= len(delivered) == 8

    def test_observers_see_admission_seq_and_pool(self):
        engine, network, delivered = make_exploring(FifoPolicy())
        seen = []
        network.delivery_observers.append(
            lambda seq, msg, remaining: seen.append(
                (seq, msg.block, len(remaining))
            )
        )
        network.send(_msg(block=0))
        network.send(_msg(block=64))
        engine.run()
        assert [entry[0] for entry in seen] == [0, 1]


class TestCheckpoints:
    def _machine(self):
        return Machine(
            network_factory=lambda engine, params, deliver: (
                ExploringNetwork(
                    engine,
                    params,
                    deliver,
                    policy=RandomWalkPolicy(seed=3),
                    faults=FaultProfile(drop=0.05),
                    fault_seed=4,
                    quantum_ns=25,
                    defer_cap=2,
                )
            )
        )

    def test_roundtrip_at_quiescence(self):
        machine = self._machine()
        block = PAPER_PARAMS.page_bytes  # homed at node 1
        machine.nodes[0].cache.access(block, 1, False, lambda: None)
        machine.engine.run()
        restored, _workload = restore(capture(machine, None, 1, 1))
        network = restored.network
        assert network.decisions == machine.network.decisions
        assert network.deliveries == machine.network.deliveries > 0
        # Faults, quantum and defer cap come back with the network.
        assert network.inner.profile == FaultProfile(drop=0.05)
        assert network.inner.fault_seed == 4
        assert (network.quantum_ns, network.default_defer_cap) == (25, 2)
        assert network.policy.describe() == machine.network.policy.describe()

    def test_capture_refused_with_messages_in_flight(self):
        machine = self._machine()
        block = PAPER_PARAMS.page_bytes
        machine.nodes[0].cache.access(block, 1, False, lambda: None)
        machine.engine.run(max_events=1)  # admitted, drain still pending
        assert machine.network._pool
        with pytest.raises(SimulationError, match="non-quiescent"):
            capture(machine, None, 1, 1)

    def test_policy_swap_refused_with_messages_in_flight(self):
        engine, network, _ = make_exploring(FifoPolicy())
        network.send(_msg())
        engine.run(max_events=1)
        with pytest.raises(SimulationError, match="in flight"):
            network.set_policy(RandomWalkPolicy(seed=0))


class TestMachineIntegration:
    def _machine(self, **net_kwargs):
        return Machine(
            network_factory=lambda engine, params, deliver: (
                ExploringNetwork(engine, params, deliver, **net_kwargs)
            )
        )

    def test_recovery_is_armed(self):
        machine = self._machine(policy=FifoPolicy())
        assert machine.network.adversarial
        assert machine.recovery is not None

    def test_faults_compose_underneath(self):
        machine = self._machine(
            policy=FifoPolicy(),
            faults=FaultProfile(drop=0.1),
            fault_seed=3,
        )
        from repro.sim.faults import FaultyNetwork

        assert isinstance(machine.network.inner, FaultyNetwork)
        assert machine.network.max_skew_ns > (
            machine.network.inner.max_skew_ns
        )

    def test_default_defer_cap_bounds_skew(self):
        engine, network, _ = make_exploring(FifoPolicy())
        assert network.defer_cap == DEFAULT_DEFER_CAP
        assert network.max_skew_ns >= (
            (DEFAULT_DEFER_CAP + 2) * network.quantum_ns
        )
