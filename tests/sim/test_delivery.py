"""Tests for the machine's delivery routing and its end-of-run metric fold."""

from repro.accel.integration import PredictiveMachine
from repro.core.config import CosmosConfig
from repro.experiments.common import workload_for
from repro.obs.log import DEFAULT_CAPACITY, OBS
from repro.protocol.messages import MessageType, Role, receiver_role
from repro.sim.checkpoint import capture, restore
from repro.sim.machine import Machine
from repro.sim.metrics import METRICS, Histogram

LATENCY = "sim.access.latency_ns"


class TestRouting:
    def test_swapped_in_directories_receive_every_directory_delivery(self):
        """Dispatch reads the controller at delivery time, so the
        predictive directories installed after ``Machine.__init__`` -- and
        shims wrapped around them later still -- see every delivery."""
        machine = PredictiveMachine(seed=0, config=CosmosConfig(depth=2))
        received = [0]
        for node in machine.nodes:
            handle = node.directory.handle_message

            def counting(msg, handle=handle):
                received[0] += 1
                handle(msg)

            node.directory.handle_message = counting
        machine.run_workload(workload_for("moldyn", quick=True), 4)
        directory_events = sum(
            1
            for event in machine.collector.all_events
            if event.role is Role.DIRECTORY
        )
        assert received[0] == directory_events > 0
        assert machine.exclusive_grants > 0

    def test_obs_deliver_records_name_the_receiving_module(self):
        machine = Machine(seed=0)
        OBS.configure("msg", capacity=1 << 20)
        try:
            machine.run_workload(workload_for("moldyn", quick=True), 2)
            delivers = [
                event for event in OBS.events() if event[2] == "deliver"
            ]
        finally:
            OBS.configure("off", capacity=DEFAULT_CAPACITY)
        assert len(delivers) == machine.network.messages_sent > 0
        roles = {args["role"] for *_head, args in delivers}
        assert roles == {"cache", "directory"}
        for _time, _cat, _name, _node, _block, args in delivers:
            mtype = MessageType[args["mtype"]]
            assert args["role"] == str(receiver_role(mtype))
        assert [args["role"] for *_head, args in delivers] == [
            str(event.role) for event in machine.collector.all_events
        ]


class TestLatencyFold:
    def test_grouped_fold_equals_per_sample_observe(self):
        METRICS.reset()
        machine = Machine(seed=0)
        machine.run_workload(workload_for("moldyn", quick=True), 4)
        reference = Histogram()
        for latency_ns in machine.access_latencies:
            reference.observe(latency_ns)
        assert reference.count > 0
        assert METRICS.histogram(LATENCY).snapshot() == reference.snapshot()

    def test_second_finish_folds_nothing(self):
        METRICS.reset()
        machine = Machine(seed=0)
        machine.run_workload(workload_for("moldyn", quick=True), 2)
        first = METRICS.histogram(LATENCY).snapshot()
        machine.finish_workload()
        assert METRICS.histogram(LATENCY).snapshot() == first
        assert first["count"] == len(machine.access_latencies)

    def test_restored_machine_folds_its_whole_run(self):
        """A machine restored from a checkpoint folds its whole run, the
        segment before the checkpoint included, even if the captured
        machine went on to fold its own samples."""
        workload = workload_for("moldyn", quick=True)
        machine = Machine(seed=0)
        total = machine.begin_workload(workload, 4)
        machine.run_iteration(workload, 1)
        checkpoint = capture(machine, workload, 2, total)
        for index in range(2, total + 1):
            machine.run_iteration(workload, index)
        machine.finish_workload()

        METRICS.reset()
        machine, workload = restore(checkpoint)
        for index in range(2, total + 1):
            machine.run_iteration(workload, index)
        machine.finish_workload()
        assert METRICS.histogram(LATENCY).count == len(
            machine.access_latencies
        )
