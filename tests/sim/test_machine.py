"""Tests for the machine-level simulation driver."""

import random

import pytest

from repro.errors import SimulationError
from repro.experiments.common import iterations_for, workload_for
from repro.protocol.stache import StacheOptions
from repro.sim.machine import Machine, simulate
from repro.sim.memory_map import Allocator
from repro.sim.params import SystemParams
from repro.workloads.access import read, write
from repro.workloads.base import Workload
from repro.workloads.registry import make_workload


class TinyWorkload(Workload):
    name = "tiny"
    default_iterations = 3

    def setup(self, allocator: Allocator, rng: random.Random) -> None:
        self.block = allocator.alloc_block(home=0)

    def startup(self, rng):
        phase = self._new_phase()
        phase[1].append(write(self.block))
        return [phase]

    def iteration(self, index, rng):
        produce = self._new_phase()
        produce[1].append(read(self.block))
        produce[1].append(write(self.block))
        consume = self._new_phase()
        consume[2].append(read(self.block))
        return [produce, consume]


class TestRunWorkload:
    def test_iterations_are_tagged(self):
        collector = simulate(TinyWorkload(), iterations=3)
        iterations = {e.iteration for e in collector.events}
        assert iterations == {1, 2, 3}

    def test_startup_phase_excluded_from_events(self):
        collector = simulate(TinyWorkload(), iterations=2)
        assert all(e.iteration >= 1 for e in collector.events)
        startup = [e for e in collector.all_events if e.iteration == 0]
        assert startup  # the startup write did generate messages

    def test_default_iterations_used(self):
        collector = simulate(TinyWorkload())
        assert max(e.iteration for e in collector.events) == 3

    def test_wrong_proc_count_rejected(self):
        machine = Machine(params=SystemParams(n_nodes=8))
        with pytest.raises(SimulationError):
            machine.run_workload(TinyWorkload(n_procs=16))

    def test_zero_iterations_rejected(self):
        with pytest.raises(SimulationError):
            simulate(TinyWorkload(), iterations=0)

    def test_accesses_all_issued(self):
        machine = Machine()
        machine.run_workload(TinyWorkload(), iterations=4)
        # startup 1 + 4 * (2 + 1)
        assert machine.accesses_issued == 13


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = simulate(make_workload("moldyn"), iterations=3, seed=11).events
        b = simulate(make_workload("moldyn"), iterations=3, seed=11).events
        assert a == b

    def test_different_seed_different_interleaving(self):
        a = simulate(make_workload("moldyn"), iterations=3, seed=1).events
        b = simulate(make_workload("moldyn"), iterations=3, seed=2).events
        assert a != b


class TestTimeAdvancement:
    def test_time_progresses_monotonically(self):
        collector = simulate(TinyWorkload(), iterations=2)
        times = [e.time for e in collector.all_events]
        assert times == sorted(times)
        assert times[-1] > 0

    def test_half_migratory_toggle_changes_traffic(self):
        base = simulate(TinyWorkload(), iterations=4)
        dash = simulate(
            TinyWorkload(),
            iterations=4,
            options=StacheOptions(half_migratory=False),
        )
        base_types = [e.mtype for e in base.events]
        dash_types = [e.mtype for e in dash.events]
        assert base_types != dash_types


class TestHalfMigratory:
    """Section 6.1: invalidating an exclusive copy on a remote read helps
    write-only producers (dsmc) and hurts read-modify-write ones (appbt),
    counted in protocol messages over a quick run."""

    def _messages(self, app, half_migratory):
        return len(
            simulate(
                workload_for(app, quick=True),
                iterations=iterations_for(app, quick=True),
                options=StacheOptions(half_migratory=half_migratory),
                seed=0,
            ).events
        )

    def test_helps_dsmc(self):
        # dsmc's producers never read before writing: invalidating their
        # copies avoids the downgrade's later upgrade handshake.
        assert self._messages("dsmc", True) < self._messages("dsmc", False)

    def test_hurts_appbt(self):
        # appbt's producers read first: invalidation costs them an extra
        # read miss each iteration.
        assert self._messages("appbt", True) > self._messages("appbt", False)
