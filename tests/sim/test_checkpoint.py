"""Checkpoint/restore: byte-identical resume, durable format, failures.

The acceptance bar (ISSUE 4): a run interrupted at any checkpoint and
restored must produce byte-identical trace events and deterministic
metrics (counters and histograms; wall-clock timers and the checkpoint
machinery's own bookkeeping counters are exempt) to an uninterrupted
run.  The hypothesis property drives the predictor -- the deepest state
a checkpoint carries -- through random observe/snapshot/restore/observe
schedules and demands exact behavioural equality.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CosmosConfig
from repro.core.corruption import CorruptionInjector, CorruptionProfile
from repro.core.predictor import CosmosPredictor
from repro.errors import CheckpointError
from repro.experiments.common import workload_for
from repro.ioutil import canonical_digest, read_framed, write_framed
from repro.protocol.messages import MessageType
from repro.sim.checkpoint import (
    CHECKPOINT_MAGIC,
    FORMAT_VERSION,
    capture,
    checkpoint_path,
    config_fingerprint,
    latest_checkpoint,
    load_checkpoint,
    restore,
    resume_simulation,
    save_checkpoint,
    simulate_with_checkpoints,
)
from repro.sim.faults import PRESETS
from repro.sim.machine import Machine, simulate
from repro.sim.metrics import METRICS
from repro.sim.params import PAPER_PARAMS

ITERATIONS = 4
SEED = 7


def _deterministic_metrics():
    """Counters + histograms, minus wall-clock and checkpoint bookkeeping."""
    snapshot = METRICS.snapshot()
    counters = {
        name: value
        for name, value in snapshot["counters"].items()
        if not name.startswith("checkpoint.")
    }
    return counters, snapshot.get("histograms", {})


def _plain_run(faults=None):
    METRICS.reset()
    collector = simulate(
        workload_for("barnes", True),
        iterations=ITERATIONS,
        seed=SEED,
        faults=faults,
        fault_seed=11,
    )
    return list(collector.events), _deterministic_metrics()


class TestByteIdenticalResume:
    def test_checkpointing_does_not_perturb_the_run(self, tmp_path):
        plain_events, plain_metrics = _plain_run()
        METRICS.reset()
        collector = simulate_with_checkpoints(
            workload_for("barnes", True),
            iterations=ITERATIONS,
            seed=SEED,
            checkpoint_dir=tmp_path,
            every=1,
        )
        assert list(collector.events) == plain_events
        assert _deterministic_metrics() == plain_metrics
        assert latest_checkpoint(tmp_path) == checkpoint_path(
            tmp_path, ITERATIONS
        )

    @pytest.mark.parametrize("resume_at", [1, 2, ITERATIONS - 1])
    def test_resume_from_any_checkpoint_is_byte_identical(
        self, tmp_path, resume_at
    ):
        plain_events, plain_metrics = _plain_run()
        METRICS.reset()
        simulate_with_checkpoints(
            workload_for("barnes", True),
            iterations=ITERATIONS,
            seed=SEED,
            checkpoint_dir=tmp_path,
            every=1,
        )
        collector = resume_simulation(checkpoint_path(tmp_path, resume_at))
        assert list(collector.events) == plain_events
        assert _deterministic_metrics() == plain_metrics

    def test_resume_is_byte_identical_under_fault_injection(self, tmp_path):
        faults = PRESETS["light"]
        plain_events, plain_metrics = _plain_run(faults=faults)
        METRICS.reset()
        simulate_with_checkpoints(
            workload_for("barnes", True),
            iterations=ITERATIONS,
            seed=SEED,
            faults=faults,
            fault_seed=11,
            checkpoint_dir=tmp_path,
            every=2,
        )
        collector = resume_simulation(checkpoint_path(tmp_path, 2))
        assert list(collector.events) == plain_events
        assert _deterministic_metrics() == plain_metrics


class TestOnDiskFormat:
    def _one_checkpoint(self, tmp_path):
        machine = Machine(seed=SEED)
        workload = workload_for("barnes", True)
        total = machine.begin_workload(workload, ITERATIONS)
        machine.run_iteration(workload, 1)
        checkpoint = capture(machine, workload, 2, total)
        path = save_checkpoint(checkpoint, tmp_path / "ck.ckpt")
        return checkpoint, path

    def test_header_and_roundtrip(self, tmp_path):
        checkpoint, path = self._one_checkpoint(tmp_path)
        header, _payload = read_framed(
            path, CHECKPOINT_MAGIC, FORMAT_VERSION
        )
        assert header["format"] == FORMAT_VERSION
        assert header["next_iteration"] == 2
        assert header["fingerprint"] == checkpoint.fingerprint
        loaded = load_checkpoint(path)
        assert loaded.machine_state == checkpoint.machine_state
        assert loaded.next_iteration == 2
        assert loaded.total_iterations == ITERATIONS
        # Restoring rebuilds an identical machine, state-for-state.
        machine, _workload = restore(loaded)
        assert machine.snapshot_state() == checkpoint.machine_state

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not a pickle header")
        with pytest.raises(CheckpointError, match="unreadable|not a repro"):
            read_framed(path, CHECKPOINT_MAGIC, FORMAT_VERSION)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_corrupted_payload_fails_the_checksum(self, tmp_path):
        _checkpoint, path = self._one_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload bit; the header stays intact
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_checkpoint_from_before_check_invariants_removal_refused(
        self, tmp_path
    ):
        # Older builds hashed StacheOptions with a check_invariants field;
        # their checkpoints no longer match and fail loudly.
        from dataclasses import asdict

        checkpoint, path = self._one_checkpoint(tmp_path)
        header, payload = read_framed(path, CHECKPOINT_MAGIC, FORMAT_VERSION)
        old_options = {**asdict(checkpoint.options), "check_invariants": True}
        header["fingerprint"] = canonical_digest(
            {
                "format": FORMAT_VERSION,
                "params": asdict(checkpoint.params),
                "options": old_options,
                "seed": checkpoint.seed,
                "faults": None,
                "fault_seed": 0,
            }
        )
        write_framed(path, CHECKPOINT_MAGIC, FORMAT_VERSION, header, payload)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert info.value.cause == "fingerprint-mismatch"

    def test_fingerprint_separates_configurations(self):
        from repro.protocol.stache import DEFAULT_OPTIONS, StacheOptions

        base = config_fingerprint(PAPER_PARAMS, DEFAULT_OPTIONS, 0, None, 0)
        assert base == config_fingerprint(
            PAPER_PARAMS, DEFAULT_OPTIONS, 0, None, 0
        )
        assert base != config_fingerprint(
            PAPER_PARAMS, DEFAULT_OPTIONS, 1, None, 0
        )
        assert base != config_fingerprint(
            PAPER_PARAMS, StacheOptions(forwarding=True), 0, None, 0
        )
        assert base != config_fingerprint(
            PAPER_PARAMS, DEFAULT_OPTIONS, 0, PRESETS["light"], 0
        )

    def test_bad_interval_is_rejected(self):
        with pytest.raises(CheckpointError, match="interval"):
            simulate_with_checkpoints(
                workload_for("barnes", True), iterations=1, every=0
            )

    def test_latest_checkpoint_orders_by_iteration(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        _checkpoint, _path = self._one_checkpoint(tmp_path)
        checkpoint_path(tmp_path, 3).write_bytes(b"")
        checkpoint_path(tmp_path, 12).write_bytes(b"")
        assert latest_checkpoint(tmp_path) == checkpoint_path(tmp_path, 12)


# ----------------------------------------------------------------------
# hypothesis: predictor snapshot/restore is behaviourally invisible
# ----------------------------------------------------------------------

_tuples = st.tuples(
    st.integers(min_value=0, max_value=15),
    st.sampled_from(list(MessageType)),
)
_observations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7).map(lambda b: b * 128),
        _tuples,
    ),
    min_size=1,
    max_size=50,
)


@settings(max_examples=30, deadline=None)
@given(
    history=_observations,
    future=_observations,
    corrupt=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_predictor_snapshot_roundtrip_property(history, future, corrupt, seed):
    """serialize -> restore -> observe == never having serialized.

    Runs with and without corruption arming: the parity bits (including
    latently corrupted ones) and the injector's RNG stream must survive
    the pickle round trip so the restored predictor emits the same
    predictions, detections, and injections as the original.
    """
    config = CosmosConfig(depth=2, filter_max_count=1, mhr_capacity=4)

    def build():
        injector = (
            CorruptionInjector(
                CorruptionProfile(flip=0.05, loss=0.01), seed=seed
            )
            if corrupt
            else None
        )
        return CosmosPredictor(config, corruption=injector)

    original = build()
    for block, tup in history:
        original.observe(block, tup)
    state = pickle.loads(pickle.dumps(original.snapshot_state()))
    restored = build()
    restored.restore_state(state)
    assert restored.snapshot_state() == original.snapshot_state()
    for block, tup in future:
        assert restored.observe(block, tup) == original.observe(block, tup)
    assert restored.snapshot_state() == original.snapshot_state()
