"""Checkpoint/restore: byte-identical resume, durable format, failures.

The acceptance bar: a run interrupted at any checkpoint and
restored must produce byte-identical trace events and deterministic
metrics (counters and histograms; wall-clock timers and the checkpoint
machinery's own bookkeeping counters are exempt) to an uninterrupted
run.  The hypothesis property drives the predictor -- the deepest state
a checkpoint carries -- through random observe/pickle/unpickle/observe
schedules and demands exact behavioural equality.
"""

import gc
import pickle
import sys
from collections import deque
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CosmosConfig
from repro.core.corruption import CorruptionInjector, CorruptionProfile
from repro.core.eviction import EVICTION_POLICIES
from repro.core.predictor import CosmosPredictor
from repro.errors import CheckpointError, ProtocolError, SimulationError
from repro.experiments.common import workload_for
from repro.ioutil import canonical_digest, read_framed, write_framed
from repro.protocol.messages import MessageType
from repro.protocol.stache import DEFAULT_OPTIONS, StacheOptions
from repro.sim.checkpoint import (
    CHECKPOINT_MAGIC,
    FORMAT_VERSION,
    _default_reduce,
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
from repro.workloads import access as access_module
from repro.workloads.access import Access

ITERATIONS = 4
SEED = 7

#: Protocol and interconnect configurations a resume must survive.
CONFIGS = {
    "default": (DEFAULT_OPTIONS, None),
    "dash": (StacheOptions(half_migratory=False), None),
    "forwarding": (StacheOptions(forwarding=True), None),
    "finite": (StacheOptions(finite_caches=True), None),
    "light": (DEFAULT_OPTIONS, PRESETS["light"]),
}

#: (app, config, seed, resume after iteration).
RESUME_CASES = [
    *[("barnes", "default", SEED, at) for at in (1, 2, ITERATIONS - 1)],
    *[
        (app, "default", 0, 1)
        for app in ("moldyn", "appbt", "barnes", "dsmc", "unstructured")
    ],
    *[
        ("unstructured", config, 0, 1)
        for config in ("dash", "forwarding", "finite", "light")
    ],
]


def _deterministic_metrics():
    """Counters + histograms, minus wall-clock and checkpoint bookkeeping."""
    snapshot = METRICS.snapshot()
    counters = {
        name: value
        for name, value in snapshot["counters"].items()
        if not name.startswith("checkpoint.")
    }
    return counters, snapshot.get("histograms", {})


def _plain_run(faults=None, app="barnes", options=DEFAULT_OPTIONS,
               seed=SEED):
    METRICS.reset()
    collector = simulate(
        workload_for(app, True),
        iterations=ITERATIONS,
        options=options,
        seed=seed,
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

    @pytest.mark.parametrize("app, config, seed, resume_at", RESUME_CASES)
    def test_resume_from_any_checkpoint_is_byte_identical(
        self, tmp_path, app, config, seed, resume_at
    ):
        options, faults = CONFIGS[config]
        plain_events, plain_metrics = _plain_run(faults, app, options, seed)
        METRICS.reset()
        simulate_with_checkpoints(
            workload_for(app, True),
            iterations=ITERATIONS,
            options=options,
            seed=seed,
            faults=faults,
            fault_seed=11,
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


def _dict_backed(obj) -> bool:
    """Whether ``obj`` keeps its attributes in a materialised ``__dict__``.

    CPython 3.11+ stores a new instance's attributes inline and builds a
    ``__dict__`` only when something asks for it; on 3.11 and 3.12 every
    attribute access is slower from then on.  The referents are read
    first because reading ``obj.__dict__`` builds one.  An instance of a
    class with ``__slots__`` only has no ``__dict__`` to build.
    """
    if not type(obj).__dictoffset__:
        return False
    referents = gc.get_referents(obj)
    namespace = obj.__dict__
    return any(ref is namespace for ref in referents)


def _restored_objects(root):
    """The objects reachable from ``root`` that a checkpoint rebuilds
    attribute by attribute."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        cls = type(obj)
        if cls.__module__.startswith("repro."):
            if _default_reduce(cls) and cls.__dictoffset__:
                found.append(obj)
        elif not isinstance(obj, (list, tuple, dict, set, frozenset, deque)):
            continue
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="instances keep attributes inline only from CPython 3.11",
)
class TestRestoredLayout:
    """A restored machine keeps the inline attribute layout, so it runs
    as fast as one never checkpointed (``benchmarks/bench_checkpoint.py``
    times it)."""

    def test_restore_builds_no_instance_dicts(self):
        machine = Machine(seed=SEED)
        workload = workload_for("barnes", True)
        total = machine.begin_workload(workload, ITERATIONS)
        machine.run_iteration(workload, 1)
        restored = _restored_objects(
            restore(capture(machine, workload, 2, total))
        )
        assert {"Machine", "Engine", "Network", "CacheController",
                "DirectoryController", "TraceCollector"} <= {
            type(obj).__name__ for obj in restored
        }
        assert [type(obj).__name__ for obj in restored
                if _dict_backed(obj)] == []

    def test_checkpointing_run_continues_on_the_restored_copy(
        self, tmp_path
    ):
        # Capturing read the live collector's __dict__; the copy the run
        # went on with after its one checkpoint never had one.
        collector = simulate_with_checkpoints(
            workload_for("barnes", True),
            iterations=ITERATIONS,
            seed=SEED,
            checkpoint_dir=tmp_path,
            every=ITERATIONS - 1,
        )
        assert not _dict_backed(collector)


def test_capture_refuses_a_machine_stopped_mid_phase():
    """A pending event, an outstanding miss and an active directory
    transaction each make the machine non-quiescent."""

    def drop_pending_events(machine):
        # Lose every scheduled event; the protocol state stays as it is.
        machine.engine._queue.clear()
        machine.engine._fifo.clear()

    machine = Machine(seed=SEED)
    block = machine.params.page_bytes  # homed at node 1
    assert not machine.nodes[0].cache.access(block, 1, False, lambda: None)
    with pytest.raises(SimulationError, match="non-quiescent"):
        capture(machine, None, 1, 1)
    drop_pending_events(machine)
    with pytest.raises(ProtocolError, match="outstanding misses"):
        capture(machine, None, 1, 1)

    machine = Machine(seed=SEED)
    machine.nodes[0].cache.access(block, 1, False, lambda: None)
    machine.engine.run()
    # The home's own store must invalidate node 0's shared copy.
    assert not machine.nodes[1].directory.local_access(
        block, True, lambda: None
    )
    assert machine.nodes[1].directory.active_blocks() == [block]
    drop_pending_events(machine)
    with pytest.raises(ProtocolError, match="active or queued"):
        capture(machine, None, 1, 1)


class TestOnDiskFormat:
    def _one_checkpoint(self, tmp_path):
        machine = Machine(seed=SEED)
        workload = workload_for("barnes", True)
        total = machine.begin_workload(workload, ITERATIONS)
        machine.run_iteration(workload, 1)
        checkpoint = capture(machine, workload, 2, total)
        path = save_checkpoint(checkpoint, tmp_path / "ck.ckpt")
        return checkpoint, path, machine

    def test_header_and_roundtrip(self, tmp_path):
        checkpoint, path, original = self._one_checkpoint(tmp_path)
        header, _payload = read_framed(
            path, CHECKPOINT_MAGIC, FORMAT_VERSION
        )
        assert header["format"] == FORMAT_VERSION
        assert header["next_iteration"] == 2
        assert header["fingerprint"] == checkpoint.fingerprint
        loaded = load_checkpoint(path)
        assert loaded.image == checkpoint.image
        assert loaded.next_iteration == 2
        assert loaded.total_iterations == ITERATIONS
        # Every restore is a fresh copy of the captured machine.
        machine, _workload = restore(loaded)
        again, _workload = restore(loaded)
        assert machine is not again and machine is not original
        assert machine.engine.now == original.engine.now
        assert machine.collector.all_events == original.collector.all_events
        assert machine.access_latencies == original.access_latencies

    def test_checkpoint_from_before_the_pickled_machine_refused(
        self, tmp_path
    ):
        # Format 1 stored a plain dict of per-component snapshots.
        checkpoint, path, _machine = self._one_checkpoint(tmp_path)
        body = {"machine_state": {}, "workload": None, "metrics": {}}
        write_framed(
            path,
            CHECKPOINT_MAGIC,
            1,
            {
                "fingerprint": checkpoint.fingerprint,
                "next_iteration": 2,
                "total_iterations": ITERATIONS,
            },
            pickle.dumps(body),
        )
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert info.value.cause == "version-mismatch"

    def test_checkpoint_with_dataclass_accesses_refused(
        self, tmp_path, monkeypatch
    ):
        # Format 2 pickled the machine's pending streams of dataclass
        # Accesses, which the tuple Access cannot unpickle, so the file
        # must fail on its version before anything unpickles the image.
        @dataclass(frozen=True)
        class LegacyAccess:
            block: int
            is_write: bool

        LegacyAccess.__module__ = Access.__module__
        LegacyAccess.__qualname__ = "Access"
        with monkeypatch.context() as patch:
            patch.setattr(access_module, "Access", LegacyAccess)
            image = pickle.dumps([[LegacyAccess(64, False)]])
        with pytest.raises(TypeError):
            pickle.loads(image)
        checkpoint, path, _machine = self._one_checkpoint(tmp_path)
        legacy = replace(checkpoint, image=image)
        write_framed(
            path,
            CHECKPOINT_MAGIC,
            2,
            {
                "fingerprint": checkpoint.fingerprint,
                "next_iteration": 2,
                "total_iterations": ITERATIONS,
            },
            pickle.dumps(legacy),
        )
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert info.value.cause == "version-mismatch"

    def test_checkpoint_from_before_the_row_only_collector_refused(
        self, tmp_path
    ):
        # Format 3 pickled the collector together with its materialised
        # event cache; the file is refused on its version, by name.
        checkpoint, path, _machine = self._one_checkpoint(tmp_path)
        _header, payload = read_framed(path, CHECKPOINT_MAGIC, FORMAT_VERSION)
        write_framed(
            path,
            CHECKPOINT_MAGIC,
            3,
            {
                "fingerprint": checkpoint.fingerprint,
                "next_iteration": 2,
                "total_iterations": ITERATIONS,
            },
            payload,
        )
        with pytest.raises(CheckpointError, match="format 3.*format 4") as info:
            load_checkpoint(path)
        assert info.value.cause == "version-mismatch"

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
        _checkpoint, path, _machine = self._one_checkpoint(tmp_path)
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

        checkpoint, path, _machine = self._one_checkpoint(tmp_path)
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
        self._one_checkpoint(tmp_path)
        checkpoint_path(tmp_path, 3).write_bytes(b"")
        checkpoint_path(tmp_path, 12).write_bytes(b"")
        assert latest_checkpoint(tmp_path) == checkpoint_path(tmp_path, 12)


# ----------------------------------------------------------------------
# hypothesis: a predictor pickle round trip is behaviourally invisible
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
    policy=st.sampled_from(EVICTION_POLICIES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_predictor_snapshot_roundtrip_property(
    history, future, corrupt, policy, seed
):
    """pickle -> unpickle -> observe == never having pickled.

    Runs with and without corruption arming, under every eviction
    policy: the parity bits (including latently corrupted ones), the
    injector's RNG stream and the eviction order must survive the pickle
    round trip so the restored predictor emits the same predictions,
    detections, injections and evictions as the original.
    """
    config = CosmosConfig(
        depth=2,
        filter_max_count=1,
        mhr_capacity=4,
        pht_capacity=6,
        eviction=policy,
    )

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
    restored = pickle.loads(pickle.dumps(original))
    assert pickle.dumps(restored) == pickle.dumps(original)
    for block, tup in future:
        assert restored.observe(block, tup) == original.observe(block, tup)
    assert pickle.dumps(restored) == pickle.dumps(original)
