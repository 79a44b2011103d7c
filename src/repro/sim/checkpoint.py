"""Checkpoint/restore of quiescent simulations.

A :class:`~repro.sim.machine.Machine` is checkpointable exactly at
iteration boundaries: the event queue is empty, no cache has an
outstanding miss, and no directory holds an active or queued
transaction.  No live callback is then in flight, so the machine
pickles as it stands -- clock, sequence counters, protocol state, the
trace collected so far and the think-time/fault RNG streams included.
:func:`capture` checks quiescence and pickles the machine together with
its workload into a :class:`Checkpoint`; :func:`restore` unpickles a
fresh machine that continues *bit-for-bit* where the captured one
stopped: a run resumed from checkpoint N produces byte-identical traces
and (deterministic) metrics to an uninterrupted run.

On disk a checkpoint is two pickle frames
(:func:`repro.ioutil.write_framed`): a small header (format version, a
CRC-32 of the payload, a configuration fingerprint) and the pickled
:class:`Checkpoint`.  Writes
are atomic (temp file + ``os.replace``), so a checkpoint either
exists completely or not at all; loads verify the checksum and raise
:class:`~repro.errors.CheckpointError` on any mismatch -- a restored run
must never continue from silently corrupted state.

Drivers: :func:`simulate_with_checkpoints` runs a workload writing a
checkpoint every N iterations; :func:`resume_simulation` picks up from a
checkpoint file and finishes the run.  Both are surfaced through the
CLI: ``repro-trace simulate --checkpoint-dir DIR`` and
``repro-trace resume DIR/checkpoint-NNNN.ckpt``.
"""

from __future__ import annotations

import functools
import io
import pickle
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

from ..errors import CheckpointError, SimulationError
from ..ioutil import (
    canonical_digest,
    load_newest_valid,
    read_framed,
    write_framed,
)
from ..protocol.stache import DEFAULT_OPTIONS, StacheOptions
from ..trace.collector import TraceCollector
from ..workloads.base import Workload
from .faults import FaultProfile
from .machine import Machine
from .metrics import METRICS
from .params import SystemParams

#: Bump when the checkpoint body or the simulator's semantics change:
#: old checkpoints then refuse to load instead of resuming wrongly.
#: Format 3: :class:`~repro.workloads.access.Access` (pickled with the
#: machine's pending access streams) is a tuple, no longer a dataclass.
#: Format 4: the pickled :class:`~repro.trace.collector.TraceCollector`
#: holds only its rows, iteration and start-up boundary.
#: Format 5: ``Machine.access_latencies`` is one ``array("q")`` of
#: latencies, no longer a list of ``(latency, was_miss)`` tuples.
FORMAT_VERSION = 5

CHECKPOINT_MAGIC = "repro-checkpoint"


def config_fingerprint(
    params: SystemParams,
    options: StacheOptions,
    seed: int,
    faults: Optional[FaultProfile],
    fault_seed: int,
) -> str:
    """Hash of everything that must match for a resume to be sound.

    A checkpoint restored into a machine built with different parameters
    would silently diverge from the uninterrupted run; the fingerprint
    turns that into a loud :class:`~repro.errors.CheckpointError`.
    """
    descriptor = {
        "format": FORMAT_VERSION,
        "params": asdict(params),
        "options": asdict(options),
        "seed": seed,
        "faults": faults.spec() if faults is not None else None,
        "fault_seed": fault_seed,
    }
    return canonical_digest(descriptor)


@dataclass
class Checkpoint:
    """One quiescent machine, ready to be serialized or resumed."""

    params: SystemParams
    options: StacheOptions
    seed: int
    faults: Optional[FaultProfile]
    fault_seed: int
    #: The first iteration the resumed run should execute (1-based).
    next_iteration: int
    total_iterations: int
    #: ``(machine, workload)``, pickled at capture time.  The workload
    #: is the object *after* ``setup`` ran, so the resumed run keeps the
    #: memory layout the captured run was using.
    image: bytes
    #: ``METRICS.snapshot()`` at capture time, so a resumed run's final
    #: metrics equal the uninterrupted run's (timers keep accumulating
    #: real wall time and are exempt from the byte-identity guarantee).
    metrics: dict

    @property
    def fingerprint(self) -> str:
        return config_fingerprint(
            self.params, self.options, self.seed, self.faults, self.fault_seed
        )


@functools.lru_cache(maxsize=None)
def _default_reduce(cls: type) -> bool:
    """Whether instances of this package's ``cls`` keep a ``__dict__``
    and pickle through ``object``'s default reduction."""
    return (
        cls.__module__.startswith("repro.")
        and cls.__dictoffset__ != 0
        and cls.__reduce_ex__ is object.__reduce_ex__
        and cls.__reduce__ is object.__reduce__
        and not hasattr(cls, "__setstate__")
    )


def _set_attributes(obj, state: dict) -> None:
    for name, value in state.items():
        object.__setattr__(obj, name, value)


class _Pickler(pickle.Pickler):
    """Pickles this package's plain objects to unpickle attribute by
    attribute.

    CPython 3.11 and 3.12 keep an instance's attributes in a compact
    layout until something reads its ``__dict__``; from then on every
    attribute access takes a slower dictionary path.  Pickle's default
    restore fills ``__dict__`` directly, which left a restored machine
    about a quarter slower for the rest of its run.  Setting the
    attributes one by one keeps the compact layout.
    """

    def reducer_override(self, obj):
        if not _default_reduce(type(obj)):
            return NotImplemented
        reduced = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        if not isinstance(reduced[2], dict):
            return NotImplemented
        return reduced[:5] + (_set_attributes,)


def _image(machine: Machine, workload: Workload) -> bytes:
    buffer = io.BytesIO()
    _Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(
        (machine, workload)
    )
    return buffer.getvalue()


def capture(
    machine: Machine,
    workload: Workload,
    next_iteration: int,
    total_iterations: int,
) -> Checkpoint:
    """Capture ``machine`` at a quiescent point into a :class:`Checkpoint`.

    Raises :class:`~repro.errors.SimulationError` if events are pending
    and :class:`~repro.errors.ProtocolError` if a miss is outstanding or
    a directory transaction is active or queued.  An empty engine also
    means an exploring network's pool is empty: a pooled message always
    has a drain scheduled.
    """
    with METRICS.timer("checkpoint.capture"):
        if machine.engine.pending():
            raise SimulationError(
                f"cannot checkpoint a non-quiescent machine: "
                f"{machine.engine.pending()} events pending "
                f"({machine.engine.describe_pending()})"
            )
        machine.assert_quiescent()
        return Checkpoint(
            params=machine.params,
            options=machine.options,
            seed=machine.seed,
            faults=machine.faults,
            fault_seed=machine.fault_seed,
            next_iteration=next_iteration,
            total_iterations=total_iterations,
            image=_image(machine, workload),
            metrics=METRICS.snapshot(),
        )


def restore(
    checkpoint: Checkpoint, watchdog=None
) -> Tuple[Machine, Workload]:
    """Rebuild the captured machine; returns ``(machine, workload)``.

    Every call unpickles a fresh machine, so one checkpoint can seed
    many runs (an exploration fork restores the same prefix for every
    episode).  The machine comes back with its own configuration and
    interconnect; pickling dropped the watchdog and delivery hooks, and
    the restored machine takes ``watchdog`` and the OBS clock.
    """
    machine, workload = _thaw(checkpoint, watchdog)
    if watchdog is not None:
        # A restore is the start of a fresh run segment: budgets that
        # measure real time or progress must count from *now*, not
        # from whenever the captured run began.
        watchdog.arm()
    return machine, workload


def _thaw(checkpoint: Checkpoint, watchdog) -> Tuple[Machine, Workload]:
    with METRICS.timer("checkpoint.restore"):
        machine, workload = pickle.loads(checkpoint.image)
        machine.attach(watchdog)
    return machine, workload


# ----------------------------------------------------------------------
# on-disk format
# ----------------------------------------------------------------------


def save_checkpoint(
    checkpoint: Checkpoint, path: Union[str, Path]
) -> Path:
    """Atomically write ``checkpoint`` to ``path``; returns the path."""
    with METRICS.timer("checkpoint.save"):
        payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
        write_framed(
            path,
            CHECKPOINT_MAGIC,
            FORMAT_VERSION,
            {
                "fingerprint": checkpoint.fingerprint,
                "next_iteration": checkpoint.next_iteration,
                "total_iterations": checkpoint.total_iterations,
            },
            payload,
        )
    METRICS.inc("checkpoint.saved")
    return Path(path)


def load_checkpoint(path: Union[str, Path]) -> Checkpoint:
    """Load and verify a checkpoint written by :func:`save_checkpoint`.

    Unlike a trace-cache miss, a bad checkpoint is an *error*: the
    caller asked to resume from this specific state, and resuming from
    anything else (or silently restarting) would be wrong.  Every
    failure mode -- truncation, bit rot, a stale format version, a
    checksum mismatch -- raises :class:`~repro.errors.CheckpointError`
    naming the file and carrying a named ``cause`` (see
    :func:`read_framed`).  Callers with older checkpoints on disk can
    fall back with :func:`load_latest_checkpoint`.
    """
    target = Path(path)
    with METRICS.timer("checkpoint.load"):
        header, payload = read_framed(
            target, CHECKPOINT_MAGIC, FORMAT_VERSION
        )
        try:
            checkpoint = pickle.loads(payload)
        except Exception as exc:
            raise CheckpointError(
                f"cannot unpickle checkpoint body in {target}: {exc}",
                cause="unreadable-body",
            ) from exc
    if checkpoint.fingerprint != header.get("fingerprint"):
        raise CheckpointError(
            f"configuration fingerprint mismatch in {target}: header says "
            f"{header.get('fingerprint')!r} but the body hashes to "
            f"{checkpoint.fingerprint!r}",
            cause="fingerprint-mismatch",
        )
    METRICS.inc("checkpoint.loaded")
    return checkpoint


def checkpoint_path(directory: Union[str, Path], iteration: int) -> Path:
    """Canonical file name for the checkpoint taken *after* ``iteration``."""
    return Path(directory) / f"checkpoint-{iteration:04d}.ckpt"


def latest_checkpoint(directory: Union[str, Path]) -> Optional[Path]:
    """The newest checkpoint in ``directory`` (by iteration number)."""
    candidates = sorted(Path(directory).glob("checkpoint-*.ckpt"))
    return candidates[-1] if candidates else None


def load_latest_checkpoint(
    directory: Union[str, Path],
) -> Tuple[Checkpoint, Path, Tuple[Tuple[Path, CheckpointError], ...]]:
    """The newest checkpoint in ``directory`` that loads cleanly.

    Candidates are tried newest-iteration first; a truncated or corrupt
    newer file is skipped (with its named cause preserved in the third
    element of the result) and the next older one is tried, so losing
    the tail of the newest checkpoint costs one checkpoint interval,
    never the whole run.
    """
    candidates = sorted(Path(directory).glob("checkpoint-*.ckpt"),
                        reverse=True)
    if not candidates:
        raise CheckpointError(
            f"no checkpoints in {directory}", cause="no-valid-checkpoint"
        )
    loaded, path, skipped = load_newest_valid(candidates, load_checkpoint)
    assert isinstance(loaded, Checkpoint)
    return loaded, path, skipped


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------


def simulate_with_checkpoints(
    workload: Workload,
    iterations: Optional[int] = None,
    options: StacheOptions = DEFAULT_OPTIONS,
    seed: int = 0,
    faults: Optional[FaultProfile] = None,
    fault_seed: int = 0,
    checkpoint_dir: Union[str, Path, None] = None,
    every: int = 1,
    watchdog=None,
) -> TraceCollector:
    """Run ``workload`` on the paper's machine, writing a checkpoint every
    ``every`` iterations.

    With ``checkpoint_dir=None`` this degrades to a plain
    :func:`~repro.sim.machine.simulate` (the split driving loop is
    byte-identical to the original single loop).
    """
    if every < 1:
        raise CheckpointError(f"checkpoint interval must be >= 1, got {every}")
    machine = Machine(
        options=options,
        seed=seed,
        faults=faults,
        fault_seed=fault_seed,
        watchdog=watchdog,
    )
    total = machine.begin_workload(workload, iterations)
    return _finish(machine, workload, 1, total, checkpoint_dir, every)


def resume_simulation(
    path: Union[str, Path],
    checkpoint_dir: Union[str, Path, None] = None,
    every: int = 1,
    watchdog=None,
) -> TraceCollector:
    """Finish the run captured in the checkpoint at ``path``.

    Runs iterations ``next_iteration..total_iterations`` and returns the
    complete trace collector -- byte-identical to the uninterrupted
    run's.  The global metrics registry is reset to the checkpoint's
    snapshot first, so counter and histogram totals also match the
    uninterrupted run.  Pass a ``checkpoint_dir`` to keep writing
    checkpoints while finishing.
    """
    checkpoint = load_checkpoint(path)
    METRICS.reset()
    METRICS.merge(checkpoint.metrics)
    machine, workload = restore(checkpoint, watchdog=watchdog)
    return _finish(
        machine,
        workload,
        checkpoint.next_iteration,
        checkpoint.total_iterations,
        checkpoint_dir,
        every,
    )


def _finish(
    machine: Machine,
    workload: Workload,
    first: int,
    total: int,
    checkpoint_dir: Union[str, Path, None],
    every: int,
) -> TraceCollector:
    """Run iterations ``first..total``, checkpointing every ``every``.

    After each checkpoint with iterations left to run, the run continues
    on a machine unpickled from it: pickling read every live object's
    ``__dict__``, which leaves the live machine on the slow attribute
    path (see :class:`_Pickler`).
    """
    for index in range(first, total + 1):
        machine.run_iteration(workload, index)
        if checkpoint_dir is not None and index % every == 0:
            checkpoint = capture(machine, workload, index + 1, total)
            save_checkpoint(checkpoint, checkpoint_path(checkpoint_dir, index))
            if index < total:
                machine, workload = _thaw(checkpoint, machine.watchdog)
    return machine.finish_workload()
