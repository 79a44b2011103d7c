"""The shard worker process: predictor banks behind a pipe.

One worker owns one shard's slice of every tenant's blocks, as a bank
of per-tenant :class:`~repro.core.predictor.CosmosPredictor` instances.
The loop is deliberately single-threaded and synchronous: receive one
observation, run the fused predict/score/train hot path, maybe
checkpoint, respond.  The pipe is FIFO, so the shard's training order
*is* its admission order -- the property every recovery guarantee in
this package leans on.

The pipe protocol is small, and binary: each message is one frame, a
4-byte big-endian payload length, a one-byte kind tag, then a fixed
:mod:`struct` layout (the layouts below, shared with the supervisor).
Once warm-restored, the worker speaks first: ``ready`` with its
trained count.  After that every request is an ``observe`` (answered
``observed``; an outbox replay after a restore is an ordinary
observation) or a ``ping`` (answered ``pong``, which carries the memory
report).  There is no stop message: the supervisor ends a worker with
SIGKILL, and its state is in the checkpoints.  Nothing on the pipe is
pickled: a frame is packed in one ``struct`` call, written with one
``os.write`` and read with one ``os.read`` (more only if the frame
arrives in parts).  An unknown tag is a bug, and the worker dies on it.

Determinism around crashes comes from careful sequencing per
observation: **train, stall (chaos), checkpoint, respond, die
(chaos)**.  A scripted kill fires only after the response for its
observation is in the pipe (:func:`write_frame` returns only once the
whole frame is written), so the supervisor always knows exactly how far
a dead worker got; and scripted faults fire only in a worker's first
incarnation (``epoch == 0``), so a restored worker replaying the same
ordinals does not die in a loop.

Workers run in ``spawn`` processes (fresh interpreters, same as
:mod:`repro.parallel.pool`) and seed ambient randomness from
:func:`~repro.parallel.seeds.derive_seed` on their shard identity.
"""

from __future__ import annotations

import os
import random
import signal
import struct
import time
from typing import Dict, Tuple

from ..core.config import CosmosConfig
from ..core.memory import MemoryTotals, memory_report
from ..core.predictor import CosmosPredictor
from ..errors import ServeError
from ..parallel.seeds import derive_seed
from ..sim.metrics import METRICS
from .config import ServeConfig
from .state import load_latest_shard_state, save_shard_checkpoint

# ----------------------------------------------------------------------
# pipe frames
# ----------------------------------------------------------------------
#
# Every layout starts with the frame header: the payload length (which
# excludes these 4 bytes) and the kind tag.  Integers are big-endian
# int64 unless noted.

#: The frame header's length prefix alone.
LENGTH = struct.Struct(">I")

#: Tags, the first payload byte.
OBSERVE_TAG = ord("o")
PING_TAG = ord("p")
READY_TAG = ord("r")
OBSERVED_TAG = ord("O")
PONG_TAG = ord("P")

#: supervisor -> worker: seq, block, word (uint16); the tenant follows
#: as UTF-8, to the end of the frame.
OBSERVE = struct.Struct(">IBqqH")
#: supervisor -> worker: the tag only.
PING_FRAME = struct.pack(">IB", 1, PING_TAG)
#: worker -> supervisor, first frame of each worker: trained.
READY = struct.Struct(">IBq")
#: worker -> supervisor: seq, predicted (-1: none), trained, ckpt, and
#: whether this observation evicted predictor state.
OBSERVED = struct.Struct(">IBqqqq?")

#: The memory report's keys (:meth:`ShardBanks.memory`), in frame order.
MEMORY_KEYS = (
    "tenants",
    "mhr_live",
    "pht_live",
    "peak_mhr",
    "peak_pht",
    "evictions_mhr",
    "evictions_pht",
    "bytes_est",
    "peak_bytes_est",
)
#: The memory report, after :data:`OBSERVED` under tenant budgets.
MEMORY = struct.Struct(">%dq" % len(MEMORY_KEYS))
#: An ``observed`` frame with the memory report.
OBSERVED_MEMORY = struct.Struct(OBSERVED.format + MEMORY.format[1:])
#: worker -> supervisor: trained, then the memory report.
PONG = struct.Struct(READY.format + MEMORY.format[1:])

#: The most one ``os.read`` takes; a longer frame takes more reads.
READ_SIZE = 64 * 1024


def write_frame(fd: int, frame: bytes) -> None:
    """Write ``frame`` whole: one ``os.write``, more only on a short one."""
    written = os.write(fd, frame)
    while written < len(frame):
        written += os.write(fd, frame[written:])


def read_frame(fd: int) -> bytes:
    """Read one whole frame, header included, from ``fd``.

    One ``os.read`` unless the frame arrives in parts.  Raises
    :class:`EOFError` when the pipe closes, before or within a frame.
    """
    frame = os.read(fd, READ_SIZE)
    while len(frame) < 4 or len(frame) < 4 + LENGTH.unpack_from(frame)[0]:
        more = os.read(fd, READ_SIZE)
        if not more:
            raise EOFError(
                "pipe closed mid-frame" if frame else "pipe closed"
            )
        frame += more
    return frame


class ShardBanks:
    """One shard's per-tenant predictor banks and their memory report.

    Under a memory budget every response carries the report, so its
    totals are kept running: each observation counts its tenant's bank
    out before training and back in after, in O(1) however many tenants
    the shard holds.  Unbudgeted workers report only on ``pong``, and
    sum the banks then.
    """

    def __init__(
        self, pconfig: CosmosConfig, restored: Dict[str, CosmosPredictor]
    ) -> None:
        self.pconfig = pconfig
        self.banks = restored
        for tenant, bank in restored.items():
            if bank.config != pconfig:
                # Budgets are not in the fingerprint, so the checkpoint
                # may predate this budget or policy: take its tables
                # over and evict down to the budget now rather than
                # serving over it until traffic happens by.
                predictor = self.banks[tenant] = CosmosPredictor(pconfig)
                predictor.adopt(bank)
                predictor.enforce_capacity()
        self._totals = (
            MemoryTotals(pconfig, self.banks.values())
            if pconfig.mhr_capacity or pconfig.pht_capacity
            else None
        )

    def observe(self, tenant: str, block: int, word: int) -> Tuple[int, bool]:
        """Train ``tenant``'s bank: ``(prediction, evicted)``."""
        predictor = self.banks.get(tenant)
        if predictor is None:
            predictor = self.banks[tenant] = CosmosPredictor(self.pconfig)
        totals = self._totals
        if totals is not None:
            totals.add(predictor, -1)
        evictions = predictor.evictions_mhr + predictor.evictions_pht
        predicted = predictor.observe_word(block, word)
        if totals is not None:
            totals.add(predictor)
        return predicted, (
            predictor.evictions_mhr + predictor.evictions_pht
        ) != evictions

    def memory(self) -> dict:
        """This shard's predictor memory, over its tenant banks."""
        if self._totals is not None:
            report = self._totals.report()
        else:
            report = memory_report(self.pconfig, self.banks.values())
        return {"tenants": len(self.banks), **report}


def worker_main(
    conn,
    shard: int,
    config: ServeConfig,
    checkpoint_dir: str,
    epoch: int,
    chaos: dict,
) -> None:
    """Entry point of one shard worker process.

    ``conn`` is the child end of a duplex pipe; only its file
    descriptor is used.  The worker first warm-restores from the newest
    valid shard checkpoint, then announces its trained count in a
    ``ready`` frame so the supervisor knows where outbox replay must
    start, then serves observations and pings until the pipe closes (the
    supervisor ends a worker with SIGKILL).
    """
    # Workers must not inherit the parent's interrupt handling: the
    # supervisor owns worker lifetime (SIGKILL).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    METRICS.reset()
    random.seed(derive_seed("serve-shard", str(shard), None, config.seed))
    fingerprint = config.fingerprint()
    pconfig = config.predictor_config()
    bounded = bool(config.tenant_mhr_budget or config.tenant_pht_budget)
    trained, restored, _path = load_latest_shard_state(
        checkpoint_dir, shard, fingerprint
    )
    banks = ShardBanks(pconfig, restored)
    last_checkpoint = trained

    kill_at = set(chaos.get("kill_at", ())) if epoch == 0 else set()
    stall_at = dict(chaos.get("stall_at", {})) if epoch == 0 else {}

    fd = conn.fileno()
    write_frame(fd, READY.pack(READY.size - 4, READY_TAG, trained))
    while True:
        try:
            frame = read_frame(fd)
        except (EOFError, OSError):
            return
        tag = frame[4]
        if tag == PING_TAG:
            memory = banks.memory()
            write_frame(
                fd,
                PONG.pack(
                    PONG.size - 4,
                    PONG_TAG,
                    trained,
                    *[memory[key] for key in MEMORY_KEYS],
                ),
            )
            continue
        if tag != OBSERVE_TAG:
            raise ServeError(f"unknown pipe frame tag {tag}")
        _size, _tag, seq, block, word = OBSERVE.unpack_from(frame)
        # observe: train first -- state advances even if everything
        # after this line dies, which is what makes the supervisor's
        # "response received == training happened" accounting exact
        # in the other direction: no response, no harm in replaying.
        predicted, evicting = banks.observe(
            frame[OBSERVE.size:].decode("utf-8"), block, word
        )
        trained += 1
        stall_s = stall_at.get(trained)
        if stall_s:
            time.sleep(stall_s)
        if trained % config.checkpoint_every == 0:
            save_shard_checkpoint(
                checkpoint_dir, shard, trained, fingerprint, banks.banks
            )
            last_checkpoint = trained
        if bounded:
            memory = banks.memory()
            response = OBSERVED_MEMORY.pack(
                OBSERVED_MEMORY.size - 4,
                OBSERVED_TAG,
                seq,
                predicted,
                trained,
                last_checkpoint,
                evicting,
                *[memory[key] for key in MEMORY_KEYS],
            )
        else:
            response = OBSERVED.pack(
                OBSERVED.size - 4,
                OBSERVED_TAG,
                seq,
                predicted,
                trained,
                last_checkpoint,
                evicting,
            )
        write_frame(fd, response)
        if trained in kill_at:
            # The response above is already written into the pipe; this
            # models a crash *between* serving and the next request.
            os.kill(os.getpid(), signal.SIGKILL)
