"""The shard supervisor: spawn, watch, kill, restore, re-admit.

One :class:`ShardSupervisor` owns the worker-process pool and drives
every worker's duplex pipe from the front-end's event loop, for the
worker's whole life: its ready handshake, the replay that catches a
replacement up, observations and pings.  Per shard it keeps a FIFO of
admitted requests and lets at most one of them sit in the pipe: the
loop sends it, a reader callback on the pipe (``loop.add_reader``)
takes the answer, sends the next, and only then hands the answer to
the request's callback.  The pipe then never holds more than one small
message, so a send on the loop cannot block, and the FIFO order *is*
the shard's training order.  Each shard also has a circuit breaker:

* **CLOSED** -- healthy; observations flow through the bounded queue.
* **OPEN** -- the worker crashed (pipe EOF) or blew its hang budget
  (``hang_timeout_ms`` of wall clock for the request in the pipe,
  kept by one lazily re-armed loop timer per shard) and was
  SIGKILLed.  Admissions are recorded in the shard's outbox but
  answered degraded by the front-end.  Once the
  loop sees the dead worker's sentinel it reaps it and spawns a
  replacement, which warm-restores from the newest valid checkpoint;
  the pipe then replays the outbox tail into it, one entry at a time,
  so no admitted learning is lost.  The breaker closes again as soon
  as the replacement holds every admitted ordinal.

A worker reports through pongs alone: :meth:`ShardSupervisor.ping`,
which every ``stat`` calls, puts one ping at the head of each closed
shard's queue, and the pong carries the worker's memory report.

The pipe carries the binary frames of :mod:`repro.serve.worker`, each
written with one ``os.write`` and read with one ``os.read``.  The frame
I/O is done inline in this module's methods, not through helpers, so
that its cost is this layer's in a profile and adds no call per
observation.

Every admitted observation gets a shard-local ordinal; the outbox keeps
its observe frame back to one checkpoint interval behind the worker's
last *reported* checkpoint, which is exactly enough to warm-restore
even when the newest interval-log record is torn.  Worker deaths leave
a forensic bundle
(JSON, via :func:`repro.obs.bundle.save_bundle`) next to the
checkpoints.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from collections import deque
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Deque, List, Optional, Tuple

from ..errors import ServeError
from ..obs.bundle import save_bundle
from ..obs.log import OBS
from ..sim.metrics import METRICS
from .chaos import ChaosScript
from .config import ServeConfig
from .timer import LazyTimer
from .worker import (
    LENGTH,
    MEMORY_KEYS,
    OBSERVE,
    OBSERVE_TAG,
    OBSERVED,
    OBSERVED_TAG,
    PING_FRAME,
    PONG,
    PONG_TAG,
    READ_SIZE,
    READY,
    READY_TAG,
    worker_main,
)

CLOSED = "closed"
OPEN = "open"

#: How long a spawned worker may take to import, warm-restore and send
#: its ready handshake.  Start-up is not an observation, so the hang
#: budget does not apply; this bound only catches a worker that is alive
#: but wedged, far above any real start-up (about half a second).  A
#: worker that dies during start-up fails at once (pipe EOF), not after
#: this wait.
READY_TIMEOUT_S = 60.0

#: Admitted-but-unshipped observations tolerated while a shard is down
#: (the replay outbox); beyond this, admission sheds load.
MAX_BACKLOG = 512


class WorkerDown(ServeError):
    """The owning worker died or hung while holding this request.

    Internal to the service: for an observation the front-end answers
    degraded, and the observation itself is safe in the shard outbox
    and will be replayed into the restored worker; a ``stat`` stops
    waiting for a lost ping.
    """


class Backpressure(ServeError):
    """Admission refused: the shard's queue or backlog is full.

    Internal to the service: the front-end catches it and answers
    ``RETRY_AFTER``.  The observation was *not* admitted (no ordinal,
    no training anywhere), so the client's retry is not a duplicate.
    """


#: Receives a request's outcome: an admitted observation's answer as
#: ``{"predicted": word, "evicting": bool}``, a ping's memory report,
#: or the :class:`WorkerDown` that lost either.
Callback = Callable[[object], None]

#: One outbox entry: an observation's shard ordinal and its observe frame.
_Entry = Tuple[int, bytes]

#: One request waiting for, or sitting in, a worker's pipe: the entry
#: and the callback its answer goes to (``None`` for a replayed
#: observation or the ready handshake).
_Request = Tuple[_Entry, Optional[Callback]]

_PING = (0, PING_FRAME)

#: Sits in a fresh worker's pipe slot until its ready handshake arrives;
#: never sent (the worker speaks first).
_READY = (0, b"")


class _Shard:
    """Mutable per-shard bookkeeping, all of it owned by the loop."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.state = OPEN  # until the first worker is caught up
        self.epoch = 0
        self.ordinal = 0  # last admitted ordinal (1-based counter)
        self.inflight = 0
        self.trained = 0  # last trained count reported by the worker
        #: While OPEN: the last ordinal the current worker holds (its
        #: restored checkpoint, then each replayed entry).
        self.held = 0
        #: The observations admitted since one checkpoint interval
        #: behind the worker's last reported checkpoint, oldest first.
        self.outbox: Deque[_Entry] = deque()
        self.proc = None
        #: The worker's pipe while the loop drives it; ``None`` from a
        #: failure until the replacement is spawned.
        self.conn = None
        #: The pipe's file descriptor, which the frames go through.
        self.fd = -1
        #: Requests waiting for the pipe, oldest first.
        self.pending: Deque[_Request] = deque()
        #: The one request in the pipe, and the timer that enforces its
        #: hang budget (or the ready timeout); set by ``start``.
        self.sent: Optional[_Request] = None
        self.hang: Optional[LazyTimer] = None
        self.restores = 0
        self.breaker_opened = 0
        self.breaker_closed = 0
        #: The last predictor-memory report a pong brought (``None``
        #: until one does).
        self.mem: Optional[dict] = None


class ShardSupervisor:
    """Owns the worker pool; the front-end talks to shards through it."""

    def __init__(
        self,
        config: ServeConfig,
        chaos: Optional[ChaosScript] = None,
        checkpoint_dir=None,
    ) -> None:
        self.config = config
        self.chaos = chaos if chaos is not None else ChaosScript()
        self._ctx = get_context("spawn")
        self._tmpdir = None
        if checkpoint_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            checkpoint_dir = self._tmpdir.name
        self.checkpoint_dir = Path(checkpoint_dir)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        # Wall seconds one observation round trip may take.
        self._hang_s = config.hang_timeout_ms / 1_000.0
        self._shards = [_Shard(index) for index in range(config.shards)]
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Resolved once every first-incarnation worker is caught up.
        self._started: Optional[asyncio.Future] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Spawn every shard worker, then await all ready handshakes.

        Raises :class:`~repro.errors.ServeError` (after tearing the pool
        down) if a worker dies or wedges during start-up.
        """
        self._loop = asyncio.get_running_loop()
        self._started = self._loop.create_future()
        for shard in self._shards:
            shard.hang = LazyTimer(self._loop, self._fail_shard, shard)
            self._spawn(shard, epoch=0)
        try:
            await self._started
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Tear the pool down (SIGKILL; state is in the checkpoints)."""
        self._stopping = True
        for shard in self._shards:
            if shard.conn is not None:
                self._detach(shard)
            self._fail(self._take_requests(shard), "service stopping")
            proc = shard.proc
            if proc is None:
                continue
            self._loop.remove_reader(proc.sentinel)  # a pending reap
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=10)
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def _spawn(self, shard: _Shard, epoch: int) -> None:
        """Start one worker and drive its pipe; its handshake comes next."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        actions = (
            self.chaos.worker_actions(shard.index)
            if epoch == 0
            else {"kill_at": (), "stall_at": {}}
        )
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                shard.index,
                self.config,
                str(self.checkpoint_dir),
                epoch,
                actions,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        shard.proc = proc
        shard.epoch = epoch
        shard.conn = parent_conn
        shard.fd = parent_conn.fileno()
        self._loop.add_reader(shard.fd, self._on_readable, shard)
        shard.sent = (_READY, None)
        shard.hang.arm(self._loop.time() + READY_TIMEOUT_S)

    # ------------------------------------------------------------------
    # admission (called from the front-end's event loop)
    # ------------------------------------------------------------------

    def try_submit(
        self, index: int, tenant: str, block: int, word: int, done: Callback
    ) -> Tuple[int, bool]:
        """Admit one observation into shard ``index``.

        Returns ``(ordinal, queued)``.  A queued observation's outcome
        goes to ``done``, never before this call returns: the worker's
        answer (see :data:`Callback`), or a :class:`WorkerDown`.  Not
        queued means the breaker is open: the observation is safely in
        the outbox (it will train on restore), ``done`` is never called,
        and the caller must answer degraded right now.  Raises
        :class:`Backpressure` when admission would exceed the queue
        depth or the outbox backlog bound -- in that case *nothing* was
        admitted.
        """
        shard = self._shards[index]
        if len(shard.outbox) >= MAX_BACKLOG:
            METRICS.inc("serve.shed.backlog")
            raise Backpressure(f"shard {index} backlog full")
        if shard.state != OPEN and shard.inflight >= self.config.queue_depth:
            METRICS.inc("serve.shed.queue")
            self._drain(shard)
            raise Backpressure(f"shard {index} queue full")
        # Packed before anything is counted: a value the frame cannot
        # carry raises with nothing admitted.
        ordinal = shard.ordinal + 1
        data = tenant.encode("utf-8")
        entry = (
            ordinal,
            OBSERVE.pack(
                OBSERVE.size - 4 + len(data), OBSERVE_TAG, ordinal, block, word
            )
            + data,
        )
        shard.ordinal = ordinal
        shard.outbox.append(entry)
        if shard.state == OPEN:
            METRICS.inc("serve.admit.buffered")
            return ordinal, False
        shard.inflight += 1
        shard.pending.append((entry, done))
        METRICS.inc("serve.admit.queued")
        self._send_next(shard)
        return ordinal, True

    # ------------------------------------------------------------------
    # the pipe, driven from the event loop
    # ------------------------------------------------------------------

    def _detach(self, shard: _Shard) -> None:
        """Stop driving the shard's pipe: no reader, no timer, closed."""
        self._loop.remove_reader(shard.fd)
        shard.hang.cancel()
        shard.conn.close()
        shard.conn = None

    def _send_next(self, shard: _Shard) -> None:
        """Ship the next request if the pipe is free.

        While the shard is OPEN that is the outbox entry after the last
        one its worker holds; once nothing is left to replay, the
        oldest pending request.
        """
        if shard.sent is not None or shard.conn is None:
            return
        if shard.state == OPEN:
            shard.sent = self._next_replay(shard)
        if shard.sent is None:
            if not shard.pending:
                return
            shard.sent = shard.pending.popleft()
        frame = shard.sent[0][1]
        try:
            written = os.write(shard.fd, frame)
            while written < len(frame):
                written += os.write(shard.fd, frame[written:])
        except OSError:
            # Failed on the loop's next turn: try_submit never answers
            # the observation it is admitting.
            self._loop.call_soon(self._fail_shard, shard)
            return
        shard.hang.arm(self._loop.time() + self._hang_s)

    def _drain(self, shard: _Shard) -> None:
        """Take an answer already waiting in the pipe, if there is one.

        A burst of requests is admitted within one loop iteration, so
        the reader callback gets no turn until it ends.  Each shed
        reads the pipe instead: the slot its answer frees goes to the
        next arrival, and the worker gets its next request at once.
        """
        if shard.sent is not None and shard.conn.poll():
            self._on_readable(shard)

    def _on_readable(self, shard: _Shard) -> None:
        """The worker answered the request in its pipe, or died.

        The request's callback runs last, once the shard's bookkeeping
        is done and the next request is in the pipe: it may admit the
        connection's next observation right away.
        """
        fd = shard.fd
        try:
            frame = os.read(fd, READ_SIZE)
            # One read takes the whole frame unless it arrives in parts.
            while (
                len(frame) < 4
                or len(frame) < 4 + LENGTH.unpack_from(frame)[0]
            ):
                more = os.read(fd, READ_SIZE)
                if not more:
                    raise EOFError("pipe closed")
                frame += more
        except (EOFError, OSError):
            self._fail_shard(shard)
            return
        entry, done = shard.sent
        tag = frame[4]
        if tag == OBSERVED_TAG and entry[0]:
            _size, _tag, _seq, predicted, trained, ckpt, evicting = (
                OBSERVED.unpack_from(frame)
            )
        elif tag == PONG_TAG and entry is _PING:
            _size, _tag, trained, *memory = PONG.unpack_from(frame)
            shard.mem = dict(zip(MEMORY_KEYS, memory))
        elif tag == READY_TAG and entry is _READY:
            _size, _tag, trained = READY.unpack_from(frame)
        else:
            # Not the answer to the request in the pipe: a worker bug,
            # handled like any other worker failure.
            self._fail_shard(shard)
            return
        shard.hang.disarm()
        shard.sent = None
        if shard.state == OPEN:
            # Catching up: the ready handshake, or a replayed entry.
            if entry is _READY:
                self._on_ready(shard, trained)
            else:
                shard.held = entry[0]
                METRICS.inc("serve.restore.replayed")
                self._trim_outbox(shard, ckpt)
            self._send_next(shard)
            return
        if entry is _PING:
            result = shard.mem
        else:
            shard.inflight -= 1
            shard.trained = trained
            self._trim_outbox(shard, ckpt)
            result = {"predicted": predicted, "evicting": evicting}
        if shard.pending:
            self._send_next(shard)
        done(result)

    def _on_ready(self, shard: _Shard, restored: int) -> None:
        """A worker's handshake: it holds ordinals up to ``restored``."""
        shard.held = restored
        if shard.epoch == 0:
            return
        shard.restores += 1
        METRICS.inc("serve.restore.count")
        if shard.outbox and restored < shard.outbox[0][0] - 1:
            # The outbox does not reach back to the restored
            # checkpoint: observations in the gap are lost learning
            # (documented degraded mode -- see docs/serving.md).
            METRICS.inc("serve.restore.gap")

    def _next_replay(self, shard: _Shard) -> Optional[_Request]:
        """The next outbox entry the worker lacks, or ``None`` once caught up.

        Outbox ordinals are contiguous, so the entry after ``held`` is
        found by index.  Catching up closes the shard's breaker.
        """
        outbox = shard.outbox
        if outbox:
            index = max(shard.held + 1 - outbox[0][0], 0)
            if index < len(outbox):
                return outbox[index], None
        shard.trained = shard.held
        shard.state = CLOSED
        if shard.epoch:
            shard.breaker_closed += 1
            METRICS.inc("serve.breaker.closed")
        if not self._started.done() and all(
            other.state == CLOSED for other in self._shards
        ):
            self._started.set_result(None)
        return None

    def ping(self, done: Callback) -> int:
        """Ask every CLOSED shard's worker for its memory report.

        Puts one ping at the head of each such shard's queue, so that it
        waits for at most the request already in the pipe; an OPEN
        shard is not asked.  Returns how many pings were queued.  Each
        one's outcome goes to ``done`` exactly once, never before this
        call returns: the pong's report (which :meth:`stats` shows from
        then on), or a :class:`WorkerDown`.  A ping is not an
        observation: it takes no room in the queue depth.
        """
        asked = 0
        for shard in self._shards:
            if shard.state == CLOSED:
                shard.pending.appendleft((_PING, done))
                self._send_next(shard)
                asked += 1
        return asked

    def _trim_outbox(self, shard: _Shard, reported_ckpt: int) -> None:
        """Drop outbox entries a warm restore can never need.

        ``reported_ckpt`` is the trained count the worker made durable:
        its interval log holds every record up to it, and a snapshot
        plus the log records chained on from it restore that far.
        Retention reaches one full checkpoint interval *behind* it: if
        that newest record is torn (the log is not fsynced, so a host
        crash can lose its last write), the restore ends one record
        short and replay must cover the gap.  A torn newest snapshot
        costs nothing here, as the older one's logs reach past it.
        """
        horizon = reported_ckpt - self.config.checkpoint_every
        outbox = shard.outbox
        while outbox and outbox[0][0] <= horizon:
            outbox.popleft()

    # ------------------------------------------------------------------
    # failure handling and warm restore
    # ------------------------------------------------------------------

    @staticmethod
    def _take_requests(shard: _Shard) -> List[Callback]:
        """Empty the shard's queue and pipe slot.

        Returns the callbacks of the observations and pings among them.
        """
        requests = list(shard.pending)
        if shard.sent is not None:
            requests.append(shard.sent)
        shard.pending.clear()
        shard.sent = None
        return [done for _entry, done in requests if done is not None]

    @staticmethod
    def _fail(callbacks: List[Callback], reason: str) -> None:
        """Tell each lost request's callback (after the bookkeeping)."""
        for done in callbacks:
            done(WorkerDown(reason))

    def _fail_shard(self, shard: _Shard) -> None:
        """The worker died or hung: SIGKILL it, then restore.

        Runs on pipe EOF, a failed send, or an expired hang or ready
        timer.  A serving worker's death opens the breaker; a worker
        that had not caught up yet fails start-up (first incarnation)
        or is simply replaced again.  Either way the loop reaps the
        worker once its sentinel fires.
        """
        if shard.conn is None:
            return  # already failed
        self._detach(shard)
        proc = shard.proc
        proc.kill()
        epoch = shard.epoch
        reason = f"shard {shard.index} worker (epoch {epoch}) down or hung"
        lost = self._take_requests(shard)
        forensics = None
        if shard.state != OPEN:
            shard.state = OPEN
            shard.breaker_opened += 1
            # Every unanswered observation was in the queue or the pipe.
            shard.inflight = 0
            METRICS.inc("serve.breaker.opened")
            if OBS.proto:
                OBS.emit(0, "serve", "breaker_open", shard.index, 0,
                         {"epoch": epoch, "trained": shard.trained})
            forensics = {
                "kind": "serve-worker-forensics",
                "shard": shard.index,
                "epoch": epoch,
                "reason": reason,
                "trained_reported": shard.trained,
                "outbox_depth": len(shard.outbox),
                "budget": {"wall_clock_s": self._hang_s},
            }
        elif epoch == 0:
            if not self._started.done():
                self._started.set_exception(
                    ServeError(
                        f"shard {shard.index} worker (epoch 0) died or "
                        f"hung before its ready handshake"
                    )
                )
            return  # start() tears the pool down
        else:
            METRICS.inc("serve.restore.spawn_failed")
        self._loop.add_reader(
            proc.sentinel, self._restore, shard, proc, forensics
        )
        self._fail(lost, reason)

    def _restore(self, shard: _Shard, dead, forensics: Optional[dict]) -> None:
        """The dead worker's sentinel fired: reap it, spawn its successor.

        ``forensics`` is the bundle of a serving worker's death; a
        replacement that failed before catching up leaves none.
        """
        self._loop.remove_reader(dead.sentinel)
        dead.join()
        if forensics is not None:
            save_bundle(
                {**forensics, "exitcode": dead.exitcode},
                self.checkpoint_dir
                / f"forensics-shard{shard.index:02d}"
                f"-epoch{forensics['epoch']}.json",
            )
        if not self._stopping:
            self._spawn(shard, shard.epoch + 1)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> List[dict]:
        """Per-shard state for the ``stat`` control operation."""
        return [
            {
                "shard": shard.index,
                "state": shard.state,
                "epoch": shard.epoch,
                "admitted": shard.ordinal,
                "trained": shard.trained,
                "inflight": shard.inflight,
                "outbox": len(shard.outbox),
                "restores": shard.restores,
                "breaker_opened": shard.breaker_opened,
                "breaker_closed": shard.breaker_closed,
                "memory": shard.mem,
            }
            for shard in self._shards
        ]
