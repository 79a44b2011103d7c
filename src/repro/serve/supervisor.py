"""The shard supervisor: spawn, watch, kill, restore, re-admit.

One :class:`ShardSupervisor` owns the worker-process pool and drives
every worker's duplex pipe from the front-end's event-loop thread.  Per
shard it keeps a FIFO of admitted requests and lets at most one of them
sit in the pipe: the loop sends it, a reader callback on the pipe
(``loop.add_reader``) takes the answer and sends the next.  The pipe
then never holds more than one small message, so a send on the loop
thread cannot block, and the FIFO order *is* the shard's training
order.  Each shard also has a circuit breaker:

* **CLOSED** -- healthy; observations flow through the bounded queue.
* **OPEN** -- the worker crashed (pipe EOF) or blew its hang budget
  (a :class:`~repro.sim.watchdog.WatchdogConfig` wall-clock budget,
  armed as one loop timer per request in the pipe) and was
  SIGKILLed.  Admissions are recorded in the shard's outbox but
  answered degraded by the front-end; a restore thread spawns a
  replacement worker, warm-restores it from the newest valid
  checkpoint, replays the outbox tail so no admitted learning is lost,
  and hands the caught-up worker back to the loop.
* **HALF_OPEN** -- the restored worker is caught up; the next
  :data:`PROBE_REQUESTS` successful round trips (real observations, or
  ping probes enqueued by :meth:`ShardSupervisor.probe_half_open`
  whenever a ``stat`` poll finds the shard half-open) close the
  breaker and re-admit the shard.  Any failure: back to OPEN.

Every admitted observation gets a shard-local ordinal; the outbox keeps
``(ordinal, tenant, block, word)`` back to one checkpoint interval
behind the worker's last *reported* checkpoint, which is exactly enough
to warm-restore even when the newest checkpoint file is torn and the
loader falls back one frame.  Worker deaths leave a forensic bundle
(JSON, via :func:`repro.obs.bundle.save_bundle`) next to the
checkpoints.
"""

from __future__ import annotations

import asyncio
import tempfile
import threading
from collections import deque
from multiprocessing import get_context
from multiprocessing.connection import wait
from pathlib import Path
from typing import Deque, List, Optional, Tuple

from ..errors import ServeError
from ..obs.bundle import save_bundle
from ..obs.log import OBS
from ..sim.metrics import METRICS
from ..sim.watchdog import WatchdogConfig
from .chaos import ChaosScript
from .config import ServeConfig
from .worker import worker_main

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: How long a spawned worker may take to import, warm-restore and send
#: its ready handshake.  Start-up is not an observation, so the hang
#: budget does not apply; this bound only catches a worker that is alive
#: but wedged, far above any real start-up (about half a second).  A
#: worker that dies during start-up fails at once, not after this wait.
READY_TIMEOUT_S = 60.0

#: Admitted-but-unshipped observations tolerated while a shard is down
#: (the replay outbox); beyond this, admission sheds load.
MAX_BACKLOG = 512

#: Consecutive successful responses a restored shard must serve in
#: HALF_OPEN before the circuit breaker closes again.
PROBE_REQUESTS = 4


class WorkerDown(ServeError):
    """The owning worker died or hung while holding this observation.

    Internal to the service: the front-end catches it and answers
    degraded.  The observation itself is safe in the shard outbox and
    will be replayed into the restored worker.
    """


class Backpressure(ServeError):
    """Admission refused: the shard's queue or backlog is full.

    Internal to the service: the front-end catches it and answers
    ``RETRY_AFTER``.  The observation was *not* admitted (no ordinal,
    no training anywhere), so the client's retry is not a duplicate.
    """




#: One request waiting for, or sitting in, a worker's pipe: the message
#: and the future its answer resolves (``None`` for a ping probe).
_Request = Tuple[dict, Optional[asyncio.Future]]

_PING = {"op": "ping"}


class _Shard:
    """Mutable per-shard bookkeeping.

    ``lock`` guards what the restore thread shares with the loop: the
    breaker state, ordinals, outbox and counters.  ``conn``,
    ``pending``, ``sent`` and ``timer`` belong to the loop thread.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.lock = threading.Lock()
        self.state = OPEN  # until start() brings the worker up
        self.epoch = 0
        self.ordinal = 0  # last admitted ordinal (1-based counter)
        self.inflight = 0
        self.trained = 0  # last trained count reported by the worker
        self.probes_left = 0
        self.outbox: Deque[Tuple[int, str, int, int]] = deque()
        self.proc = None
        #: The worker's pipe while the loop drives it; ``None`` while
        #: the shard is down or its replacement is catching up.
        self.conn = None
        #: Requests waiting for the pipe, oldest first.
        self.pending: Deque[_Request] = deque()
        #: The one request in the pipe, and its hang-budget timer.
        self.sent: Optional[_Request] = None
        self.timer: Optional[asyncio.TimerHandle] = None
        self.restores = 0
        self.breaker_opened = 0
        self.breaker_closed = 0
        #: Last predictor-memory report from the worker (``None`` until
        #: one arrives; workers attach one to every pong, and to every
        #: observed response when tenant budgets are configured).
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
        # The hang budget rides the watchdog's budget dataclass: same
        # validation, same "wall seconds per unit of expected progress"
        # semantics, applied to one observation round trip.
        self._budget = WatchdogConfig(
            wall_clock_s=config.hang_timeout_ms / 1_000.0,
            max_events=None,
            progress_window=None,
            retry_storm=None,
        )
        self._shards = [_Shard(index) for index in range(config.shards)]
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # lifecycle (on the event-loop thread)
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn every shard worker and wait for its ready handshake."""
        self._loop = asyncio.get_running_loop()
        for shard in self._shards:
            proc, conn, restored = self._spawn(shard.index, epoch=0)
            with shard.lock:
                shard.proc = proc
                shard.trained = restored
                shard.state = CLOSED
            self._attach(shard, proc, conn)

    def stop(self) -> None:
        """Tear the pool down (SIGKILL; state is in the checkpoints)."""
        self._stopping = True
        for shard in self._shards:
            if shard.conn is not None:
                self._detach(shard)
            self._fail_requests(shard, "service stopping")
            with shard.lock:
                proc = shard.proc
            if proc is not None and proc.is_alive():
                proc.kill()
            if proc is not None:
                proc.join(timeout=10)
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def _spawn(self, index: int, epoch: int):
        """Start one worker; returns ``(proc, conn, restored_trained)``."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        actions = (
            self.chaos.worker_actions(index)
            if epoch == 0
            else {"kill_at": (), "stall_at": {}}
        )
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                index,
                self.config,
                str(self.checkpoint_dir),
                epoch,
                actions,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if not wait([parent_conn, proc.sentinel], READY_TIMEOUT_S):
            proc.kill()
            proc.join(timeout=10)
            raise ServeError(
                f"shard {index} worker (epoch {epoch}) never became ready "
                f"within {READY_TIMEOUT_S:g}s"
            )
        try:
            if not parent_conn.poll():
                raise EOFError("worker exited without a handshake")
            ready = parent_conn.recv()
        except (EOFError, OSError) as exc:
            proc.join(timeout=10)
            raise ServeError(
                f"shard {index} worker (epoch {epoch}) died during its "
                f"ready handshake"
            ) from exc
        return proc, parent_conn, ready["trained"]

    # ------------------------------------------------------------------
    # admission (called from the front-end's event loop thread)
    # ------------------------------------------------------------------

    def try_submit(
        self, index: int, tenant: str, block: int, word: int
    ) -> Tuple[int, Optional[asyncio.Future]]:
        """Admit one observation into shard ``index``.

        Returns ``(ordinal, future)``; the future resolves to the
        worker's response dict.  A ``None`` future means the breaker is
        open: the observation is safely in the outbox (it will train on
        restore) but the caller must answer degraded right now.  Raises
        :class:`Backpressure` when admission would exceed the queue
        depth or the outbox backlog bound -- in that case *nothing* was
        admitted.
        """
        shard = self._shards[index]
        with shard.lock:
            if len(shard.outbox) >= MAX_BACKLOG:
                METRICS.inc("serve.shed.backlog")
                raise Backpressure(f"shard {index} backlog full")
            if shard.state == OPEN:
                shard.ordinal += 1
                shard.outbox.append((shard.ordinal, tenant, block, word))
                METRICS.inc("serve.admit.buffered")
                return shard.ordinal, None
            full = shard.inflight >= self.config.queue_depth
            if not full:
                shard.ordinal += 1
                ordinal = shard.ordinal
                shard.outbox.append((ordinal, tenant, block, word))
                shard.inflight += 1
        if full:
            METRICS.inc("serve.shed.queue")
            self._drain(shard)
            raise Backpressure(f"shard {index} queue full")
        future = self._loop.create_future()
        shard.pending.append(
            (
                {
                    "op": "observe",
                    "seq": ordinal,
                    "tenant": tenant,
                    "block": block,
                    "word": word,
                },
                future,
            )
        )
        METRICS.inc("serve.admit.queued")
        self._send_next(shard)
        return ordinal, future

    # ------------------------------------------------------------------
    # the pipe, driven from the event loop
    # ------------------------------------------------------------------

    def _attach(self, shard: _Shard, proc, conn) -> None:
        """Start driving a ready worker's pipe from the loop."""
        if self._stopping:
            conn.close()
            if proc.is_alive():
                proc.kill()
            return
        shard.conn = conn
        self._loop.add_reader(conn.fileno(), self._on_readable, shard)
        self._send_next(shard)

    def _detach(self, shard: _Shard) -> None:
        """Stop driving the shard's pipe: no reader, no timer, closed."""
        self._loop.remove_reader(shard.conn.fileno())
        if shard.timer is not None:
            shard.timer.cancel()
            shard.timer = None
        shard.conn.close()
        shard.conn = None

    def _send_next(self, shard: _Shard) -> None:
        """Ship the oldest pending request if the pipe is free."""
        if shard.sent is not None or shard.conn is None or not shard.pending:
            return
        shard.sent = shard.pending.popleft()
        try:
            shard.conn.send(shard.sent[0])
        except OSError:
            self._fail_shard(shard)
            return
        shard.timer = self._loop.call_later(
            self._budget.wall_clock_s, self._fail_shard, shard
        )

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
        """The worker answered the request in its pipe, or died."""
        try:
            response = shard.conn.recv()
        except (EOFError, OSError):
            self._fail_shard(shard)
            return
        shard.timer.cancel()
        shard.timer = None
        _message, future = shard.sent
        shard.sent = None
        with shard.lock:
            if response.get("mem") is not None:
                shard.mem = response["mem"]
            if future is not None:
                shard.inflight -= 1
                shard.trained = response["trained"]
                self._trim_outbox(shard, response["ckpt"])
            self._count_probe(shard)
        self._send_next(shard)
        if future is None:
            return
        if future.done():
            # The deadline already answered degraded; the training
            # still counted, which is exactly what we want.
            METRICS.inc("serve.response.late")
        else:
            future.set_result(response)

    def _roundtrip(self, conn, payload: dict) -> Optional[dict]:
        """One blocking send/recv (restore thread); ``None`` = dead or hung."""
        try:
            conn.send(payload)
            if not conn.poll(self._budget.wall_clock_s):
                return None  # hang budget blown
            return conn.recv()
        except (EOFError, OSError, BrokenPipeError):
            return None

    def _count_probe(self, shard: _Shard) -> None:
        """One successful round trip while HALF_OPEN; caller holds lock."""
        if shard.state != HALF_OPEN:
            return
        shard.probes_left -= 1
        if shard.probes_left <= 0:
            shard.state = CLOSED
            shard.breaker_closed += 1
            METRICS.inc("serve.breaker.closed")

    def probe_half_open(self) -> None:
        """Enqueue one health ping per HALF_OPEN shard.

        The ``stat`` path calls this, so a monitoring poll (the CLI's
        post-run wait, the tests' ``wait_all_closed``) actively drives a
        restored shard's breaker shut instead of leaving it half-open
        until a client observation happens to route there -- the probe
        half of "probing before re-admission".
        """
        for shard in self._shards:
            with shard.lock:
                half_open = shard.state == HALF_OPEN
            if half_open and not shard.pending:
                shard.pending.append((_PING, None))
                METRICS.inc("serve.probe.sent")
                self._send_next(shard)

    def _trim_outbox(self, shard: _Shard, reported_ckpt: int) -> None:
        """Drop outbox entries a warm restore can never need.

        Retention reaches one full checkpoint interval *behind* the
        worker's last reported checkpoint: if that newest frame is torn,
        the loader falls back one frame (``KEEP_CHECKPOINTS == 2``) and
        replay must cover the gap.  Caller holds ``shard.lock``.
        """
        horizon = reported_ckpt - self.config.checkpoint_every
        outbox = shard.outbox
        while outbox and outbox[0][0] <= horizon:
            outbox.popleft()

    # ------------------------------------------------------------------
    # failure handling and warm restore
    # ------------------------------------------------------------------

    def _fail_requests(self, shard: _Shard, reason: str) -> int:
        """Fail the shard's queued and in-pipe observations.

        Returns how many observations there were (pings do not count).
        """
        requests = list(shard.pending)
        if shard.sent is not None:
            requests.append(shard.sent)
        shard.pending.clear()
        shard.sent = None
        failed = 0
        for _message, future in requests:
            if future is None:
                continue
            failed += 1
            if not future.done():
                future.set_exception(WorkerDown(reason))
        return failed

    def _fail_shard(self, shard: _Shard) -> None:
        """The worker died or hung: open the breaker, then restore.

        Runs on the loop thread (pipe EOF, a failed send, or an expired
        hang timer); the restore thread does the slow part -- reaping
        the dead worker and spawning its replacement.
        """
        if shard.conn is None:
            return  # already failed
        self._detach(shard)
        epoch = shard.epoch
        reason = f"shard {shard.index} worker (epoch {epoch}) down or hung"
        failed = self._fail_requests(shard, reason)
        with shard.lock:
            shard.state = OPEN
            shard.breaker_opened += 1
            shard.inflight -= failed
            proc = shard.proc
            trained = shard.trained
            outbox_depth = len(shard.outbox)
        METRICS.inc("serve.breaker.opened")
        if OBS.proto:
            OBS.emit(0, "serve", "breaker_open", shard.index, 0,
                     {"epoch": epoch, "trained": trained})
        forensics = {
            "kind": "serve-worker-forensics",
            "shard": shard.index,
            "epoch": epoch,
            "reason": reason,
            "trained_reported": trained,
            "outbox_depth": outbox_depth,
            "budget": {"wall_clock_s": self._budget.wall_clock_s},
        }
        threading.Thread(
            target=self._restore,
            args=(shard, proc, forensics),
            name=f"serve-restore-{shard.index}",
            daemon=True,
        ).start()

    def _restore(self, shard: _Shard, dead, forensics: dict) -> None:
        """Bring a dead shard back: reap, spawn, warm-restore, replay."""
        if dead.is_alive():
            dead.kill()
        dead.join(timeout=10)
        epoch = forensics["epoch"]
        save_bundle(
            {**forensics, "exitcode": dead.exitcode},
            self.checkpoint_dir
            / f"forensics-shard{shard.index:02d}-epoch{epoch}.json",
        )
        while not self._stopping:
            epoch = shard.epoch + 1
            try:
                proc, conn, restored = self._spawn(shard.index, epoch)
            except ServeError:
                METRICS.inc("serve.restore.spawn_failed")
                continue
            with shard.lock:
                shard.epoch = epoch
                shard.restores += 1
                oldest = shard.outbox[0][0] if shard.outbox else None
            METRICS.inc("serve.restore.count")
            if oldest is not None and restored < oldest - 1:
                # The outbox does not reach back to the restored
                # checkpoint: observations in the gap are lost learning
                # (documented degraded mode -- see docs/serving.md).
                METRICS.inc("serve.restore.gap")
            if self._replay(shard, proc, conn, restored):
                # Caught up and HALF_OPEN: admissions from here on wait
                # in the pending queue until the loop takes the pipe.
                try:
                    self._loop.call_soon_threadsafe(
                        self._attach, shard, proc, conn
                    )
                except RuntimeError:  # the loop is closed: service gone
                    conn.close()
                    proc.kill()
                return
            conn.close()
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=10)

    def _replay(self, shard: _Shard, proc, conn, replayed: int) -> bool:
        """Replay the outbox tail into a restored worker (restore thread).

        ``True`` once the worker has caught up with every admission; the
        shard is then HALF_OPEN.  ``False`` if the worker died or hung,
        or the service is stopping.
        """
        while True:
            with shard.lock:
                if self._stopping:
                    return False
                pending = [
                    entry for entry in shard.outbox if entry[0] > replayed
                ]
                if not pending:
                    shard.proc = proc
                    shard.trained = replayed
                    shard.state = HALF_OPEN
                    shard.probes_left = PROBE_REQUESTS
                    METRICS.inc("serve.breaker.half_open")
                    return True
            for ordinal, tenant, block, word in pending:
                response = self._roundtrip(
                    conn,
                    {
                        "op": "observe",
                        "seq": ordinal,
                        "tenant": tenant,
                        "block": block,
                        "word": word,
                        "replay": True,
                    },
                )
                if response is None:
                    return False
                replayed = ordinal
                METRICS.inc("serve.restore.replayed")
                with shard.lock:
                    self._trim_outbox(shard, response["ckpt"])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> List[dict]:
        """Per-shard state for the ``stat`` control operation."""
        report = []
        for shard in self._shards:
            with shard.lock:
                report.append(
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
                )
        return report
