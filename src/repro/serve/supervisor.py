"""The shard supervisor: spawn, watch, kill, restore, re-admit.

One :class:`ShardSupervisor` owns the worker-process pool.  Per shard it
keeps a duplex pipe, a pump thread that ships admitted observations to
the worker one at a time (the pipe's FIFO order *is* the shard's
training order), and a circuit breaker:

* **CLOSED** -- healthy; observations flow through the bounded queue.
* **OPEN** -- the worker crashed (pipe EOF) or blew its hang budget
  (a :class:`~repro.sim.watchdog.WatchdogConfig` wall-clock budget,
  checked with ``Connection.poll``) and was SIGKILLed.  Admissions are
  recorded in the shard's outbox but answered degraded by the
  front-end; a restore thread spawns a replacement worker, warm-
  restores it from the newest valid checkpoint, and replays the outbox
  tail so no admitted learning is lost.
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

import queue
import tempfile
import threading
from collections import deque
from concurrent.futures import Future, InvalidStateError
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


class _Shard:
    """Mutable per-shard bookkeeping, guarded by ``lock``."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.lock = threading.Lock()
        self.queue: "queue.Queue" = queue.Queue()
        self.state = OPEN  # until start() brings the worker up
        self.epoch = 0
        self.ordinal = 0  # last admitted ordinal (1-based counter)
        self.inflight = 0
        self.trained = 0  # last trained count reported by the worker
        self.probes_left = 0
        self.outbox: Deque[Tuple[int, str, int, int]] = deque()
        self.proc = None
        self.conn = None
        self.pump: Optional[threading.Thread] = None
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

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn every shard worker and wait for its ready handshake."""
        for shard in self._shards:
            proc, conn, restored = self._spawn(shard.index, epoch=0)
            with shard.lock:
                shard.proc, shard.conn = proc, conn
                shard.trained = restored
                shard.state = CLOSED
            self._start_pump(shard, proc, conn, epoch=0)

    def stop(self) -> None:
        """Tear the pool down (SIGKILL; state is in the checkpoints)."""
        self._stopping = True
        for shard in self._shards:
            shard.queue.put(None)
        for shard in self._shards:
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
    ) -> Tuple[int, Optional[Future]]:
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
            if shard.inflight >= self.config.queue_depth:
                METRICS.inc("serve.shed.queue")
                raise Backpressure(f"shard {index} queue full")
            shard.ordinal += 1
            shard.outbox.append((shard.ordinal, tenant, block, word))
            future: Future = Future()
            shard.inflight += 1
            shard.queue.put(
                (shard.ordinal, tenant, block, word, future)
            )
            METRICS.inc("serve.admit.queued")
            return shard.ordinal, future

    # ------------------------------------------------------------------
    # pump: one thread per live worker
    # ------------------------------------------------------------------

    def _start_pump(self, shard: _Shard, proc, conn, epoch: int) -> None:
        pump = threading.Thread(
            target=self._pump,
            args=(shard, proc, conn, epoch),
            name=f"serve-pump-{shard.index}",
            daemon=True,
        )
        shard.pump = pump
        pump.start()

    def _roundtrip(self, conn, payload: dict) -> Optional[dict]:
        """One send/recv against a worker; ``None`` = dead or hung."""
        try:
            conn.send(payload)
            if not conn.poll(self._budget.wall_clock_s):
                return None  # hang budget blown
            return conn.recv()
        except (EOFError, OSError, BrokenPipeError):
            return None

    def _pump(self, shard: _Shard, proc, conn, epoch: int) -> None:
        while True:
            item = shard.queue.get()
            if item is None:
                return
            if item[0] == "ping":
                response = self._roundtrip(conn, {"op": "ping"})
                if response is None:
                    self._fail_shard(
                        shard, proc, epoch, Future(), inflight=False
                    )
                    return
                with shard.lock:
                    if response.get("mem") is not None:
                        shard.mem = response["mem"]
                    self._count_probe(shard)
                continue
            ordinal, tenant, block, word, future = item
            response = self._roundtrip(
                conn,
                {
                    "op": "observe",
                    "seq": ordinal,
                    "tenant": tenant,
                    "block": block,
                    "word": word,
                },
            )
            if response is None:
                self._fail_shard(shard, proc, epoch, future)
                return
            with shard.lock:
                shard.inflight -= 1
                shard.trained = response["trained"]
                if response.get("mem") is not None:
                    shard.mem = response["mem"]
                self._trim_outbox(shard, response["ckpt"])
                self._count_probe(shard)
            try:
                future.set_result(response)
            except InvalidStateError:
                # The deadline already answered degraded; the training
                # still counted, which is exactly what we want.
                METRICS.inc("serve.response.late")

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
                if shard.state == HALF_OPEN and shard.queue.empty():
                    shard.queue.put(("ping",))
                    METRICS.inc("serve.probe.sent")

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

    def _fail_future(self, future: Future, reason: str) -> None:
        try:
            future.set_exception(WorkerDown(reason))
        except InvalidStateError:
            pass

    def _fail_shard(
        self,
        shard: _Shard,
        proc,
        epoch: int,
        future: Future,
        inflight: bool = True,
    ) -> None:
        """The worker died or hung: open the breaker, kill, restore.

        ``inflight=False`` when the failed round trip was a health ping
        (pings never entered the admission accounting).
        """
        if self._stopping:
            self._fail_future(future, "service stopping")
            return
        reason = f"shard {shard.index} worker (epoch {epoch}) down or hung"
        with shard.lock:
            shard.state = OPEN
            shard.breaker_opened += 1
            if inflight:
                shard.inflight -= 1
            self._fail_future(future, reason)
            while True:
                try:
                    item = shard.queue.get_nowait()
                except queue.Empty:
                    break
                if item is None or item[0] == "ping":
                    continue
                shard.inflight -= 1
                self._fail_future(item[4], reason)
            outbox_depth = len(shard.outbox)
            trained = shard.trained
        METRICS.inc("serve.breaker.opened")
        if OBS.proto:
            OBS.emit(0, "serve", "breaker_open", shard.index, 0,
                     {"epoch": epoch, "trained": trained})
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=10)
        save_bundle(
            {
                "kind": "serve-worker-forensics",
                "shard": shard.index,
                "epoch": epoch,
                "reason": reason,
                "exitcode": proc.exitcode,
                "trained_reported": trained,
                "outbox_depth": outbox_depth,
                "budget": {"wall_clock_s": self._budget.wall_clock_s},
            },
            self.checkpoint_dir
            / f"forensics-shard{shard.index:02d}-epoch{epoch}.json",
        )
        threading.Thread(
            target=self._restore,
            args=(shard,),
            name=f"serve-restore-{shard.index}",
            daemon=True,
        ).start()

    def _restore(self, shard: _Shard) -> None:
        """Bring a dead shard back: spawn, warm-restore, replay, probe."""
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
            replayed = restored
            alive = True
            while alive:
                with shard.lock:
                    pending = [
                        entry for entry in shard.outbox
                        if entry[0] > replayed
                    ]
                    if not pending:
                        shard.proc, shard.conn = proc, conn
                        shard.trained = replayed
                        shard.state = HALF_OPEN
                        shard.probes_left = PROBE_REQUESTS
                        METRICS.inc("serve.breaker.half_open")
                        self._start_pump(shard, proc, conn, epoch)
                        return
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
                        alive = False
                        break
                    replayed = ordinal
                    METRICS.inc("serve.restore.replayed")
                    with shard.lock:
                        self._trim_outbox(shard, response["ckpt"])
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=10)

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
