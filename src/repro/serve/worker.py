"""The shard worker process: predictor banks behind a pipe.

One worker owns one shard's slice of every tenant's blocks, as a bank
of per-tenant :class:`~repro.core.predictor.CosmosPredictor` instances.
The loop is deliberately single-threaded and synchronous: receive one
observation, run the fused predict/score/train hot path, maybe
checkpoint, respond.  The pipe is FIFO, so the shard's training order
*is* its admission order -- the property every recovery guarantee in
this package leans on.

The pipe protocol is small.  Once warm-restored, the worker speaks
first: ``{"op": "ready", "trained": N}``.  After that every request is
an ``observe`` (answered ``observed``; an outbox replay after a restore
is an ordinary observation) or a ``ping`` (answered ``pong``).  There
is no stop message: the supervisor ends a worker with SIGKILL, and its
state is in the checkpoints.

Determinism around crashes comes from careful sequencing per
observation: **train, stall (chaos), checkpoint, respond, die
(chaos)**.  A scripted kill fires only after the response for its
observation is in the pipe (``Connection.send`` completes the write
before returning), so the supervisor always knows exactly how far a
dead worker got; and scripted faults fire only in a worker's first
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
import time
from typing import Dict, Tuple

from ..core.config import CosmosConfig
from ..core.memory import MemoryTotals, memory_report
from ..core.predictor import CosmosPredictor
from ..parallel.seeds import derive_seed
from ..sim.metrics import METRICS
from .config import ServeConfig
from .state import load_latest_shard_state, save_shard_checkpoint


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

    ``conn`` is the child end of a duplex pipe.  The worker first warm-
    restores from the newest valid shard checkpoint, then announces
    ``{"op": "ready", "trained": N}`` so the supervisor knows where
    outbox replay must start, then serves observations and pings until
    the pipe closes (the supervisor ends a worker with SIGKILL).
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

    conn.send({"op": "ready", "trained": trained})
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request["op"] == "ping":
            conn.send(
                {
                    "op": "pong",
                    "trained": trained,
                    "mem": banks.memory(),
                }
            )
            continue
        # observe: train first -- state advances even if everything
        # after this line dies, which is what makes the supervisor's
        # "response received == training happened" accounting exact
        # in the other direction: no response, no harm in replaying.
        predicted, evicting = banks.observe(
            request["tenant"], request["block"], request["word"]
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
        response = {
            "op": "observed",
            "seq": request["seq"],
            "predicted": predicted,
            "trained": trained,
            "ckpt": last_checkpoint,
        }
        if evicting:
            response["evicting"] = True
        if bounded:
            response["mem"] = banks.memory()
        conn.send(response)
        if trained in kill_at:
            # The response above is already written into the pipe; this
            # models a crash *between* serving and the next request.
            os.kill(os.getpid(), signal.SIGKILL)
