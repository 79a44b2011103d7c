"""The scheduler seam: an interconnect whose delivery order is a policy.

:class:`ExploringNetwork` is a drop-in network (same constructor head as
:class:`~repro.sim.network.Network`, installed through the machine's
``network_factory`` seam) that decouples *when a message arrives* from
*when it is delivered*.  Arrivals -- computed by an inner network, so
fault injection composes underneath exploration -- are admitted into a
pool; actual deliveries happen at quantized **delivery slots** (multiples
of ``quantum_ns``), where the installed
:class:`~repro.explore.strategies.DeliveryPolicy` repeatedly picks which
pooled message to hand to the machine next, or defers the rest of the
pool a quantum.

Three properties make this a sound exploration substrate:

* **Determinism / replayability.**  The pool's evolution is a pure
  function of the admission order (fixed by the engine's determinism)
  and the sequence of policy decisions; every decision is appended to
  :attr:`decisions`, so replaying the log through a
  :class:`~repro.explore.strategies.ReplayPolicy` reproduces the run
  byte-for-byte.
* **Liveness.**  Whenever the pool is non-empty a drain is scheduled,
  and each message can be deferred at most ``defer_cap`` times before it
  is force-delivered, so every message is delivered within a bounded
  number of quanta and quiescence is preserved.
* **Bounded skew.**  ``max_skew_ns`` accounts for the inner network's
  own worst case plus quantization and the defer cap, and the machine
  arms protocol recovery from it (``adversarial = True``), exactly as it
  does for a fault profile.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, Tuple

from ..errors import SimulationError
from ..protocol.messages import Message
from ..sim.engine import Engine
from ..sim.faults import FaultProfile, FaultyNetwork
from ..sim.network import Network
from ..sim.params import SystemParams
from .strategies import DEFER_REST, DeliveryPolicy, FifoPolicy

#: Default per-message deferral cap (force-delivery after this many).
DEFAULT_DEFER_CAP = 4

#: A pooled arrival: (admission seq, message, deferrals so far).
_Entry = Tuple[int, Message, int]


class ExploringNetwork:
    """Interconnect with a pluggable, replayable delivery-order policy."""

    adversarial = True

    def __init__(
        self,
        engine: Engine,
        params: SystemParams,
        deliver: Callable[[Message], None],
        policy: Optional[DeliveryPolicy] = None,
        faults: Optional[FaultProfile] = None,
        fault_seed: int = 0,
        quantum_ns: Optional[int] = None,
        defer_cap: int = DEFAULT_DEFER_CAP,
    ) -> None:
        if defer_cap < 1:
            raise SimulationError("defer_cap must be >= 1")
        self._engine = engine
        self._deliver_outer = deliver
        self.policy = policy if policy is not None else FifoPolicy()
        self.quantum_ns = (
            quantum_ns if quantum_ns is not None
            else params.one_way_message_ns
        )
        if self.quantum_ns < 1:
            raise SimulationError("quantum_ns must be >= 1")
        self.default_defer_cap = defer_cap
        # The inner network computes *arrival* times (and faults);
        # its "deliver" callback is our admission hook.
        if faults is not None and faults.is_active:
            self.inner = FaultyNetwork(
                engine, params, self._admit, faults, fault_seed
            )
        else:
            self.inner = Network(engine, params, self._admit)
        #: The recorded decision log: one int per policy consultation.
        self.decisions: List[int] = []
        #: Observers called before each delivery with
        #: ``(admission seq, message, remaining pool)`` -- the overtake
        #: oracle's hook.
        self.delivery_observers: List[Callable] = []
        self._pool: List[_Entry] = []
        self._admit_seq = 0
        self._scheduled: Set[int] = set()
        self.deliveries = 0

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------

    @property
    def latency_ns(self) -> int:
        return self.inner.latency_ns

    @property
    def messages_sent(self) -> int:
        return self.inner.messages_sent

    @property
    def defer_cap(self) -> int:
        cap = getattr(self.policy, "defer_cap", None)
        return cap if cap is not None else self.default_defer_cap

    @property
    def max_skew_ns(self) -> int:
        """Worst-case delivery delay beyond the base latency.

        Inner skew (faults), plus one quantum of arrival quantization,
        plus one quantum per permitted deferral, plus one more for the
        forced-delivery drain itself.
        """
        cap = max(self.default_defer_cap, self.defer_cap)
        return self.inner.max_skew_ns + (cap + 2) * self.quantum_ns

    def send(self, msg: Message) -> None:
        self.inner.send(msg)

    # ------------------------------------------------------------------
    # admission and drains
    # ------------------------------------------------------------------

    def _admit(self, msg: Message) -> None:
        """An arrival (from the inner network) joins the pool."""
        seq = self._admit_seq
        self._admit_seq += 1
        self._pool.append((seq, msg, 0))
        self.policy.on_admit(seq, msg)
        self._schedule_drain(self._next_slot())

    def _next_slot(self) -> int:
        """The first delivery slot strictly after the current time."""
        return (self._engine.now // self.quantum_ns + 1) * self.quantum_ns

    def _schedule_drain(self, slot: int) -> None:
        if slot not in self._scheduled:
            self._scheduled.add(slot)
            self._engine.schedule_at(slot, self._drain, slot)

    def _drain(self, slot: int) -> None:
        self._scheduled.discard(slot)
        cap = self.defer_cap
        while self._pool:
            decision = self.policy.decide(tuple(self._pool))
            self.decisions.append(decision)
            if decision == DEFER_REST:
                # Ripe entries (at the cap) are force-delivered now, in
                # admission order; the rest wait one more quantum.
                ripe = [e for e in self._pool if e[2] >= cap]
                rest = [
                    (seq, msg, defers + 1)
                    for seq, msg, defers in self._pool
                    if defers < cap
                ]
                self._pool = []
                for entry in ripe:
                    self._deliver_entry(entry)
                self._pool = rest
                if rest:
                    self._schedule_drain(slot + self.quantum_ns)
                return
            index = decision if decision < len(self._pool) else (
                len(self._pool) - 1
            )
            entry = self._pool.pop(index)
            self._deliver_entry(entry)

    def _deliver_entry(self, entry: _Entry) -> None:
        seq, msg, _defers = entry
        if self.delivery_observers:
            remaining = tuple(self._pool)
            for observer in self.delivery_observers:
                observer(seq, msg, remaining)
        self.deliveries += 1
        self._deliver_outer(msg)

    # ------------------------------------------------------------------
    # policy management (checkpoint forking)
    # ------------------------------------------------------------------

    def set_policy(self, policy: DeliveryPolicy) -> None:
        """Swap the delivery policy at a quiescent point.

        Used by crash-point exploration: run the prefix under FIFO,
        checkpoint, then fork with a different strategy for the suffix.
        The decision log keeps accumulating across the swap, so the
        artifact's log replays prefix and suffix alike.
        """
        if self._pool or self._scheduled:
            raise SimulationError(
                "cannot swap delivery policy with messages in flight "
                f"({len(self._pool)} pooled, {len(self._scheduled)} "
                "drains scheduled)"
            )
        self.policy = policy
