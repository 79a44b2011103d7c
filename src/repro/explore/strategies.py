"""Delivery-order policies for the schedule explorer.

The :class:`~repro.explore.network.ExploringNetwork` pools concurrently
in-flight messages and, at each drain, asks its policy which pooled
message to deliver next.  A policy returns either an index into the
enabled set (deliver that entry now) or :data:`DEFER_REST` (push the
whole pool to the next delivery quantum).  Every returned decision is
appended to the network's decision log, so any run -- random walk, PCT,
delay-bounded -- replays bit-for-bit from its log via
:class:`ReplayPolicy`.

Strategies:

* ``fifo`` -- always index 0 (admission order); the identity schedule.
* ``random-walk`` -- seeded uniform choice among enabled deliveries,
  with an occasional whole-pool deferral.
* ``pct`` -- a message-level adaptation of probabilistic concurrency
  testing: each message draws a random priority at admission, the
  highest-priority enabled message is delivered, and at ``d``
  pre-drawn change points every pooled priority is re-drawn (a priority
  inversion).
* ``delay-bounded`` -- admission order, but with seeded adversarial
  deferrals; the network's per-message defer cap bounds each message to
  at most ``k`` deferrals, which is exactly the delay-bounded-systematic
  guarantee.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..protocol.messages import Message

#: Policy decision: defer every (non-ripe) pooled message to the next
#: delivery quantum instead of delivering one now.
DEFER_REST = -1

#: An enabled entry as presented to ``decide``: (admission sequence
#: number, the message, how many times it has already been deferred).
Enabled = Tuple[int, Message, int]


class DeliveryPolicy:
    """Base policy: FIFO (admission order)."""

    name = "fifo"
    #: Per-message deferral cap this policy wants; ``None`` = use the
    #: network's default.
    defer_cap: Optional[int] = None

    def on_admit(self, seq: int, msg: Message) -> None:
        """A message entered the pool (PCT assigns priorities here)."""

    def decide(self, enabled: Sequence[Enabled]) -> int:
        """Pick the next delivery: an index into ``enabled``, or
        :data:`DEFER_REST`."""
        return 0

    def describe(self) -> dict:
        """Name + parameters, for artifacts and reports."""
        return {"name": self.name}


class FifoPolicy(DeliveryPolicy):
    """The identity schedule (used for prefixes and as a baseline)."""


class RandomWalkPolicy(DeliveryPolicy):
    """Seeded uniform choice among enabled deliveries."""

    name = "random-walk"

    def __init__(self, seed: int = 0, defer_prob: float = 0.2) -> None:
        if not 0.0 <= defer_prob < 1.0:
            raise ConfigError(
                f"random-walk defer_prob {defer_prob} must be in [0, 1)"
            )
        self.seed = seed
        self.defer_prob = defer_prob
        self._rng = random.Random(seed)

    def decide(self, enabled: Sequence[Enabled]) -> int:
        if len(enabled) > 1 and self._rng.random() < self.defer_prob:
            return DEFER_REST
        return self._rng.randrange(len(enabled))

    def describe(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "defer_prob": self.defer_prob,
        }


class PCTPolicy(DeliveryPolicy):
    """Message-level probabilistic concurrency testing.

    Classic PCT schedules threads by random priority with ``d`` change
    points; messages are one-shot, so the adaptation re-draws every
    *pooled* priority at each change point (drawn uniformly over the
    first ``horizon`` deliveries).  Depth ``d`` bounds how many
    priority inversions a single run can express, which is what gives
    PCT its bug-depth guarantee.
    """

    name = "pct"

    def __init__(
        self, seed: int = 0, change_points: int = 3, horizon: int = 50_000
    ) -> None:
        if change_points < 0:
            raise ConfigError("pct change_points must be >= 0")
        if horizon < 2:
            raise ConfigError("pct horizon must be >= 2")
        self.seed = seed
        self.change_points = change_points
        self.horizon = horizon
        self._rng = random.Random(seed)
        self._priorities: dict = {}
        self._delivered = 0
        self._changes_at: List[int] = sorted(
            self._rng.sample(
                range(1, horizon), min(change_points, horizon - 1)
            )
        )

    def on_admit(self, seq: int, msg: Message) -> None:
        self._priorities[seq] = self._rng.random()

    def decide(self, enabled: Sequence[Enabled]) -> int:
        self._delivered += 1
        if self._changes_at and self._delivered >= self._changes_at[0]:
            self._changes_at.pop(0)
            for seq, _msg, _defers in enabled:
                self._priorities[seq] = self._rng.random()
        best = 0
        best_priority = -1.0
        for index, (seq, _msg, _defers) in enumerate(enabled):
            priority = self._priorities.get(seq, 0.0)
            if priority > best_priority:
                best_priority = priority
                best = index
        return best

    def describe(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "change_points": self.change_points,
            "horizon": self.horizon,
        }


class DelayBoundedPolicy(DeliveryPolicy):
    """At most ``k`` adversarial deferrals per message.

    Delivers in admission order but, with seeded probability, defers the
    whole pool a quantum.  The bound is structural, not statistical: the
    policy sets the network's per-message defer cap to ``k``, and the
    network force-delivers any message that has reached it.
    """

    name = "delay-bounded"

    def __init__(
        self, seed: int = 0, bound: int = 4, defer_prob: float = 0.3
    ) -> None:
        if bound < 1:
            raise ConfigError("delay bound must be >= 1")
        if not 0.0 <= defer_prob < 1.0:
            raise ConfigError(
                f"delay-bounded defer_prob {defer_prob} must be in [0, 1)"
            )
        self.seed = seed
        self.bound = bound
        self.defer_cap = bound
        self.defer_prob = defer_prob
        self._rng = random.Random(seed)

    def decide(self, enabled: Sequence[Enabled]) -> int:
        deferrable = any(defers < self.bound for _s, _m, defers in enabled)
        if deferrable and self._rng.random() < self.defer_prob:
            return DEFER_REST
        return 0

    def describe(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "bound": self.bound,
            "defer_prob": self.defer_prob,
        }


class ReplayPolicy(DeliveryPolicy):
    """Replays a recorded decision log, one decision per ``decide``.

    Decisions are consumed in order; indices out of range for the
    current pool are clamped (a shrinker-mutated log must stay
    executable), and an exhausted log falls back to FIFO.  Because the
    pool's evolution is a pure function of admissions and decisions,
    replaying an unmodified log reproduces the original run
    byte-for-byte.
    """

    name = "replay"

    def __init__(self, decisions: Sequence[int]) -> None:
        self.decisions = list(decisions)
        self._cursor = 0

    @property
    def consumed(self) -> int:
        return self._cursor

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.decisions)

    def decide(self, enabled: Sequence[Enabled]) -> int:
        if self._cursor >= len(self.decisions):
            return 0
        decision = self.decisions[self._cursor]
        self._cursor += 1
        if decision == DEFER_REST:
            return DEFER_REST
        return min(decision, len(enabled) - 1)

    def describe(self) -> dict:
        return {"name": self.name, "decisions": len(self.decisions)}


#: CLI strategy names -> constructor.
STRATEGIES = ("random-walk", "pct", "delay-bounded", "fifo")


def make_policy(
    strategy: str,
    seed: int = 0,
    pct_depth: int = 3,
    delay_bound: int = 4,
) -> DeliveryPolicy:
    """Build the policy for one exploration episode."""
    if strategy == "fifo":
        return FifoPolicy()
    if strategy == "random-walk":
        return RandomWalkPolicy(seed=seed)
    if strategy == "pct":
        return PCTPolicy(seed=seed, change_points=pct_depth)
    if strategy == "delay-bounded":
        return DelayBoundedPolicy(seed=seed, bound=delay_bound)
    raise ConfigError(
        f"unknown exploration strategy {strategy!r}; "
        f"expected one of {', '.join(STRATEGIES)}"
    )
