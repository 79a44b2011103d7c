"""Deterministic service-chaos scripts.

The offline simulator already has seeded fault injection
(:mod:`repro.sim.faults`); this is the serving-side analogue.  A
:class:`ChaosScript` is a list of scripted actions, each anchored to a
*deterministic* position rather than to wall time:

* ``kill``  -- a shard worker SIGKILLs itself immediately after
  responding to its N-th trained observation (first incarnation only,
  so a restored worker replaying the same observations does not die in
  a loop);
* ``stall`` -- a shard worker sleeps before responding to its N-th
  trained observation, driving the request past its deadline (and past
  the supervisor's hang budget, if long enough);
* ``flood`` -- the load generator fires a burst of concurrent requests
  at its N-th observation, overrunning the bounded queues;
* ``slow``  -- the load generator delays reading responses for a range
  of observations (a slow-consumer client).

``kill``/``stall`` are worker-side: they ship to the worker at spawn.
``flood``/``slow`` are client-side: the load generator consumes them.
The same spec string always produces the same faults, and
:meth:`ChaosScript.battery` derives a standard kill+stall+flood+slow
battery from a single seed.

Spec grammar (whitespace-insensitive)::

    kill:shard=1,at=200; stall:shard=0,at=120,ms=400; \
    flood:at=300,burst=64; slow:at=400,count=50,delay_ms=20
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import ConfigError

_ACTION_FIELDS = {
    "kill": {"shard", "at"},
    "stall": {"shard", "at", "ms"},
    "flood": {"at", "burst"},
    "slow": {"at", "count", "delay_ms"},
}

#: The battery's over-deadline stall, and its queue flood's size.
BATTERY_STALL_MS = 400.0
BATTERY_BURST = 48


@dataclass(frozen=True)
class ChaosAction:
    """One scripted fault."""

    kind: str
    #: kill/stall: the target shard; flood/slow: -1 (client-side).
    shard: int
    #: kill/stall: the shard-local trained-observation ordinal; flood/
    #: slow: the load generator's observation index.
    at: int
    #: stall: sleep milliseconds; flood: burst size; slow: per-response
    #: read delay in milliseconds.  Unused fields are 0.
    ms: float = 0.0
    burst: int = 0
    count: int = 0


@dataclass(frozen=True)
class ChaosScript:
    """A parsed, validated set of chaos actions."""

    actions: Tuple[ChaosAction, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "ChaosScript":
        """Parse the ``kind:key=value,...; ...`` grammar."""
        actions: List[ChaosAction] = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            kind, _, rest = clause.partition(":")
            kind = kind.strip().lower()
            if kind not in _ACTION_FIELDS:
                raise ConfigError(
                    f"unknown chaos action {kind!r}; expected one of "
                    f"{sorted(_ACTION_FIELDS)}"
                )
            fields: Dict[str, float] = {}
            for part in rest.split(","):
                part = part.strip()
                if not part:
                    continue
                name, _, raw = part.partition("=")
                name = name.strip()
                if name not in _ACTION_FIELDS[kind]:
                    raise ConfigError(
                        f"chaos action {kind!r} does not take field "
                        f"{name!r}; expected {sorted(_ACTION_FIELDS[kind])}"
                    )
                try:
                    fields[name] = float(raw)
                except ValueError:
                    raise ConfigError(
                        f"bad value for chaos field {kind}:{name}: {raw!r}"
                    ) from None
            missing = _ACTION_FIELDS[kind] - set(fields)
            if missing:
                raise ConfigError(
                    f"chaos action {kind!r} is missing field(s) "
                    f"{sorted(missing)}"
                )
            if fields["at"] < 1:
                raise ConfigError(
                    f"chaos action {kind!r}: 'at' ordinal "
                    f"{fields['at']:g} must be >= 1"
                )
            actions.append(
                ChaosAction(
                    kind=kind,
                    shard=int(fields.get("shard", -1)),
                    at=int(fields["at"]),
                    ms=float(fields.get("ms", fields.get("delay_ms", 0.0))),
                    burst=int(fields.get("burst", 0)),
                    count=int(fields.get("count", 0)),
                )
            )
        return cls(actions=tuple(actions))

    @classmethod
    def battery(
        cls,
        seed: int,
        shards: int,
        observations: int,
    ) -> "ChaosScript":
        """The standard acceptance battery, derived from one seed.

        One mid-stream SIGKILL, one over-deadline stall on a *different*
        shard, one queue flood, and one slow-client window, all anchored
        inside the middle of the run so recovery has room to complete.
        """
        if observations < 40:
            raise ConfigError(
                f"chaos battery needs >= 40 observations, got {observations}"
            )
        rng = random.Random(seed)
        # kill/stall anchor on *shard-local* trained ordinals: a shard
        # only sees ~observations/shards of the stream, so scale the
        # anchor window down or the fault could land past the end.
        lo = max(1, observations // (8 * shards))
        hi = max(lo + 1, observations // (2 * shards))
        kill_shard = rng.randrange(shards)
        stall_shard = (kill_shard + 1) % shards if shards > 1 else kill_shard
        return cls(
            actions=(
                ChaosAction(
                    "kill", kill_shard, rng.randrange(lo, hi)
                ),
                ChaosAction(
                    "stall", stall_shard, rng.randrange(lo, hi),
                    ms=BATTERY_STALL_MS,
                ),
                ChaosAction(
                    "flood", -1,
                    rng.randrange(
                        observations // 2, observations - BATTERY_BURST
                    ),
                    burst=BATTERY_BURST,
                ),
                ChaosAction(
                    "slow", -1,
                    rng.randrange(observations // 2, observations - 20),
                    ms=10.0, count=20,
                ),
            )
        )

    # ------------------------------------------------------------------
    # consumers
    # ------------------------------------------------------------------

    def worker_actions(self, shard: int) -> dict:
        """The kill/stall plan shipped to shard ``shard`` at first spawn.

        Plain data (it crosses the process boundary): ``kill_at`` is a
        sorted tuple of trained ordinals, ``stall_at`` maps ordinals to
        sleep seconds.
        """
        kill_at = sorted(
            action.at
            for action in self.actions
            if action.kind == "kill" and action.shard == shard
        )
        stall_at = {
            action.at: action.ms / 1_000.0
            for action in self.actions
            if action.kind == "stall" and action.shard == shard
        }
        return {"kill_at": tuple(kill_at), "stall_at": stall_at}

    def client_actions(self) -> Tuple[ChaosAction, ...]:
        """The flood/slow actions, for the load generator."""
        return tuple(
            action
            for action in self.actions
            if action.kind in ("flood", "slow")
        )

    def spec(self) -> str:
        """Canonical spec string; :meth:`parse` round-trips it."""
        parts = []
        for action in self.actions:
            if action.kind == "kill":
                parts.append(f"kill:shard={action.shard},at={action.at}")
            elif action.kind == "stall":
                parts.append(
                    f"stall:shard={action.shard},at={action.at},"
                    f"ms={action.ms:g}"
                )
            elif action.kind == "flood":
                parts.append(f"flood:at={action.at},burst={action.burst}")
            else:
                parts.append(
                    f"slow:at={action.at},count={action.count},"
                    f"delay_ms={action.ms:g}"
                )
        return "; ".join(parts)
