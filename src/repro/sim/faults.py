"""Seeded fault injection for the interconnect.

The base :class:`~repro.sim.network.Network` is an idealized wire:
constant latency, no loss, per-channel FIFO.  Real interconnects give
none of those guarantees, and a protocol that silently depends on them
is fragile.  :class:`FaultyNetwork` wraps the same ``send()`` interface
with a :class:`FaultProfile` -- drop probability, duplication
probability, per-message latency jitter, and a bounded reorder window --
all driven by one ``random.Random(fault_seed)`` stream so any
``(workload seed, fault profile, fault seed)`` combination replays
bit-for-bit.

The protocol side of the story lives in
:mod:`repro.protocol.recovery` and the controllers: sequence-numbered
requests, timeout/retry, and idempotent re-grants turn at-most-once
delivery into eventual completion.  The :class:`~repro.sim.machine.Machine`
couples the two -- a machine built with an active fault profile enables
recovery automatically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from typing import Callable, Dict

from ..errors import ConfigError
from ..obs.log import OBS
from ..obs.spans import SPANS
from ..protocol.messages import Message
from .engine import Engine
from .metrics import METRICS
from .params import SystemParams


@dataclass(frozen=True)
class FaultProfile:
    """How an unreliable interconnect misbehaves.

    All probabilities are per message send (a duplicated message's extra
    copy is itself subject to jitter and reordering but is never dropped
    or re-duplicated, keeping the fault algebra simple and bounded).
    """

    #: Probability a message is silently dropped.
    drop: float = 0.0
    #: Probability a message is delivered twice.
    dup: float = 0.0
    #: Probability a message draws an extra reorder delay.
    reorder: float = 0.0
    #: Upper bound (ns) of the extra reorder delay; the delay is drawn
    #: uniformly from [1, window], so reordering is bounded.
    window: int = 400
    #: Upper bound (ns) of always-on per-message latency jitter
    #: (drawn uniformly from [0, jitter]; 0 disables jitter).
    jitter: int = 0
    #: Probability a message suffers a rare long-tail latency spike --
    #: the occasional multi-round-trip stall a congested or flapping
    #: link produces, far beyond ordinary jitter.  Spiked messages are
    #: still delivered (never dropped); the serve chaos suite and
    #: ``repro-trace simulate --fault-profile spike`` both lean on this.
    spike: float = 0.0
    #: Magnitude ceiling (ns) of a latency spike; a spiked message draws
    #: its extra delay uniformly from [spike_ns // 2 + 1, spike_ns], so
    #: every spike is genuinely long-tail rather than jitter-sized.
    spike_ns: int = 4_000
    #: Probability, per predictor observation, that a random bit flips
    #: in a stored MHT/PHT entry (soft-error model for the predictor
    #: SRAM; see :mod:`repro.core.corruption`).
    flip: float = 0.0
    #: Probability, per predictor observation, that a whole MHT entry
    #: (the block's history and patterns) is lost outright.
    loss: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop", "dup", "reorder", "spike", "flip", "loss"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    f"fault profile field {name!r}: probability {value} "
                    f"is outside [0, 1]"
                )
        if self.window < 1:
            raise ConfigError(
                f"fault profile field 'window': reorder window "
                f"{self.window} ns must be >= 1"
            )
        if self.jitter < 0:
            raise ConfigError(
                f"fault profile field 'jitter': {self.jitter} ns is "
                f"negative; jitter must be >= 0"
            )
        if self.spike_ns < 2:
            raise ConfigError(
                f"fault profile field 'spike_ns': spike ceiling "
                f"{self.spike_ns} ns must be >= 2 so a spike always "
                f"exceeds half its own ceiling"
            )

    @property
    def is_active(self) -> bool:
        """Whether this profile perturbs the network's delivery at all.

        Predictor corruption (``flip``/``loss``) deliberately does not
        count: it perturbs predictor state, not message delivery, so a
        corruption-only profile keeps the timing-exact reliable
        interconnect (and its golden traces) untouched.
        """
        return bool(
            self.drop or self.dup or self.reorder or self.jitter or self.spike
        )

    @property
    def corrupts_predictor(self) -> bool:
        """Whether this profile injects predictor-state corruption."""
        return bool(self.flip or self.loss)

    @property
    def max_skew_ns(self) -> int:
        """Worst-case extra delay any single message can suffer."""
        return (
            self.jitter
            + (self.window if self.reorder else 0)
            + (self.spike_ns if self.spike else 0)
        )

    def spec(self) -> str:
        """Canonical ``key=value,...`` string; ``parse`` round-trips it."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value:g}")
        return ",".join(parts) if parts else "none"

    @classmethod
    def parse(cls, spec: str) -> "FaultProfile":
        """Parse a preset name or a ``key=value,...`` profile string.

        Presets: ``none``, ``light``, ``moderate``, ``heavy``.  Explicit
        fields override nothing -- a spec is either a preset or a field
        list, e.g. ``drop=0.05,dup=0.02,reorder=0.2,window=300``.
        """
        text = spec.strip().lower()
        preset = PRESETS.get(text)
        if preset is not None:
            return preset
        kwargs: Dict[str, object] = {}
        valid = {f.name for f in fields(cls)}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigError(
                    f"bad fault profile component {part!r}; expected "
                    f"key=value with keys {sorted(valid)} or a preset "
                    f"({', '.join(sorted(PRESETS))})"
                )
            name, _, raw = part.partition("=")
            name = name.strip()
            if name not in valid:
                raise ConfigError(
                    f"unknown fault profile field {name!r}; "
                    f"expected one of {sorted(valid)}"
                )
            try:
                value: object = (
                    int(raw)
                    if name in ("window", "jitter", "spike_ns")
                    else float(raw)
                )
            except ValueError:
                raise ConfigError(
                    f"bad value for fault profile field {name}: {raw!r}"
                ) from None
            kwargs[name] = value
        return cls(**kwargs)


#: Named profiles for CLIs and tests.
PRESETS: Dict[str, FaultProfile] = {
    "none": FaultProfile(),
    "light": FaultProfile(drop=0.01, dup=0.005, reorder=0.05, jitter=10),
    "moderate": FaultProfile(drop=0.05, dup=0.02, reorder=0.15, jitter=20),
    "heavy": FaultProfile(drop=0.15, dup=0.05, reorder=0.30, jitter=40),
    # Rare long-tail latency spikes on an otherwise healthy link: no
    # loss, mild jitter, and a 2% chance of a multi-microsecond stall.
    "spike": FaultProfile(spike=0.02, spike_ns=4_000, jitter=10),
}


class FaultyNetwork:
    """An interconnect that drops, duplicates, delays, and reorders.

    Drop-in replacement for :class:`~repro.sim.network.Network`: same
    constructor head, same ``send()`` entry point, same ``latency_ns``
    and ``messages_sent`` attributes.  Fault decisions are drawn from a
    private ``random.Random(fault_seed)``, so the engine's determinism
    guarantee extends to faulty runs: the same (workload, seed, profile,
    fault seed) tuple replays identically, anywhere.
    """

    #: A faulty interconnect jitters and reorders, but the *protocol*
    #: seam that arms recovery keys off the fault profile itself (see
    #: :class:`~repro.sim.machine.Machine`); ``adversarial`` marks
    #: networks that reorder by *choice* rather than by chance.
    adversarial = False

    def __init__(
        self,
        engine: Engine,
        params: SystemParams,
        deliver: Callable[[Message], None],
        profile: FaultProfile,
        fault_seed: int = 0,
    ) -> None:
        self._engine = engine
        self._latency = params.one_way_message_ns
        self._deliver = deliver
        self.profile = profile
        self.fault_seed = fault_seed
        self._rng = random.Random(fault_seed)
        self.messages_sent = 0
        #: Instance-level fault accounting (also mirrored into METRICS
        #: under ``net.fault.*`` so ``--metrics-json`` reports totals).
        self.fault_counts: Dict[str, int] = {
            "sent": 0,
            "delivered": 0,
            "dropped": 0,
            "duplicated": 0,
            "reordered": 0,
            "spiked": 0,
        }

    @property
    def latency_ns(self) -> int:
        return self._latency

    @property
    def max_skew_ns(self) -> int:
        """Worst-case extra delay any single message can suffer."""
        return self.profile.max_skew_ns

    def _count(self, name: str) -> None:
        self.fault_counts[name] += 1
        METRICS.inc(f"net.fault.{name}")

    def _delay_for(self, msg: Message) -> int:
        """One delivery delay: base latency, jitter, maybe a reorder bump."""
        delay = self._latency
        if self.profile.jitter:
            delay += self._rng.randrange(0, self.profile.jitter + 1)
        if self.profile.reorder and self._rng.random() < self.profile.reorder:
            bump = self._rng.randrange(1, self.profile.window + 1)
            delay += bump
            self._count("reordered")
            if OBS.proto:
                OBS.emit(
                    self._engine.now,
                    "net",
                    "reorder",
                    msg.src,
                    msg.block,
                    {"dst": msg.dst, "extra_ns": bump},
                )
        # Spike last, and only when the profile enables it: profiles
        # without spikes consume exactly the RNG stream they always did,
        # so every pre-spike golden trace stays byte-identical.
        if self.profile.spike and self._rng.random() < self.profile.spike:
            bump = self._rng.randrange(
                self.profile.spike_ns // 2 + 1, self.profile.spike_ns + 1
            )
            delay += bump
            self._count("spiked")
            if OBS.proto:
                OBS.emit(
                    self._engine.now,
                    "net",
                    "spike",
                    msg.src,
                    msg.block,
                    {"dst": msg.dst, "extra_ns": bump},
                )
        return delay

    def send(self, msg: Message) -> None:
        """Inject ``msg``, subject to the fault profile."""
        self.messages_sent += 1
        self._count("sent")
        if self.profile.drop and self._rng.random() < self.profile.drop:
            self._count("dropped")
            if OBS.proto:
                OBS.emit(
                    self._engine.now,
                    "net",
                    "drop",
                    msg.src,
                    msg.block,
                    {"dst": msg.dst, "mtype": msg.mtype.name},
                )
            if SPANS.enabled and msg.txn is not None:
                SPANS.drop(msg.txn, msg.src, msg.dst, msg.mtype.value)
            return
        delay = self._delay_for(msg)
        # Metrics are not an observability feature: the latency histogram
        # (here with real per-message jitter, so no constant-fold like
        # Network's) must be populated with OBS off.
        METRICS.observe("net.msg.latency_ns", delay)
        if OBS.msg:
            OBS.emit(
                self._engine.now,
                "net",
                "send",
                msg.src,
                msg.block,
                {
                    "dst": msg.dst,
                    "mtype": msg.mtype.name,
                    "delay_ns": delay,
                },
            )
        if SPANS.enabled and msg.txn is not None:
            SPANS.xfer(msg.txn, msg.src, msg.dst, msg.mtype.value, delay)
        self._engine.schedule(delay, self._deliver_one, msg)
        if self.profile.dup and self._rng.random() < self.profile.dup:
            self._count("duplicated")
            dup_delay = self._delay_for(msg)
            if OBS.proto:
                OBS.emit(
                    self._engine.now,
                    "net",
                    "dup",
                    msg.src,
                    msg.block,
                    {"dst": msg.dst, "extra_delay_ns": dup_delay},
                )
            if SPANS.enabled and msg.txn is not None:
                SPANS.xfer(
                    msg.txn,
                    msg.src,
                    msg.dst,
                    msg.mtype.value,
                    dup_delay,
                    dup=True,
                )
            self._engine.schedule(dup_delay, self._deliver_one, msg)

    def _deliver_one(self, msg: Message) -> None:
        self._count("delivered")
        self._deliver(msg)
