"""Trace-replay speculation accounting.

Bridges measured prediction accuracy and the Section 4.4 runtime model:
replay a trace through a predictor bank, charge each message ``f * L``
when it was predicted correctly and ``(1 + r) * L`` otherwise (``L`` =
one-way message latency), and compare against the unaccelerated cost.
This turns Table 5's accuracies into the Figure 5 speedups using the
*measured* per-message outcome stream instead of a single aggregate
``p``, and also reports how often each action rule would have fired.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..core.bank import PredictorBank
from ..core.config import CosmosConfig
from ..protocol.messages import Role
from ..trace.events import TraceEvent
from .actions import ActionRule, ProtocolAction, actions_for
from .model import speedup


@dataclass(frozen=True)
class SpeculationReport:
    """Outcome of replaying a trace under the latency model."""

    messages: int
    hits: int
    baseline_cost: float
    accelerated_cost: float
    f: float
    r: float
    action_counts: Dict[ProtocolAction, int]

    @property
    def measured_accuracy(self) -> float:
        return self.hits / self.messages if self.messages else 0.0

    @property
    def measured_speedup(self) -> float:
        if self.accelerated_cost <= 0.0:
            return float("inf")
        return self.baseline_cost / self.accelerated_cost

    @property
    def model_speedup(self) -> float:
        """The closed-form model evaluated at the measured accuracy."""
        return speedup(self.measured_accuracy, self.f, self.r)


def replay_with_speculation(
    events: Sequence[TraceEvent],
    config: Optional[CosmosConfig] = None,
    f: float = 0.3,
    r: float = 0.5,
    message_latency: float = 1.0,
) -> SpeculationReport:
    """Replay ``events`` and account per-message speculative latency.

    The per-message charge follows Section 4.4: a correctly predicted
    message costs ``f * L`` (its latency largely overlapped), a
    mispredicted or unpredicted one costs ``(1 + r) * L``.  Besides the
    costs, the report counts how many times each Table 2 action rule was
    triggered by a correct prediction.
    """
    bank = PredictorBank(config)
    hits = 0
    messages = 0
    accelerated = 0.0
    action_counts: Counter = Counter()
    for event in events:
        predictor = bank.predictor_for(event.node, event.role)
        observation = predictor.observe(event.block, event.tuple)
        messages += 1
        if observation.hit:
            hits += 1
            accelerated += f * message_latency
            for rule in actions_for(event.role, observation.predicted):
                action_counts[rule.action] += 1
        else:
            accelerated += (1.0 + r) * message_latency
    return SpeculationReport(
        messages=messages,
        hits=hits,
        baseline_cost=messages * message_latency,
        accelerated_cost=accelerated,
        f=f,
        r=r,
        action_counts=dict(action_counts),
    )
