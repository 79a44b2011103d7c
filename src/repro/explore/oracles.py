"""Invariant oracles evaluated during schedule exploration.

An oracle watches an exploring run and raises
:class:`~repro.errors.OracleViolation` the moment an invariant breaks.
Three hook points, wired by the runner:

* ``after_delivery(msg)`` -- via the machine's ``deliver_hooks``, after
  the receiving controller has processed the message;
* ``at_quiescence(iteration)`` -- at each iteration boundary, when the
  event queue has drained;
* ``at_end(collector)`` -- once, after the workload completes.

The default battery:

* ``coherence`` -- the machine-level checker
  (:meth:`~repro.sim.machine.Machine._check_coherence`, which walks
  ``protocol/state.py::check_invariants`` plus cross-node exclusivity).
  Under exploration the machine already runs it after every delivery
  (recovery is armed), so this oracle's job is classification: it
  re-raises the machine's :class:`~repro.errors.ProtocolError` as a
  named violation if one slips through on a path the machine does not
  guard.
* ``quiescence`` -- every iteration boundary must find no outstanding
  miss, no active or queued directory transaction, and an empty pool.
* ``liveness`` -- every outstanding request must complete within a
  delivery budget: a request observed outstanding while more than
  ``budget`` deliveries happen machine-wide is declared livelocked
  (retried requests eventually completing is exactly what this bounds).
* ``predictor-balance`` -- Cosmos accuracy may depend on the schedule,
  but its accounting must not: for every predictor module,
  ``predictions + no_prediction == refs`` after replaying the explored
  trace, and the bank's total refs equals the trace length.  Fault-free
  runs only (dropped/duplicated messages change the trace itself).
* ``overtake`` (opt-in, ``overtake`` or ``overtake=0x<block>``) -- fires
  when a delivery overtakes an earlier-admitted message for the same
  block.  Overtaking is *legal* under exploration (that is the point),
  so this is an injected invariant used to seed shrinker regressions
  and to flag schedules that exercise reordering for a specific block.
* ``mc-spot`` (opt-in, ``mc-spot`` or ``mc-spot=N``) -- every ``N``
  deliveries (default 64), project the delivered block's coherence
  state through the model checker's abstraction
  (:func:`repro.mc.abstraction.spot_project`) and assert it is
  reachable in the exhaustively enumerated two-node model
  (:func:`repro.mc.explorer.reachable_space`).  Samples involving more
  than one remote node are skipped (the projection targets the 2-node
  model); fault-injected runs disarm the oracle (drops and duplicates
  take the live run outside the fault-free space).

Oracles are built from spec strings (:func:`parse_oracles`) so CLI
``run``/``replay``/``shrink`` can carry them in ``.repro`` artifacts.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core.config import CosmosConfig
from ..core.evaluation import evaluate_trace
from ..core.predictor import CosmosPredictor
from ..errors import ConfigError, OracleViolation, ProtocolError
from ..protocol.messages import Message

#: Default machine-wide delivery budget for one outstanding request.
DEFAULT_LIVENESS_BUDGET = 20_000
#: How often (in deliveries) the liveness oracle polls outstanding sets.
_LIVENESS_POLL = 256


class Oracle:
    """Base oracle: attach once, then observe the run."""

    name = "oracle"

    def attach(self, machine) -> None:
        self.machine = machine

    def after_delivery(self, msg: Message) -> None:
        pass

    def at_quiescence(self, iteration: int) -> None:
        pass

    def at_end(self, collector) -> None:
        pass

    def spec(self) -> str:
        """The string :func:`parse_oracles` would rebuild this from."""
        return self.name


class CoherenceOracle(Oracle):
    """Classify coherence failures; re-check when the machine does not.

    With recovery armed (always true under exploration) the machine
    checks after every delivery and raises ``ProtocolError`` itself; the
    oracle then only normalizes the failure.  On a hypothetical
    unguarded machine it runs the check here.
    """

    name = "coherence"

    def after_delivery(self, msg: Message) -> None:
        if self.machine.recovery is not None:
            return  # the machine already checked this delivery
        try:
            self.machine._check_coherence(msg.block)
        except ProtocolError as exc:
            raise OracleViolation(self.name, str(exc)) from exc


class QuiescenceOracle(Oracle):
    """Iteration boundaries must be fully quiescent."""

    name = "quiescence"

    def at_quiescence(self, iteration: int) -> None:
        try:
            self.machine.assert_quiescent()
        except ProtocolError as exc:
            raise OracleViolation(
                self.name,
                f"iteration {iteration} boundary is not quiescent: {exc}",
            ) from exc
        if self.machine.engine.pending():
            raise OracleViolation(
                self.name,
                f"iteration {iteration} boundary reached with "
                f"{self.machine.engine.pending()} events still pending "
                f"({self.machine.engine.describe_pending()})",
            )


class LivenessOracle(Oracle):
    """Every outstanding request completes within a delivery budget."""

    name = "liveness"

    def __init__(self, budget: int = DEFAULT_LIVENESS_BUDGET) -> None:
        if budget < 1:
            raise ConfigError("liveness budget must be >= 1")
        self.budget = budget
        self._deliveries = 0
        #: (node, block) -> delivery count when first seen outstanding.
        self._first_seen: Dict[Tuple[int, int], int] = {}

    def after_delivery(self, msg: Message) -> None:
        self._deliveries += 1
        if self._deliveries % _LIVENESS_POLL:
            return
        now = self._deliveries
        current = set()
        for node in self.machine.nodes:
            for block in node.cache.outstanding_blocks():
                key = (node.node_id, block)
                current.add(key)
                first = self._first_seen.setdefault(key, now)
                if now - first > self.budget:
                    raise OracleViolation(
                        self.name,
                        f"request by P{key[0]} for block 0x{key[1]:x} "
                        f"still outstanding after {now - first} "
                        f"machine-wide deliveries (budget {self.budget})",
                    )
        # Completed requests leave the watch list.
        for key in list(self._first_seen):
            if key not in current:
                del self._first_seen[key]

    def at_quiescence(self, iteration: int) -> None:
        self._first_seen.clear()

    def spec(self) -> str:
        if self.budget == DEFAULT_LIVENESS_BUDGET:
            return self.name
        return f"{self.name}={self.budget}"


class PredictorBalanceOracle(Oracle):
    """Cosmos accounting must balance regardless of schedule.

    Runs the explored trace through a fresh predictor bank and asserts,
    per module, ``predictions + no_prediction == refs`` and, bank-wide,
    that total refs equal the trace length.  Only meaningful fault-free:
    drops and duplications change the observed trace itself.
    """

    name = "predictor-balance"

    def at_end(self, collector) -> None:
        machine = getattr(self, "machine", None)
        if machine is not None and machine.faults is not None:
            return
        events = collector.events
        if not events:
            return
        created: List[CosmosPredictor] = []
        config = CosmosConfig()

        def factory() -> CosmosPredictor:
            predictor = CosmosPredictor(config)
            created.append(predictor)
            return predictor

        evaluate_trace(
            events, config, predictor_factory=factory, track_arcs=False
        )
        total_refs = 0
        for index, predictor in enumerate(created):
            refs = predictor.predictions + predictor.no_prediction
            total_refs += refs
            if predictor.hits > predictor.predictions:
                raise OracleViolation(
                    self.name,
                    f"predictor {index}: {predictor.hits} hits out of "
                    f"{predictor.predictions} predictions",
                )
        if total_refs != len(events):
            raise OracleViolation(
                self.name,
                f"predictor bank consumed {total_refs} references for a "
                f"{len(events)}-event trace: observe() accounting does "
                "not balance",
            )


class OvertakeOracle(Oracle):
    """Injected invariant: no same-block overtaking (opt-in).

    Registers on the exploring network's delivery observers and fires
    when a delivered message leaves an *earlier-admitted* message for
    the same block in the pool.  With ``block`` set, only that block is
    watched.
    """

    name = "overtake"

    def __init__(self, block: Optional[int] = None) -> None:
        self.block = block

    def attach(self, machine) -> None:
        super().attach(machine)
        network = machine.network
        observers = getattr(network, "delivery_observers", None)
        if observers is None:
            raise ConfigError(
                "the overtake oracle needs an ExploringNetwork "
                f"(got {type(network).__name__})"
            )
        observers.append(self._on_delivery)

    def _on_delivery(self, seq: int, msg: Message, remaining) -> None:
        if self.block is not None and msg.block != self.block:
            return
        # The pool is admission-ordered; only entries admitted *before*
        # the delivered message count as overtaken.
        for pooled_seq, pooled, _defers in remaining:
            if pooled_seq < seq and pooled.block == msg.block:
                raise OracleViolation(
                    self.name,
                    f"delivery of {msg.mtype.name} "
                    f"P{msg.src}->P{msg.dst} for block 0x{msg.block:x} "
                    f"overtook an earlier-admitted {pooled.mtype.name} "
                    f"P{pooled.src}->P{pooled.dst} for the same block",
                )

    def spec(self) -> str:
        if self.block is None:
            return self.name
        return f"{self.name}=0x{self.block:x}"


#: Default delivery sampling period for the mc-spot oracle.
DEFAULT_MC_SPOT_EVERY = 64


class McSpotOracle(Oracle):
    """Spot-check live coherence states against the exhaustive model.

    Every ``every`` deliveries, the delivered block's live state (cache
    states, outstanding attempts, directory entry, in-flight messages)
    is projected onto the two-node model-checker state space; a
    projection outside the enumerated reachable set means the simulator
    wandered somewhere the model says is impossible -- either a protocol
    bug or a model/abstraction gap, both worth a loud stop.

    The model is chosen to match the machine's protocol options.
    Projections involving more than one remote node are skipped (the
    model is two-node); fault-injected machines disarm the
    oracle entirely.
    """

    name = "mc-spot"

    def __init__(self, every: int = DEFAULT_MC_SPOT_EVERY) -> None:
        if every < 1:
            raise ConfigError("mc-spot sampling period must be >= 1")
        self.every = every
        self.samples = 0
        self._deliveries = 0
        self._model = None
        self._states = None

    def attach(self, machine) -> None:
        super().attach(machine)
        if machine.faults is not None:
            return  # disarmed: faulty runs leave the fault-free space
        # Deferred import: repro.mc.crossval imports repro.explore.
        from ..mc.explorer import reachable_space
        from ..mc.model import MCConfig, Model

        config = MCConfig(
            n_nodes=2,
            homes=(0,),
            half_migratory=machine.options.half_migratory,
            forwarding=machine.options.forwarding,
        )
        self._model = Model(config)
        self._states = reachable_space(config).states

    def after_delivery(self, msg: Message) -> None:
        if self._model is None:
            return
        self._deliveries += 1
        if self._deliveries % self.every:
            return
        from ..mc.abstraction import spot_project

        state = spot_project(self.machine, msg.block, self._model)
        if state is None:
            return
        self.samples += 1
        if state not in self._states:
            raise OracleViolation(
                self.name,
                f"block 0x{msg.block:x} projects to an abstract state "
                f"outside the model's {len(self._states)}-state "
                f"reachable space: {state!r}",
            )

    def spec(self) -> str:
        if self.every == DEFAULT_MC_SPOT_EVERY:
            return self.name
        return f"{self.name}={self.every}"


#: The battery every exploration run gets unless overridden.
DEFAULT_ORACLES = (
    "coherence",
    "quiescence",
    "liveness",
    "predictor-balance",
)


def parse_oracles(specs: Iterable[str]) -> List[Oracle]:
    """Build oracles from spec strings (``name`` or ``name=value``)."""
    oracles: List[Oracle] = []
    for raw in specs:
        spec = raw.strip().lower()
        name, _, value = spec.partition("=")
        if name == "coherence":
            oracles.append(CoherenceOracle())
        elif name == "quiescence":
            oracles.append(QuiescenceOracle())
        elif name == "liveness":
            budget = int(value) if value else DEFAULT_LIVENESS_BUDGET
            oracles.append(LivenessOracle(budget=budget))
        elif name == "predictor-balance":
            oracles.append(PredictorBalanceOracle())
        elif name == "overtake":
            block = int(value, 0) if value else None
            oracles.append(OvertakeOracle(block=block))
        elif name == "mc-spot":
            every = int(value) if value else DEFAULT_MC_SPOT_EVERY
            oracles.append(McSpotOracle(every=every))
        else:
            raise ConfigError(
                f"unknown oracle {raw!r}; expected one of "
                "coherence, quiescence, liveness[=N], "
                "predictor-balance, overtake[=0xBLOCK], mc-spot[=N]"
            )
    return oracles
