"""Cross-validate the model against the live simulator.

Two directions, both required for the model to mean anything:

* **Simulator -> model** (:func:`cross_validate`): drive a real 16-node
  :class:`~repro.sim.machine.Machine` through
  :class:`~repro.explore.network.ExploringNetwork` episodes whose
  workload touches only the projected nodes and blocks, snapshot the
  abstract state after *every* delivery, and assert each one is in the
  model's reachable set.  A state the simulator visits but the model
  cannot reach means the model (or the abstraction) is wrong.

* **Model -> simulator** (:func:`concretize`): take a model
  counterexample -- a shortest action path to an oracle violation found
  under a seeded mutation -- and replay it concretely: the same accesses
  as a recorded workload, the same delivery order enforced by a
  :class:`GuidedPolicy`, the matching live patch installed.  The
  machine's own invariant checker must fire, and the failure must
  shrink into a ``.repro`` artifact through the PR 5 pipeline
  (:mod:`repro.explore.shrink`).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigError
from ..explore.artifact import ExploreArtifact, save_artifact
from ..explore.network import ExploringNetwork
from ..explore.runner import _execute, episode_seed
from ..explore.shrink import ShrinkResult, shrink
from ..explore.strategies import DEFER_REST, DeliveryPolicy, make_policy
from ..protocol.stache import DEFAULT_OPTIONS, StacheOptions
from ..sim.machine import Machine
from ..sim.params import PAPER_PARAMS
from ..workloads.access import Access
from ..workloads.recorded import RecordedWorkload
from .abstraction import abstract_state
from .explorer import Violation, reachable_space
from .model import MCConfig, Model

#: Deferral budget for guided replay: guidance may have to wait several
#: quanta for the next scripted message to be admitted.
_GUIDED_DEFER_CAP = 64

#: State budget of :func:`sequential_counterexample`'s restricted BFS.
_SEQUENTIAL_MAX_STATES = 200_000


# ----------------------------------------------------------------------
# scenario plumbing: which real nodes/blocks play the model's roles
# ----------------------------------------------------------------------


def model_block_addr(config: MCConfig, index: int) -> int:
    """The real block address playing model block ``index``.

    Block addresses live in the home's page (``home_of`` is the page
    number modulo the node count), consecutive same-home blocks one
    cache line apart.
    """
    home = config.homes[index]
    offset = sum(
        1 for other in range(index) if config.homes[other] == home
    )
    return (
        home * PAPER_PARAMS.page_bytes
        + offset * PAPER_PARAMS.cache_block_bytes
    )


def scenario_maps(
    config: MCConfig,
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Identity projection: model node ``n`` is real node ``n``."""
    node_map = {node: node for node in range(config.n_nodes)}
    block_map = {
        model_block_addr(config, index): index
        for index in range(config.n_blocks)
    }
    return node_map, block_map


def scenario_workload(
    config: MCConfig,
    seed: int,
    iterations: int = 3,
) -> RecordedWorkload:
    """A random sparse workload confined to the projected nodes/blocks.

    Only the model's nodes get accesses, and only to the model's block
    addresses -- every other node stays silent, so the projection is
    total for the whole run.  Each model node makes one to three
    accesses per iteration.
    """
    rng = random.Random(seed)
    addrs = [
        model_block_addr(config, index)
        for index in range(config.n_blocks)
    ]
    phases = []
    for _ in range(iterations):
        streams: List[List[Access]] = [
            [] for _ in range(PAPER_PARAMS.n_nodes)
        ]
        for node in range(config.n_nodes):
            for _ in range(rng.randint(1, 3)):
                streams[node].append(
                    Access(
                        block=rng.choice(addrs),
                        is_write=bool(rng.getrandbits(1)),
                    )
                )
        phases.append([streams])
    return RecordedWorkload(
        n_procs=PAPER_PARAMS.n_nodes,
        startup_phases=[],
        iteration_phases=phases,
        source="mc-crossval",
    )


# ----------------------------------------------------------------------
# simulator -> model
# ----------------------------------------------------------------------


@dataclass
class CrossValReport:
    """What one cross-validation campaign observed."""

    config: MCConfig
    episodes: int
    #: Abstract states sampled (one per delivery, plus boundaries).
    samples: int
    distinct: int
    model_states: int
    #: Simulator-reachable abstract states missing from the model,
    #: as ``(episode, repr(state))``.  Must be empty.
    unmatched: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.unmatched


def cross_validate(
    config: MCConfig = MCConfig(n_nodes=2, homes=(0,)),
    episodes: int = 4,
    seed: int = 0,
    iterations: int = 3,
    strategy: str = "random-walk",
) -> CrossValReport:
    """Sample simulator-reachable abstract states; check model membership.

    Each episode runs a fresh machine under an adversarial delivery
    policy (seeded per episode like ``repro-explore``), snapshotting the
    abstract state after every delivery and at the quiescent start/end.
    The machine's protocol options come from ``config``'s
    ``half_migratory`` and ``forwarding``, so both sides explore the
    same protocol.
    """
    if config.faults:
        raise ConfigError(
            "cross-validation episodes run fault-free: the exploring "
            "network supplies the adversarial schedules, and fault "
            "nondeterminism would need its own seed plumbing"
        )
    options = StacheOptions(
        half_migratory=config.half_migratory, forwarding=config.forwarding
    )
    model = Model(config)
    space = reachable_space(config)
    node_map, block_map = scenario_maps(config)

    visited: Dict[tuple, int] = {}
    samples = 0
    for episode in range(episodes):
        ep_seed = episode_seed(seed, episode)
        policy = make_policy(strategy, seed=ep_seed)
        workload = scenario_workload(config, ep_seed, iterations)

        def factory(engine, params, deliver):
            return ExploringNetwork(engine, params, deliver, policy=policy)

        machine = Machine(
            params=PAPER_PARAMS,
            options=options,
            seed=ep_seed,
            network_factory=factory,
        )

        def sample(_msg=None):
            nonlocal samples
            samples += 1
            state = abstract_state(machine, model, node_map, block_map)
            visited.setdefault(state, episode)

        machine.deliver_hooks.append(sample)
        sample()  # the quiescent initial state
        machine.run_workload(workload, iterations)
        sample()  # the quiescent final state

    unmatched = sorted(
        (episode, repr(state))
        for state, episode in visited.items()
        if state not in space.states
    )
    return CrossValReport(
        config=config,
        episodes=episodes,
        samples=samples,
        distinct=len(visited),
        model_states=space.n_states,
        unmatched=unmatched,
    )


# ----------------------------------------------------------------------
# model -> simulator
# ----------------------------------------------------------------------


class GuidedPolicy(DeliveryPolicy):
    """Deliver messages in the order a model counterexample prescribes.

    Guidance is a list of ``(src, dst, mtype, block)`` signatures in
    real coordinates.  While guidance remains, the policy delivers the
    pooled message matching the next signature and defers everything
    else until it shows up; once exhausted, it falls back to FIFO.
    """

    name = "guided"
    defer_cap = _GUIDED_DEFER_CAP

    def __init__(self, guidance: Sequence[Tuple[int, int, int, int]]):
        self._guidance = list(guidance)

    def decide(self, enabled) -> int:
        if not self._guidance:
            return 0
        src, dst, mtype, block = self._guidance[0]
        for index, (_seq, msg, _defers) in enumerate(enabled):
            if (
                msg.src == src
                and msg.dst == dst
                and int(msg.mtype) == mtype
                and msg.block == block
            ):
                self._guidance.pop(0)
                return index
        return DEFER_REST

    def describe(self) -> dict:
        return {"name": self.name, "pending": len(self._guidance)}


def sequential_counterexample(model: Model) -> Optional[Violation]:
    """Shortest violating path using only phase-expressible actions.

    The full explorer's shortest counterexample may interleave issues
    with in-flight messages -- a schedule the machine's phase barriers
    cannot express.  This restricted BFS allows issues only from
    quiescent states and plain (non-saturated) deliveries otherwise, so
    every violation it finds replays as a phase-per-issue workload under
    a :class:`GuidedPolicy`.  Returns ``None`` when the seeded bug needs
    faults, retries, or overlap to manifest.
    """
    from collections import deque

    from .explorer import counterexample_path

    initial = model.initial_state()
    parents: Dict[tuple, Optional[Tuple[tuple, tuple]]] = {initial: None}
    frontier = deque([initial])
    while frontier and len(parents) <= _SEQUENTIAL_MAX_STATES:
        state = frontier.popleft()
        broken = model.check_state(state)
        if broken is not None:
            return Violation(
                oracle=broken[0],
                detail=broken[1],
                state=state,
                path=counterexample_path(parents, state),
            )
        quiescent = model.is_quiescent(state)
        for action in model.actions(state):
            kind = action[0]
            if kind == "issue":
                if not quiescent:
                    continue
            elif kind != "deliver" or action[2] != 0:
                continue
            successor = model.step(state, action)
            if successor not in parents:
                parents[successor] = (state, action)
                frontier.append(successor)
    return None


@dataclass
class RoundTrip:
    """A model counterexample replayed and shrunk concretely."""

    mutation: Optional[str]
    oracle: str
    message: str
    artifact: ExploreArtifact
    shrink_result: Optional[ShrinkResult] = None
    artifact_path: Optional[Path] = None


def _counterexample_workload(
    model: Model, path: Sequence[tuple]
) -> Tuple[RecordedWorkload, List[Tuple[int, int, int, int]]]:
    """Split a model action path into phases + delivery guidance.

    Issues become one single-access phase each (the machine's phase
    barrier waits for quiescence, so the path must be *sequential*:
    every issue from a quiescent model state).  Deliveries become
    guidance signatures for a :class:`GuidedPolicy`.
    """
    _, block_map = scenario_maps(model.config)
    addr_of = {index: addr for addr, index in block_map.items()}
    phases: List[list] = []
    guidance: List[Tuple[int, int, int, int]] = []
    state = model.initial_state()
    for action in path:
        kind = action[0]
        if kind == "issue":
            _, node, block, is_write = action
            if not model.is_quiescent(state):
                raise ConfigError(
                    "counterexample issues an access while messages are "
                    "in flight; phase barriers cannot express that "
                    "schedule -- choose a mutation with a sequential "
                    "counterexample"
                )
            streams: List[List[Access]] = [
                [] for _ in range(PAPER_PARAMS.n_nodes)
            ]
            streams[node].append(
                Access(block=addr_of[block], is_write=bool(is_write))
            )
            phases.append([streams])
        elif kind == "deliver":
            msg = action[1]
            src, dst, mtype, block = msg[0], msg[1], msg[2], msg[3]
            guidance.append((src, dst, mtype, addr_of[block]))
        else:
            raise ConfigError(
                f"counterexample contains a {kind!r} action; only "
                "fault-free, retry-free paths replay concretely"
            )
        state = model.step(state, action)
    workload = RecordedWorkload(
        n_procs=PAPER_PARAMS.n_nodes,
        startup_phases=[],
        iteration_phases=phases,
        source="mc-counterexample",
    )
    return workload, guidance


def concretize(
    violation: Violation,
    model: Model,
    out_path: Optional[Union[str, Path]] = None,
    shrink_checks: int = 200,
    run_shrink: bool = True,
) -> RoundTrip:
    """Replay a model counterexample on the live simulator and shrink it.

    The caller is responsible for installing the matching live patch
    (:func:`repro.mc.mutations.live_patch`) *around* this call -- both
    the replay and every shrink re-execution must run the mutated
    controllers.  Raises :class:`ConfigError` if the concrete run does
    not fail (the mutation did not reproduce).

    When ``violation``'s path is not phase-expressible (an issue while
    messages are in flight), the replay falls back to
    :func:`sequential_counterexample` for an equivalent violation of the
    same mutated model that is.
    """
    try:
        workload, guidance = _counterexample_workload(
            model, violation.path
        )
    except ConfigError:
        fallback = sequential_counterexample(model)
        if fallback is None:
            raise
        violation = fallback
        workload, guidance = _counterexample_workload(
            model, violation.path
        )
    run_config = {
        "workload": {"recorded": workload.to_dict()},
        "seed": 0,
        "options": asdict(DEFAULT_OPTIONS),
        "fault_spec": None,
        "fault_seed": 0,
        "quantum_ns": None,
        "defer_cap": _GUIDED_DEFER_CAP,
    }
    policy = GuidedPolicy(guidance)
    execution = _execute(
        run_config,
        workload,
        len(workload.iteration_phases),
        policy,
        oracle_specs=("coherence", "quiescence"),
    )
    if execution.outcome != "violation":
        raise ConfigError(
            f"model counterexample did not reproduce concretely: the "
            f"patched simulator run finished {execution.outcome!r} "
            "(is the matching live patch installed?)"
        )
    artifact = ExploreArtifact(
        config=run_config,
        strategy=policy.describe(),
        decisions=list(execution.network.decisions),
        failure=execution.failure,
        forensics=execution.forensics,
        oracles=["coherence", "quiescence"],
    )
    result = RoundTrip(
        mutation=model.mutation,
        oracle=execution.failure["oracle"],
        message=execution.failure["message"],
        artifact=artifact,
    )
    if run_shrink:
        result.shrink_result = shrink(artifact, max_checks=shrink_checks)
        result.artifact = result.shrink_result.artifact
    if out_path is not None:
        result.artifact_path = save_artifact(result.artifact, out_path)
    return result
