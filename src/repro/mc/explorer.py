"""Exhaustive enumeration of the model's reachable state space.

:func:`enumerate_space` runs a breadth-first search from
:meth:`repro.mc.model.Model.initial_state`, checking the exploration
oracles (:mod:`repro.explore.oracles`) in their per-state form at every
state:

* **coherence** -- :meth:`Model.check_state` at every reachable state;
* **observes** -- every transition's predictor-observation count must be
  exactly one per delivery and zero otherwise (the accounting the live
  collector is trusted to keep);
* **liveness** -- no reachable state may be unable to drain: every state
  must reach a quiescent state through *helpful* actions alone
  (deliveries and timeout retries -- not new issues, not faults).  A
  state with work but no helpful action is a deadlock; a region with
  helpful actions that can never drain is a livelock.  Both are found by
  backward reachability from the quiescent states.

Because BFS visits states in shortest-path order, the recorded parent
chain of a violating state is already a minimal-length counterexample;
:func:`counterexample_path` rebuilds it as an action list that
:mod:`repro.mc.crossval` can replay on the concrete simulator.

The canonical fingerprint (SHA-256 over the sorted ``repr`` of every
reachable state) pins the protocol: any edit that changes the reachable
space -- intentionally or not -- changes the digest, and the golden
tests under ``tests/data/mc/`` make that loud.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .model import MCConfig, Model

#: Default safety valve: no clean config in the tested range comes close.
DEFAULT_MAX_STATES = 2_000_000


@dataclass(frozen=True)
class Violation:
    """One oracle violation at a reachable model state."""

    oracle: str
    detail: str
    state: tuple
    #: Actions from the initial state to ``state`` (shortest-path).
    path: Tuple[tuple, ...]


@dataclass
class ExploreResult:
    """Everything one exhaustive enumeration learned."""

    config: MCConfig
    mutation: Optional[str]
    n_states: int
    n_transitions: int
    violations: List[Violation]
    fingerprint: str
    #: False when the ``max_states`` valve tripped before the frontier
    #: emptied (counts and fingerprint then cover a prefix only).
    complete: bool
    initial: tuple
    states: FrozenSet[tuple] = field(repr=False)

    @property
    def ok(self) -> bool:
        return self.complete and not self.violations


def fingerprint_states(states) -> str:
    """Canonical SHA-256 digest of a reachable-state set.

    States are nested all-int tuples, so ``repr`` is stable across runs
    and Python versions; sorting makes the digest order-independent.
    """
    digest = hashlib.sha256()
    for line in sorted(repr(state) for state in states):
        digest.update(line.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def _helpful(action: tuple) -> bool:
    """Actions that make progress toward quiescence.

    New issues create work, faults destroy or duplicate it; deliveries
    and timeout retries are what the live machine relies on to drain.
    """
    return action[0] in ("deliver", "cretry", "dretry")


def enumerate_space(
    model: Model,
    max_states: int = DEFAULT_MAX_STATES,
) -> ExploreResult:
    """BFS the reachable space of ``model``, checking every oracle.

    Stops expanding once a violation is recorded (the mutation battery
    needs only the first), and never expands a state
    that itself violates coherence -- a seeded bug's wreckage is not an
    interesting frontier.  The liveness scan runs only on complete,
    coherent enumerations: a truncated or already-broken space cannot
    distinguish a livelock from a missing suffix.
    """
    initial = model.initial_state()
    parents: Dict[tuple, Optional[Tuple[tuple, tuple]]] = {initial: None}
    # Reverse adjacency over helpful edges only, for the liveness scan.
    helpful_preds: Dict[tuple, List[tuple]] = {}
    quiescent: List[tuple] = []
    frontier = deque([initial])
    violations: List[Violation] = []
    n_transitions = 0
    complete = True

    def record(oracle: str, detail: str, state: tuple) -> None:
        violations.append(
            Violation(
                oracle=oracle,
                detail=detail,
                state=state,
                path=counterexample_path(parents, state),
            )
        )

    while frontier:
        if len(parents) > max_states:
            complete = False
            break
        if violations:
            break
        state = frontier.popleft()
        broken = model.check_state(state)
        if broken is not None:
            record(broken[0], broken[1], state)
            continue  # wreckage of a violation is not a frontier
        if model.is_quiescent(state):
            quiescent.append(state)
        actions = model.actions(state)
        if model.has_work(state) and not any(map(_helpful, actions)):
            record(
                "liveness",
                "deadlock: outstanding work but no delivery or retry "
                "is possible",
                state,
            )
            continue
        for action in actions:
            successor, observes = model.apply(state, action)
            n_transitions += 1
            expected = 1 if action[0] == "deliver" else 0
            if observes != expected:
                record(
                    "observes",
                    f"action {action!r} produced {observes} predictor "
                    f"observations, expected {expected}",
                    state,
                )
                continue
            if successor not in parents:
                parents[successor] = (state, action)
                frontier.append(successor)
            if _helpful(action) and successor != state:
                helpful_preds.setdefault(successor, []).append(state)

    states = frozenset(parents)
    if complete and not violations:
        stuck = _livelocked(states, quiescent, helpful_preds)
        if stuck:
            record(
                "liveness",
                "livelock: no sequence of deliveries and retries reaches "
                "a quiescent state",
                stuck[0],
            )

    return ExploreResult(
        config=model.config,
        mutation=model.mutation,
        n_states=len(states),
        n_transitions=n_transitions,
        violations=violations,
        fingerprint=fingerprint_states(states),
        complete=complete,
        initial=initial,
        states=states,
    )


#: Completed enumerations, keyed by (config, mutation).  Cross-validation
#: and the mc-spot oracle consult the same reachable sets repeatedly;
#: configs are frozen dataclasses, so they key the cache directly.
_SPACE_CACHE: Dict[Tuple[MCConfig, Optional[str]], ExploreResult] = {}


def reachable_space(
    config: MCConfig, mutation: Optional[str] = None
) -> ExploreResult:
    """Enumerate (once per process) and cache the reachable space."""
    key = (config, mutation)
    cached = _SPACE_CACHE.get(key)
    if cached is None:
        cached = enumerate_space(Model(config, mutation))
        _SPACE_CACHE[key] = cached
    return cached


def _livelocked(
    states: FrozenSet[tuple],
    quiescent: List[tuple],
    helpful_preds: Dict[tuple, List[tuple]],
) -> List[tuple]:
    """States that cannot drain: backward reachability from quiescence."""
    can_drain = set(quiescent)
    frontier = deque(quiescent)
    while frontier:
        state = frontier.popleft()
        for pred in helpful_preds.get(state, ()):
            if pred not in can_drain:
                can_drain.add(pred)
                frontier.append(pred)
    return sorted(states - can_drain, key=repr)


def counterexample_path(
    parents: Dict[tuple, Optional[Tuple[tuple, tuple]]], state: tuple
) -> Tuple[tuple, ...]:
    """Rebuild the action list from the initial state to ``state``."""
    actions: List[tuple] = []
    cursor = state
    while True:
        link = parents[cursor]
        if link is None:
            break
        cursor, action = link
        actions.append(action)
    actions.reverse()
    return tuple(actions)


def replay_path(model: Model, path) -> tuple:
    """Apply a counterexample path from the initial state; final state."""
    state = model.initial_state()
    for action in path:
        state = model.step(state, decode_action(action))
    return state


# ----------------------------------------------------------------------
# action (de)serialization -- counterexample files embed action lists
# ----------------------------------------------------------------------

def encode_action(action: tuple) -> list:
    return [list(part) if isinstance(part, tuple) else part
            for part in action]


def decode_action(action) -> tuple:
    return tuple(tuple(part) if isinstance(part, list) else part
                 for part in action)
