"""A machine-wide bank of Cosmos predictors.

The paper allocates one Cosmos predictor beside every cache module and
every directory module.  :class:`PredictorBank` is the one collection
every trace replay takes its predictors from, and routes trace events to
the right predictor.  ``share_roles=True`` is an ablation that merges
each node's two predictors into one (cheaper, but cache- and
directory-side patterns then alias in one table).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..errors import CheckpointError
from ..protocol.messages import Role
from ..sim.metrics import METRICS
from ..trace.events import TraceEvent
from .config import CosmosConfig
from .corruption import CorruptionInjector, CorruptionProfile
from .memory import MemoryOverhead, memory_report
from .predictor import CosmosPredictor, Observation


class PredictorBank:
    """One predictor per (node, role) -- or per node when roles are shared.

    ``factory`` builds a non-Cosmos predictor per module instead (then
    ``config`` and corruption are unused).
    """

    def __init__(
        self,
        config: Optional[CosmosConfig] = None,
        share_roles: bool = False,
        corruption: Optional[CorruptionProfile] = None,
        corruption_seed: int = 0,
        factory: Optional[Callable[[], object]] = None,
    ) -> None:
        self.config = config if config is not None else CosmosConfig()
        self.share_roles = share_roles
        self.corruption = (
            corruption if corruption is not None and corruption.is_active
            else None
        )
        self.corruption_seed = corruption_seed
        self.factory = factory
        self._predictors: Dict[Tuple[int, Role], object] = {}

    def _key(self, node: int, role: Role) -> Tuple[int, Role]:
        if self.share_roles:
            return (node, Role.CACHE)  # canonical key for the merged bank
        return (node, role)

    def _injector_for(self, key: Tuple[int, Role]) -> CorruptionInjector:
        """One deterministic, independent error stream per module.

        The seed mixes the bank seed with the module identity (not the
        creation order), so a module's error sequence is stable no
        matter which modules a trace happens to touch first.
        """
        node, role = key
        seed = (
            self.corruption_seed * 1_000_003
            + node * 16
            + (0 if role is Role.CACHE else 1)
        )
        return CorruptionInjector(self.corruption, seed)

    def predictor_for(self, node: int, role: Role) -> CosmosPredictor:
        """The predictor attached to the given module (created on demand)."""
        key = self._key(node, role)
        predictor = self._predictors.get(key)
        if predictor is None:
            if self.factory is not None:
                predictor = self.factory()
            else:
                injector = (
                    self._injector_for(key)
                    if self.corruption is not None
                    else None
                )
                predictor = CosmosPredictor(self.config, corruption=injector)
            self._predictors[key] = predictor
        return predictor

    def observe(self, event: TraceEvent) -> Observation:
        """Route one trace event to its module's predictor."""
        predictor = self.predictor_for(event.node, event.role)
        return predictor.observe(event.block, event.tuple)

    def __iter__(self) -> Iterator[Tuple[Tuple[int, Role], CosmosPredictor]]:
        return iter(self._predictors.items())

    def __len__(self) -> int:
        return len(self._predictors)

    def _cosmos_config(self) -> Optional[CosmosConfig]:
        """The modules' config, or ``None`` unless every one is Cosmos."""
        predictors = self._predictors.values()
        if not predictors or not all(
            isinstance(p, CosmosPredictor) for p in predictors
        ):
            return None
        return next(iter(predictors)).config

    def memory_report(self) -> Optional[Dict[str, int]]:
        """Machine-wide storage totals; ``None`` unless there are Cosmos
        predictors only."""
        config = self._cosmos_config()
        if config is None:
            return None
        return memory_report(config, self._predictors.values())

    @property
    def overhead(self) -> Optional[MemoryOverhead]:
        """Machine-wide Table 7 quantities, from :meth:`memory_report`."""
        report = self.memory_report()
        if report is None:
            return None
        config = self._cosmos_config()
        return MemoryOverhead(
            mhr_entries=report["mhr_live"],
            pht_entries=report["pht_live"],
            depth=config.depth,
            tuple_bytes=config.tuple_bytes,
            block_bytes=config.block_bytes,
            peak_mhr_entries=report["peak_mhr"],
            peak_pht_entries=report["peak_pht"],
        )

    def fold_metrics(self) -> None:
        """End-of-replay fold: per-block PHT sizes to the
        ``pred.pht.block_entries`` histogram and, for a capacity-bounded
        bank only, :meth:`memory_report` to ``pred.mem.*`` counters."""
        for predictor in self._predictors.values():
            pht_sizes = getattr(predictor, "pht_sizes", None)
            if pht_sizes is not None:
                for size in pht_sizes():
                    METRICS.observe("pred.pht.block_entries", size)
        config = self._cosmos_config()
        if config is not None and (
            config.mhr_capacity or config.pht_capacity
        ):
            for name, value in self.memory_report().items():
                METRICS.inc(f"pred.mem.{name}", value)

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------

    def _fingerprint(self) -> dict:
        """The construction parameters a snapshot is only valid under.

        Restoring predictor state into a bank built differently would
        not fail loudly -- it would silently mis-predict (wrong depth /
        capacity semantics) or mis-route (different role sharing), so
        the fingerprint travels with the snapshot and is enforced on
        restore.
        """
        return {
            "config": asdict(self.config),
            "share_roles": self.share_roles,
            "corruption": (
                asdict(self.corruption)
                if self.corruption is not None
                else None
            ),
            "corruption_seed": self.corruption_seed,
        }

    def snapshot_state(self) -> dict:
        """Capture every predictor in the bank as plain data."""
        return {
            "fingerprint": self._fingerprint(),
            "predictors": [
                {
                    "node": node,
                    "role": role.value,
                    "state": predictor.snapshot_state(),
                }
                for (node, role), predictor in self._predictors.items()
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a bank captured by :meth:`snapshot_state`.

        The bank must have been constructed with the same config,
        role-sharing, and corruption arming as the captured one;
        a mismatch raises :class:`CheckpointError` naming the differing
        fields instead of silently resuming with wrong semantics.
        (Pre-fingerprint snapshots restore unchecked.)
        """
        recorded = state.get("fingerprint")
        if recorded is not None:
            recorded = _without_retired_knobs(recorded)
            current = self._fingerprint()
            mismatched = [
                field
                for field in current
                if field in recorded and recorded[field] != current[field]
            ]
            if mismatched:
                detail = "; ".join(
                    f"{field}: snapshot {recorded[field]!r} != "
                    f"bank {current[field]!r}"
                    for field in mismatched
                )
                raise CheckpointError(
                    f"predictor-bank snapshot was captured under a "
                    f"different configuration ({detail}); rebuild the "
                    f"bank with the captured parameters before restoring"
                )
        self._predictors = {}
        for record in state["predictors"]:
            predictor = self.predictor_for(
                record["node"], Role(record["role"])
            )
            predictor.restore_state(record["state"])


def _without_retired_knobs(fingerprint: dict) -> dict:
    """A recorded fingerprint minus config fields that no longer exist.

    ``mht_capacity`` was folded into ``mhr_capacity`` with LRU eviction.
    Snapshots that left it unset (``None``) restore as before; one that
    set it was captured under a bound this bank cannot reproduce.
    """
    config = fingerprint.get("config")
    if not isinstance(config, dict) or "mht_capacity" not in config:
        return fingerprint
    legacy = config["mht_capacity"]
    if legacy is not None:
        raise CheckpointError(
            f"predictor-bank snapshot was captured with the retired "
            f"mht_capacity={legacy!r} (now mhr_capacity with "
            f"eviction='lru'); it cannot be restored"
        )
    config = {k: v for k, v in config.items() if k != "mht_capacity"}
    return {**fingerprint, "config": config}
