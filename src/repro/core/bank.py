"""A machine-wide bank of Cosmos predictors.

The paper allocates one Cosmos predictor beside every cache module and
every directory module.  :class:`PredictorBank` manages that collection
and routes trace events to the right predictor.  ``share_roles=True`` is
an ablation that merges each node's two predictors into one (cheaper, but
cache- and directory-side patterns then alias in one table).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, Iterator, Optional, Tuple

from ..errors import CheckpointError
from ..protocol.messages import Role
from ..trace.events import TraceEvent
from .config import CosmosConfig
from .corruption import CorruptionInjector, CorruptionProfile
from .predictor import CosmosPredictor, Observation


class PredictorBank:
    """One predictor per (node, role) -- or per node when roles are shared."""

    def __init__(
        self,
        config: Optional[CosmosConfig] = None,
        share_roles: bool = False,
        corruption: Optional[CorruptionProfile] = None,
        corruption_seed: int = 0,
    ) -> None:
        self.config = config if config is not None else CosmosConfig()
        self.share_roles = share_roles
        self.corruption = (
            corruption if corruption is not None and corruption.is_active
            else None
        )
        self.corruption_seed = corruption_seed
        self._predictors: Dict[Tuple[int, Role], CosmosPredictor] = {}

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

    @property
    def mhr_entries(self) -> int:
        """Machine-wide MHR entry count (Table 7 denominator)."""
        return sum(p.mhr_entries for p in self._predictors.values())

    @property
    def pht_entries(self) -> int:
        """Machine-wide PHT entry count (Table 7 numerator)."""
        return sum(p.pht_entries for p in self._predictors.values())

    @property
    def peak_mhr_entries(self) -> int:
        """Machine-wide high-water MHR entry count."""
        return sum(p.peak_mhr_entries for p in self._predictors.values())

    @property
    def peak_pht_entries(self) -> int:
        """Machine-wide high-water PHT entry count."""
        return sum(p.peak_pht_entries for p in self._predictors.values())

    @property
    def evictions_mhr(self) -> int:
        """Machine-wide capacity evictions of MHR entries."""
        return sum(p.evictions_mhr for p in self._predictors.values())

    @property
    def evictions_pht(self) -> int:
        """Machine-wide capacity evictions of PHT entries."""
        return sum(p.evictions_pht for p in self._predictors.values())

    @property
    def corrupt_injected(self) -> int:
        """Machine-wide injected corruption events (flips + losses)."""
        return sum(
            p.corrupt_flips + p.corrupt_losses
            for p in self._predictors.values()
        )

    @property
    def corrupt_detected(self) -> int:
        """Machine-wide parity-detected (and dropped) corrupt entries."""
        return sum(p.corrupt_detected for p in self._predictors.values())

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
