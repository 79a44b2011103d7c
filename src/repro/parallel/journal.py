"""The run journal: durable shard completions for resumable runs.

A journaled run (``repro-experiments --run-dir DIR``) leaves two files
behind:

``plan.json``
    The full shard plan (every :class:`~repro.parallel.plan.TraceShard`
    and :class:`~repro.parallel.plan.ExperimentShard`, as plain data)
    plus the invocation metadata, written atomically before any shard
    runs.  A resumed run rebuilds the *identical* plan from this file --
    it does not re-plan from command-line flags, so the shard digests
    (and therefore the skip decisions) cannot drift.

``journal.jsonl``
    One JSON record per finished shard, appended with ``fsync`` before
    the completion is acknowledged, so a ``kill -9`` at any instant
    loses at most work in flight -- never a recorded completion.  Each
    record carries the shard's digest and its full
    :class:`~repro.parallel.pool.ShardOutcome` (rendered text, metrics
    snapshot, timings), which is everything the ordered merge needs:
    ``--resume`` re-executes only missing or failed shards and splices
    the journaled outcomes back in, producing byte-identical report
    text to an uninterrupted run.

Shards are identified by :func:`shard_digest` -- a SHA-256 over the
shard descriptor's canonical JSON -- so any change to what a shard
*means* (different seed, fault profile, cache directory, plan position)
changes its digest and forces a re-run rather than silently reusing a
stale result.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import IO, Dict, Optional, Union

from ..errors import ReproError
from ..ioutil import atomic_write_text, canonical_digest, fsync_append
from ..sim.metrics import METRICS
from .plan import ExperimentShard, Plan, TraceShard

#: Bumped when the on-disk layout changes incompatibly.
JOURNAL_FORMAT = 1

PLAN_FILE = "plan.json"
JOURNAL_FILE = "journal.jsonl"


def shard_digest(shard: Union[TraceShard, ExperimentShard]) -> str:
    """Content address of one shard descriptor.

    Canonical JSON over the dataclass fields plus the shard type, so two
    shards collide only when they would do byte-identical work.
    """
    record = dataclasses.asdict(shard)
    record["__kind__"] = type(shard).__name__
    return canonical_digest(record)


def _plan_record(plan: Plan, meta: dict) -> dict:
    return {
        "format": JOURNAL_FORMAT,
        "meta": meta,
        "traces": [dataclasses.asdict(shard) for shard in plan.traces],
        "experiments": [
            dataclasses.asdict(shard) for shard in plan.experiments
        ],
    }


def _plan_from_record(record: dict) -> Plan:
    return Plan(
        traces=tuple(TraceShard(**item) for item in record["traces"]),
        experiments=tuple(
            ExperimentShard(**item) for item in record["experiments"]
        ),
    )


class RunJournal:
    """plan.json + journal.jsonl under one run directory."""

    def __init__(self, run_dir: Union[str, Path], record: dict) -> None:
        self.run_dir = Path(run_dir)
        self._record = record
        self._handle: Optional[IO] = None
        #: digest -> journaled outcome dict, successful shards only.
        self._completed: Dict[str, dict] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls, run_dir: Union[str, Path], plan: Plan, meta: dict
    ) -> "RunJournal":
        """Start journaling a fresh run into ``run_dir``.

        Refuses a directory that already holds a plan: resuming is an
        explicit act (``--resume``), and silently re-planning over an
        interrupted run would orphan its journal.
        """
        run_dir = Path(run_dir)
        plan_path = run_dir / PLAN_FILE
        if plan_path.exists():
            raise ReproError(
                f"{plan_path} already exists; resume that run with "
                f"--resume {run_dir}, or pick a fresh --run-dir"
            )
        record = _plan_record(plan, meta)
        run_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            plan_path, json.dumps(record, indent=2) + "\n", fsync=True
        )
        return cls(run_dir, record)

    @classmethod
    def load(cls, run_dir: Union[str, Path]) -> "RunJournal":
        """Open an existing run directory for resumption."""
        run_dir = Path(run_dir)
        plan_path = run_dir / PLAN_FILE
        try:
            with open(plan_path, encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            raise ReproError(
                f"no run journal at {run_dir} (missing {PLAN_FILE}); "
                "was this directory created with --run-dir?"
            ) from None
        except json.JSONDecodeError as exc:
            raise ReproError(f"corrupt {plan_path}: {exc}") from exc
        found = record.get("format")
        if found != JOURNAL_FORMAT:
            raise ReproError(
                f"{plan_path} has journal format {found!r}; this build "
                f"reads format {JOURNAL_FORMAT}"
            )
        journal = cls(run_dir, record)
        journal._replay()
        return journal

    def _replay(self) -> None:
        """Load acknowledged completions, tolerating a torn tail.

        ``fsync`` per record means at most the final line can be
        partial (the process died mid-append); undecodable lines are
        counted and skipped, which simply re-runs those shards.
        """
        path = self.run_dir / JOURNAL_FILE
        try:
            with open(path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except FileNotFoundError:
            return
        for line in lines:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                METRICS.inc("journal.torn_records")
                continue
            if entry.get("outcome", {}).get("error") is None:
                self._completed[entry["digest"]] = entry["outcome"]
            else:
                # A journaled failure is forensic, not a completion:
                # the shard re-runs on resume.
                self._completed.pop(entry["digest"], None)

    # ------------------------------------------------------------------
    # the plan
    # ------------------------------------------------------------------

    def plan(self) -> Plan:
        """The journaled shard plan, reconstructed exactly."""
        return _plan_from_record(self._record)

    @property
    def meta(self) -> dict:
        """Invocation metadata captured at plan time."""
        return dict(self._record.get("meta", {}))

    @property
    def completed_count(self) -> int:
        return len(self._completed)

    # ------------------------------------------------------------------
    # recording and replaying outcomes
    # ------------------------------------------------------------------

    def outcome_record(
        self, shard: Union[TraceShard, ExperimentShard]
    ) -> Optional[dict]:
        """The journaled successful outcome for ``shard``, if any."""
        return self._completed.get(shard_digest(shard))

    def record(
        self, shard: Union[TraceShard, ExperimentShard], outcome
    ) -> None:
        """Durably append one finished shard before acknowledging it."""
        if self._handle is None:
            self._handle = open(
                self.run_dir / JOURNAL_FILE, "a", encoding="utf-8"
            )
        entry = {
            "digest": shard_digest(shard),
            "outcome": dataclasses.asdict(outcome),
        }
        fsync_append(
            self._handle,
            json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n",
        )
        METRICS.inc("journal.records")
        if outcome.error is None:
            self._completed[entry["digest"]] = entry["outcome"]

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
