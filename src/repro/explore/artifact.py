"""``.repro`` artifacts: a failing schedule, minimized and replayable.

An artifact is one JSON document holding everything needed to reproduce
a schedule-exploration failure byte-for-byte:

* the **configuration** -- either a named workload (name + constructor
  kwargs + seed, re-materialized deterministically at replay) or, after
  the shrinker has bitten into the access stream, the frozen
  :class:`~repro.workloads.recorded.RecordedWorkload` streams embedded
  inline; plus machine options, fault spec/seed, and the exploring
  network's quantum and defer cap;
* the **strategy** that found the failure (name, seed, parameters) --
  informational after recording, since replay drives the run from the
  decision log;
* the **decision log** itself;
* the **failure**: which oracle fired (or which error class), the
  message, and where in the run it happened;
* the PR 3 **forensics bundle** photographed at the failure point;
* optional **shrink** statistics (original vs final decision-log and
  access counts).

Artifacts carry a SHA-256 over their canonical JSON (integrity, not
security -- a truncated download should fail loudly, like a checkpoint).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from ..errors import TraceError
from ..ioutil import atomic_write, canonical_digest
from ..obs.manifest import build_manifest

#: Bump when the artifact schema changes; old artifacts refuse to load.
FORMAT_VERSION = 2

_KIND = "repro-explore-artifact"


@dataclass
class ExploreArtifact:
    """One replayable failure (or, before a failure, one replayable run)."""

    config: dict
    strategy: dict
    decisions: List[int]
    failure: Optional[dict] = None
    forensics: Optional[dict] = None
    shrink: Optional[dict] = None
    oracles: List[str] = field(default_factory=list)

    @property
    def oracle(self) -> Optional[str]:
        """The oracle (or error class) that fired, if any."""
        if self.failure is None:
            return None
        return self.failure.get("oracle")

    def to_document(self) -> dict:
        document = {
            "kind": _KIND,
            "format": FORMAT_VERSION,
            "manifest": build_manifest("repro-explore"),
            "config": self.config,
            "strategy": self.strategy,
            "oracles": list(self.oracles),
            "decisions": list(self.decisions),
            "failure": self.failure,
            "forensics": self.forensics,
            "shrink": self.shrink,
        }
        document["sha256"] = _digest(document)
        return document

    @classmethod
    def from_document(cls, document: dict, source: str = "<artifact>"):
        if not isinstance(document, dict) or document.get("kind") != _KIND:
            raise TraceError(f"{source} is not a .repro explore artifact")
        if document.get("format") != FORMAT_VERSION:
            raise TraceError(
                f"{source} has artifact format {document.get('format')}; "
                f"this build reads format {FORMAT_VERSION}"
            )
        recorded = document.get("sha256")
        if recorded is not None and recorded != _digest(document):
            raise TraceError(
                f"integrity check failed for {source}: the artifact is "
                "corrupt (truncated or edited)"
            )
        return cls(
            config=document["config"],
            strategy=document["strategy"],
            decisions=list(document["decisions"]),
            failure=document.get("failure"),
            forensics=document.get("forensics"),
            shrink=document.get("shrink"),
            oracles=list(document.get("oracles", [])),
        )


def _digest(document: dict) -> str:
    """SHA-256 over the canonical JSON, excluding the digest itself and
    the manifest (attribution only, varies per host)."""
    return canonical_digest(
        {
            key: value
            for key, value in document.items()
            if key not in ("sha256", "manifest")
        }
    )


def save_artifact(
    artifact: ExploreArtifact, path: Union[str, Path]
) -> Path:
    """Atomically write ``artifact`` as pretty-printed JSON."""
    with atomic_write(path) as handle:
        json.dump(artifact.to_document(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return Path(path)


def load_artifact(path: Union[str, Path]) -> ExploreArtifact:
    """Load and verify a ``.repro`` artifact."""
    target = Path(path)
    if not target.exists():
        raise TraceError(f"no artifact at {target}")
    try:
        with open(target, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise TraceError(f"unreadable artifact {target}: {exc}") from exc
    return ExploreArtifact.from_document(document, source=str(target))
