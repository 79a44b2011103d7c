"""Trace persistence: JSON-lines save/load.

Traces can be large, so the format is one compact JSON array per line
rather than one object per line; field order is fixed and documented in
:data:`FIELDS`.
"""

from __future__ import annotations

import gc
import json
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

from ..errors import TraceError
from ..ioutil import atomic_write
from ..protocol.messages import ROLE_OF_BIT, MessageType, Role
from .events import EVENT_WIDTH, TraceEvent, events_from_flat

#: Field order of each JSON-lines record.
FIELDS = ("time", "iteration", "node", "role", "block", "sender", "mtype")

_ROLE_CODE = {Role.CACHE: "c", Role.DIRECTORY: "d"}
_CODE_ROLE = {code: role for role, code in _ROLE_CODE.items()}

#: Role code -> the receiver bit :func:`events_from_flat` decodes.
_ROLE_BIT = {
    code: ROLE_OF_BIT.index(role) for code, role in _CODE_ROLE.items()
}
#: Message-type codes :func:`events_from_flat` decodes (by position).
_MTYPE_CODES = frozenset(range(len(MessageType)))
_ROLE_INDEX = FIELDS.index("role")
_MTYPE_INDEX = FIELDS.index("mtype")


def save_trace(events: Iterable[TraceEvent], path: Union[str, Path]) -> int:
    """Write ``events`` to ``path`` in JSON-lines format; return the count.

    The write is atomic (temp file + ``os.replace``): an interrupted
    simulation never leaves a truncated trace behind for a later run to
    trip over.
    """
    count = 0
    with atomic_write(path) as handle:
        for event in events:
            record = [
                event.time,
                event.iteration,
                event.node,
                _ROLE_CODE[event.role],
                event.block,
                event.sender,
                int(event.mtype),
            ]
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def iter_trace(path: Union[str, Path]) -> Iterator[TraceEvent]:
    """Stream trace events back from a file written by :func:`save_trace`.

    Blank lines (including trailing ones from editors or concatenation)
    are skipped.  Anything else that fails to parse -- a truncated final
    line from an interrupted writer, a wrong field count, an unknown
    role or message code -- raises :class:`TraceError` naming the file,
    the 1-based line number, and the underlying cause, so a corrupt
    multi-gigabyte trace is diagnosable without opening it.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise TraceError(
                    f"{path}:{lineno}: malformed record "
                    f"(truncated or invalid JSON: {exc})"
                ) from exc
            if not isinstance(record, list) or len(record) != len(FIELDS):
                got = (
                    f"{len(record)} fields"
                    if isinstance(record, list)
                    else type(record).__name__
                )
                raise TraceError(
                    f"{path}:{lineno}: malformed record "
                    f"(expected {len(FIELDS)} fields "
                    f"{', '.join(FIELDS)}; got {got})"
                )
            time, iteration, node, role, block, sender, mtype = record
            try:
                yield TraceEvent(
                    time=time,
                    iteration=iteration,
                    node=node,
                    role=_CODE_ROLE[role],
                    block=block,
                    sender=sender,
                    mtype=MessageType(mtype),
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise TraceError(
                    f"{path}:{lineno}: malformed record ({exc})"
                ) from exc


def load_trace(path: Union[str, Path]) -> List[TraceEvent]:
    """Load a whole trace file into memory; equal to ``list(iter_trace(path))``.

    A file in the form :func:`save_trace` writes is parsed in bulk.  Any
    other file, a malformed one included, is read by :func:`iter_trace`,
    which accepts it or raises its usual :class:`TraceError`.

    The cyclic garbage collector is paused while the events are built:
    they hold no reference cycles, so its passes over the growing list
    find nothing to free.  Its previous state is restored on return.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        events = _load_canonical(path)
        return list(iter_trace(path)) if events is None else events
    finally:
        if enabled:
            gc.enable()


def _load_canonical(path: Union[str, Path]) -> Optional[List[TraceEvent]]:
    """Parse a whole canonical trace at once; ``None`` if not canonical.

    Canonical: every non-blank line is one flat list of
    :data:`FIELDS`, with role ``"c"`` or ``"d"`` and an int message-type
    code.  The records are parsed by one :func:`json.loads` over the
    joined lines and decoded column by column by :func:`events_from_flat`.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        while "\n\n" in text:  # blank lines
            text = text.replace("\n\n", "\n")
        text = text.strip("\n")
        count = text.count("\n") + 1
        # The text opens with "[", closes with "]", every line break is
        # "]\n[" and no other bracket occurs: once the records are known
        # to be lists, each is exactly one line.  A record split over
        # lines, or two on one line, is left for iter_trace to refuse.
        if not (
            text.count("[") == text.count("]") == count
            and text.count("]\n[") == count - 1
            and text[:1] == "["
            and text[-1:] == "]"
        ):
            return None
        records = json.loads("[" + text.replace("\n", ",") + "]")
    except ValueError:  # undecodable bytes or invalid JSON
        return None
    if not (
        len(records) == count
        and set(map(type, records)) == {list}
        and set(map(len, records)) == {len(FIELDS)}
    ):
        return None
    flat = list(chain.from_iterable(records))
    # Free the record lists before the events are allocated: a lower
    # peak, and fewer objects for the garbage collector to scan.
    del records
    roles = flat[_ROLE_INDEX::EVENT_WIDTH]
    mtypes = flat[_MTYPE_INDEX::EVENT_WIDTH]
    if not (
        roles.count("c") + roles.count("d") == count
        and set(map(type, mtypes)) == {int}
        and set(mtypes) <= _MTYPE_CODES
    ):
        return None
    flat[_ROLE_INDEX::EVENT_WIDTH] = list(map(_ROLE_BIT.__getitem__, roles))
    return events_from_flat(flat)
