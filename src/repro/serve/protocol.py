"""The service wire format: one JSON object per line.

Requests carry the client identity and a per-client sequence number --
the same idempotency discipline as :mod:`repro.protocol.recovery`: a
client that times out re-sends the *same* sequence number, and the
front-end answers duplicates from its response cache instead of
training twice.  Responses carry the packed prediction word (``-1`` for
"no prediction"), the ``degraded`` tag, the owning shard, and the
shard-local admission ordinal ``index`` -- the ordinal is what lets an
external oracle reconstruct each shard's exact training order and check
every non-degraded answer against a mirror predictor.

JSON lines rather than pickles: the protocol crosses a trust boundary
(any TCP client), and a malformed line must raise a clean
:class:`~repro.errors.ServeError`, never execute anything.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Optional, Union

from ..errors import ServeError
from ..protocol.messages import MessageType

#: The longest line either end accepts, excluding its newline: asyncio
#: streams' default limit.
MAX_LINE = 64 * 1024


class Status:
    """Response status strings (a class namespace, not an enum, so the
    wire format is plain strings end to end)."""

    OK = "ok"
    RETRY_AFTER = "retry_after"
    ERROR = "error"


@dataclass(frozen=True)
class Request:
    """One streamed observation: ``<block, sender, type>`` for a tenant."""

    client: str
    seq: int
    tenant: str
    block: int
    sender: int
    mtype: int

    def encode(self) -> bytes:
        # The schema is fixed, so only the two strings go through
        # ``json.dumps``; the line is byte-identical to dumping the
        # whole dict with ``separators=(",", ":")``.
        return (
            '{"op":"observe","client":%s,"seq":%d,"tenant":%s,"block":%d,'
            '"sender":%d,"mtype":%d}\n'
            % (
                json.dumps(self.client),
                self.seq,
                json.dumps(self.tenant),
                self.block,
                self.sender,
                self.mtype,
            )
        ).encode("utf-8")


@dataclass(frozen=True)
class Response:
    """The service's answer to one observation."""

    seq: int
    status: str
    #: Packed 16-bit prediction word; ``-1`` means "no prediction".
    predicted: int = -1
    #: ``False`` for a full answer; ``True`` for a front-end fallback
    #: (worker down or deadline blown); the string ``"evicting"`` for a
    #: *real* answer from a memory-budgeted worker that evicted state on
    #: this observation.  Strings are truthy, so boolean consumers keep
    #: working.
    degraded: Union[bool, str] = False
    shard: int = -1
    #: Shard-local admission ordinal (1-based); ``-1`` for rejections.
    index: int = -1
    #: Backoff hint, only meaningful with ``status == RETRY_AFTER``.
    retry_after_ms: float = 0.0
    error: Optional[str] = None

    @property
    def predicted_tuple(self):
        """The decoded ``(sender, MessageType)`` tuple, or ``None``."""
        if self.predicted < 0:
            return None
        from ..core.tuples import tuple_of_word

        return tuple_of_word(self.predicted)

    def encode(self) -> bytes:
        # Written like Request.encode: byte-identical to dumping the
        # record dict, ``json.dumps`` only where a string needs escaping.
        degraded = self.degraded
        line = (
            '{"seq":%d,"status":%s,"predicted":%d,"degraded":%s,'
            '"shard":%d,"index":%d'
            % (
                self.seq,
                json.dumps(self.status),
                self.predicted,
                "false"
                if degraded is False
                else "true"
                if degraded is True
                else json.dumps(degraded),
                self.shard,
                self.index,
            )
        )
        if self.status == Status.RETRY_AFTER:
            line += ',"retry_after_ms":' + json.dumps(self.retry_after_ms)
        if self.error is not None:
            line += ',"error":' + json.dumps(self.error)
        return (line + "}\n").encode("utf-8")


def decode_request(line: bytes) -> dict:
    """Parse one request line into its raw dict; validate ``observe``.

    Returns the dict (the front-end dispatches on ``op``: ``observe``
    requests are fully validated here, control operations like ``stat``
    pass through).  Raises :class:`~repro.errors.ServeError` on garbage.
    """
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"malformed request line: {exc}") from exc
    if not isinstance(record, dict) or "op" not in record:
        raise ServeError(f"request is not an operation object: {record!r}")
    if record["op"] != "observe":
        return record
    for name, kind in (
        ("client", str),
        ("seq", int),
        ("tenant", str),
        ("block", int),
        ("sender", int),
        ("mtype", int),
    ):
        # An exact type check: JSON ``true``/``false`` decode to bools,
        # which ``isinstance(..., int)`` would admit as 1 and 0.
        if type(record.get(name)) is not kind:
            raise ServeError(
                f"observe request field {name!r} missing or not "
                f"{kind.__name__}: {record!r}"
            )
    try:
        MessageType(record["mtype"])
    except ValueError as exc:
        raise ServeError(
            f"observe request mtype {record['mtype']} is not a coherence "
            f"message type"
        ) from exc
    if record["sender"] < 0 or record["block"] < 0 or record["seq"] < 0:
        raise ServeError(
            f"observe request fields must be non-negative: {record!r}"
        )
    return record


def decode_response(line: bytes) -> Response:
    """Parse one response line (the client library's half)."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"malformed response line: {exc}") from exc
    if not isinstance(record, dict) or "status" not in record:
        raise ServeError(f"response is not a status object: {record!r}")
    return Response(
        seq=record.get("seq", -1),
        status=record["status"],
        predicted=record.get("predicted", -1),
        degraded=record.get("degraded", False),
        shard=record.get("shard", -1),
        index=record.get("index", -1),
        retry_after_ms=record.get("retry_after_ms", 0.0),
        error=record.get("error"),
    )


class LineFramer(asyncio.BufferedProtocol):
    """Newline framing for one connection, read into one reusable buffer.

    A ``BufferedProtocol`` picks the size of each socket read.  A plain
    ``Protocol`` makes asyncio's selector transport ``recv`` 256 KiB per
    read, and in a fresh process each such allocation is an ``mmap``,
    which makes a loopback round trip several times slower (see
    ``docs/performance.md``).

    Received bytes collect in an inbox; subclasses react in
    :meth:`inbox_updated` and pull whole lines with :meth:`take_line`,
    so a line can wait in the inbox until its reader is ready for it.
    """

    def __init__(self) -> None:
        self._buffer = memoryview(bytearray(MAX_LINE))
        self._inbox = bytearray()
        #: Inbox bytes already searched for a newline.
        self._scanned = 0
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        self._inbox += self._buffer[:nbytes]
        self.inbox_updated()

    def inbox_updated(self) -> None:
        """Bytes were added to the inbox."""

    def buffered(self) -> int:
        """Bytes received but not yet taken as lines."""
        return len(self._inbox)

    def take_line(self, final: bool = False) -> Optional[bytes]:
        """The next whole line, newline included, or ``None``.

        With ``final`` (the peer sent EOF) an unterminated tail counts
        as the last line.  Raises :class:`~repro.errors.ServeError` for
        a line over :data:`MAX_LINE` bytes.
        """
        inbox = self._inbox
        end = inbox.find(b"\n", self._scanned)
        if end < 0:
            if len(inbox) > MAX_LINE:
                raise ServeError(f"line over {MAX_LINE} bytes")
            if not (final and inbox):
                self._scanned = len(inbox)
                return None
            end = len(inbox) - 1
        elif end > MAX_LINE:
            raise ServeError(f"line over {MAX_LINE} bytes")
        line = bytes(inbox[: end + 1])
        del inbox[: end + 1]
        self._scanned = 0
        return line
