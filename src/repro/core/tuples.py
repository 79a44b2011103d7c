"""The ``<sender, message-type>`` tuple Cosmos histories are made of.

Two representations coexist:

* a plain ``(sender, MessageType)`` pair -- the readable boundary format
  every public API speaks, and
* the compact 16-bit hardware encoding the paper's Table 7 assumes
  (12 bits of processor number, 4 bits of message type), which the hot
  paths use exclusively: the evaluation loop touches millions of tuples,
  and hashing a small int is several times cheaper than hashing a
  ``(int, IntEnum)`` pair.

Whole MHR histories are likewise packed into a single *pattern word*: the
depth-``d`` history ``(t_0 .. t_{d-1})`` (oldest first) becomes
``1 << 16*d | pack(t_0) << 16*(d-1) | ... | pack(t_{d-1})``.  The leading
marker bit makes the word self-describing (its bit length encodes how
many tuples it holds), lets a shift register renormalize with two int
operations (:func:`shift_history`), and keeps the all-zero history
distinct from the empty one.  Every Cosmos pattern table keys on pattern
words.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..errors import ConfigError
from ..protocol.messages import MessageType

#: A coherence-message identity as Cosmos sees it.
MessageTuple = Tuple[int, MessageType]

#: Bit widths of the packed encoding (Table 7 footnote).
SENDER_BITS = 12
TYPE_BITS = 4

#: Bits of one packed tuple (= one pattern-word field).
TUPLE_BITS = SENDER_BITS + TYPE_BITS

_MAX_SENDER = (1 << SENDER_BITS) - 1
_TYPE_MASK = (1 << TYPE_BITS) - 1
_WORD_LIMIT = 1 << TUPLE_BITS

#: Interning table: packed word -> its canonical ``(sender, MessageType)``
#: tuple.  Misses build (and memoize) the tuple, so unpacking a stored
#: prediction on a cold path is one dict lookup in the steady state.
_TUPLE_OF_WORD: Dict[int, MessageTuple] = {}


def pack(tup: MessageTuple) -> int:
    """Pack a tuple into its 16-bit hardware encoding."""
    sender, mtype = tup
    if not 0 <= sender <= _MAX_SENDER:
        raise ConfigError(
            f"sender {sender} does not fit in {SENDER_BITS} bits"
        )
    return (sender << TYPE_BITS) | int(mtype)


def unpack(word: int) -> MessageTuple:
    """Unpack a 16-bit encoding back into a tuple."""
    if word < 0 or word >= _WORD_LIMIT:
        raise ConfigError(f"word {word} is not a 16-bit tuple encoding")
    return (word >> TYPE_BITS, MessageType(word & _TYPE_MASK))


def tuple_of_word(word: int) -> MessageTuple:
    """:func:`unpack` through the interning table (cheap when warm)."""
    tup = _TUPLE_OF_WORD.get(word)
    if tup is None:
        tup = _TUPLE_OF_WORD[word] = unpack(word)
    return tup


# ---------------------------------------------------------------------------
# pattern words: a whole MHR history packed into one int
# ---------------------------------------------------------------------------


def pack_pattern(tuples: Iterable[MessageTuple]) -> int:
    """Pack a tuple sequence (oldest first) into a marker-led pattern word."""
    word = 1
    for tup in tuples:
        word = (word << TUPLE_BITS) | pack(tup)
    return word


def shift_history(history: int, word: int, full_at: int) -> int:
    """Shift packed tuple ``word`` into a marker-led ``history``.

    ``full_at`` is ``1 << TUPLE_BITS * depth``: a history at or above it
    holds ``depth`` tuples, so the oldest drops out and the marker is
    re-planted.  The empty history is ``1``.
    """
    if history >= full_at:
        return full_at | (((history << TUPLE_BITS) | word) & (full_at - 1))
    return (history << TUPLE_BITS) | word


def pattern_length(word: int) -> int:
    """How many tuples a pattern word holds."""
    if word < 1:
        raise ConfigError(f"{word} is not a pattern word (marker missing)")
    length, rem = divmod(word.bit_length() - 1, TUPLE_BITS)
    if rem:
        length += 1  # marker sits inside the top field's sender bits
    return length


def unpack_pattern(word: int) -> Tuple[MessageTuple, ...]:
    """Unpack a marker-led pattern word back into tuples, oldest first."""
    length = pattern_length(word)
    return tuple(
        tuple_of_word(
            (word >> (TUPLE_BITS * (length - 1 - slot))) & (_WORD_LIMIT - 1)
        )
        for slot in range(length)
    )


def format_tuple(tup: Optional[MessageTuple]) -> str:
    """Human-readable ``<P<n>, type>`` rendering, as the paper prints them.

    ``None`` (no tuple) renders as ``<none>``.
    """
    if tup is None:
        return "<none>"
    sender, mtype = tup
    return f"<P{sender}, {mtype}>"


def format_pattern(pattern: Iterable[MessageTuple]) -> str:
    """A history pattern as space-separated :func:`format_tuple` tuples."""
    return " ".join(format_tuple(tup) for tup in pattern)
