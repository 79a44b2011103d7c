"""Immutable records that are tuples underneath.

The simulator builds a record for every coherence message and every
memory access, so those records are tuple subclasses: a tuple is built
in one call, where a frozen dataclass sets each field separately.
:class:`Record` gives such a class a frozen dataclass's comparisons.
"""

from __future__ import annotations

_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


class Record(tuple):
    """Base for a ``NamedTuple`` subclass that compares like a frozen
    dataclass: equal only to a record of its own class with equal
    fields, never to a plain tuple, and hashed as its field tuple."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _tuple_eq(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return _tuple_ne(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__
