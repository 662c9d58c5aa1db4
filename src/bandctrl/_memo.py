"""A memo of one entry: the value computed for the most recent key.

Some results depend on a plant alone, not on the endpoints of the transfer:
the normality verdict of :mod:`bandctrl.extremal`, the stationary gain,
border matrix and transfer map (the solution as a linear map of the
boundary data) of :mod:`bandctrl.kkt`, and the frequency rows that
:func:`bandctrl.problem.validate` builds from a horizon, a channel count
and a ban set, and the verdict of its checks of the plant and weight
matrices.  Callers often solve one plant for many endpoint pairs, so
each keeps one :class:`LastValue`: a call with the most recent plant reads
the stored value, any other plant replaces it.  A key is the content of
everything the value depends on (:func:`content_key` for arrays, frozensets
for the ban sets), never an object's identity, so an equal copy hits and an
array or a set changed in place misses.  A hit returns what a fresh
computation returns; only the memory of the last value is kept.
"""

from __future__ import annotations

import numpy as np


class LastValue:
    """The value of ``compute()`` for the most recent ``key``.  Threads that
    share one may compute a value twice, but never read a value stored under
    another key: the entry is replaced whole."""

    __slots__ = ("_entry",)

    def __init__(self):
        self._entry = None  # (key, value), one tuple: a read never pairs a key with another value

    def get(self, key, compute):
        """The stored value when ``key`` equals the stored key, else
        ``compute()``, which then replaces the entry (unless it raises)."""
        entry = self._entry
        if entry is not None and entry[0] == key:
            return entry[1]
        value = compute()
        self._entry = (key, value)
        return value

    def clear(self) -> None:
        self._entry = None


def content_key(*arrays) -> tuple:
    """Shape and float64 bytes of each array: equal keys, equal content."""
    return tuple((a.shape, a.tobytes()) for a in (np.asarray(x, dtype=float) for x in arrays))
