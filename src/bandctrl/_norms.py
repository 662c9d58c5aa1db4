"""Max-norms of one array, and of several arrays in one numpy reduction.

A certificate or a residual check takes the max-norm of a dozen small
arrays, and each reduction of its own costs more in numpy's call overhead
than in arithmetic.  :func:`max_norms` lays them end to end and reduces them
once; a maximum rounds nothing, so each norm is bit for bit that of the
array alone, :func:`max_norm`.  That one-array form stays for callers with a
single array, such as Newton's line search, where it is the cheaper call.
"""

from __future__ import annotations

import math

import numpy as np

_ZERO = np.zeros(1)


def max_norm(a) -> float:
    """The largest |a_i|, 0.0 for an empty array, NaN when an entry is."""
    return float(abs(np.asarray(a)).max(initial=0.0))


def max_norms(*arrays: np.ndarray) -> list[float]:
    """max |a| of each of ``arrays``: 0.0 for an empty one, NaN for one with
    a NaN entry, as ``float(abs(a).max(initial=0.0))``.

    |a| of the arrays laid end to end, then a 0.0, is reduced by
    ``np.maximum.reduceat`` at a pair (start, stop) per array.  reduceat
    takes the largest entry of flat[start:stop] when start < stop and else
    returns flat[start], so an empty array's pair points at the 0.0, and
    every other entry of the result is dropped.  np.maximum propagates a NaN
    as ndarray.max does."""
    flat = abs(np.concatenate(arrays + (_ZERO,), axis=None))
    end = flat.size - 1
    pairs, start = [], 0
    for a in arrays:
        stop = start + a.size
        pairs += (start, stop) if stop > start else (end, 0)
        start = stop
    return np.maximum.reduceat(flat, pairs)[::2].tolist()


def largest(*values: float) -> float:
    """The largest of ``values``, NaN when one is (as numpy's max; the
    builtin's answer depends on where the NaN is)."""
    return math.nan if any(v != v for v in values) else max(values)
