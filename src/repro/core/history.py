"""A stream's raw value history as one float64 growth buffer.

:class:`~repro.core.online.OnlineLARPredictor` once kept its history in
a ``deque`` of Python floats. Every retrain rebuilt that deque from a
NumPy window (``deque(x.tolist())``) and every snapshot walked it back
out (``np.fromiter(reversed(deque))``), so a relabel burst over
hundreds of 2,048-value streams spent milliseconds boxing and unboxing
floats. :class:`HistoryBuffer` keeps the values where the kernels want
them: in one float64 array, read and written by slice copies.

The storage idiom is the one :class:`~repro.learn.knn.KNNClassifier`
uses for its memory: live values sit in ``_buf[_start:_end]``, appends
write at ``_end``, a bounded buffer retires its oldest values by moving
``_start``, and the live window slides back to the front only when the
end of the buffer is reached. A bounded buffer holds at least
``2 * maxlen`` slots, so a slide moves at most ``maxlen`` values once
per ``maxlen`` appends — O(1) amortized per value. Unbounded buffers
double their capacity instead.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HistoryBuffer"]

_MIN_CAPACITY = 16


class HistoryBuffer:
    """Raw values, oldest first, with ``deque(maxlen=...)`` semantics.

    ``append``/``extend``/``len``/iteration/``clear`` behave like a
    ``deque(maxlen=maxlen)`` of floats; :meth:`tail` and :meth:`values`
    hand out views of the live values without touching the rest.
    Views are only valid until the next mutation.
    """

    __slots__ = ("maxlen", "_buf", "_start", "_end")

    def __init__(self, values=(), maxlen: int | None = None):
        if maxlen is not None:
            maxlen = int(maxlen)
            if maxlen < 1:
                raise ValueError(f"maxlen must be >= 1 or None, got {maxlen}")
        self.maxlen = maxlen
        arr = np.asarray(values, dtype=np.float64).reshape(-1)
        n = arr.shape[0]
        if maxlen is not None and n > maxlen:
            arr = arr[n - maxlen :]
            n = maxlen
        if maxlen is not None:
            cap = max(2 * maxlen, _MIN_CAPACITY)
        else:
            cap = _MIN_CAPACITY
            while cap < 2 * n:
                cap *= 2
        self._buf = np.empty(cap, dtype=np.float64)
        self._buf[:n] = arr
        self._start = 0
        self._end = n

    def __len__(self) -> int:
        return self._end - self._start

    def __iter__(self):
        return iter(self.values().tolist())

    def values(self) -> np.ndarray:
        """Every live value, oldest first (a view)."""
        return self._buf[self._start : self._end]

    def tail(self, n: int) -> np.ndarray:
        """The last ``min(n, len)`` values, oldest first (a view).

        O(n): only the requested slice is addressed, however long the
        history is.
        """
        end = self._end
        return self._buf[max(end - n, self._start) : end]

    def append(self, value: float) -> None:
        """Add one value, retiring the oldest past ``maxlen``."""
        if self._end == self._buf.shape[0]:
            self._make_room(1)
        self._buf[self._end] = value
        self._end += 1
        if self.maxlen is not None and self._end - self._start > self.maxlen:
            self._start += 1

    def extend(self, values) -> None:
        """Add *values* in order, retiring the oldest past ``maxlen``."""
        arr = np.asarray(values, dtype=np.float64).reshape(-1)
        n = arr.shape[0]
        maxlen = self.maxlen
        if maxlen is not None and n >= maxlen:
            # Everything stored rolls off: keep the newest maxlen.
            self._buf[:maxlen] = arr[n - maxlen :]
            self._start, self._end = 0, maxlen
            return
        if self._end + n > self._buf.shape[0]:
            self._make_room(n)
        end = self._end
        self._buf[end : end + n] = arr
        self._end = end + n
        if maxlen is not None and self._end - self._start > maxlen:
            self._start = self._end - maxlen

    def clear(self) -> None:
        self._start = self._end = 0

    def _make_room(self, n: int) -> None:
        """Slide the live window to the front, growing if it must."""
        start, end = self._start, self._end
        live = end - start
        if self.maxlen is not None:
            # Values that the coming n appends retire need not move.
            drop = max(live + n - self.maxlen, 0)
            start += min(drop, live)
            live = end - start
        buf = self._buf
        if live + n > buf.shape[0]:
            cap = buf.shape[0]
            while cap < 2 * (live + n):
                cap *= 2
            new = np.empty(cap, dtype=np.float64)
            new[:live] = buf[start:end]
            self._buf = new
        else:
            # NumPy copies overlapping slices through a temporary.
            buf[:live] = buf[start:end]
        self._start, self._end = 0, live
