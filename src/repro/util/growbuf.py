"""Amortized-growth buffers for streaming accumulation.

The streaming hot path appends small column blocks to matrices that live
for the whole stream: the optional retained raw timeline of
:class:`~repro.core.imrdmd.IncrementalMrDMD` (and, trimmed to their
trailing columns after each append, its level-1 subsampled snapshot
matrix and retained window) and the mode tree's node bounds.  Growing those
with ``np.hstack`` copies the *entire* accumulated matrix on every append,
which silently turns the paper's ``O(P (q + c)^2)``-per-update scheme into
``O(T^2)`` over a stream of ``T`` snapshots.

:class:`GrowableMatrix` is the fix: a ``(P, capacity)`` backing buffer that
doubles its capacity when full, so appending ``c`` columns costs an
amortized ``O(P c)`` copy regardless of how many columns came before.
Reads are zero-copy views into the buffer.

:class:`RingBuffer` is the bounded sibling used by the alert sinks: a
fixed-capacity, array-backed ring with O(1) append that retains the most
recent ``capacity`` items (the :class:`collections.deque` it replaces is
also O(1), but the ring keeps the service's buffers on one shared,
introspectable implementation).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["GrowableMatrix", "RingBuffer"]

#: Smallest column capacity a :class:`GrowableMatrix` allocates.
_MIN_CAPACITY = 16


class GrowableMatrix:
    """A ``(P, T)`` matrix accumulated column-block by column-block.

    Parameters
    ----------
    n_rows:
        Fixed row count ``P`` of every appended block.
    dtype:
        Element dtype of the backing buffer (default ``float64``).
    capacity:
        Initial column capacity (grown geometrically as needed).

    Notes
    -----
    * :meth:`append` is O(1) amortized per element: the backing buffer
      doubles when full, so a stream of ``T`` columns performs
      ``O(log T)`` reallocations and ``O(P T)`` total copying — versus
      ``O(P T^2 / c)`` for repeated ``np.hstack`` with chunk size ``c``.
    * :meth:`view` is a zero-copy window onto the backing buffer.  It is
      only valid until the next :meth:`append` (which may reallocate) and
      must be treated as read-only; use :meth:`materialize` for a
      contiguous copy that callers may keep or hand to BLAS-heavy code.
    * Pickling stores only the occupied columns (the spare capacity is
      not shipped), so process-pool workers receive compact payloads with
      bit-identical contents.
    """

    def __init__(
        self,
        n_rows: int,
        *,
        dtype: np.dtype | type = np.float64,
        capacity: int = _MIN_CAPACITY,
    ) -> None:
        if n_rows < 1:
            raise ValueError(f"n_rows must be >= 1, got {n_rows!r}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self._buffer = np.empty((int(n_rows), max(int(capacity), 1)), dtype=np.dtype(dtype))
        self._n_cols = 0

    @classmethod
    def from_array(cls, array: np.ndarray, *, dtype: np.dtype | type | None = None) -> "GrowableMatrix":
        """Build a buffer seeded with the columns of a 2-D array (copied)."""
        array = np.asarray(array)
        if array.ndim != 2:
            raise ValueError(f"array must be 2-D, got shape {array.shape!r}")
        out = cls(
            array.shape[0],
            dtype=array.dtype if dtype is None else dtype,
            capacity=max(array.shape[1], _MIN_CAPACITY),
        )
        out.append(array)
        return out

    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        return int(self._buffer.shape[0])

    @property
    def n_cols(self) -> int:
        """Number of columns appended so far."""
        return self._n_cols

    @property
    def shape(self) -> tuple[int, int]:
        """Logical shape ``(P, T)`` (excludes spare capacity)."""
        return (self.n_rows, self._n_cols)

    @property
    def capacity(self) -> int:
        """Current column capacity of the backing buffer."""
        return int(self._buffer.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return self._buffer.dtype

    def __len__(self) -> int:
        return self._n_cols

    # ------------------------------------------------------------------ #
    def _ensure_capacity(self, n_cols: int) -> None:
        if n_cols <= self.capacity:
            return
        new_capacity = max(self.capacity, _MIN_CAPACITY)
        while new_capacity < n_cols:
            new_capacity *= 2
        grown = np.empty((self.n_rows, new_capacity), dtype=self._buffer.dtype)
        grown[:, : self._n_cols] = self._buffer[:, : self._n_cols]
        self._buffer = grown

    def append(self, columns: np.ndarray) -> "GrowableMatrix":
        """Append a ``(P, c)`` block (or a single ``(P,)`` column)."""
        columns = np.asarray(columns)
        if columns.ndim == 1:
            columns = columns[:, None]
        if columns.ndim != 2:
            raise ValueError(f"columns must be 1-D or 2-D, got shape {columns.shape!r}")
        if columns.shape[0] != self.n_rows:
            raise ValueError(
                f"row-count mismatch: buffer has {self.n_rows} rows, "
                f"block has {columns.shape[0]}"
            )
        c = columns.shape[1]
        if c == 0:
            return self
        self._ensure_capacity(self._n_cols + c)
        self._buffer[:, self._n_cols : self._n_cols + c] = columns
        self._n_cols += c
        return self

    def add_rows(self, rows: np.ndarray) -> "GrowableMatrix":
        """Widen the buffer by ``(r, T)`` new *rows* covering the occupied columns.

        Row growth is the topology event (a new sensor joining a live
        stream), not the streaming hot path: it reallocates once and copies
        the occupied block — ``O((P + r) T)`` per event, amortisation-free
        by design.  ``rows`` must cover exactly the occupied columns; spare
        capacity is preserved.
        """
        rows = np.asarray(rows, dtype=self._buffer.dtype)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2:
            raise ValueError(f"rows must be 1-D or 2-D, got shape {rows.shape!r}")
        if rows.shape[1] != self._n_cols:
            raise ValueError(
                f"column-count mismatch: buffer holds {self._n_cols} columns, "
                f"new rows have {rows.shape[1]}"
            )
        if rows.shape[0] == 0:
            return self
        grown = np.empty(
            (self.n_rows + rows.shape[0], self.capacity), dtype=self._buffer.dtype
        )
        grown[: self.n_rows, : self._n_cols] = self._buffer[:, : self._n_cols]
        grown[self.n_rows :, : self._n_cols] = rows
        self._buffer = grown
        return self

    def keep_trailing(self, n_cols: int) -> int:
        """Drop all but the trailing ``n_cols`` columns; return how many went.

        Trimming reallocates (with room for ``n_cols`` more appends) rather
        than shifting columns in place, so every :meth:`frozen_view` taken
        before keeps its contents.
        """
        n_cols = int(n_cols)
        drop = self._n_cols - n_cols
        if drop <= 0:
            return 0
        kept = np.empty(
            (self.n_rows, max(2 * n_cols, _MIN_CAPACITY)), dtype=self._buffer.dtype
        )
        kept[:, :n_cols] = self._buffer[:, drop : self._n_cols]
        self._buffer = kept
        self._n_cols = n_cols
        return drop

    # ------------------------------------------------------------------ #
    def view(self) -> np.ndarray:
        """Zero-copy ``(P, T)`` window (read-only by contract; invalidated
        by the next :meth:`append`)."""
        return self._buffer[:, : self._n_cols]

    def frozen_view(self) -> np.ndarray:
        """Read-only :meth:`view` whose contents never change.

        The buffer only ever appends past its occupied columns (growth and
        trimming reallocate and leave the old block intact), so nothing
        written later reaches this view; state dicts share it instead of
        copying.
        """
        view = self._buffer[:, : self._n_cols]
        view.flags.writeable = False
        return view

    def materialize(self) -> np.ndarray:
        """Contiguous copy of the occupied columns (safe to keep/mutate)."""
        return self._buffer[:, : self._n_cols].copy()

    def slice(self, start: int, stop: int) -> np.ndarray:
        """Contiguous copy of columns ``[start, stop)``."""
        if not 0 <= start <= stop <= self._n_cols:
            raise IndexError(
                f"slice [{start}, {stop}) out of range for {self._n_cols} columns"
            )
        return self._buffer[:, start:stop].copy()

    def column(self, index: int) -> np.ndarray:
        """Copy of one column (negative indices allowed)."""
        if index < 0:
            index += self._n_cols
        if not 0 <= index < self._n_cols:
            raise IndexError(f"column {index} out of range for {self._n_cols} columns")
        return self._buffer[:, index].copy()

    # ------------------------------------------------------------------ #
    # Pickling: ship only the occupied columns.
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        return {"contents": self.materialize()}

    def __setstate__(self, state: dict) -> None:
        contents = np.asarray(state["contents"])
        self._buffer = np.empty(
            (contents.shape[0], max(contents.shape[1], _MIN_CAPACITY)),
            dtype=contents.dtype,
        )
        self._buffer[:, : contents.shape[1]] = contents
        self._n_cols = contents.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GrowableMatrix(shape={self.shape}, capacity={self.capacity}, "
            f"dtype={self.dtype})"
        )


class RingBuffer:
    """Fixed-capacity ring retaining the most recent ``capacity`` items.

    Append is O(1) with no per-item allocation (the slot list is allocated
    once); iteration yields the retained items oldest-first.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self._capacity = int(capacity)
        self._slots: list = [None] * self._capacity
        self._start = 0          # index of the oldest retained item
        self._count = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def append(self, item) -> None:
        """Add one item, evicting the oldest when full."""
        end = (self._start + self._count) % self._capacity
        self._slots[end] = item
        if self._count < self._capacity:
            self._count += 1
        else:
            self._start = (self._start + 1) % self._capacity

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator:
        for offset in range(self._count):
            yield self._slots[(self._start + offset) % self._capacity]

    def items(self) -> list:
        """Retained items as a list, oldest first."""
        return list(self)

    def clear(self) -> None:
        """Drop every retained item."""
        self._slots = [None] * self._capacity
        self._start = 0
        self._count = 0
