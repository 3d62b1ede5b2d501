"""Unit tests for the amortized-growth buffers (repro.util.growbuf)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.util.growbuf import GrowableMatrix, RingBuffer


class TestGrowableMatrix:
    def test_append_matches_hstack(self):
        gen = np.random.default_rng(0)
        blocks = [gen.standard_normal((6, c)) for c in (3, 1, 7, 2, 16, 5)]
        buf = GrowableMatrix(6)
        for block in blocks:
            buf.append(block)
        reference = np.hstack(blocks)
        assert buf.shape == reference.shape
        assert np.array_equal(buf.view(), reference)
        assert np.array_equal(buf.materialize(), reference)

    def test_from_array_copies(self):
        base = np.arange(12.0).reshape(3, 4)
        buf = GrowableMatrix.from_array(base)
        base[0, 0] = 99.0
        assert buf.view()[0, 0] == 0.0

    def test_capacity_doubles_not_per_append(self):
        buf = GrowableMatrix(4, capacity=4)
        capacities = set()
        for _ in range(100):
            buf.append(np.zeros((4, 1)))
            capacities.add(buf.capacity)
        assert buf.n_cols == 100
        # Geometric growth: O(log T) distinct capacities, not O(T).
        assert len(capacities) <= 8
        assert buf.capacity >= 100

    def test_single_column_append(self):
        buf = GrowableMatrix(3)
        buf.append(np.array([1.0, 2.0, 3.0]))
        assert buf.shape == (3, 1)
        assert np.array_equal(buf.column(0), [1.0, 2.0, 3.0])
        assert np.array_equal(buf.column(-1), [1.0, 2.0, 3.0])

    def test_empty_append_is_noop(self):
        buf = GrowableMatrix(3)
        buf.append(np.zeros((3, 2)))
        buf.append(np.zeros((3, 0)))
        assert buf.n_cols == 2

    def test_slice_returns_contiguous_copy(self):
        buf = GrowableMatrix.from_array(np.arange(20.0).reshape(4, 5))
        part = buf.slice(1, 4)
        assert part.flags["C_CONTIGUOUS"]
        assert np.array_equal(part, np.arange(20.0).reshape(4, 5)[:, 1:4])
        part[0, 0] = -1.0
        assert buf.view()[0, 1] == 1.0  # copy, not a view

    @pytest.mark.parametrize("shape", [(1, 5), (4, 16)])
    def test_copies_are_not_live_views(self, shape):
        # A single-row matrix and an exactly full buffer keep the occupied
        # block contiguous; materialize/slice must copy all the same.
        base = np.arange(float(np.prod(shape))).reshape(shape)
        buf = GrowableMatrix.from_array(base)
        for out in (buf.materialize(), buf.slice(0, shape[1])):
            out += 1.0
        assert np.array_equal(buf.view(), base)

    def test_keep_trailing_reallocates(self):
        base = np.arange(20.0).reshape(2, 10)
        buf = GrowableMatrix.from_array(base)
        frozen = buf.frozen_view()
        assert buf.keep_trailing(3) == 7
        assert np.array_equal(buf.view(), base[:, 7:])
        buf.append(np.full((2, 5), -1.0))
        assert np.array_equal(frozen, base), "earlier views keep their contents"
        assert buf.keep_trailing(100) == 0
        assert buf.n_cols == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            GrowableMatrix(0)
        with pytest.raises(ValueError):
            GrowableMatrix(3, capacity=0)
        buf = GrowableMatrix(3)
        with pytest.raises(ValueError):
            buf.append(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            buf.append(np.zeros((2, 2, 2)))
        with pytest.raises(IndexError):
            buf.column(0)
        with pytest.raises(IndexError):
            buf.slice(0, 1)

    def test_pickle_round_trip_compact_and_identical(self):
        gen = np.random.default_rng(1)
        buf = GrowableMatrix(5, capacity=4)
        for _ in range(9):
            buf.append(gen.standard_normal((5, 3)))
        clone = pickle.loads(pickle.dumps(buf))
        assert np.array_equal(clone.view(), buf.view())
        assert clone.dtype == buf.dtype
        # Spare capacity is not shipped.
        assert clone.capacity <= max(buf.n_cols, 16)
        # The clone keeps growing correctly.
        clone.append(np.ones((5, 2)))
        assert clone.n_cols == buf.n_cols + 2

    def test_dtype_preserved(self):
        buf = GrowableMatrix.from_array(np.ones((2, 3), dtype=np.complex128))
        assert buf.dtype == np.complex128
        assert buf.materialize().dtype == np.complex128


class TestRingBuffer:
    def test_keeps_most_recent(self):
        ring = RingBuffer(3)
        for i in range(7):
            ring.append(i)
        assert list(ring) == [4, 5, 6]
        assert ring.items() == [4, 5, 6]
        assert len(ring) == 3

    def test_partial_fill(self):
        ring = RingBuffer(5)
        ring.append("a")
        ring.append("b")
        assert list(ring) == ["a", "b"]
        assert len(ring) == 2

    def test_clear(self):
        ring = RingBuffer(2)
        ring.append(1)
        ring.clear()
        assert len(ring) == 0
        assert list(ring) == []

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RingBuffer(0)
