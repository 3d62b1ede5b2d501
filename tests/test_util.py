"""Unit tests for the shared utilities (repro.util)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util import (
    RunningMoments,
    Timer,
    TimingTable,
    chunk_indices,
    ensure_2d,
    ensure_positive,
    ensure_probability,
    iter_chunks,
    make_shard_executor,
    require,
    rolling_mean,
    running_moments,
    split_columns,
    timeit,
)
from repro.util.parallel import (
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardTaskError,
)


class TestTimer:
    def test_timer_measures_elapsed(self):
        with Timer() as timer:
            sum(range(10_000))
        assert timer.elapsed >= 0.0

    def test_timer_restart(self):
        timer = Timer()
        with timer:
            pass
        timer.restart()
        assert timer.elapsed == 0.0

    def test_timeit_statistics(self):
        stats = timeit(lambda: sum(range(1000)), repeats=3, warmup=1)
        assert set(stats) >= {"mean", "std", "min", "max"}
        assert stats["min"] <= stats["mean"] <= stats["max"]
        with pytest.raises(ValueError):
            timeit(lambda: None, repeats=0)


class TestTimingTable:
    def test_add_and_render(self):
        table = TimingTable(columns=["Dataset", "T", "Seconds"])
        table.add_row("SC Log", 1000, 1.234)
        table.add_row("GPU", 2000, 2.5)
        text = table.render()
        assert "Dataset" in text and "SC Log" in text
        assert len(text.splitlines()) == 4
        assert table.to_dicts()[0]["T"] == 1000

    def test_row_width_mismatch(self):
        table = TimingTable(columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_render_empty(self):
        table = TimingTable(columns=["a"])
        assert "a" in table.render()


class TestChunking:
    def test_chunk_indices_cover_range(self):
        chunks = chunk_indices(10, 3)
        assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_chunk_indices_validation(self):
        with pytest.raises(ValueError):
            chunk_indices(-1, 3)
        with pytest.raises(ValueError):
            chunk_indices(10, 0)

    def test_iter_chunks_views(self):
        data = np.arange(20).reshape(2, 10)
        chunks = list(iter_chunks(data, 4))
        assert [c.shape[1] for c in chunks] == [4, 4, 2]
        assert np.shares_memory(chunks[0], data)

    def test_iter_chunks_axis0(self):
        data = np.arange(12).reshape(6, 2)
        chunks = list(iter_chunks(data, 4, axis=0))
        assert [c.shape[0] for c in chunks] == [4, 2]

    def test_iter_chunks_bad_axis(self):
        with pytest.raises(ValueError):
            list(iter_chunks(np.ones((2, 2)), 1, axis=5))

    def test_split_columns(self):
        data = np.arange(12).reshape(3, 4)
        left, right = split_columns(data, 1)
        assert left.shape == (3, 1) and right.shape == (3, 3)
        with pytest.raises(ValueError):
            split_columns(data, 7)
        with pytest.raises(ValueError):
            split_columns(np.ones(4), 2)


# --------------------------------------------------------------------------- #
# Persistent shard executors
# --------------------------------------------------------------------------- #
class _Accumulator:
    """Stateful shard object (top-level so the process backend can ship it)."""

    def __init__(self, total: int = 0) -> None:
        self.total = total
        self.calls: list[int] = []


def _add(acc: _Accumulator, amount: int) -> int:
    acc.total += amount
    acc.calls.append(amount)
    return acc.total


def _read_total(acc: _Accumulator) -> int:
    return acc.total


def _boom(acc: _Accumulator) -> None:
    raise RuntimeError("boom in worker")


BACKENDS = ["serial", "process"]


@pytest.fixture(params=BACKENDS)
def executor(request):
    ex = make_shard_executor(request.param, max_workers=2)
    yield ex
    ex.close()


class TestShardExecutor:
    def test_factory_backends(self):
        assert isinstance(make_shard_executor(None), SerialShardExecutor)
        assert isinstance(make_shard_executor("serial"), SerialShardExecutor)
        assert isinstance(make_shard_executor("process"), ProcessShardExecutor)
        with pytest.raises(ValueError, match="backend"):
            make_shard_executor("fork-bomb")
        # The thread backend is gone; the error lists what remains.
        with pytest.raises(ValueError, match="'serial', 'process'"):
            make_shard_executor("thread")

    def test_factory_passthrough_rules(self):
        fresh = SerialShardExecutor()
        assert make_shard_executor(fresh) is fresh
        with pytest.raises(ValueError, match="max_workers"):
            make_shard_executor(SerialShardExecutor(), max_workers=2)
        used = SerialShardExecutor()
        used.start({"a": _Accumulator()})
        with pytest.raises(ValueError, match="fresh"):
            make_shard_executor(used)

    def test_submit_call_and_per_shard_fifo(self, executor):
        executor.start({"a": _Accumulator(), "b": _Accumulator(100)})
        tasks = [executor.submit("a", _add, amount) for amount in (1, 2, 3)]
        assert [t.result() for t in tasks] == [1, 3, 6]
        assert executor.call("b", _add, 5) == 105
        # A query submitted after an ingest-style call sees its effect.
        executor.submit("a", _add, 10)
        assert executor.call("a", _read_total) == 16

    def test_broadcast_and_map(self, executor):
        executor.start({"a": _Accumulator(), "b": _Accumulator(100)})
        assert executor.broadcast(_add, 7) == {"a": 7, "b": 107}
        assert executor.map(_add, {"a": (3,), "b": (4,)}) == {"a": 10, "b": 111}

    def test_worker_exception_propagates(self, executor):
        executor.start({"a": _Accumulator()})
        task = executor.submit("a", _boom)
        with pytest.raises(RuntimeError, match="boom in worker"):
            task.result()
        # The worker survives a failed task.
        assert executor.call("a", _add, 2) == 2

    def test_pull_returns_resident_state(self, executor):
        acc = _Accumulator()
        executor.start({"a": acc})
        executor.call("a", _add, 11)
        pulled = executor.pull()["a"]
        assert pulled.total == 11
        if executor.backend == "serial":
            assert pulled is acc, "serial shares the parent's objects"

    def test_install_replaces_resident_object(self, executor):
        executor.start({"a": _Accumulator()})
        executor.call("a", _add, 5)
        executor.install("a", _Accumulator(1000))
        assert executor.call("a", _read_total) == 1000

    def test_lifecycle_errors(self, executor):
        with pytest.raises(RuntimeError, match="not started"):
            executor.submit("a", _read_total)
        executor.start({"a": _Accumulator()})
        with pytest.raises(RuntimeError, match="already started"):
            executor.start({"a": _Accumulator()})
        with pytest.raises(KeyError):
            executor.submit("nope", _read_total)
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            executor.submit("a", _read_total)

    def test_closed_executor_refuses_fan_outs(self, executor):
        executor.start({"a": _Accumulator(), "b": _Accumulator()})
        executor.close()
        with pytest.raises(RuntimeError, match="executor is closed"):
            executor.broadcast(_read_total)
        with pytest.raises(RuntimeError, match="executor is closed"):
            executor.pull()

    @pytest.mark.parametrize("send, shard_id", [
        ("broadcast", "a"), ("pull", "a"), ("install", "b"),
    ])
    def test_dead_worker_raises_a_crash_error_naming_the_shard(self, send, shard_id):
        with make_shard_executor("process", max_workers=1) as ex:
            ex.start({"a": _Accumulator(), "b": _Accumulator()})
            worker = ex._workers[0].process
            worker.kill()
            worker.join(timeout=30)
            sends = {
                "broadcast": lambda: ex.broadcast(_read_total),
                "pull": ex.pull,
                "install": lambda: ex.install("b", _Accumulator(7)),
            }
            with pytest.raises(ShardTaskError, match=repr(shard_id)) as caught:
                sends[send]()
            assert caught.value.kind == "crash"
            assert caught.value.shard_id == shard_id

    def test_start_requires_shards(self, executor):
        with pytest.raises(ValueError, match="at least one"):
            executor.start({})

    def test_context_manager_closes(self):
        with make_shard_executor("process", max_workers=1) as ex:
            ex.start({"a": _Accumulator()})
            assert ex.call("a", _add, 1) == 1
        assert ex.closed

    def test_process_backend_keeps_state_remote(self):
        acc = _Accumulator()
        with make_shard_executor("process", max_workers=1) as ex:
            ex.start({"a": acc})
            assert ex.call("a", _add, 9) == 9
            # The parent's copy is untouched until pulled.
            assert acc.total == 0
            assert ex.pull()["a"].total == 9

    def test_more_shards_than_workers(self, executor):
        shards = {f"s{i}": _Accumulator(i) for i in range(5)}
        executor.start(shards)
        assert executor.broadcast(_read_total) == {f"s{i}": i for i in range(5)}


class TestStats:
    def test_running_moments_match_numpy(self):
        gen = np.random.default_rng(0)
        data = gen.standard_normal((5, 100))
        moments = running_moments(data)
        assert np.allclose(moments.mean, data.mean(axis=1))
        assert np.allclose(moments.std, data.std(axis=1), atol=1e-10)
        assert moments.count == 100

    def test_running_moments_incremental_equals_batch(self):
        gen = np.random.default_rng(1)
        data = gen.standard_normal((3, 60))
        inc = RunningMoments()
        inc.update(data[:, :20])
        inc.update(data[:, 20:50])
        inc.update(data[:, 50:])
        batch = running_moments(data)
        assert np.allclose(inc.mean, batch.mean)
        assert np.allclose(inc.variance, batch.variance)

    def test_running_moments_single_vector(self):
        moments = RunningMoments().update(np.array([1.0, 2.0]))
        assert moments.count == 1
        assert np.allclose(moments.variance, 0.0)

    def test_running_moments_dimension_mismatch(self):
        moments = RunningMoments().update(np.zeros(3))
        with pytest.raises(ValueError):
            moments.update(np.zeros(4))
        with pytest.raises(ValueError):
            moments.update(np.zeros((2, 2, 2)))

    def test_rolling_mean_window_one_is_identity(self):
        data = np.random.default_rng(2).standard_normal((2, 10))
        assert np.allclose(rolling_mean(data, 1), data)

    def test_rolling_mean_constant_series(self):
        assert np.allclose(rolling_mean(np.full(10, 3.0), 4), 3.0)

    def test_rolling_mean_smooths(self):
        gen = np.random.default_rng(3)
        noisy = gen.standard_normal(500)
        smooth = rolling_mean(noisy, 50)
        assert smooth.std() < noisy.std()

    def test_rolling_mean_validation(self):
        with pytest.raises(ValueError):
            rolling_mean(np.ones(5), 0)


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="broken"):
            require(False, "broken")

    def test_ensure_2d(self):
        out = ensure_2d([[1, 2], [3, 4]])
        assert out.shape == (2, 2)
        with pytest.raises(ValueError):
            ensure_2d(np.ones(3), name="thing")

    def test_ensure_positive(self):
        assert ensure_positive(2.0) == 2.0
        with pytest.raises(ValueError):
            ensure_positive(0.0)

    def test_ensure_probability(self):
        assert ensure_probability(0.5) == 0.5
        with pytest.raises(ValueError):
            ensure_probability(1.5)
