"""Shared utilities: timing, validation, chunking, parallelism, statistics."""

from .chunking import chunk_indices, iter_chunks, split_columns
from .growbuf import GrowableMatrix, RingBuffer
from .parallel import (
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardExecutor,
    ShardTask,
    ShardTaskError,
    make_shard_executor,
)
from .stats import rolling_mean, running_moments, RunningMoments
from .timer import Timer, TimingTable, now, timeit
from .validation import (
    ensure_2d,
    ensure_positive,
    ensure_probability,
    require,
)

__all__ = [
    "chunk_indices",
    "iter_chunks",
    "split_columns",
    "GrowableMatrix",
    "RingBuffer",
    "ShardExecutor",
    "SerialShardExecutor",
    "ProcessShardExecutor",
    "ShardTask",
    "ShardTaskError",
    "make_shard_executor",
    "rolling_mean",
    "running_moments",
    "RunningMoments",
    "Timer",
    "TimingTable",
    "now",
    "timeit",
    "ensure_2d",
    "ensure_positive",
    "ensure_probability",
    "require",
]
