"""Outside-in per-layer timing for the traced benchmark run.

:class:`LayerClock` wraps public methods of each layer of ``repro`` for the
duration of a traced episode and restores them afterwards, so untraced
episodes run the unmodified code.  Each wrapper records calls and
inclusive wall time per layer, and keeps a per-thread call stack so a
frame's *self* time (its time minus the timed calls nested inside it) is
known too.

Wrappers only see calls made in this interpreter.  On the process backend
the shard work runs in spawned workers, so the worker-side core numbers
are read from the ``span.core.partial_fit`` histogram that ``repro.obs``
already records and merges home when the monitor closes.  The benchmark
adds no spans of its own.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.imrdmd import IncrementalMrDMD
from repro.core.tree import MrDMDTree
from repro.obs import OBS
from repro.pipeline.online import OnlineAnalysisPipeline
from repro.resilience.recovery import ShardRecoveryStore
from repro.service.alerts import AlertEngine
from repro.service.monitor import FleetMonitor
from repro.util.parallel import ProcessShardExecutor, SerialShardExecutor, ShardTask
from repro.viz.rackview import RackView

_AGING = "chunk_late_p50_ms, chunk_tail_ms (alert-stream)"
_DISPATCH = "chunk_p50_ms (ingest-persist); flat on alert-stream"

#: Every per-layer metric: ``name -> (unit, the end-to-end metric and
#: workload it should move)``.  Times and counts are totals per traced
#: episode, so runs with different episode counts compare directly.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "core.partial_fit.busy_s": ("s", "chunk_p50_ms, samples_per_s (ingest-persist)"),
    "core.partial_fit.calls": ("count", "chunk_p50_ms, samples_per_s (ingest-persist)"),
    "core.tree.reconstruct.busy_s": ("s", _AGING),
    "core.tree.reconstruct.calls": ("count", _AGING),
    "core.tree.reconstruct.cols": ("count", _AGING),
    "core.reconstruction_error.busy_s": ("s", _AGING),
    "pipeline.fit_baseline.busy_s": ("s", _AGING),
    "pipeline.fit_baseline.calls": ("count", _AGING),
    "pipeline.node_zscores.busy_s": ("s", _AGING),
    "pipeline.recon_per_read": ("ratio", "read_p50_ms (alert-stream)"),
    "service.round.self_s": ("s", "chunk_p50_ms (alert-stream)"),
    "service.alerts.evaluate.busy_s": ("s", "chunk_p50_ms (alert-stream)"),
    "parallel.submit.busy_s": ("s", _DISPATCH),
    "parallel.wait_s": ("s", _DISPATCH),
    "parallel.tasks": ("count", _DISPATCH),
    "parallel.bytes_shipped": ("B", _DISPATCH),
    "resilience.snapshot.busy_s": ("s", "chunk_tail_ms (ingest-persist)"),
    "resilience.snapshots": ("count", "chunk_tail_ms (ingest-persist)"),
    "checkpoint.save.stall_s": ("s", "chunk_tail_ms (ingest-persist)"),
    "checkpoint.flush.busy_s": ("s", "samples_per_s (ingest-persist)"),
    "checkpoint.bytes_written": ("B", "recorded only"),
    "checkpoint.bytes_referenced": ("B", "recorded only"),
    "viz.render_svg.busy_s": ("s", "read_p50_ms (alert-stream)"),
    "viz.render_svg.calls": ("count", "read_p50_ms (alert-stream)"),
    "trace.overhead.chunk_p50": ("ratio", "traced / untraced chunk_p50_ms - 1"),
    "trace.overhead.read_p50": ("ratio", "traced / untraced read_p50_ms - 1"),
}


def _reconstruct_cols(args: tuple, kwargs: dict) -> int:
    """Columns one ``MrDMDTree.reconstruct(self, n_snapshots, ...)`` call
    expands: the window width, else the whole timeline."""
    time_range = kwargs.get("time_range")
    if time_range is not None:
        return max(int(time_range[1]) - int(time_range[0]), 0)
    n_snapshots = args[1] if len(args) > 1 else kwargs.get("n_snapshots")
    return int(n_snapshots or 0)


def _shipped_bytes(args: tuple, kwargs: dict) -> int:
    """Bytes of the ndarray arguments of ``submit(self, shard_id, fn, ...)``."""
    values = list(args[3:]) + list(kwargs.values())
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class LayerClock:
    """Per-layer call counts and busy/self times, measured from outside.

    :meth:`install` before a traced episode, :meth:`uninstall` after it;
    :meth:`tick` books time measured around a call directly (saves, flushes).
    """

    def __init__(self) -> None:
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._saved: list[tuple[type, str, object]] = []

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def tick(self, name: str, elapsed: float, children: float = 0.0) -> None:
        self.busy[name] = self.busy.get(name, 0.0) + elapsed
        self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - children
        self.calls[name] = self.calls.get(name, 0) + 1

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _wrap(self, owner: type, method: str, name: str, counter=None) -> None:
        original = getattr(owner, method)
        clock = self

        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(args, kwargs)
            stack = clock._stack()
            frame = [0.0]  # time of the timed calls nested in this one
            stack.append(frame)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                clock.tick(name, elapsed, frame[0])

        self._saved.append((owner, method, original))
        setattr(owner, method, wrapper)

    def install(self) -> None:
        def cols(args, kwargs):
            self.add("core.tree.reconstruct.cols", _reconstruct_cols(args, kwargs))

        def shipped(args, kwargs):
            self.add("parallel.tasks", 1)
            self.add("parallel.bytes_shipped", _shipped_bytes(args, kwargs))

        def fanned_out(args, kwargs):
            self.add("parallel.tasks", len(args[0].shard_ids))

        self._wrap(IncrementalMrDMD, "partial_fit", "core.partial_fit")
        self._wrap(MrDMDTree, "reconstruct", "core.tree.reconstruct", cols)
        self._wrap(IncrementalMrDMD, "reconstruction_error", "core.reconstruction_error")
        self._wrap(OnlineAnalysisPipeline, "fit_baseline", "pipeline.fit_baseline")
        self._wrap(OnlineAnalysisPipeline, "node_zscores", "pipeline.node_zscores")
        self._wrap(FleetMonitor, "ingest_and_alert", "service.round")
        self._wrap(AlertEngine, "evaluate", "service.alerts.evaluate")
        self._wrap(SerialShardExecutor, "submit", "parallel.submit", shipped)
        self._wrap(ProcessShardExecutor, "submit", "parallel.submit", shipped)
        # broadcast fans out to every shard without going through submit.
        self._wrap(ProcessShardExecutor, "broadcast", "parallel.submit", fanned_out)
        self._wrap(ShardTask, "result", "parallel.wait")
        self._wrap(ShardRecoveryStore, "record_snapshot_if_changed", "resilience.snapshot")
        self._wrap(ShardRecoveryStore, "record_snapshot", "resilience.record")
        self._wrap(RackView, "render_svg", "viz.render_svg")

    def uninstall(self) -> None:
        while self._saved:
            owner, method, original = self._saved.pop()
            setattr(owner, method, original)

    def metrics(self, *, process_backend: bool) -> dict[str, float]:
        """Per-layer totals over every episode this clock was installed for."""
        busy, calls, counts, own = self.busy, self.calls, self.counts, self.self_time
        if process_backend:
            # Shard ingests ran in the workers; their core.partial_fit spans
            # were merged into OBS.metrics when the monitor closed.
            hist = OBS.metrics.histogram("span.core.partial_fit")
            fit_busy, fit_calls = hist.sum, hist.count
        else:
            fit_busy = busy.get("core.partial_fit", 0.0)
            fit_calls = calls.get("core.partial_fit", 0)
        return {
            "core.partial_fit.busy_s": fit_busy,
            "core.partial_fit.calls": fit_calls,
            "core.tree.reconstruct.busy_s": busy.get("core.tree.reconstruct", 0.0),
            "core.tree.reconstruct.calls": calls.get("core.tree.reconstruct", 0),
            "core.tree.reconstruct.cols": counts.get("core.tree.reconstruct.cols", 0.0),
            "core.reconstruction_error.busy_s": busy.get("core.reconstruction_error", 0.0),
            "pipeline.fit_baseline.busy_s": busy.get("pipeline.fit_baseline", 0.0),
            "pipeline.fit_baseline.calls": calls.get("pipeline.fit_baseline", 0),
            "pipeline.node_zscores.busy_s": busy.get("pipeline.node_zscores", 0.0),
            "pipeline.reads": counts.get("reads", 0.0),
            "read.reconstruct.calls": counts.get("read.reconstruct.calls", 0.0),
            "service.round.self_s": own.get("service.round", 0.0),
            "service.alerts.evaluate.busy_s": busy.get("service.alerts.evaluate", 0.0),
            # Self time: a serial executor runs the task body inside submit,
            # and that body is already booked to its own layer.
            "parallel.submit.busy_s": own.get("parallel.submit", 0.0),
            "parallel.wait_s": busy.get("parallel.wait", 0.0),
            "parallel.tasks": counts.get("parallel.tasks", 0.0),
            "parallel.bytes_shipped": counts.get("parallel.bytes_shipped", 0.0),
            "resilience.snapshot.busy_s": busy.get("resilience.snapshot", 0.0),
            "resilience.snapshots": calls.get("resilience.record", 0),
            "checkpoint.save.stall_s": busy.get("checkpoint.save", 0.0),
            "checkpoint.flush.busy_s": busy.get("checkpoint.flush", 0.0),
            "checkpoint.bytes_written": OBS.metrics.counter("checkpoint.bytes_written").value,
            "checkpoint.bytes_referenced": OBS.metrics.counter("checkpoint.bytes_referenced").value,
            "viz.render_svg.busy_s": busy.get("viz.render_svg", 0.0),
            "viz.render_svg.calls": calls.get("viz.render_svg", 0),
        }
