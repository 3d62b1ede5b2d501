"""repro.obs — tracing, metrics and profiling hooks for the ingest path.

The package exposes one module-level provider, :data:`OBS`, that every
instrumented layer (core, pipeline, service, federation, executor) talks
to.  It defaults **off**: the hot-path guard is a single attribute check
(``if OBS.enabled:``) or one no-op method call returning a shared inert
context manager, so a disabled provider costs nothing measurable per chunk
(pinned by ``benchmarks/bench_obs_overhead.py``).

Enable it for a session::

    from repro import obs

    obs.enable(trace_path="trace.jsonl")     # span events -> JSON lines
    ... run a scenario ...
    print(obs.report.render_text(obs.OBS.metrics))

or from the CLI::

    python -m repro.service rack-cooling-failure \\
        --metrics-out metrics.json --trace-out trace.jsonl

Process-backend shard workers run in fresh interpreters where ``OBS``
starts disabled.  When the parent provider is enabled, the
:class:`~repro.util.parallel.ProcessShardExecutor` flips it on in each
worker as the worker starts (:func:`worker_enable_metrics`) and
calibrates its clock; :meth:`~repro.util.parallel.ShardExecutor.collect_obs`
(called by the monitors' ``collect_metrics`` and ``close``) drains each
worker's registry and buffered span events home
(:func:`worker_drain_metrics`, :func:`worker_drain_trace`) — metrics
merge exactly, and the span events join the coordinator's trace.
"""

from __future__ import annotations

from typing import Iterable

from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import (
    SUPPORTED_TRACE_SCHEMAS,
    TRACE_SCHEMA_VERSION,
    JsonLinesTraceSink,
    RingBufferTraceSink,
    Span,
    TraceContext,
    Tracer,
    TraceSink,
    new_trace_id,
)

__all__ = [
    "OBS",
    "ObsProvider",
    "enable",
    "disable",
    "worker_enable_metrics",
    "worker_drain_metrics",
    "worker_drain_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "Tracer",
    "TraceContext",
    "Span",
    "TraceSink",
    "RingBufferTraceSink",
    "JsonLinesTraceSink",
    "TRACE_SCHEMA_VERSION",
    "SUPPORTED_TRACE_SCHEMAS",
    "new_trace_id",
]


class _NoopSpan:
    """Inert, reusable, re-entrant stand-in returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class ObsProvider:
    """The process-wide observability switchboard.

    All instrumentation funnels through the four hot-path methods
    (:meth:`span`, :meth:`record`, :meth:`inc`, :meth:`gauge`,
    :meth:`observe`); each starts with the ``enabled`` check so the
    disabled cost is one attribute load and a branch.
    """

    __slots__ = ("enabled", "metrics", "tracer", "ring", "trace_id", "clock_offset")

    def __init__(self) -> None:
        self.enabled = False
        self.metrics = MetricsRegistry()
        self.ring: RingBufferTraceSink | None = None
        self.trace_id: str | None = None
        self.clock_offset = 0.0
        self.tracer = Tracer(metrics=self.metrics)

    # -- lifecycle --------------------------------------------------------- #
    def enable(
        self,
        *,
        trace_path: str | None = None,
        ring_capacity: int = 4096,
        sinks: Iterable[TraceSink] = (),
    ) -> "ObsProvider":
        """Turn collection on (idempotent; metrics accumulate across calls).

        A ring-buffer sink always retains the most recent ``ring_capacity``
        span events for in-process inspection (``OBS.ring.events``); pass
        ``trace_path`` to also stream events to a JSON-lines file, or
        ``sinks`` for custom fan-out — the same sink split the alert
        engine uses.
        """
        self.tracer.close_sinks()
        if self.trace_id is None:
            self.trace_id = new_trace_id()
        self.ring = RingBufferTraceSink(ring_capacity)
        all_sinks: list[TraceSink] = [self.ring]
        if trace_path is not None:
            all_sinks.append(JsonLinesTraceSink(trace_path, trace_id=self.trace_id))
        all_sinks.extend(sinks)
        self.tracer = Tracer(
            metrics=self.metrics,
            sinks=all_sinks,
            trace_id=self.trace_id,
            clock_offset=self.clock_offset,
        )
        self.enabled = True
        return self

    def disable(self) -> None:
        """Stop collecting and close file sinks; metrics are retained."""
        self.enabled = False
        self.tracer.close_sinks()

    def reset(self) -> None:
        """Back to the pristine disabled state with an empty registry."""
        self.disable()
        self.metrics = MetricsRegistry()
        self.ring = None
        self.trace_id = None
        self.clock_offset = 0.0
        self.tracer = Tracer(metrics=self.metrics)

    def set_remote_context(self, trace_id: str | None, clock_offset: float) -> None:
        """Install the coordinator's trace id and this process's clock
        offset — the receiving side of the executor calibration handshake.
        Takes effect immediately on the live tracer and persists across a
        later :meth:`enable`."""
        self.trace_id = trace_id
        self.clock_offset = float(clock_offset)
        self.tracer.trace_id = trace_id
        self.tracer.clock_offset = float(clock_offset)

    def drain(self) -> MetricsRegistry:
        """Detach and return the accumulated registry, installing a fresh
        one — the worker side of the process-backend round trip (repeat
        drains never double-count)."""
        snapshot = self.metrics
        self.metrics = MetricsRegistry()
        self.tracer.metrics = self.metrics
        return snapshot

    # -- hot-path API ------------------------------------------------------ #
    def span(self, name: str, **attrs):
        """A timed region: real span when enabled, shared no-op otherwise."""
        if not self.enabled:
            return _NOOP_SPAN
        return self.tracer.span(name, **attrs)

    def current_context(self) -> TraceContext | None:
        """The causal context to ship with cross-process work, or ``None``
        while disabled (or when no span is open — nothing to parent under)."""
        if not self.enabled:
            return None
        ctx = self.tracer.current_context()
        return ctx if ctx.span_id is not None else None

    def adopt(self, ctx):
        """Scope this thread's spans under a shipped context (no-op when
        disabled or when ``ctx`` is ``None``)."""
        if not self.enabled or ctx is None:
            return _NOOP_SPAN
        return self.tracer.adopt(ctx)

    def record(self, name: str, seconds: float, **attrs) -> None:
        """An already-measured leaf region (see :meth:`Tracer.record`)."""
        if self.enabled:
            self.tracer.record(name, seconds, **attrs)

    def inc(self, name: str, amount: float = 1.0, **labels) -> None:
        if self.enabled:
            self.metrics.inc(name, amount, **labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        if self.enabled:
            self.metrics.set_gauge(name, value, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        if self.enabled:
            self.metrics.observe(name, value, **labels)


#: The module-level provider every instrumented layer imports.
OBS = ObsProvider()


def enable(**kwargs) -> ObsProvider:
    """Enable the module-level provider (see :meth:`ObsProvider.enable`)."""
    return OBS.enable(**kwargs)


def disable() -> None:
    """Disable the module-level provider."""
    OBS.disable()


# --------------------------------------------------------------------------- #
# Shard-executor commands (top-level, hence picklable by reference).  They
# follow the executor's calling convention ``fn(resident_obj, *args)`` and
# ignore the resident object: the target is the *worker interpreter's*
# module-level provider, reached via any shard resident on that worker.
# --------------------------------------------------------------------------- #
#: Span events a worker retains between trace drains.  Old events are
#: evicted oldest-first once the ring fills — the drained trace is a tail,
#: the same contract as the in-process ``OBS.ring``.
WORKER_TRACE_RING_CAPACITY = 8192


def worker_enable_metrics(obj=None) -> bool:
    """Enable metrics collection inside a process-backend worker.

    Workers trace into their ring sink only: ``span.*`` duration
    histograms land in the worker registry (shipped home by
    :func:`worker_drain_metrics`) while the span *events* — calibrated
    onto the coordinator's timeline and parented through the shipped
    :class:`TraceContext` — wait in the ring for
    :func:`worker_drain_trace` to merge them into the coordinator's trace.
    """
    if not OBS.enabled:
        OBS.enable(ring_capacity=WORKER_TRACE_RING_CAPACITY)
    return OBS.enabled


def worker_drain_metrics(obj=None) -> MetricsRegistry:
    """Detach and return the worker's registry (resets it, so repeated
    collections never double-count)."""
    return OBS.drain()


def worker_drain_trace(obj=None) -> list[dict]:
    """Detach and return the worker's buffered span events (oldest first).

    Clears the ring, so repeated drains never duplicate events.  The
    events already carry calibrated timestamps and globally-unique span
    ids; the coordinator feeds them to :meth:`Tracer.ingest_events`.
    """
    ring = OBS.ring
    if ring is None:
        return []
    events = ring.events
    ring.clear()
    return events


# Imported after OBS exists: flight/health/export read the provider but
# must not be prerequisites for the hot-path classes above; ``report``
# additionally renders through repro.viz.
from . import export, flight, health  # noqa: E402
from . import report  # noqa: E402

__all__.extend(["export", "flight", "health", "report"])
