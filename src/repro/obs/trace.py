"""Span-based tracing for the ingest path.

A *span* is one timed region of the pipeline — ``service.ingest_and_alert``
wrapping ``executor.task`` wrapping ``pipeline.ingest`` wrapping
``core.partial_fit`` — identified by a process-unique id and linked to its
parent through a per-thread span stack.  On exit every span is

* emitted to the tracer's sinks as one JSON-safe event dict (the file sink
  writes JSON lines, mirroring :class:`repro.service.alerts.JsonLinesSink`;
  the ring sink retains the most recent events in memory, mirroring
  :class:`repro.service.alerts.RingBufferSink`), and
* observed into the shared :class:`~repro.obs.metrics.MetricsRegistry` as
  a ``span.<name>`` histogram, which is what the report's p50/p95/p99
  table and the process-backend round trip are built on (events stay
  local; histograms merge home).

Timestamps come from :data:`repro.util.timer.now` — the package-wide
monotonic clock — so trace events and benchmark timings are directly
comparable within a process.  Across processes the clocks have arbitrary
epochs; each tracer therefore carries a ``clock_offset`` (measured by the
executor's calibration handshake, see
:meth:`repro.util.parallel.ProcessShardExecutor.calibrate_clocks`) that is
added to ``start``/``end`` at emission time, putting every process's
events on the coordinator's timeline.  Causality crosses the process
boundary through :class:`TraceContext`: the coordinator captures
``(trace_id, current span id)`` at task-submit time, the worker adopts it
(:meth:`Tracer.adopt`) so its ``executor.task`` span parents under the
coordinator's round span, and span ids are made globally unique by basing
each process's counter on its pid.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from typing import Iterable, NamedTuple

from ..util.growbuf import RingBuffer
from ..util.timer import now

__all__ = [
    "Span",
    "TraceContext",
    "TraceSink",
    "RingBufferTraceSink",
    "JsonLinesTraceSink",
    "Tracer",
    "new_trace_id",
    "TRACE_SCHEMA_VERSION",
    "SUPPORTED_TRACE_SCHEMAS",
]

#: Version stamped into the header line of JSON-lines trace files.  Bump it
#: when the event schema changes shape; loaders refuse versions they do not
#: know (see :func:`repro.obs.export.read_trace`), the same forward-compat
#: contract the checkpoint manifests use.
TRACE_SCHEMA_VERSION = 1

#: Versions :func:`repro.obs.export.read_trace` accepts.
SUPPORTED_TRACE_SCHEMAS = (1,)


def new_trace_id() -> str:
    """A fresh 128-bit-ish random trace id (hex, no dashes)."""
    return os.urandom(8).hex()


class TraceContext(NamedTuple):
    """The causal context shipped with cross-process work.

    ``trace_id`` names the whole session's trace; ``span_id`` is the span
    open on the submitting thread at capture time (the remote span's
    parent).  It pickles as a plain tuple, so it rides inside executor
    task messages at negligible cost.
    """

    trace_id: str | None
    span_id: int | None


class TraceSink:
    """Receives one event dict per completed span."""

    def emit(self, event: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (file handles); idempotent."""


class RingBufferTraceSink(TraceSink):
    """Retains the most recent ``capacity`` span events in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        self._buffer = RingBuffer(capacity)

    def emit(self, event: dict) -> None:
        self._buffer.append(event)

    @property
    def events(self) -> list[dict]:
        """Retained events, oldest first."""
        return self._buffer.items()

    def __len__(self) -> int:
        return len(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()


class JsonLinesTraceSink(TraceSink):
    """Appends one JSON object per span event to a text file.

    A fresh (empty) file gets a header line first —
    ``{"kind": "trace_header", "schema_version": ..., "trace_id": ...}`` —
    so loaders can refuse trace files written by an incompatible version
    before mis-parsing a single event.
    """

    def __init__(self, path: str, *, trace_id: str | None = None) -> None:
        self.path = str(path)
        self._handle = open(self.path, "a", encoding="utf-8")
        if self._handle.tell() == 0:
            header = {
                "kind": "trace_header",
                "schema_version": TRACE_SCHEMA_VERSION,
            }
            if trace_id is not None:
                header["trace_id"] = trace_id
            self._handle.write(json.dumps(header, sort_keys=True) + "\n")
            self._handle.flush()

    def emit(self, event: dict) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class Span:
    """Context manager for one timed region.

    Entering pushes the span onto the owning tracer's per-thread stack (so
    nested spans link ``parent_id``); exiting pops it, emits the event and
    observes the duration histogram.  Spans are single-use.
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "start", "end", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: int | None = None
        self.parent_id: int | None = None
        self.start: float | None = None
        self.end: float | None = None

    @property
    def duration(self) -> float | None:
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self, error=exc_type is not None)

    def set(self, **attrs) -> None:
        """Attach attributes known only inside the region (before exit)."""
        self.attrs.update(attrs)


class _RemoteParent:
    """Stack entry standing in for a span owned by another process.

    Pushed by :meth:`Tracer.adopt`: it carries only the remote parent's
    ``span_id``, which is all ``_push`` reads when linking children.
    """

    __slots__ = ("span_id",)

    def __init__(self, span_id: int | None) -> None:
        self.span_id = span_id


class _Adoption:
    """Context manager scoping an adopted remote parent on the stack."""

    __slots__ = ("_tracer", "_holder")

    def __init__(self, tracer: "Tracer", span_id: int | None) -> None:
        self._tracer = tracer
        self._holder = _RemoteParent(span_id)

    def __enter__(self) -> "_Adoption":
        self._tracer._stack().append(self._holder)
        return self

    def __exit__(self, *exc_info) -> None:
        stack = self._tracer._stack()
        if stack and stack[-1] is self._holder:
            stack.pop()
        elif self._holder in stack:  # pragma: no cover - unbalanced exit
            stack.remove(self._holder)


class _NoopAdoption:
    """Shared inert adoption for a missing/empty context."""

    __slots__ = ()

    def __enter__(self) -> "_NoopAdoption":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NOOP_ADOPTION = _NoopAdoption()


class Tracer:
    """Builds spans, links parents per thread, fans events out to sinks.

    Span ids are globally unique across the fleet: each process counts
    from ``pid << 32``, so merged traces never collide.  The per-thread
    stacks mean the checkpoint writer thread's spans are recorded
    concurrently with the ingest loop's without interleaving parents;
    process-backend workers run their own tracer whose ring-buffered
    events are drained home by the executor (``span.*`` histograms in the registry merge home independently, see
    :mod:`repro.obs.metrics`).

    ``trace_id`` stamps every event; ``clock_offset`` (seconds to add to
    this process's monotonic clock to land on the coordinator's) is
    applied to ``start``/``end`` at emission time only — metric durations
    are never shifted.
    """

    def __init__(
        self,
        metrics=None,
        sinks: Iterable[TraceSink] = (),
        *,
        trace_id: str | None = None,
        clock_offset: float = 0.0,
    ) -> None:
        self.metrics = metrics
        self.sinks: list[TraceSink] = list(sinks)
        self.trace_id = trace_id
        self.clock_offset = float(clock_offset)
        self._pid = os.getpid()
        self._ids = itertools.count((self._pid << 32) + 1)
        self._local = threading.local()
        self._emit_lock = threading.Lock()

    # -- span stack ------------------------------------------------------- #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> int | None:
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def current_context(self) -> TraceContext:
        """The ``(trace_id, current span id)`` pair to ship with a task."""
        return TraceContext(self.trace_id, self.current_span_id())

    def adopt(self, ctx) -> "_Adoption | _NoopAdoption":
        """Scope spans on this thread under a remote parent.

        ``ctx`` is a :class:`TraceContext` (or the plain tuple it pickles
        to) captured by the submitting process.  Within the returned
        context manager, new spans on this thread parent under
        ``ctx.span_id`` — the cross-process half of the causal chain.
        A ``None`` context (or one with no open span) is a no-op.
        """
        if ctx is None:
            return _NOOP_ADOPTION
        trace_id, span_id = ctx
        if span_id is None:
            return _NOOP_ADOPTION
        if trace_id is not None and self.trace_id is None:
            self.trace_id = trace_id
        return _Adoption(self, span_id)

    def span(self, name: str, **attrs) -> Span:
        """A new (not yet entered) span; use as a context manager."""
        return Span(self, name, attrs)

    def _push(self, span: Span) -> None:
        stack = self._stack()
        span.span_id = next(self._ids)
        span.parent_id = stack[-1].span_id if stack else None
        stack.append(span)
        span.start = now()

    def _pop(self, span: Span, *, error: bool = False) -> None:
        span.end = now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - unbalanced exit safety net
            stack.remove(span)
        self._finish(span.name, span.span_id, span.parent_id, span.start,
                     span.end, span.attrs, error=error)

    # -- pre-timed events -------------------------------------------------- #
    def record(self, name: str, seconds: float, **attrs) -> None:
        """Record an already-measured leaf region as a span event.

        Used by hot paths that time a block with two clock reads instead of
        re-indenting it under a ``with``: the event's parent is whatever
        span is open on this thread, and ``start`` is back-dated so the
        trace timeline stays consistent.  ``record`` cannot parent other
        spans (it is never on the stack) — use a real :meth:`span` for
        regions with children.
        """
        end = now()
        self._finish(name, next(self._ids), self.current_span_id(),
                     end - float(seconds), end, attrs, error=False)

    # -- completion -------------------------------------------------------- #
    def _finish(
        self,
        name: str,
        span_id: int | None,
        parent_id: int | None,
        start: float | None,
        end: float,
        attrs: dict,
        *,
        error: bool,
    ) -> None:
        duration = end - start if start is not None else 0.0
        if self.metrics is not None:
            self.metrics.observe(f"span.{name}", duration)
        if not self.sinks:
            return
        offset = self.clock_offset
        event = {
            "name": name,
            "span_id": span_id,
            "parent_id": parent_id,
            "start": start + offset if start is not None else None,
            "end": end + offset,
            "duration": duration,
            "pid": self._pid,
            "tid": threading.get_ident(),
            "attrs": {str(k): _json_safe(v) for k, v in attrs.items()},
        }
        if self.trace_id is not None:
            event["trace_id"] = self.trace_id
        if error:
            event["error"] = True
        with self._emit_lock:
            for sink in self.sinks:
                sink.emit(event)

    def ingest_events(self, events: Iterable[dict]) -> None:
        """Re-emit already-finished events (drained from a worker tracer).

        The events arrive with calibrated timestamps and globally-unique
        span ids, so they drop straight into this tracer's sinks — the
        coordinator side of merging one causal trace per session.
        """
        if not self.sinks:
            return
        with self._emit_lock:
            for event in events:
                for sink in self.sinks:
                    sink.emit(event)

    def close_sinks(self) -> None:
        for sink in self.sinks:
            sink.close()


def _json_safe(value) -> object:
    """Coerce an attribute value to something ``json.dumps`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    try:
        return value.item()  # NumPy scalars
    except AttributeError:
        return str(value)
