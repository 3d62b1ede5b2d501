"""Counters, gauges and fixed-bucket histograms for the ingest path.

The registry is deliberately tiny and dependency-free: every instrument is
plain data (ints, floats, lists), so a :class:`MetricsRegistry`

* **pickles** — process-backend shard workers accumulate into their own
  module-level registry and ship it home with query results (see
  :func:`repro.obs.worker_drain_metrics`);
* **merges** — ``parent.merge(worker_registry)`` adds counters and
  histogram buckets and takes the other side's gauge samples, so the
  fleet-wide totals are exact regardless of how work was scheduled;
* **serialises** — :meth:`MetricsRegistry.to_dict` round-trips through
  JSON for the ``--metrics-out`` CLI surface.

Histograms use *fixed* bucket bounds (shared by every process by
construction), which is what makes cross-process merging a plain
element-wise add.  Quantiles are estimated by linear interpolation inside
the bucket containing the requested rank, clamped to the observed min/max.

Thread safety: mutation goes through the registry's convenience methods
(:meth:`inc`, :meth:`set_gauge`, :meth:`observe`), which hold one shared
lock — the asynchronous checkpoint writer thread records into the parent
registry while the ingest loop does.  The lock is dropped on pickle and
recreated on load.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "metric_key",
]

#: Default histogram bounds (seconds): exponential 10 us .. ~84 s, the span
#: from a no-op provider call to a paper-scale initial fit.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = tuple(
    1e-5 * (2.0 ** i) for i in range(24)
)


def metric_key(name: str, labels: dict[str, object]) -> tuple:
    """Canonical hashable identity of one instrument: name + sorted labels."""
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


def _key_str(key: tuple) -> str:
    """Human-readable ``name{k=v,...}`` rendering of a metric key."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount!r}")
        self.value += float(amount)

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> dict:
        return {"value": self.value}

    @classmethod
    def from_dict(cls, state: dict) -> "Counter":
        return cls(value=float(state["value"]))


class Gauge:
    """A last-written sample (rank, queue depth, rows/sec of the last chunk)."""

    __slots__ = ("value", "n_samples")

    def __init__(self, value: float = 0.0, n_samples: int = 0) -> None:
        self.value = float(value)
        self.n_samples = int(n_samples)

    def set(self, value: float) -> None:
        self.value = float(value)
        self.n_samples += 1

    def merge(self, other: "Gauge") -> None:
        # The other side's sample is the more recent observation of the
        # same instrument (workers are drained after the parent stopped
        # submitting); keep it when it actually observed anything.
        if other.n_samples:
            self.value = other.value
        self.n_samples += other.n_samples

    def to_dict(self) -> dict:
        return {"value": self.value, "n_samples": self.n_samples}

    @classmethod
    def from_dict(cls, state: dict) -> "Gauge":
        return cls(
            value=float(state["value"]), n_samples=int(state.get("n_samples", 0))
        )


class Histogram:
    """Fixed-bucket distribution with exact count/sum and estimated quantiles.

    ``bounds`` are inclusive upper bucket edges; one implicit overflow
    bucket catches everything above the last edge.  Two histograms merge
    only when their bounds are identical, which the registry guarantees by
    construction (the bounds are fixed at first registration).
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_TIME_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bounds must be a non-empty increasing sequence")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) by in-bucket linear interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lo = self.bounds[index - 1] if index > 0 else min(self.min, self.bounds[0])
                hi = self.bounds[index] if index < len(self.bounds) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max) if hi >= lo else lo
                fraction = (rank - cumulative) / n
                return lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
            cumulative += n
        return self.max

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for index, n in enumerate(other.bucket_counts):
            self.bucket_counts[index] += n
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "Histogram":
        out = cls(bounds=tuple(state["bounds"]))
        out.bucket_counts = [int(n) for n in state["bucket_counts"]]
        out.count = int(state["count"])
        out.sum = float(state["sum"])
        out.min = float("inf") if state.get("min") is None else float(state["min"])
        out.max = float("-inf") if state.get("max") is None else float(state["max"])
        return out


class MetricsRegistry:
    """All instruments of one process, keyed by (name, sorted labels).

    The registry is the unit of transport: picklable (the lock is
    recreated), mergeable (exact totals across processes) and JSON
    serialisable.  Instruments are created on first use; a name is bound
    to one instrument kind for the registry's lifetime.
    """

    def __init__(self) -> None:
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._lock = threading.Lock()

    # -- instrument access ------------------------------------------------ #
    def counter(self, name: str, **labels) -> Counter:
        key = metric_key(name, labels)
        with self._lock:
            return self._counters.setdefault(key, Counter())

    def gauge(self, name: str, **labels) -> Gauge:
        key = metric_key(name, labels)
        with self._lock:
            return self._gauges.setdefault(key, Gauge())

    def histogram(
        self, name: str, *, buckets: tuple[float, ...] | None = None, **labels
    ) -> Histogram:
        key = metric_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(
                    bounds=buckets or DEFAULT_TIME_BUCKETS
                )
            return hist

    # -- mutation (the instrumented hot paths call these) ----------------- #
    def inc(self, name: str, amount: float = 1.0, **labels) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._counters.setdefault(key, Counter()).inc(amount)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        key = metric_key(name, labels)
        with self._lock:
            self._gauges.setdefault(key, Gauge()).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        key = metric_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram()
            hist.observe(value)

    # -- iteration / introspection ---------------------------------------- #
    def counters(self) -> Iterator[tuple[tuple, Counter]]:
        return iter(sorted(self._counters.items()))

    def gauges(self) -> Iterator[tuple[tuple, Gauge]]:
        return iter(sorted(self._gauges.items()))

    def histograms(self) -> Iterator[tuple[tuple, Histogram]]:
        return iter(sorted(self._histograms.items()))

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def totals(self) -> dict[str, float]:
        """Scheduling-independent totals: counter values, gauge values and
        histogram *counts* (never sums — those are wall-clock and differ
        run to run), keyed by ``name{label=value,...}``.  This is what the
        backend-parity tests compare bit for bit."""
        out: dict[str, float] = {}
        with self._lock:
            for key, counter in self._counters.items():
                out[_key_str(key)] = counter.value
            for key, gauge in self._gauges.items():
                out[_key_str(key)] = gauge.value
            for key, hist in self._histograms.items():
                out[_key_str(key) + ".count"] = float(hist.count)
        return out

    # -- transport -------------------------------------------------------- #
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's instruments into this one (exact totals)."""
        with self._lock:
            for key, counter in other._counters.items():
                self._counters.setdefault(key, Counter()).merge(counter)
            for key, gauge in other._gauges.items():
                self._gauges.setdefault(key, Gauge()).merge(gauge)
            for key, hist in other._histograms.items():
                mine = self._histograms.get(key)
                if mine is None:
                    self._histograms[key] = Histogram.from_dict(hist.to_dict())
                else:
                    mine.merge(hist)
        return self

    def to_dict(self) -> dict:
        """Plain-container serialisation (JSON-safe; see the CLI surface)."""
        def unpack(key: tuple) -> dict:
            name, labels = key
            return {"name": name, "labels": dict(labels)}

        with self._lock:
            return {
                "counters": [
                    {**unpack(k), **c.to_dict()} for k, c in sorted(self._counters.items())
                ],
                "gauges": [
                    {**unpack(k), **g.to_dict()} for k, g in sorted(self._gauges.items())
                ],
                "histograms": [
                    {**unpack(k), **h.to_dict()}
                    for k, h in sorted(self._histograms.items())
                ],
            }

    @classmethod
    def from_dict(cls, state: dict) -> "MetricsRegistry":
        out = cls()
        for entry in state.get("counters", ()):
            key = metric_key(entry["name"], entry["labels"])
            out._counters[key] = Counter.from_dict(entry)
        for entry in state.get("gauges", ()):
            key = metric_key(entry["name"], entry["labels"])
            out._gauges[key] = Gauge.from_dict(entry)
        for entry in state.get("histograms", ()):
            key = metric_key(entry["name"], entry["labels"])
            out._histograms[key] = Histogram.from_dict(entry)
        return out

    # -- pickling (locks cannot travel) ----------------------------------- #
    def __getstate__(self) -> dict:
        with self._lock:
            return {
                "_counters": self._counters,
                "_gauges": self._gauges,
                "_histograms": self._histograms,
            }

    def __setstate__(self, state: dict) -> None:
        self._counters = state["_counters"]
        self._gauges = state["_gauges"]
        self._histograms = state["_histograms"]
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )
