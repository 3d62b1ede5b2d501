"""Human-readable summaries of a :class:`~repro.obs.metrics.MetricsRegistry`.

Renders the observability session the way the paper's performance sections
read — per-stage latency percentiles and throughput — through the
:class:`repro.viz.textreport.TextReport` machinery, so the same content is
available fixed-width for terminals (:func:`render_text`) and as Markdown
for CI job summaries (:func:`render_markdown`).  :func:`metrics_json` is
the serialisation behind the CLI's ``--metrics-out``.
"""

from __future__ import annotations

import json
import os

from ..util.timer import TimingTable
from ..viz.textreport import TextReport
from .health import _status as _health_status
from .metrics import MetricsRegistry

__all__ = [
    "summarize",
    "build_report",
    "render_text",
    "render_markdown",
    "metrics_json",
    "load_metrics_json",
    "MetricsFormatError",
    "METRICS_SCHEMA_VERSION",
    "SUPPORTED_METRICS_SCHEMAS",
]

#: Histograms produced by the tracer are namespaced under this prefix.
SPAN_PREFIX = "span."

#: Version stamped into ``--metrics-out`` JSON payloads.  Bump when the
#: payload shape changes; :func:`load_metrics_json` refuses versions it
#: does not know — the forward-compat contract checkpoints already use.
METRICS_SCHEMA_VERSION = 1

#: Versions :func:`load_metrics_json` accepts.
SUPPORTED_METRICS_SCHEMAS = (1,)


class MetricsFormatError(ValueError):
    """A metrics payload could not be loaded (bad shape or unknown version)."""


def _label_str(labels: tuple) -> str:
    return ",".join(f"{k}={v}" for k, v in labels)


def summarize(registry: MetricsRegistry) -> dict:
    """Structured digest: span percentiles, hotspots, throughput, alerts.

    Returns a JSON-safe dict with keys ``spans`` (per-span count/total/
    mean/p50/p95/p99/max, sorted by total time descending), ``hotspots``
    (top spans by share of the busiest span's total), ``throughput``
    (overall and most-recent rows/sec where the service counters exist),
    ``alerts_by_rule`` and ``ingest_path`` (the deferred deep-level
    refresh backlog, present only when those instruments fired),
    ``resilience`` (supervisor activity: task failures by kind, retries,
    worker respawns, quarantine state and recovery-snapshot cost, present
    only when a supervised monitor ran)
    and ``checkpoint`` (persistence cost: saves by format/mode, bytes
    written vs referenced from earlier entries, shards skipped as
    unchanged, ingest-side stall percentiles and writer backpressure,
    present only when checkpoints were saved).
    """
    spans = []
    for (name, labels), hist in registry.histograms():
        if not name.startswith(SPAN_PREFIX) or hist.count == 0:
            continue
        label = name[len(SPAN_PREFIX):]
        if labels:
            label += f"{{{_label_str(labels)}}}"
        spans.append(
            {
                "span": label,
                "count": hist.count,
                "total": hist.sum,
                "mean": hist.mean,
                "p50": hist.quantile(0.50),
                "p95": hist.quantile(0.95),
                "p99": hist.quantile(0.99),
                "max": hist.max,
            }
        )
    spans.sort(key=lambda s: s["total"], reverse=True)

    busiest = spans[0]["total"] if spans else 0.0
    hotspots = [
        {
            "span": s["span"],
            "total": s["total"],
            "share_of_busiest": s["total"] / busiest if busiest else 0.0,
        }
        for s in spans[:5]
    ]

    counters = {}
    for key, counter in registry.counters():
        name, labels = key
        counters[name + (f"{{{_label_str(labels)}}}" if labels else "")] = counter.value
    gauges = {}
    for key, gauge in registry.gauges():
        name, labels = key
        gauges[name + (f"{{{_label_str(labels)}}}" if labels else "")] = gauge.value

    throughput: dict[str, float] = {}
    rows = counters.get("service.rows")
    for (name, labels), hist in registry.histograms():
        if name == "service.chunk.seconds" and not labels and hist.sum > 0 and rows:
            throughput["rows_per_sec_overall"] = rows / hist.sum
            throughput["chunks"] = float(hist.count)
    if "service.rows_per_sec" in gauges:
        throughput["rows_per_sec_last_chunk"] = gauges["service.rows_per_sec"]

    alerts_by_rule = {}
    for key, counter in registry.counters():
        name, labels = key
        if name == "alerts.fired":
            rule = dict(labels).get("rule", "<unlabelled>")
            alerts_by_rule[rule] = counter.value

    ingest_path: dict[str, float] = {}
    scheduled = counters.get("service.deep_refresh.scheduled", 0.0)
    if scheduled or "service.deep.queue_depth" in gauges:
        ingest_path["deep_refreshes_scheduled"] = scheduled
        ingest_path["deep_queue_depth"] = gauges.get("service.deep.queue_depth", 0.0)
        ingest_path["deep_stale_snapshots"] = gauges.get(
            "service.deep.stale_snapshots", 0.0
        )

    # Resilience digest: sums over the supervisor's labelled counters.
    # Present only when supervision actually did something (a fault-free
    # supervised run still records recovery snapshots, which is worth
    # surfacing — it is the cost side of the crash-recovery guarantee).
    failures_by_kind: dict[str, float] = {}
    retries = 0.0
    respawns = 0.0
    lost_registries = 0.0
    for key, counter in registry.counters():
        name, labels = key
        if name == "service.resilience.failures":
            kind = dict(labels).get("kind", "<unlabelled>")
            failures_by_kind[kind] = failures_by_kind.get(kind, 0.0) + counter.value
        elif name == "service.resilience.retries":
            retries += counter.value
        elif name == "executor.worker.respawned":
            respawns += counter.value
        elif name == "obs.metrics.lost_registries":
            lost_registries += counter.value
    resilience: dict = {}
    if (
        failures_by_kind
        or retries
        or respawns
        or lost_registries
        or counters.get("service.resilience.snapshots")
    ):
        resilience = {
            "failures": sum(failures_by_kind.values()),
            "failures_by_kind": dict(sorted(failures_by_kind.items())),
            "retries": retries,
            "worker_respawns": respawns,
            "quarantined": counters.get("service.resilience.quarantined", 0.0),
            "quarantined_shards": gauges.get(
                "service.resilience.quarantined_shards", 0.0
            ),
            "rehydrated_shards": counters.get(
                "service.resilience.rehydrated_shards", 0.0
            ),
            "replayed_chunks": counters.get(
                "service.resilience.replayed_chunks", 0.0
            ),
            "snapshots": counters.get("service.resilience.snapshots", 0.0),
            "snapshots_skipped": counters.get(
                "service.resilience.snapshots_skipped", 0.0
            ),
            "lost_registries": lost_registries,
        }

    # Checkpoint digest: the persistence cost model of the delta/async
    # pipeline — how many saves ran in which mode, how many bytes
    # actually hit disk vs rode along as references to earlier entries,
    # and how long the ingest loop stalled on writer handoff.
    checkpoint: dict = {}
    saves_by_label: dict[str, float] = {}
    saves_total = 0.0
    for key, counter in registry.counters():
        name, labels = key
        if name in ("checkpoint.saves", "checkpoint.federated_saves"):
            label = _label_str(labels) or "<unlabelled>"
            saves_by_label[label] = saves_by_label.get(label, 0.0) + counter.value
            saves_total += counter.value
    if saves_total:
        written = counters.get("checkpoint.bytes_written", 0.0)
        referenced = counters.get("checkpoint.bytes_referenced", 0.0)
        checkpoint = {
            "saves": saves_total,
            "saves_by_label": dict(sorted(saves_by_label.items())),
            "bytes_written": written,
            "bytes_referenced": referenced,
            "written_frac": (
                written / (written + referenced) if written + referenced else 1.0
            ),
            "shards_reused": counters.get("checkpoint.shards_reused", 0.0),
            "blocks_written": counters.get("checkpoint.blocks_written", 0.0),
            "blocks_referenced": counters.get("checkpoint.blocks_referenced", 0.0),
            "blocks_swept": counters.get("checkpoint.blocks_swept", 0.0),
            "writer_saturated": counters.get("checkpoint.writer.saturated", 0.0),
            "writer_errors": counters.get("checkpoint.writer.errors", 0.0),
            "writer_queue_depth": gauges.get("checkpoint.writer.queue_depth", 0.0),
        }
        for (name, labels), hist in registry.histograms():
            if name == "checkpoint.stall_seconds" and not labels and hist.count:
                checkpoint["stall_p50"] = hist.quantile(0.50)
                checkpoint["stall_p95"] = hist.quantile(0.95)
                checkpoint["stall_total"] = hist.sum

    # Fleet health gauges published by the monitors each chunk/round.
    health: dict[str, dict[str, float]] = {}
    for key, gauge in registry.gauges():
        name, labels = key
        if name == "service.health.score":
            entity = dict(labels).get("shard", "<fleet>")
            health.setdefault("shards", {})[entity] = gauge.value
        elif name == "federation.health.score":
            entity = dict(labels).get("machine", "<federation>")
            health.setdefault("machines", {})[entity] = gauge.value

    return {
        "spans": spans,
        "hotspots": hotspots,
        "throughput": throughput,
        "alerts_by_rule": alerts_by_rule,
        "ingest_path": ingest_path,
        "resilience": resilience,
        "checkpoint": checkpoint,
        "health": health,
        "counters": counters,
        "gauges": gauges,
    }


def build_report(
    registry: MetricsRegistry, *, title: str = "observability report"
) -> TextReport:
    """Assemble the digest into a renderable :class:`TextReport`."""
    digest = summarize(registry)
    report = TextReport(title=title)

    section = report.section("span latencies (seconds)")
    if digest["spans"]:
        table = TimingTable(
            columns=["span", "count", "total", "mean", "p50", "p95", "p99", "max"]
        )
        for s in digest["spans"]:
            table.add_row(
                s["span"], s["count"], s["total"], s["mean"],
                s["p50"], s["p95"], s["p99"], s["max"],
            )
        section.add_table(table)
    else:
        section.add_line("(no spans recorded — was the provider enabled?)")

    if digest["hotspots"]:
        section = report.section("hotspots")
        for rank, spot in enumerate(digest["hotspots"], start=1):
            section.add_line(
                f"{rank}. {spot['span']} — total "
                f"{report.float_format.format(spot['total'])} s "
                f"({spot['share_of_busiest']:.0%} of busiest)"
            )

    if digest["throughput"] or digest["alerts_by_rule"]:
        section = report.section("throughput and alerts")
        for key, value in digest["throughput"].items():
            section.add_line(f"{key}: {report.float_format.format(value)}")
        for rule, count in sorted(digest["alerts_by_rule"].items()):
            section.add_line(f"alerts fired [{rule}]: {count:.0f}")

    if digest["ingest_path"]:
        section = report.section("raw-speed ingest path")
        path = digest["ingest_path"]
        if "deep_refreshes_scheduled" in path:
            section.add_line(
                f"deferred deep levels: {path['deep_refreshes_scheduled']:.0f} "
                f"background refreshes scheduled; backlog "
                f"{path['deep_queue_depth']:.0f} chunk(s), staleness "
                f"{path['deep_stale_snapshots']:.0f} snapshot(s)"
            )

    if digest["resilience"]:
        section = report.section("resilience")
        res = digest["resilience"]
        kinds = ", ".join(
            f"{kind}={count:.0f}"
            for kind, count in res["failures_by_kind"].items()
        )
        section.add_line(
            f"task failures: {res['failures']:.0f}"
            + (f" ({kinds})" if kinds else "")
            + f"; retries: {res['retries']:.0f}"
        )
        section.add_line(
            f"worker respawns: {res['worker_respawns']:.0f}; shards "
            f"rehydrated: {res['rehydrated_shards']:.0f} "
            f"({res['replayed_chunks']:.0f} chunk(s) replayed from the "
            f"recovery tail)"
        )
        section.add_line(
            f"quarantined: {res['quarantined']:.0f} event(s), "
            f"{res['quarantined_shards']:.0f} shard(s) currently out; "
            f"recovery snapshots recorded: {res['snapshots']:.0f} "
            f"(skipped as unchanged: {res.get('snapshots_skipped', 0.0):.0f})"
        )
        if res.get("lost_registries"):
            section.add_line(
                f"metric registries lost to force-terminated workers: "
                f"{res['lost_registries']:.0f} (span/counter totals "
                f"undercount the lost workers' final interval)"
            )

    if digest["checkpoint"]:
        section = report.section("checkpointing")
        ckpt = digest["checkpoint"]
        labels = ", ".join(
            f"{label}: {count:.0f}"
            for label, count in ckpt["saves_by_label"].items()
        )
        section.add_line(
            f"saves: {ckpt['saves']:.0f}" + (f" ({labels})" if labels else "")
        )
        section.add_line(
            f"bytes written: {ckpt['bytes_written']:.3g}; referenced from "
            f"earlier entries: {ckpt['bytes_referenced']:.3g} "
            f"(written fraction {ckpt['written_frac']:.0%}); shards reused "
            f"unchanged: {ckpt['shards_reused']:.0f}"
        )
        if "stall_p50" in ckpt:
            section.add_line(
                f"ingest-side stall: p50 "
                f"{report.float_format.format(ckpt['stall_p50'])} s, p95 "
                f"{report.float_format.format(ckpt['stall_p95'])} s, total "
                f"{report.float_format.format(ckpt['stall_total'])} s"
            )
        if ckpt["writer_saturated"] or ckpt["writer_errors"]:
            section.add_line(
                f"async writer backpressure: {ckpt['writer_saturated']:.0f} "
                f"saturated submit(s), {ckpt['writer_errors']:.0f} deferred "
                f"error(s)"
            )

    if digest["health"]:
        section = report.section("fleet health")
        for group, kind in (("machines", "machine"), ("shards", "shard")):
            for entity, score in sorted(digest["health"].get(group, {}).items()):
                section.add_kv(
                    f"{kind} {entity}",
                    f"{score:.2f} ({_health_status(score)})",
                )

    if digest["counters"]:
        section = report.section("counters")
        table = TimingTable(columns=["counter", "value"])
        for name, value in digest["counters"].items():
            table.add_row(name, value)
        section.add_table(table)

    if digest["gauges"]:
        section = report.section("gauges")
        table = TimingTable(columns=["gauge", "value"])
        for name, value in digest["gauges"].items():
            table.add_row(name, value)
        section.add_table(table)

    return report


def render_text(registry: MetricsRegistry, **kwargs) -> str:
    """Fixed-width text summary (p50/p95/p99 per span, hotspots, totals)."""
    return build_report(registry, **kwargs).render()


def render_markdown(registry: MetricsRegistry, **kwargs) -> str:
    """The same summary as GitHub-flavoured Markdown."""
    return build_report(registry, **kwargs).render_markdown()


def metrics_json(registry: MetricsRegistry) -> dict:
    """JSON payload for ``--metrics-out``: raw instruments plus the digest."""
    payload = registry.to_dict()
    payload["schema_version"] = METRICS_SCHEMA_VERSION
    digest = summarize(registry)
    payload["derived"] = {
        "throughput": digest["throughput"],
        "alerts_by_rule": digest["alerts_by_rule"],
        "ingest_path": digest["ingest_path"],
        "resilience": digest["resilience"],
        "checkpoint": digest["checkpoint"],
        "health": digest["health"],
        "spans": digest["spans"],
        "hotspots": digest["hotspots"],
    }
    return payload


def load_metrics_json(source) -> MetricsRegistry:
    """Load a ``--metrics-out`` payload back into a registry.

    ``source`` is a path or an already-parsed dict.  Refuses payloads
    whose ``schema_version`` is missing or outside
    :data:`SUPPORTED_METRICS_SCHEMAS` — mirroring how checkpoint
    manifests refuse versions they do not understand rather than
    mis-parsing them.
    """
    if isinstance(source, (str, os.PathLike)):
        path = str(source)
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise MetricsFormatError(
                    f"{path}: not valid JSON: {exc}"
                ) from exc
    else:
        path = "<payload>"
        payload = source
    if not isinstance(payload, dict):
        raise MetricsFormatError(f"{path}: metrics payload is not an object")
    version = payload.get("schema_version")
    if version not in SUPPORTED_METRICS_SCHEMAS:
        raise MetricsFormatError(
            f"{path}: unsupported metrics schema_version {version!r} "
            f"(this build reads {SUPPORTED_METRICS_SCHEMAS})"
        )
    return MetricsRegistry.from_dict(payload)
