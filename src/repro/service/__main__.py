"""Command-line entry point for the fleet-monitoring service.

Runs any scenario from the catalog straight from the shell::

    python -m repro.service --list
    python -m repro.service rack-cooling-failure
    python -m repro.service mid-run-restart --executor process --workers 4
    python -m repro.service noisy-neighbor-job --alerts-jsonl alerts.jsonl
    python -m repro.service federated_fleet --executor process

The runner drives a :class:`~repro.service.monitor.FleetMonitor` (or, for
federated scenarios, a
:class:`~repro.federation.monitor.FederatedMonitor` over a machine
registry) through the scenario's stream on persistent executors,
evaluating alerts after every chunk, and prints an operator-style summary
(alert trail, alerted racks/machines, the hottest rack-view values over
the recent window).  Scenario names accept ``-`` and ``_``
interchangeably; an unknown name prints the catalog and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .. import obs
from ..federation.scenario import (
    FEDERATED_SCENARIOS,
    FederatedScenarioRunner,
    get_federated_scenario,
)
from .alerts import AlertSeverity, JsonLinesSink, RingBufferSink
from .scenarios import SCENARIOS, get_scenario
from .scenarios import ScenarioRunner


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run a fleet-monitoring scenario from the catalog.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        help="catalog name (see --list; '-' and '_' are interchangeable)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the scenario catalog and exit"
    )
    parser.add_argument(
        "--executor",
        choices=("serial", "process"),
        default="serial",
        help="shard executor backend of every machine monitor, in single-"
        "machine and federated scenarios alike (persistent across chunks; "
        "default serial)",
    )
    parser.add_argument(
        "--deep-levels",
        choices=("inline", "deferred"),
        default=None,
        help="override the scenario's deep-level mode: 'deferred' queues "
        "levels-2..L work and refreshes it asynchronously between chunks "
        "(default: whatever the scenario config says, normally inline)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker count of each machine's process executor (default: one "
        "per shard, capped at the CPU count)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="where (restart / federated) scenarios persist checkpoints "
        "(default: a temporary directory)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="single-machine scenarios: save a rotated checkpoint every N "
        "streaming chunks (uses --checkpoint-dir, or a temporary directory)",
    )
    parser.add_argument(
        "--checkpoint-mode",
        choices=("sync", "async"),
        default="sync",
        help="periodic/rotating checkpoint mode: 'async' moves "
        "serialisation onto a background writer off the chunk loop "
        "(default sync)",
    )
    parser.add_argument(
        "--checkpoint-keep-last",
        type=int,
        default=3,
        metavar="K",
        help="rotation depth for --checkpoint-every entries (default 3)",
    )
    parser.add_argument(
        "--alerts-jsonl",
        default=None,
        metavar="PATH",
        help="also append every alert to a JSON-lines audit file",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable repro.obs and write the session's metrics registry "
        "(plus derived span/throughput/alert summaries) as JSON",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="enable repro.obs and stream span events to a JSON-lines "
        "trace file (implies metrics collection)",
    )
    parser.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="--trace-out format: native JSON-lines span events (default) "
        "or Chrome trace-event JSON loadable in Perfetto / chrome://tracing",
    )
    parser.add_argument(
        "--metrics-format",
        choices=("json", "openmetrics"),
        default="json",
        help="--metrics-out format: schema-versioned JSON registry dump "
        "(default) or OpenMetrics/Prometheus text exposition",
    )
    parser.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="where flight-recorder post-mortem bundles land (quarantines, "
        "worker losses, refused checkpoint loads); the black box itself is "
        "always on",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=100,
        metavar="T",
        help="trailing window (snapshots) for the final rack-view summary",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=8,
        metavar="K",
        help="how many of the hottest nodes to print (default 8)",
    )
    return parser


def _catalog_lines() -> list[str]:
    lines = []
    for name in sorted(SCENARIOS):
        lines.append(f"{name:24s} {SCENARIOS[name]().description}")
    for name in sorted(FEDERATED_SCENARIOS):
        lines.append(f"{name:24s} [federated] {FEDERATED_SCENARIOS[name]().description}")
    return lines


def _print_alert_trail(alerts, top: int) -> None:
    for severity in reversed(AlertSeverity):
        count = sum(1 for alert in alerts if alert.severity is severity)
        if count:
            print(f"  {severity.name:8s} {count}")
    for alert in alerts[:top]:
        origin = f" [{alert.machine}]" if alert.machine else ""
        print(f"  [{alert.severity.name:8s}]{origin} step {alert.step}: {alert.message}")
    if len(alerts) > top:
        print(f"  ... and {len(alerts) - top} more")


def _print_health(health: dict | None) -> None:
    """One line per scored entity from the final round's health dict."""
    if not health:
        return
    print("fleet health:")
    for entity in sorted(health):
        score = health[entity]
        fallbacks = f", {score.svd_fallbacks} SVD fallbacks" if score.svd_fallbacks else ""
        print(f"  {entity:16s} {score.score:.2f} ({score.status}{fallbacks})")


def _run(args: argparse.Namespace, name: str) -> int:
    scenario = get_scenario(name)
    machine = scenario.machine
    print(f"scenario: {scenario.name} — {scenario.description}")
    print(
        f"machine:  {machine.n_nodes} nodes in {machine.n_racks} racks, "
        f"dt={machine.dt_seconds:.0f}s"
    )
    print(
        f"stream:   {scenario.total_steps} snapshots (initial "
        f"{scenario.initial_size}, {scenario.n_chunks} chunks of "
        f"{scenario.chunk_size}); executor={args.executor}"
    )
    if args.checkpoint_every is not None:
        print(
            f"periodic checkpoints: every {args.checkpoint_every} chunk(s), "
            f"mode={args.checkpoint_mode}, keep_last={args.checkpoint_keep_last}"
        )

    sinks = [RingBufferSink()]
    if args.alerts_jsonl:
        sinks.append(JsonLinesSink(args.alerts_jsonl))

    def run_with(checkpoint_dir: str | None):
        return ScenarioRunner(
            scenario,
            sinks=sinks,
            checkpoint_dir=checkpoint_dir,
            executor=args.executor,
            max_workers=args.workers,
            deep_levels=args.deep_levels,
            checkpoint_every=args.checkpoint_every,
            checkpoint_mode=args.checkpoint_mode,
            checkpoint_keep_last=args.checkpoint_keep_last,
        ).run()

    needs_dir = (
        scenario.restart_after_chunk is not None
        or args.checkpoint_every is not None
    )
    if needs_dir and args.checkpoint_dir is None:
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            result = run_with(checkpoint_dir)
    else:
        result = run_with(args.checkpoint_dir)

    print(
        f"\n{len(result.alerts)} alert(s) over {result.n_chunks} chunks"
        + (" (service restarted mid-run)" if result.restarted else "")
    )
    _print_alert_trail(result.alerts, args.top)

    alerted_racks = sorted(
        {machine.rack_of_node(node) for node in result.alerted_nodes()}
    )
    print(f"alerted racks: {alerted_racks or 'none'}")

    quarantined = result.monitor.quarantined_shards
    if quarantined:
        print(f"quarantined shards ({len(quarantined)}):")
        for shard_id in quarantined:
            info = result.monitor.quarantine_info[shard_id]
            print(
                f"  {shard_id}: step {info['step']}, "
                f"{info['attempts']} attempt(s) — {info['reason']}"
            )
    _print_health(result.monitor.health)

    # Recent-window rack view: the monitor is closed (state landed
    # in-process), and the windowed query only expands the window's modes.
    monitor = result.monitor
    lo = max(0, monitor.step - args.window)
    recent = monitor.rack_values(time_range=(lo, monitor.step))
    hottest = sorted(recent.items(), key=lambda item: item[1], reverse=True)
    print(f"hottest nodes over the last {monitor.step - lo} snapshots:")
    for node, z in hottest[: args.top]:
        print(f"  node {node:3d} (rack {machine.rack_of_node(node)}): z = {z:+.2f}")
    if args.alerts_jsonl:
        print(f"alert audit trail appended to {args.alerts_jsonl}")
    return 0


def _run_federated(args: argparse.Namespace, name: str) -> int:
    scenario = get_federated_scenario(name)
    print(f"scenario: {scenario.name} — {scenario.description}")
    for machine_name, sc in scenario.machines:
        print(
            f"machine {machine_name:8s} {sc.machine.n_nodes} nodes in "
            f"{sc.machine.n_racks} racks — {sc.name}"
        )
    print(
        f"stream:   {scenario.machines[0][1].total_steps} snapshots per machine, "
        f"{scenario.n_chunks} chunks; shard executor={args.executor}; "
        f"rotating checkpoints keep_last={scenario.keep_last}"
    )

    sinks = [RingBufferSink()]
    if args.alerts_jsonl:
        sinks.append(JsonLinesSink(args.alerts_jsonl))

    def run_with(checkpoint_dir: str | None):
        return FederatedScenarioRunner(
            scenario,
            sinks=sinks,
            checkpoint_dir=checkpoint_dir,
            executor=args.executor,
            max_workers=args.workers,
            deep_levels=args.deep_levels,
            checkpoint_mode=args.checkpoint_mode,
        ).run()

    if args.checkpoint_dir is None:
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            result = run_with(checkpoint_dir)
    else:
        result = run_with(args.checkpoint_dir)

    print(
        f"\n{len(result.alerts)} alert(s) over {result.n_chunks} chunks"
        + (" (federation restarted mid-run)" if result.restarted else "")
    )
    _print_alert_trail(result.alerts, args.top)
    print(f"alerted machines: {sorted(result.alerted_machines()) or 'none'}")
    _print_health(result.federated.health)
    for machine_name, update in result.topology_updates.items():
        grown = ", ".join(sorted(update.extended)) or "none"
        minted = ", ".join(update.minted) or "none"
        print(
            f"topology: {machine_name} +{update.n_new_rows} sensors at step "
            f"{update.step} (extended shards: {grown}; minted: {minted})"
        )
    if result.joined:
        print(f"machines joined mid-run: {list(result.joined)}")
    if result.stale_restored:
        print(
            f"stale restore: {result.scenario.stale_restore_machine} rebuilt "
            f"one rotation entry behind, {result.chunks_replayed} chunk(s) "
            f"replayed from the shared log"
        )
    fleet_wide = result.alerts_for_rule("fleet-wide-drift")
    if fleet_wide:
        print(f"fleet-wide drift alerts: {len(fleet_wide)}")
    if result.checkpoints:
        steps = [entry.step for entry in result.checkpoints]
        print(
            f"retained checkpoints (newest first): steps {steps} "
            f"(keep_last={scenario.keep_last})"
        )

    federated = result.federated
    lo = max(0, federated.step - args.window)
    zmap = federated.zscore_map(time_range=(lo, federated.step))
    hottest = sorted(zmap.items(), key=lambda item: item[1], reverse=True)
    print(f"hottest machine/node over the last {federated.step - lo} snapshots:")
    for key, z in hottest[: args.top]:
        print(f"  {key:16s} z = {z:+.2f}")
    if args.alerts_jsonl:
        print(f"alert audit trail appended to {args.alerts_jsonl}")
    return 0


def _finish_observability(
    args: argparse.Namespace, trace_jsonl: str | None
) -> None:
    """Write ``--metrics-out`` / ``--trace-out`` and print the digest."""
    registry = obs.OBS.metrics
    if args.metrics_out:
        if args.metrics_format == "openmetrics":
            obs.export.write_openmetrics(registry, args.metrics_out)
        else:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(obs.report.metrics_json(registry), handle, indent=2)
                handle.write("\n")
    if args.trace_out and args.trace_format == "chrome":
        # The span sink streamed JSON-lines to a sidecar file (the chrome
        # format is one JSON object, not appendable); fold it into a
        # Perfetto / chrome://tracing loadable trace now the run is over.
        header, events = obs.export.read_trace(trace_jsonl)
        obs.export.write_chrome_trace(
            events, args.trace_out, trace_id=header.get("trace_id")
        )
    print()
    print(obs.report.render_text(registry))
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out} ({args.metrics_format})")
    if args.trace_out:
        print(f"span trace written to {args.trace_out} ({args.trace_format})")


def _finish_flight(args: argparse.Namespace) -> None:
    """Name the post-mortem bundles the run dropped (if any)."""
    written = [
        bundle["path"]
        for bundle in obs.flight.FLIGHT.bundles
        if bundle.get("path")
    ]
    print(
        f"flight recorder: {len(written)} post-mortem bundle(s) "
        f"under {args.flight_dir}"
    )
    for path in written:
        print(f"  {path}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for line in _catalog_lines():
            print(line)
        return 0
    if args.scenario is None:
        parser.error("a scenario name (or --list) is required")
    name = args.scenario.replace("_", "-")
    observe = bool(args.metrics_out or args.trace_out)
    if args.flight_dir:
        obs.flight.configure(dump_dir=args.flight_dir)
    trace_jsonl = args.trace_out
    sidecar = None
    if observe:
        if args.trace_out and args.trace_format == "chrome":
            fd, sidecar = tempfile.mkstemp(suffix=".trace.jsonl")
            os.close(fd)
            trace_jsonl = sidecar
        obs.enable(trace_path=trace_jsonl)
    try:
        if name in FEDERATED_SCENARIOS:
            code = _run_federated(args, name)
        elif name in SCENARIOS:
            code = _run(args, name)
        else:
            # Unknown name: show the catalog instead of a traceback.
            print(
                f"unknown scenario {args.scenario!r}; available:",
                file=sys.stderr,
            )
            for line in _catalog_lines():
                print(f"  {line}", file=sys.stderr)
            return 2
        if observe:
            _finish_observability(args, trace_jsonl)
        if args.flight_dir:
            _finish_flight(args)
        return code
    finally:
        if observe:
            # Leave the module-level provider pristine for embedders (and
            # repeated ``main()`` calls in tests).
            obs.OBS.reset()
        # Same discipline for the always-on black box.
        obs.flight.FLIGHT.reset()
        if sidecar is not None:
            try:
                os.remove(sidecar)
            except OSError:
                pass


if __name__ == "__main__":
    sys.exit(main())
