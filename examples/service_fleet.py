"""Fleet monitoring service end to end: stream -> alerts -> restart -> resume.

Demonstrates the ``repro.service`` subsystem on the ``mid-run-restart``
scenario from the catalog:

1. a 64-node, 4-rack machine streams cpu_temp telemetry while rack 1
   suffers a cooling failure;
2. a :class:`~repro.service.FleetMonitor` (one I-mrDMD pipeline per rack)
   ingests the stream chunk by chunk on a **persistent process executor**
   (worker processes held open across every chunk, per-shard scoring
   overlapped with the other shards' updates), and the alert engine fires z-score
   alerts on the degraded rack;
3. after chunk 2 the service checkpoints to disk, is torn down, and is
   restored from the checkpoint;
4. the resumed monitor processes the remaining chunks; the script then
   re-runs the whole workload **without** the restart — and serially,
   without any executor — and verifies the rack values and alert trail
   match *exactly*: neither the restart nor the fan-out backend is
   observable in the products;
5. finally it queries a recent-window rack view
   (``rack_values(time_range=...)``), which expands only the modes
   overlapping the window instead of reconstructing the full timeline.

Run with ``python examples/service_fleet.py``.  The same workloads are
available from the shell via ``python -m repro.service <scenario>``.
"""

from __future__ import annotations

import os
import sys
import tempfile
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service import RingBufferSink, ScenarioRunner, get_scenario  # noqa: E402


def main() -> None:
    scenario = get_scenario("mid-run-restart")
    machine = scenario.machine
    print(f"scenario: {scenario.name} — {scenario.description}")
    print(f"machine:  {machine.n_nodes} nodes in {machine.n_racks} racks, "
          f"dt={machine.dt_seconds:.0f}s")
    print(f"stream:   {scenario.total_steps} snapshots "
          f"(initial {scenario.initial_size}, {scenario.n_chunks} chunks of "
          f"{scenario.chunk_size}), restart after chunk {scenario.restart_after_chunk}")

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        # ---- run with a mid-stream checkpoint/restore on a persistent
        # process executor (held open across chunks, closed by the runner)
        sink = RingBufferSink()
        result = ScenarioRunner(
            scenario, sinks=[sink], checkpoint_dir=checkpoint_dir,
            executor="process",
        ).run()
        print(f"\nrestarted run: {len(result.alerts)} alerts "
              f"({len(sink.alerts)} via sink), restarted={result.restarted}")
        for alert in result.alerts[:5]:
            print(f"  [{alert.severity.name:8s}] step {alert.step}: {alert.message}")
        if len(result.alerts) > 5:
            print(f"  ... and {len(result.alerts) - 5} more")

        alerted_racks = sorted(
            {machine.rack_of_node(n) for n in result.alerted_nodes()}
        )
        print(f"alerted racks: {alerted_racks} (cooling failure injected on rack 1)")

    # ---- reference: the same workload without any restart ------------- #
    uninterrupted = ScenarioRunner(
        replace(scenario, restart_after_chunk=None)
    ).run()

    rack_match = result.rack_values == uninterrupted.rack_values
    alert_match = [a.to_dict() for a in result.alerts] == [
        a.to_dict() for a in uninterrupted.alerts
    ]
    worst = max(
        abs(result.rack_values[n] - uninterrupted.rack_values[n])
        for n in result.rack_values
    )
    print(f"\nrestart vs uninterrupted: rack values identical: {rack_match} "
          f"(max |diff| = {worst:.1e}); alert trails identical: {alert_match}")
    if not (rack_match and alert_match):
        raise SystemExit("checkpoint/restore failed to resume bit-for-bit")
    print("OK: the restart (and the executor backend) is observationally "
          "invisible.")

    # ---- windowed rack view: only the recent window's modes expand ----- #
    monitor = result.monitor
    lo = max(0, monitor.step - 120)
    recent = monitor.rack_values(time_range=(lo, monitor.step))
    hottest = sorted(recent.items(), key=lambda item: item[1], reverse=True)[:4]
    print(f"\nhottest nodes over the last {monitor.step - lo} snapshots "
          f"(windowed query, no full-timeline reconstruction):")
    for node, z in hottest:
        print(f"  node {node:3d} (rack {machine.rack_of_node(node)}): z = {z:+.2f}")


if __name__ == "__main__":
    main()
