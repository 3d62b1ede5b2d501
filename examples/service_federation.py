"""Multi-machine federation end to end: registry -> routed alerts -> restart.

Demonstrates the ``repro.federation`` subsystem on the ``federated-fleet``
scenario from the catalog:

1. three machines register in a :class:`~repro.federation.MachineRegistry`
   — a quiet site ("east"), one with a rack cooling failure ("west") and
   one with a noisy-neighbor job plus correlated hardware events
   ("north") — each backed by its own rack-sharded
   :class:`~repro.service.FleetMonitor`;
2. a :class:`~repro.federation.FederatedMonitor` hands each lockstep
   chunk to every machine — each running its rack shards in parallel on
   its own process executor — and routes every
   alert through a shared :class:`~repro.federation.AlertRouter`: alerts
   arrive machine-stamped, deduplicated federation-wide, with a
   :class:`~repro.federation.FleetWideRule` watching for multi-machine
   drift bursts no single machine could report;
3. after every chunk the whole federation checkpoints into a *rotating*
   history (``save_federated_checkpoint(..., keep_last=2)``); after chunk
   2 the federation is torn down and restored from the newest retained
   entry;
4. the script re-runs the workload **without** the restart and verifies
   rack values, the flat ``machine/node`` z-score map and the alert trail
   match *exactly* — neither the restart nor the machines' shard executor
   (process here, serial in the reference) is observable in the products;
5. finally it prints the federated spectrum's ``machine/shard`` power
   table and the retained checkpoint history.

Run with ``python examples/service_federation.py``.  The same workload is
available from the shell via ``python -m repro.service federated_fleet``.
"""

from __future__ import annotations

import os
import sys
import tempfile
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.federation import (  # noqa: E402
    FederatedScenarioRunner,
    get_federated_scenario,
)
from repro.service import RingBufferSink  # noqa: E402


def main() -> None:
    scenario = get_federated_scenario("federated-fleet")
    print(f"scenario: {scenario.name} — {scenario.description}")
    for name, sc in scenario.machines:
        print(
            f"machine {name:6s} {sc.machine.n_nodes} nodes in "
            f"{sc.machine.n_racks} racks — {sc.name}"
        )
    print(
        f"stream:   {scenario.machines[0][1].total_steps} snapshots per machine, "
        f"{scenario.n_chunks} chunks; restart after chunk "
        f"{scenario.restart_after_chunk}; rotating checkpoints "
        f"keep_last={scenario.keep_last}"
    )

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        # ---- run with rotating checkpoints + a mid-run restore ---------- #
        sink = RingBufferSink()
        result = FederatedScenarioRunner(
            scenario, sinks=[sink], checkpoint_dir=checkpoint_dir,
            executor="process",
        ).run()
        print(
            f"\nrestarted run: {len(result.alerts)} alerts "
            f"({len(sink.alerts)} via the router's global sink), "
            f"restarted={result.restarted}"
        )
        for alert in result.alerts[:5]:
            print(
                f"  [{alert.severity.name:8s}] [{alert.machine or 'fleet'}] "
                f"step {alert.step}: {alert.message}"
            )
        if len(result.alerts) > 5:
            print(f"  ... and {len(result.alerts) - 5} more")
        print(f"alerted machines: {sorted(result.alerted_machines())}")
        print(
            "retained checkpoint steps (newest first): "
            f"{[entry.step for entry in result.checkpoints]}"
        )

    # ---- reference: the same workload without the restart --------------- #
    uninterrupted = FederatedScenarioRunner(
        replace(scenario, restart_after_chunk=None)
    ).run()

    rack_match = result.rack_values == uninterrupted.rack_values
    zmap_match = result.zscore_map == uninterrupted.zscore_map
    alert_match = [a.to_dict() for a in result.alerts] == [
        a.to_dict() for a in uninterrupted.alerts
    ]
    print(
        f"\nrestart vs uninterrupted: rack values identical: {rack_match}; "
        f"z-score maps identical: {zmap_match}; alert trails identical: "
        f"{alert_match}"
    )
    if not (rack_match and zmap_match and alert_match):
        raise SystemExit("federated checkpoint/restore failed to resume bit-for-bit")
    print(
        "OK: the restart (and the machines' shard executor) is "
        "observationally invisible."
    )

    # ---- federated products --------------------------------------------- #
    federated = result.federated
    spectrum = federated.fleet_spectrum()
    power = spectrum.total_power_by_shard()
    print(
        f"\nfederated spectrum: {spectrum.n_modes} modes across "
        f"{federated.n_machines} machines; top machine/shard power:"
    )
    for key, value in sorted(power.items(), key=lambda kv: kv[1], reverse=True)[:5]:
        print(f"  {key:16s} {value:10.1f}")

    hottest = sorted(
        result.zscore_map.items(), key=lambda kv: kv[1], reverse=True
    )[:5]
    print("hottest machine/node z-scores:")
    for key, z in hottest:
        print(f"  {key:16s} z = {z:+.2f}")


if __name__ == "__main__":
    main()
