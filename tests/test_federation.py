"""Federation layer: registry, routing, federated products, checkpoints.

The central properties, mirroring the ISSUE acceptance criteria:

* a :class:`FederatedMonitor` over N machines produces per-machine
  products **bit-for-bit identical** to N standalone
  :class:`FleetMonitor` instances fed the same chunks, whether the
  machines run their shards on the serial or the process executor;
* a rotated federated checkpoint restores and resumes bit-for-bit;
* alerts are machine-stamped, deduplicated across the federation, and
  :class:`FleetWideRule` fires exactly when >= k machines drift within a
  window — a condition no per-machine rule can express.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MrDMDConfig
from repro.core.imrdmd import UpdateRecord
from repro.federation import (
    AlertRouter,
    FederatedAlertContext,
    FederatedMonitor,
    FleetWideRule,
    MachineRegistry,
    get_federated_scenario,
    load_federated_checkpoint,
    read_federated_manifest,
    save_federated_checkpoint,
)
from repro.pipeline import PipelineConfig
from repro.service import (
    Alert,
    AlertEngine,
    AlertSeverity,
    FleetMonitor,
    RackSharding,
    RingBufferSink,
    ZScoreRule,
    default_rules,
    list_checkpoints,
    save_checkpoint,
)
from repro.telemetry import HotNodes, MachineDescription, TelemetryGenerator
from repro.telemetry.sensors import xc40_sensor_suite
from repro.util.parallel import ShardTaskError


CONFIG = PipelineConfig(
    mrdmd=MrDMDConfig(max_levels=4),
    baseline_range=(40.0, 75.0),
    power_quantile=0.0,
)
TOTAL, INITIAL = 360, 200
CHUNKS = ((200, 280), (280, 360))


def small_machine() -> MachineDescription:
    """16 nodes in 2 racks — big enough to shard, small enough to be fast."""
    return MachineDescription(
        name="xc40",
        n_rows=1,
        racks_per_row=2,
        cabinets_per_rack=1,
        slots_per_cabinet=2,
        blades_per_slot=1,
        nodes_per_blade=4,
        sensors=xc40_sensor_suite(),
        dt_seconds=15.0,
    )


@pytest.fixture(scope="module")
def streams():
    """Two machines' telemetry; 'west' runs nodes 2-3 hot (alerts fire)."""
    machine = small_machine()
    east = TelemetryGenerator(machine, seed=5, utilization_target=0.3).generate(
        TOTAL, sensors=["cpu_temp"]
    )
    west = TelemetryGenerator(machine, seed=6, utilization_target=0.3).generate(
        TOTAL,
        sensors=["cpu_temp"],
        anomalies=[HotNodes(node_indices=(2, 3), start=220, delta=40.0)],
    )
    return {"east": east, "west": west}


def build_machine(stream, *, executor=None, cooldown=100) -> FleetMonitor:
    """A rack-sharded machine (2 shards); ``executor`` is its shard
    backend, with two workers on ``process``."""
    engine = AlertEngine(rules=default_rules(), cooldown=cooldown)
    return FleetMonitor.from_stream(
        stream,
        policy=RackSharding(),
        config=CONFIG,
        alert_engine=engine,
        executor=executor,
        max_workers=2 if executor == "process" else None,
    )


def build_federated(streams, *, executor=None) -> FederatedMonitor:
    registry = MachineRegistry(
        {name: build_machine(s, executor=executor) for name, s in streams.items()}
    )
    return FederatedMonitor(
        registry,
        router=AlertRouter(fleet_rules=[FleetWideRule(min_machines=2)]),
    )


def worker_pids(monitor: FleetMonitor) -> list[int]:
    """Pids of a process-backed machine's shard workers."""
    return [worker.process.pid for worker in monitor.executor._workers]


def drive(federated: FederatedMonitor, streams) -> list[Alert]:
    federated.ingest({n: s.values[:, :INITIAL] for n, s in streams.items()})
    alerts = []
    for lo, hi in CHUNKS:
        _, fired = federated.ingest_and_alert(
            {n: s.values[:, lo:hi] for n, s in streams.items()}
        )
        alerts.extend(fired)
    return alerts


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
def test_registry_register_deregister(streams):
    registry = MachineRegistry()
    monitor = build_machine(streams["east"])
    assert registry.register("east", monitor) is monitor
    assert registry.names == ("east",)
    assert "east" in registry and registry["east"] is monitor
    returned = registry.deregister("east")
    assert returned is monitor
    assert len(registry) == 0


def test_registry_rejects_bad_names_and_duplicates(streams):
    registry = MachineRegistry()
    monitor = build_machine(streams["east"])
    for bad in ("", "a/b", "-lead", ".hidden", "sp ace"):
        with pytest.raises(ValueError, match="invalid machine name"):
            registry.register(bad, monitor)
    registry.register("east", monitor)
    with pytest.raises(ValueError, match="already registered"):
        registry.register("east", monitor)
    with pytest.raises(TypeError, match="FleetMonitor"):
        registry.register("west", object())
    with pytest.raises(KeyError):
        registry.deregister("nope")


# --------------------------------------------------------------------------- #
# Router + FleetWideRule
# --------------------------------------------------------------------------- #
def make_update(drift: float, stale: bool) -> UpdateRecord:
    return UpdateRecord(
        chunk_size=10, total_snapshots=100, level1_rank=3, level1_modes=2,
        drift=drift, stale=stale, new_nodes=4,
    )


def zalert(step: int, node: int) -> Alert:
    return Alert(
        rule="zscore", severity=AlertSeverity.CRITICAL, step=step,
        node=node, shard_id="rack-0", message=f"node {node} hot",
    )


def ctx(step: int, updates=None, window: int = 100) -> FederatedAlertContext:
    return FederatedAlertContext(step=step, updates=updates or {}, window=window)


def test_router_stamps_machine_origin():
    router = AlertRouter(fleet_rules=(), cooldown=0)
    routed = router.route({"east": [zalert(10, 1)], "west": [zalert(10, 1)]}, ctx(10))
    assert [(a.machine, a.node) for a in routed] == [("east", 1), ("west", 1)]


def test_router_dedups_per_machine_not_across():
    """The same (rule, shard, node) on two machines is two distinct alerts;
    a repeat from the *same* machine within the cooldown is suppressed."""
    router = AlertRouter(fleet_rules=(), cooldown=50)
    first = router.route({"east": [zalert(10, 1)], "west": [zalert(10, 1)]}, ctx(10))
    assert len(first) == 2
    again = router.route({"east": [zalert(30, 1)], "west": []}, ctx(30))
    assert again == []
    assert router.stats["suppressed"] == 1
    later = router.route({"east": [zalert(70, 1)], "west": []}, ctx(70))
    assert len(later) == 1


def test_router_sinks_global_and_per_machine():
    global_sink, east_sink = RingBufferSink(), RingBufferSink()
    router = AlertRouter(
        sinks=[global_sink], machine_sinks={"east": [east_sink]},
        fleet_rules=(), cooldown=0,
    )
    router.route({"east": [zalert(10, 1)], "west": [zalert(10, 2)]}, ctx(10))
    assert len(global_sink) == 2
    assert [a.machine for a in east_sink.alerts] == ["east"]


def test_fleet_wide_rule_needs_k_machines():
    rule = FleetWideRule(min_machines=2)
    one = rule.evaluate(ctx(100, {"east": {"rack-0": make_update(9.0, True)}}))
    assert one == []
    both = rule.evaluate(ctx(110, {
        "east": {"rack-0": make_update(0.1, False)},
        "west": {"rack-0": make_update(9.0, True)},
    }))
    assert len(both) == 1
    assert both[0].rule == "fleet-wide-drift"
    assert both[0].machine is None, "fleet-wide alerts span machines"
    assert both[0].value == pytest.approx(2.0)
    assert "east" in both[0].message and "west" in both[0].message


def test_fleet_wide_rule_window_expires():
    rule = FleetWideRule(min_machines=2, window=50)
    rule.evaluate(ctx(100, {"east": {"s": make_update(9.0, True)}, "west": {}}))
    # 60 steps later, east's drift has aged out: west alone is not enough.
    assert rule.evaluate(
        ctx(160, {"west": {"s": make_update(9.0, True)}, "east": {}})
    ) == []
    # But a re-drift within the window counts both.
    fired = rule.evaluate(
        ctx(170, {"east": {"s": make_update(9.0, True)}, "west": {}})
    )
    assert len(fired) == 1


def test_fleet_wide_rule_forgets_deregistered_machines():
    """A machine absent from a round has left the federation; its past
    drift must stop counting toward the burst threshold."""
    rule = FleetWideRule(min_machines=2, window=200)
    rule.evaluate(ctx(100, {"east": {"s": make_update(9.0, True)}, "west": {}}))
    # east is deregistered; west drifting alone must not complete a pair
    # with the departed machine's memory.
    assert rule.evaluate(ctx(110, {"west": {"s": make_update(9.0, True)}})) == []


def test_fleet_wide_rule_threshold():
    rule = FleetWideRule(min_machines=1, threshold=0.5)
    assert rule.evaluate(ctx(10, {"east": {"s": make_update(0.4, False)}})) == []
    assert len(rule.evaluate(ctx(20, {"east": {"s": make_update(0.6, False)}}))) == 1


def test_router_state_round_trip():
    router = AlertRouter(fleet_rules=[FleetWideRule(min_machines=2)], cooldown=50)
    router.route(
        {"east": [zalert(100, 1)]},
        ctx(100, {"east": {"s": make_update(9.0, True)}}),
    )
    fresh = AlertRouter(fleet_rules=[FleetWideRule(min_machines=2)], cooldown=0)
    fresh.load_state_dict(router.state_dict())
    assert fresh.cooldown == 50
    # Restored dedup memory keeps suppressing within the cooldown...
    assert fresh.route(
        {"east": [zalert(120, 1)]}, ctx(120, {"east": {}, "west": {}})
    ) == []
    # ...and the restored fleet rule remembers east's drift: west alone
    # completes the pair.
    fired = fresh.route(
        {}, ctx(130, {"west": {"s": make_update(9.0, True)}, "east": {}})
    )
    assert [a.rule for a in fired] == ["fleet-wide-drift"]


# --------------------------------------------------------------------------- #
# Federated monitor: products + parity with standalone monitors
# --------------------------------------------------------------------------- #
def test_federated_matches_standalone_machines(streams):
    """ISSUE acceptance: federated per-machine products are bit-for-bit
    what N standalone monitors produce from the same chunks."""
    federated = build_federated(streams)
    drive(federated, streams)

    standalone = {}
    for name, stream in streams.items():
        monitor = build_machine(stream)
        monitor.ingest(stream.values[:, :INITIAL])
        for lo, hi in CHUNKS:
            monitor.ingest_and_alert(stream.values[:, lo:hi])
        standalone[name] = monitor

    rack = federated.rack_values()
    spectrum = federated.fleet_spectrum()
    by_shard = spectrum.total_power_by_shard()
    for name, monitor in standalone.items():
        assert rack[name] == monitor.rack_values()
        solo_scores = monitor.node_zscores()
        fed_scores = federated.node_zscores()[name]
        assert np.array_equal(solo_scores.zscores, fed_scores.zscores)
        for shard_id, power in monitor.fleet_spectrum().total_power_by_shard().items():
            assert by_shard[f"{name}/{shard_id}"] == power


def test_federated_snapshot_merges_drift(streams):
    federated = build_federated(streams)
    federated.ingest({n: s.values[:, :INITIAL] for n, s in streams.items()})
    snapshot, _ = federated.ingest_and_alert(
        {n: s.values[:, CHUNKS[0][0]:CHUNKS[0][1]] for n, s in streams.items()}
    )
    assert set(snapshot.drift_by_machine) == {"east", "west"}
    assert snapshot.max_drift == max(snapshot.drift_by_machine.values())
    assert snapshot.step == CHUNKS[0][1]
    assert snapshot.total_modes > 0


def test_federated_alerts_are_machine_stamped(streams):
    federated = build_federated(streams)
    alerts = drive(federated, streams)
    assert alerts, "the hot-node machine must alert"
    assert {a.machine for a in alerts if a.rule == "zscore"} == {"west"}


def test_zscore_map_keys(streams):
    federated = build_federated(streams)
    drive(federated, streams)
    zmap = federated.zscore_map()
    n_nodes = small_machine().n_nodes
    assert len(zmap) == 2 * n_nodes
    assert f"east/0" in zmap and f"west/{n_nodes - 1}" in zmap
    assert zmap["west/2"] == federated.rack_values()["west"][2]


def test_ingest_validates_machine_set(streams):
    federated = build_federated(streams)
    # Rounds may be partial (staggered federation): a subset ingests and
    # only those machines advance.
    snapshot = federated.ingest({"east": streams["east"].values[:, :INITIAL]})
    assert snapshot.n_machines == 1
    assert federated.machine_steps() == {"east": INITIAL, "west": 0}
    with pytest.raises(ValueError, match="at least one machine"):
        federated.ingest({})
    with pytest.raises(ValueError, match="unknown machines \\['north'\\]"):
        federated.ingest(
            {
                "east": streams["east"].values[:, :INITIAL],
                "west": streams["west"].values[:, :INITIAL],
                "north": streams["east"].values[:, :INITIAL],
            }
        )
    with pytest.raises(ValueError, match="unknown machines"):
        federated.ingest_and_alert(
            {n: s.values[:, :INITIAL] for n, s in streams.items()},
            hwlogs={"nope": None},
        )


@pytest.mark.parametrize("executor", ["thred", "thread"])
def test_unknown_executor_fails_at_construction(streams, tmp_path, executor):
    """A restored federation's machine executor is checked when the
    machines are rebuilt, not at their first round; the error names the
    backends that exist."""
    federated = build_federated({"east": streams["east"]})
    save_federated_checkpoint(str(tmp_path / "fed"), federated)
    with pytest.raises(ValueError, match="'serial', 'process'"):
        load_federated_checkpoint(str(tmp_path / "fed"), executor=executor)
    with pytest.raises(ValueError, match="max_workers"):
        load_federated_checkpoint(
            str(tmp_path / "fed"), executor="process", max_workers=0
        )


def test_membership_change_rebuilds_fanout(streams):
    """Register/deregister between rounds on process machines: every
    round runs exactly the machines registered at that moment."""
    registry = MachineRegistry({"east": build_machine(streams["east"], executor="process")})
    federated = FederatedMonitor(registry)
    try:
        federated.ingest({"east": streams["east"].values[:, :INITIAL]})
        registry.register("west", build_machine(streams["west"], executor="process"))
        snapshot = federated.ingest(
            {
                "east": streams["east"].values[:, INITIAL:280],
                "west": streams["west"].values[:, :280],
            }
        )
        assert set(snapshot.machine_snapshots) == {"east", "west"}
        registry.deregister("west").close()
        snapshot = federated.ingest({"east": streams["east"].values[:, 280:360]})
        assert set(snapshot.machine_snapshots) == {"east"}
        assert federated.machine_steps() == {"east": 360}
    finally:
        federated.close()
        registry.close()


def test_membership_change_keeps_other_machines_workers(streams):
    """Registering or deregistering a machine mid-run never restarts the
    other machines' shard workers."""
    federated = build_federated(streams, executor="process")
    try:
        federated.ingest({n: s.values[:, :INITIAL] for n, s in streams.items()})
        pids = {name: worker_pids(federated.machine(name)) for name in streams}
        assert all(len(p) == 2 for p in pids.values())

        joiner = build_machine(streams["east"], executor="process")
        federated.register_machine("north", joiner)
        federated.ingest(
            {
                "east": streams["east"].values[:, INITIAL:280],
                "west": streams["west"].values[:, INITIAL:280],
                "north": streams["east"].values[:, :INITIAL],
            }
        )
        for name in streams:
            assert worker_pids(federated.machine(name)) == pids[name], name
        joiner_pids = worker_pids(joiner)

        federated.deregister_machine("west").close()
        federated.ingest(
            {
                "east": streams["east"].values[:, 280:360],
                "north": streams["east"].values[:, INITIAL:280],
            }
        )
        assert worker_pids(federated.machine("east")) == pids["east"]
        assert worker_pids(joiner) == joiner_pids
    finally:
        federated.close()
        federated.registry.close()


def test_registry_close_closes_every_machine_after_a_failure(streams):
    """A machine whose close raises (one of its workers was SIGKILLed) must
    not leave the later machines' worker processes running."""
    federated = build_federated(streams, executor="process")
    registry = federated.registry
    federated.ingest({n: s.values[:, :INITIAL] for n, s in streams.items()})
    east, west = registry["east"], registry["west"]
    west_executor = west.executor
    west_workers = [worker.process for worker in west_executor._workers]
    assert west_workers and all(p.is_alive() for p in west_workers)
    victim = east.executor._workers[0].process
    victim.kill()
    victim.join(timeout=30)

    with pytest.raises(ShardTaskError) as caught:
        registry.close()
    assert caught.value.kind == "crash"
    assert west_executor.closed
    for process in west_workers:
        process.join(timeout=30)
        assert not process.is_alive()
    # The healthy machine landed its state and keeps answering.
    assert west.executor.backend == "serial"
    assert west.step == INITIAL
    west.rack_values()


# --------------------------------------------------------------------------- #
# Machine executors at the federated level
# --------------------------------------------------------------------------- #
def _run_with_backends(streams, executor):
    federated = build_federated(streams, executor=executor)
    alerts = drive(federated, streams)
    rack = federated.rack_values()
    power = federated.fleet_spectrum().total_power_by_shard()
    federated.close()
    federated.registry.close()
    return rack, [a.to_dict() for a in alerts], power


def test_round_on_a_machine_that_lost_a_worker_raises(streams):
    """A round whose machine lost a shard worker raises the typed error
    naming one of that machine's shards; the machine then stays closed
    rather than answer from stale state."""
    federated = build_federated(streams, executor="process")
    registry = federated.registry
    federated.ingest({n: s.values[:, :INITIAL] for n, s in streams.items()})
    executor = registry["west"].executor
    last = len(executor._workers) - 1
    lost = {sid for sid, index in executor._worker_of_shard.items() if index == last}
    victim = executor._workers[last].process
    victim.kill()
    victim.join(timeout=30)
    with pytest.raises(ShardTaskError) as caught:
        federated.ingest({n: s.values[:, INITIAL:280] for n, s in streams.items()})
    assert caught.value.kind == "crash"
    assert caught.value.shard_id in lost
    assert federated.step == INITIAL
    with pytest.raises(ShardTaskError):
        registry.close()
    # The machine whose worker died refuses to answer from stale state;
    # the healthy one keeps answering.
    with pytest.raises(RuntimeError, match="executor is closed"):
        registry["west"].rack_values()
    assert registry["east"].rack_values()


def test_backend_parity_serial_process(streams):
    """Machines on process shard executors produce the serial machines'
    products bit for bit (incl. alerts)."""
    reference = _run_with_backends(streams, None)
    candidate = _run_with_backends(streams, "process")
    assert candidate[0] == reference[0]
    assert candidate[1] == reference[1]
    assert candidate[2] == reference[2]


# --------------------------------------------------------------------------- #
# Federated checkpoints: rotation + bit-for-bit restore
# --------------------------------------------------------------------------- #
def test_federated_checkpoint_restores_bit_for_bit(streams, tmp_path):
    """Checkpoint after chunk 1, restore, stream chunk 2: every product
    matches the uninterrupted federation exactly — including the router's
    dedup memory (no re-fired alerts)."""
    root = str(tmp_path / "fed")

    # Run A: uninterrupted.
    fed_a = build_federated(streams)
    alerts_a = drive(fed_a, streams)

    # Run B: checkpoint mid-run (rotated), tear down, restore, resume.
    fed_b = build_federated(streams)
    fed_b.ingest({n: s.values[:, :INITIAL] for n, s in streams.items()})
    lo, hi = CHUNKS[0]
    _, fired = fed_b.ingest_and_alert(
        {n: s.values[:, lo:hi] for n, s in streams.items()}
    )
    alerts_b = list(fired)
    info = save_federated_checkpoint(root, fed_b, keep_last=3)
    assert info.step == hi
    assert info.machines == ("east", "west")
    assert info.total_bytes > 0
    fed_b.close()
    fed_b.registry.close()
    del fed_b

    fed_b = load_federated_checkpoint(
        root,
        rules=default_rules(),
        router=AlertRouter(fleet_rules=[FleetWideRule(min_machines=2)]),
    )
    assert fed_b.step == hi
    lo, hi = CHUNKS[1]
    _, fired = fed_b.ingest_and_alert(
        {n: s.values[:, lo:hi] for n, s in streams.items()}
    )
    alerts_b.extend(fired)

    assert [a.to_dict() for a in alerts_b] == [a.to_dict() for a in alerts_a]
    assert fed_b.rack_values() == fed_a.rack_values()
    spec_a, spec_b = fed_a.fleet_spectrum(), fed_b.fleet_spectrum()
    assert np.array_equal(spec_a.power, spec_b.power)
    assert np.array_equal(spec_a.frequencies, spec_b.frequencies)
    assert spec_a.total_power_by_shard() == spec_b.total_power_by_shard()


def test_federated_checkpoint_rotation_prunes(streams, tmp_path):
    root = str(tmp_path / "fed")
    federated = build_federated(streams)
    federated.ingest({n: s.values[:, :INITIAL] for n, s in streams.items()})
    save_federated_checkpoint(root, federated, keep_last=2)
    for lo, hi in CHUNKS:
        federated.ingest_and_alert({n: s.values[:, lo:hi] for n, s in streams.items()})
        save_federated_checkpoint(root, federated, keep_last=2)
    history = list_checkpoints(root)
    assert [entry.step for entry in history] == [CHUNKS[1][1], CHUNKS[0][1]]
    # The pruned initial-fit checkpoint is gone; the newest restores.
    restored = load_federated_checkpoint(root, rules=default_rules())
    assert restored.step == CHUNKS[1][1]


def test_federated_manifest_rejects_single_machine_checkpoint(streams, tmp_path):
    monitor = build_machine(streams["east"])
    monitor.ingest(streams["east"].values[:, :INITIAL])
    save_checkpoint(str(tmp_path / "single"), monitor)
    with pytest.raises(ValueError, match="single-machine"):
        read_federated_manifest(str(tmp_path / "single"))


def test_load_federated_rejects_router_plus_sinks(streams, tmp_path):
    federated = build_federated(streams)
    federated.ingest({n: s.values[:, :INITIAL] for n, s in streams.items()})
    save_federated_checkpoint(str(tmp_path / "fed"), federated)
    with pytest.raises(ValueError, match="not both"):
        load_federated_checkpoint(
            str(tmp_path / "fed"),
            router=AlertRouter(),
            sinks=[RingBufferSink()],
        )


# --------------------------------------------------------------------------- #
# Scenario catalog
# --------------------------------------------------------------------------- #
def test_federated_scenario_catalog_lookup():
    scenario = get_federated_scenario("federated_fleet")  # underscores accepted
    assert scenario.name == "federated-fleet"
    assert scenario.n_machines == 3
    assert scenario.restart_after_chunk == 2
    with pytest.raises(KeyError, match="unknown federated scenario"):
        get_federated_scenario("no-such-federation")
