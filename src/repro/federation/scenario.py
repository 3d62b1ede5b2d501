"""Named multi-machine workloads for the federated monitor.

A federated scenario composes per-machine
:class:`~repro.service.scenarios.Scenario` workloads (telemetry, hardware
log, sharding, pipeline config — all reused as-is) into one lockstep
federation run: every machine streams the same chunk protocol while the
:class:`~repro.federation.monitor.FederatedMonitor` runs each machine's
round (every machine on its own shard executor), routes machine-stamped
alerts through a shared
:class:`~repro.federation.routing.AlertRouter`, checkpoints the whole
federation into a rotating history after every chunk, and (for the
catalog's ``federated-fleet`` entry) tears the federation down mid-run and
restores it from the newest retained checkpoint — the acceptance check is
that the restart is observationally invisible.

Catalog (``FEDERATED_SCENARIOS``):

* ``federated-fleet`` — three machines: a quiet site, one with a rack
  cooling failure and one with a noisy-neighbor job (with correlated
  hardware events), plus rotating checkpoints and a mid-run restart.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ..hwlog.events import HardwareLog
from ..service.alerts import Alert, AlertEngine, AlertSink, default_rules
from ..service.checkpoint import RotatedCheckpoint, list_checkpoints, load_checkpoint
from ..service.monitor import FleetMonitor, TopologyUpdate
from ..service.scenarios import (
    Scenario,
    _initial_live_rows,
    _row_prefix_stream,
    mid_run_add_sensors,
    noisy_neighbor_job,
    quiet_fleet,
    rack_cooling_failure,
)
from ..telemetry.streaming import StreamingReplay
from .checkpoint import MACHINES_DIRNAME, load_federated_checkpoint, save_federated_checkpoint
from .chunklog import ChunkLog
from .monitor import FederatedMonitor
from .registry import MachineRegistry
from .routing import AlertRouter, FleetWideRule, FleetWideZScoreRule

__all__ = [
    "FederatedScenario",
    "FederatedScenarioResult",
    "FederatedScenarioRunner",
    "FEDERATED_SCENARIOS",
    "get_federated_scenario",
    "federated_fleet",
    "elastic_fleet",
]


@dataclass(frozen=True)
class FederatedScenario:
    """A named, fully reproducible multi-machine workload.

    Attributes
    ----------
    name / description:
        Catalog identity.
    machines:
        Ordered ``(machine_name, per-machine Scenario)`` pairs.  All
        machines must share the same stream protocol (``total_steps``,
        ``initial_size``, ``chunk_size``) — the federation ingests in
        lockstep.
    restart_after_chunk:
        When set, the runner tears the federation down after this many
        streaming chunks and restores it from the newest retained
        checkpoint.
    keep_last:
        Rotating-checkpoint retention depth (the runner checkpoints after
        every chunk when given a checkpoint directory).
    min_drift_machines / fleet_drift_threshold:
        :class:`FleetWideRule` configuration for the shared router.
    min_zscore_machines:
        When set, a :class:`FleetWideZScoreRule` with this machine
        threshold joins the router's fleet rules.
    router_cooldown:
        Federation-level dedup cooldown in snapshots.
    joiners / join_after_chunk:
        Machines that register with the running federation after this
        many streaming chunks (``(name, workload)`` pairs, same stream
        protocol).  A joiner starts its own stream from zero — the
        federation's rounds become *partial* from its perspective until
        it catches up in wall-clock terms.
    stale_restore_machine / stale_restore_after_chunk:
        When set, after this many chunks the named machine is torn down
        and rebuilt from the *previous* retained rotation entry (one
        chunk stale), then caught up from the federation's shared chunk
        log before rejoining alert evaluation — the machine-local
        restore flow.  Requires a checkpoint directory and
        ``keep_last >= 2``.
    """

    name: str
    description: str
    machines: tuple[tuple[str, Scenario], ...]
    restart_after_chunk: int | None = None
    keep_last: int = 2
    min_drift_machines: int = 2
    fleet_drift_threshold: float | None = None
    min_zscore_machines: int | None = None
    router_cooldown: int = 120
    joiners: tuple[tuple[str, Scenario], ...] = ()
    join_after_chunk: int | None = None
    stale_restore_machine: str | None = None
    stale_restore_after_chunk: int | None = None

    def __post_init__(self) -> None:
        if not self.machines:
            raise ValueError("a federated scenario needs at least one machine")
        protocols = {
            (sc.total_steps, sc.initial_size, sc.chunk_size)
            for _name, sc in (*self.machines, *self.joiners)
        }
        if len(protocols) != 1:
            raise ValueError(
                "machines must share one stream protocol (total_steps, "
                f"initial_size, chunk_size); got {sorted(protocols)}"
            )
        names = [name for name, _sc in (*self.machines, *self.joiners)]
        if len(set(names)) != len(names):
            raise ValueError(f"machine names must be unique, got {names}")
        if self.joiners and self.join_after_chunk is None:
            raise ValueError("joiners require join_after_chunk")
        if self.join_after_chunk is not None and not self.joiners:
            raise ValueError("join_after_chunk requires joiners")
        if (self.stale_restore_machine is None) != (
            self.stale_restore_after_chunk is None
        ):
            raise ValueError(
                "stale_restore_machine and stale_restore_after_chunk go together"
            )
        if (
            self.stale_restore_machine is not None
            and self.stale_restore_machine not in dict(self.machines)
        ):
            raise ValueError(
                f"stale_restore_machine {self.stale_restore_machine!r} is not an "
                f"initial machine"
            )
        if self.stale_restore_machine is not None and self.keep_last < 2:
            raise ValueError("a stale restore needs keep_last >= 2")
        if (
            self.stale_restore_machine is not None
            and dict(self.machines)[self.stale_restore_machine].grows_mid_run
        ):
            raise ValueError(
                "stale_restore_machine must not grow mid-run: the chunk log "
                "records data, not topology events, so a replay cannot cross "
                "the machine's own growth boundary"
            )

    @property
    def machine_names(self) -> tuple[str, ...]:
        return tuple(name for name, _sc in self.machines)

    @property
    def n_machines(self) -> int:
        return len(self.machines)

    @property
    def n_chunks(self) -> int:
        """Streaming chunks after the initial fit (shared by all machines)."""
        return self.machines[0][1].n_chunks


@dataclass
class FederatedScenarioResult:
    """Everything a federated scenario run produced."""

    scenario: FederatedScenario
    federated: FederatedMonitor
    alerts: list[Alert]
    rack_values: dict[str, dict[int, float]]
    zscore_map: dict[str, float]
    hwlogs: dict[str, HardwareLog]
    n_chunks: int
    restarted: bool
    checkpoints: list[RotatedCheckpoint]
    #: machine -> TopologyUpdate for mid-run sensor growth events.
    topology_updates: dict[str, TopologyUpdate] = field(default_factory=dict)
    #: Machines that registered mid-run, in registration order.
    joined: tuple[str, ...] = ()
    #: Whether the stale-restore flow ran, and how many chunks the
    #: restored machine replayed from the shared chunk log.
    stale_restored: bool = False
    chunks_replayed: int = 0

    def alerts_for_machine(self, machine: str) -> list[Alert]:
        return [a for a in self.alerts if a.machine == machine]

    def alerts_for_rule(self, rule: str) -> list[Alert]:
        return [a for a in self.alerts if a.rule == rule]

    def alerted_machines(self) -> set[str]:
        return {a.machine for a in self.alerts if a.machine is not None}


class FederatedScenarioRunner:
    """Drives a federated scenario end to end.

    Parameters
    ----------
    scenario:
        The workload description.
    sinks:
        Global router sinks (re-attached after a restart).
    checkpoint_dir:
        Rotation root for the per-chunk federated checkpoints; required
        when ``scenario.restart_after_chunk`` is set, optional otherwise
        (no directory means no checkpointing).
    executor / max_workers:
        Every machine's shard executor (``None``/``"serial"``,
        ``"process"``) and its worker count — for the machines built
        here, joiners, and the machines restored mid-run.
    deep_levels:
        When set (``"inline"``/``"deferred"``), overrides every machine
        workload's deep-level mode — the CLI's ``--deep-levels`` switch.
    checkpoint_mode:
        Forwarded to :func:`save_federated_checkpoint` for the per-chunk
        rotation saves (which write only shards whose revision stamp
        moved since the previous entry): ``"async"`` hands the commit to
        the federation's background writer (flushed before any entry is
        read back).
    """

    def __init__(
        self,
        scenario: FederatedScenario,
        *,
        sinks: Sequence[AlertSink] = (),
        checkpoint_dir: str | None = None,
        executor: str | None = None,
        max_workers: int | None = None,
        deep_levels: str | None = None,
        checkpoint_mode: str = "sync",
    ) -> None:
        if scenario.restart_after_chunk is not None:
            if checkpoint_dir is None:
                raise ValueError(
                    f"scenario {scenario.name!r} restarts mid-run: pass checkpoint_dir"
                )
            if not 1 <= scenario.restart_after_chunk <= scenario.n_chunks:
                raise ValueError(
                    f"restart_after_chunk must be in [1, {scenario.n_chunks}]"
                )
        if scenario.stale_restore_after_chunk is not None:
            if checkpoint_dir is None:
                raise ValueError(
                    f"scenario {scenario.name!r} restores a stale machine "
                    f"mid-run: pass checkpoint_dir"
                )
            if not 2 <= scenario.stale_restore_after_chunk <= scenario.n_chunks:
                raise ValueError(
                    f"stale_restore_after_chunk must be in [2, {scenario.n_chunks}] "
                    f"(an older rotation entry must exist)"
                )
        if scenario.join_after_chunk is not None and not (
            1 <= scenario.join_after_chunk < scenario.n_chunks
        ):
            # == n_chunks would register joiners after the last round:
            # they would silently never stream.
            raise ValueError(
                f"join_after_chunk must be in [1, {scenario.n_chunks - 1}]"
            )
        for name, workload in (*scenario.machines, *scenario.joiners):
            if not workload.grows_mid_run:
                continue
            # A joiner starts streaming join_after_chunk + 1 rounds late,
            # so its growth event must fit in the rounds it actually gets.
            budget = scenario.n_chunks
            if name in dict(scenario.joiners):
                budget -= scenario.join_after_chunk + 1
            if not 1 <= workload.grow_after_chunk <= budget:
                raise ValueError(
                    f"machine {name!r}: grow_after_chunk="
                    f"{workload.grow_after_chunk} never fires (this machine "
                    f"streams at most {budget} chunk(s))"
                )
        if checkpoint_mode not in ("sync", "async"):
            raise ValueError(f"unknown checkpoint mode {checkpoint_mode!r}")
        self.scenario = scenario
        self.sinks = list(sinks)
        self.checkpoint_dir = checkpoint_dir
        self.executor = executor
        self.max_workers = max_workers
        self.deep_levels = deep_levels
        self.checkpoint_mode = checkpoint_mode

    # ------------------------------------------------------------------ #
    def _build_router(self) -> AlertRouter:
        scenario = self.scenario
        fleet_rules: list = [
            FleetWideRule(
                min_machines=scenario.min_drift_machines,
                threshold=scenario.fleet_drift_threshold,
            )
        ]
        if scenario.min_zscore_machines is not None:
            fleet_rules.append(
                FleetWideZScoreRule(min_machines=scenario.min_zscore_machines)
            )
        return AlertRouter(
            sinks=self.sinks,
            fleet_rules=fleet_rules,
            cooldown=scenario.router_cooldown,
        )

    def _build_machine(self, scenario: Scenario, stream) -> FleetMonitor:
        engine = AlertEngine(
            rules=default_rules(), cooldown=scenario.alert_cooldown
        )
        if scenario.grows_mid_run:
            stream = _row_prefix_stream(stream, _initial_live_rows(scenario, stream))
        config = scenario.config
        if self.deep_levels is not None and config.deep_levels != self.deep_levels:
            config = replace(config, deep_levels=self.deep_levels)
        return FleetMonitor.from_stream(
            stream,
            policy=scenario.policy,
            config=config,
            alert_engine=engine,
            executor=self.executor,
            max_workers=self.max_workers,
        )

    def run(self) -> FederatedScenarioResult:
        """Execute the scenario: staggered stream -> routed alerts -> products.

        When a checkpoint directory is configured the federation
        checkpoints into the rotation root after *every* chunk (retention
        bounded by ``scenario.keep_last``); the full restart, when
        scheduled, restores from the newest retained entry, and the
        stale-machine restore rebuilds one machine from the *previous*
        entry and catches it up from the shared chunk log.  Joiners
        register mid-run and stream from their own step zero (partial
        rounds).  The returned federation's machines are closed, their
        state landed in-process, so post-run queries keep working.
        """
        scenario = self.scenario
        workloads = {**dict(scenario.machines), **dict(scenario.joiners)}
        streams = {name: sc.build_stream() for name, sc in workloads.items()}
        hwlogs = {name: sc.build_hwlog() for name, sc in workloads.items()}
        replays = {
            name: StreamingReplay(
                stream=streams[name],
                initial_size=sc.initial_size,
                chunk_size=sc.chunk_size,
            )
            for name, sc in workloads.items()
        }
        live_rows = {
            name: _initial_live_rows(sc, streams[name])
            for name, sc in workloads.items()
        }

        registry = MachineRegistry(
            {
                name: self._build_machine(sc, streams[name])
                for name, sc in scenario.machines
            }
        )
        federated = FederatedMonitor(
            registry, router=self._build_router(), chunk_log=ChunkLog()
        )
        alerts: list[Alert] = []
        topology_updates: dict[str, TopologyUpdate] = {}
        joined: list[str] = []
        restarted = False
        stale_restored = False
        chunks_replayed = 0
        needs_initial: set[str] = set()
        chunk_iters = {}
        chunks_done = {name: 0 for name in workloads}
        # try/finally: a mid-run failure must not leak the machine
        # executors (the restart path rebinds `federated`).
        try:
            federated.ingest(
                {
                    name: replays[name].initial()[: live_rows[name]]
                    for name, _sc in scenario.machines
                }
            )
            chunk_iters = {
                name: replays[name].chunks() for name, _sc in scenario.machines
            }
            for index in range(1, scenario.n_chunks + 1):
                chunks = {}
                for name in federated.machine_names:
                    if name in needs_initial:
                        chunks[name] = replays[name].initial()[: live_rows[name]]
                        needs_initial.discard(name)
                        chunk_iters[name] = replays[name].chunks()
                        continue
                    chunk = next(chunk_iters[name], None)
                    if chunk is not None:
                        chunks[name] = chunk[: live_rows[name]]
                        chunks_done[name] += 1
                _, fired = federated.ingest_and_alert(
                    chunks, hwlogs={name: hwlogs[name] for name in chunks}
                )
                alerts.extend(fired)
                if self.checkpoint_dir is not None:
                    save_federated_checkpoint(
                        self.checkpoint_dir,
                        federated,
                        keep_last=scenario.keep_last,
                        mode=self.checkpoint_mode,
                    )
                if scenario.restart_after_chunk == index:
                    # Tear the whole federation down and resume from the
                    # newest retained rotation entry; the restored run must
                    # continue exactly where this one stopped.  Async
                    # commits must land before the entry is read back.
                    federated.flush_checkpoints()
                    chunk_log = federated.chunk_log
                    federated.close()
                    federated.registry.close()
                    federated = load_federated_checkpoint(
                        self.checkpoint_dir,
                        rules=default_rules(),
                        router=self._build_router(),
                        executor=self.executor,
                        max_workers=self.max_workers,
                        chunk_log=chunk_log,
                    )
                    restarted = True
                if scenario.stale_restore_after_chunk == index:
                    # Machine-local failure: rebuild one machine from the
                    # previous (stale) rotation entry, then replay the
                    # shared chunk log so it rejoins at the stream edge.
                    federated.flush_checkpoints()
                    entries = list_checkpoints(self.checkpoint_dir)
                    stale_entry = entries[1] if len(entries) > 1 else entries[0]
                    name = scenario.stale_restore_machine
                    stale_monitor = load_checkpoint(
                        os.path.join(stale_entry.path, MACHINES_DIRNAME, name),
                        rules=default_rules(),
                        executor=self.executor,
                        max_workers=self.max_workers,
                    )
                    replaced = federated.machine(name)
                    chunks_replayed = federated.reattach_machine(name, stale_monitor)
                    # The replaced machine left the federation: stop its
                    # worker processes.
                    replaced.close()
                    stale_restored = True
                if scenario.join_after_chunk == index:
                    for name, sc in scenario.joiners:
                        federated.register_machine(
                            name, self._build_machine(sc, streams[name])
                        )
                        needs_initial.add(name)
                        joined.append(name)
                for name, sc in workloads.items():
                    if (
                        sc.grows_mid_run
                        and name in federated.machine_names
                        and chunks_done[name] == sc.grow_after_chunk
                        and name not in topology_updates
                    ):
                        stream = streams[name]
                        topology_updates[name] = federated.add_sensors(
                            name,
                            np.asarray(stream.sensor_names)[live_rows[name] :],
                            np.asarray(stream.node_indices)[live_rows[name] :],
                            policy=sc.policy,
                            machine=sc.machine,
                        )
                        live_rows[name] = stream.n_rows

            # Deferred deep levels: catch every machine's backlog up before
            # the final federated products (see ScenarioRunner.run).
            federated.refresh_deep_levels()
            rack_values = federated.rack_values()
            zscore_map = federated.zscore_map()
        finally:
            federated.close()
            federated.registry.close()
        return FederatedScenarioResult(
            scenario=scenario,
            federated=federated,
            alerts=alerts,
            rack_values=rack_values,
            zscore_map=zscore_map,
            hwlogs=hwlogs,
            n_chunks=scenario.n_chunks,
            restarted=restarted,
            checkpoints=(
                list_checkpoints(self.checkpoint_dir) if self.checkpoint_dir else []
            ),
            topology_updates=topology_updates,
            joined=tuple(joined),
            stale_restored=stale_restored,
            chunks_replayed=chunks_replayed,
        )


# --------------------------------------------------------------------------- #
# Catalog
# --------------------------------------------------------------------------- #
def federated_fleet() -> FederatedScenario:
    """Three machines, one federation: quiet / cooling failure / noisy job.

    Each machine reuses a single-machine catalog workload under its own
    seed, so their telemetry is independent; the cooling failure and the
    hot job give the router machine-attributable alerts from two different
    sites while the quiet machine stays silent.  Rotating checkpoints are
    written every chunk and the federation restarts after chunk 2.
    """
    return FederatedScenario(
        name="federated-fleet",
        description=(
            "Three-machine federation (quiet / rack cooling failure / "
            "noisy-neighbor job) with rotating checkpoints and a mid-run "
            "restart; resumed products must match an uninterrupted run exactly."
        ),
        machines=(
            ("east", replace(quiet_fleet(), seed=21)),
            ("west", rack_cooling_failure()),
            ("north", replace(noisy_neighbor_job(), seed=41)),
        ),
        restart_after_chunk=2,
        keep_last=2,
        min_drift_machines=2,
    )


def elastic_fleet() -> FederatedScenario:
    """Every layer of the topology grows mid-stream, in one run.

    Three elastic events against a running two-machine federation:

    1. **new sensors into existing shards** — machine ``west`` (rack
       sharded) starts on ``cpu_temp`` only; after its second chunk the
       ``node_power`` rows stream in and every rack shard absorbs its own
       new rows in place;
    2. **a new shard** — machine ``east`` (metric sharded) onboards the
       same channel, which no existing shard can take, so a
       ``metric-node_power`` shard is minted into its live executor pool;
    3. **a new machine** — ``south`` registers after chunk 2 and streams
       from its own step zero (rounds become partial: sites are
       staggered, not lockstep);

    plus the machine-local failure flow: after chunk 3 the quiet machine
    ``north`` is torn down, rebuilt from the *previous* rotation entry
    (one chunk stale) and caught up from the federation's shared chunk
    log before rejoining alert evaluation.  Per-chunk rotating
    checkpoints cover the whole run, and the z-score burst fleet rule
    watches the merged alert stream.
    """
    east = replace(
        mid_run_add_sensors(),
        seed=21,
        # Growth event for east happens later than west's so the two
        # event kinds are distinguishable in the alert/product trail.
        grow_after_chunk=3,
    )
    west = replace(
        quiet_fleet(),
        seed=31,
        sensors=("cpu_temp", "node_power"),
        initial_sensors=("cpu_temp",),
        grow_after_chunk=2,
    )
    north = replace(quiet_fleet(), seed=36)
    south = replace(noisy_neighbor_job(), seed=41)
    return FederatedScenario(
        name="elastic-fleet",
        description=(
            "Federation that grows everywhere mid-stream: west extends its "
            "rack shards with node_power rows, east mints a new metric "
            "shard, south registers as a new machine (staggered rounds), "
            "and quiet north is later restored one chunk stale and caught "
            "up from the shared chunk log."
        ),
        machines=(("east", east), ("west", west), ("north", north)),
        joiners=(("south", south),),
        join_after_chunk=2,
        stale_restore_machine="north",
        stale_restore_after_chunk=3,
        keep_last=2,
        min_drift_machines=2,
        min_zscore_machines=2,
    )


FEDERATED_SCENARIOS: dict[str, Callable[[], FederatedScenario]] = {
    "federated-fleet": federated_fleet,
    "elastic-fleet": elastic_fleet,
}


def get_federated_scenario(name: str) -> FederatedScenario:
    """Look a federated scenario up by catalog name (``_``/``-`` agnostic)."""
    key = name.replace("_", "-")
    try:
        factory = FEDERATED_SCENARIOS[key]
    except KeyError:
        raise KeyError(
            f"unknown federated scenario {name!r}; available: "
            f"{sorted(FEDERATED_SCENARIOS)}"
        ) from None
    return factory()
