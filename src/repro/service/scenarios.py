"""Named end-to-end workloads for the fleet monitor.

A scenario composes the synthetic substrates — telemetry generator
(:mod:`repro.telemetry`), hardware-error model (:mod:`repro.hwlog`) and
anomaly injections — into a reproducible fleet workload: machine, seed,
stream length, chunking, sharding policy and pipeline config.  The runner
then drives a :class:`~repro.service.monitor.FleetMonitor` through the
stream chunk by chunk, evaluating alerts after every ingest and (for the
restart scenario) checkpointing and restoring mid-run.

Catalog (``SCENARIOS``):

* ``quiet-fleet`` — nominal operation; the alert stream should be near
  silent;
* ``rack-cooling-failure`` — slow temperature creep on one rack
  (:class:`~repro.telemetry.anomalies.CoolingDegradation`), the paper's
  case-study-1 shape;
* ``noisy-neighbor-job`` — a block of nodes run hot by a heavy job
  (:class:`HotNodes`), with correlated hardware events for the Q3-style
  correlation rule;
* ``sensor-dropout`` — a faulty sensor spews spikes
  (:class:`SensorFault`); the mrDMD reconstruction should largely filter
  it and the alert stream should stay calmer than the raw data suggests;
* ``mid-run-restart`` — the cooling failure workload with a
  checkpoint/restore in the middle; the acceptance check is that the
  resumed monitor's next-window rack values match an uninterrupted run
  exactly.
* ``chaos-fleet`` — the quiet workload under a deterministic
  :class:`~repro.resilience.FaultPlan`: a worker crash, a hang, a
  transient exception, a slow task and a NaN-poisoned chunk, supervised
  by a :class:`~repro.resilience.ResiliencePolicy`.  Recovered shards
  must converge bit-for-bit with a fault-free run; the poisoned shard
  must end the run quarantined with the fleet still answering.

Every scenario is laptop-scale (a few hundred snapshots over tens of
nodes) so tests, examples and benchmarks can run it in seconds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ..core.mrdmd import MrDMDConfig
from ..hwlog.generator import HardwareErrorModel
from ..hwlog.events import HardwareLog
from ..pipeline.config import PipelineConfig
from ..resilience import FaultKind, FaultPlan, FaultSpec, ResiliencePolicy
from ..telemetry.anomalies import (
    Anomaly,
    CoolingDegradation,
    HotNodes,
    SensorFault,
)
from ..telemetry.generator import TelemetryGenerator, TelemetryStream
from ..telemetry.machine import MachineDescription
from ..telemetry.sensors import xc40_sensor_suite
from ..telemetry.streaming import StreamingReplay
from .alerts import Alert, AlertEngine, AlertSink, default_rules
from .checkpoint import load_checkpoint, save_checkpoint
from .monitor import FleetMonitor
from .sharding import MetricSharding, RackSharding, ShardingPolicy

__all__ = [
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "SCENARIOS",
    "get_scenario",
    "quiet_fleet",
    "rack_cooling_failure",
    "noisy_neighbor_job",
    "sensor_dropout",
    "mid_run_restart",
    "mid_run_add_sensors",
    "chaos_fleet",
]


def _default_machine() -> MachineDescription:
    """A 64-node, 4-rack Theta-like machine (16 nodes per rack).

    ``theta_machine`` packages 192 node positions per rack, so a 64-node
    laptop-scale limit would land entirely in rack 0 and rack sharding
    would degenerate to one shard; this layout spreads the populated
    nodes over four real racks instead.
    """
    return MachineDescription(
        name="xc40",
        n_rows=1,
        racks_per_row=4,
        cabinets_per_rack=1,
        slots_per_cabinet=4,
        blades_per_slot=1,
        nodes_per_blade=4,
        sensors=xc40_sensor_suite(),
        dt_seconds=15.0,
    )


def _default_config() -> PipelineConfig:
    # The baseline band brackets the generator's quiet operating point
    # (~66 degC at 0.3 utilisation) so anomalies land outside it.
    return PipelineConfig(
        mrdmd=MrDMDConfig(max_levels=4),
        baseline_range=(40.0, 75.0),
        power_quantile=0.0,
    )


@dataclass(frozen=True)
class Scenario:
    """A named, fully reproducible fleet workload.

    Attributes
    ----------
    name / description:
        Catalog identity.
    machine:
        Topology the telemetry is generated for.
    seed:
        Seed shared by the telemetry and hardware-log generators.
    sensors:
        Channels to generate (default: ``cpu_temp`` only).
    anomalies:
        Telemetry anomaly injections.
    hot_nodes:
        Nodes whose hardware-event rates are thermally elevated (ground
        truth for the correlation rule).
    total_steps / initial_size / chunk_size:
        Stream length and the initial-fit / streaming-chunk protocol.
    config:
        Pipeline configuration shared by every shard.
    policy:
        Sharding policy (default: one shard per rack).
    restart_after_chunk:
        When set, the runner checkpoints after this many streaming chunks,
        discards the monitor, restores from disk and continues.
    initial_sensors:
        The channels present when the monitor starts.  ``None`` (default)
        means all of ``sensors``; otherwise it must be a *prefix* of
        ``sensors`` (generated matrices group rows by channel in listing
        order, so a prefix of channels is a prefix of matrix rows).
    grow_after_chunk:
        When set (requires ``initial_sensors``), the runner streams only
        the initial channels' rows up to and including this chunk, then
        onboards the remaining channels mid-run via
        :meth:`FleetMonitor.add_sensors` — no restart, no refit of the
        existing shards — and continues with full-matrix chunks.
    resilience:
        When set, the monitor runs supervised: per-task deadlines,
        retry with deterministic backoff, worker respawn with state
        rehydration, and quarantine after the retry budget is spent.
    fault_plan:
        Deterministic fault injections (requires ``resilience``);
        faults are addressed by shard id and 1-based ingest round.
    alert_cooldown:
        Engine cooldown in snapshots.
    hw_background_scale / hw_hot_multiplier:
        Hardware-event rate knobs.  Real background rates (~2 events per
        node per 10k snapshots) are too sparse for a few-hundred-snapshot
        scenario, so workloads that exercise the correlation rule scale
        them up.
    """

    name: str
    description: str
    machine: MachineDescription = field(default_factory=_default_machine)
    seed: int = 11
    sensors: tuple[str, ...] = ("cpu_temp",)
    anomalies: tuple[Anomaly, ...] = ()
    hot_nodes: tuple[int, ...] = ()
    total_steps: int = 560
    initial_size: int = 240
    chunk_size: int = 80
    config: PipelineConfig = field(default_factory=_default_config)
    policy: ShardingPolicy = field(default_factory=RackSharding)
    restart_after_chunk: int | None = None
    resilience: ResiliencePolicy | None = None
    fault_plan: FaultPlan | None = None
    initial_sensors: tuple[str, ...] | None = None
    grow_after_chunk: int | None = None
    alert_cooldown: int = 120
    hw_background_scale: float = 1.0
    hw_hot_multiplier: float = 8.0

    def __post_init__(self) -> None:
        if self.fault_plan is not None and self.resilience is None:
            raise ValueError(
                "fault_plan requires resilience (injected faults only make "
                "sense under a supervised monitor)"
            )
        if self.grow_after_chunk is not None and self.initial_sensors is None:
            raise ValueError("grow_after_chunk requires initial_sensors")
        if self.initial_sensors is not None:
            prefix = self.sensors[: len(self.initial_sensors)]
            if tuple(self.initial_sensors) != prefix or not self.initial_sensors:
                raise ValueError(
                    f"initial_sensors must be a non-empty prefix of sensors "
                    f"{self.sensors}, got {self.initial_sensors}"
                )
        if self.grow_after_chunk is not None and len(self.initial_sensors) >= len(
            self.sensors
        ):
            # All channels present from the start: there is nothing to
            # grow, and the event would silently never fire.
            raise ValueError(
                "grow_after_chunk requires initial_sensors to be a *strict* "
                "prefix of sensors (some channel must be left to onboard)"
            )

    @property
    def n_chunks(self) -> int:
        """Number of streaming chunks after the initial fit."""
        remaining = self.total_steps - self.initial_size
        return int(np.ceil(max(remaining, 0) / self.chunk_size))

    @property
    def grows_mid_run(self) -> bool:
        return (
            self.grow_after_chunk is not None
            and self.initial_sensors is not None
            and len(self.initial_sensors) < len(self.sensors)
        )

    def build_stream(self) -> TelemetryStream:
        """Generate the scenario's full telemetry block (deterministic)."""
        generator = TelemetryGenerator(
            self.machine, seed=self.seed, utilization_target=0.3
        )
        return generator.generate(
            self.total_steps,
            sensors=list(self.sensors),
            anomalies=list(self.anomalies),
        )

    def build_hwlog(self) -> HardwareLog:
        """Generate the scenario's hardware-event log (deterministic)."""
        model = HardwareErrorModel(n_nodes=self.machine.n_nodes, seed=self.seed + 1)
        if self.hw_background_scale != 1.0:
            model.background_rates = {
                etype: rate * self.hw_background_scale
                for etype, rate in model.background_rates.items()
            }
        model.hot_node_multiplier = self.hw_hot_multiplier
        return model.generate(self.total_steps, hot_nodes=list(self.hot_nodes))


def _row_prefix_stream(stream: TelemetryStream, n_rows: int) -> TelemetryStream:
    """The stream restricted to its first ``n_rows`` rows (a view)."""
    return TelemetryStream(
        values=stream.values[:n_rows],
        dt=stream.dt,
        sensor_names=stream.sensor_names[:n_rows],
        node_indices=stream.node_indices[:n_rows],
        machine=stream.machine,
        utilization=stream.utilization,
        start_step=stream.start_step,
    )


def _initial_live_rows(scenario: Scenario, stream: TelemetryStream) -> int:
    """Matrix rows present before a scenario's growth event (the prefix).

    Shared by the single-machine and federated runners: counts the rows
    belonging to ``initial_sensors`` and validates they form a row prefix
    (generated matrices group rows by channel in listing order, so a
    channel prefix is a row prefix — anything else cannot be streamed by
    slicing).
    """
    if not scenario.grows_mid_run:
        return stream.n_rows
    mask = np.isin(
        np.asarray(stream.sensor_names).astype(str),
        list(scenario.initial_sensors),
    )
    n_rows = int(np.count_nonzero(mask))
    if not np.all(mask[:n_rows]):
        raise ValueError("initial_sensors rows must form a prefix of the matrix")
    return n_rows


@dataclass
class ScenarioResult:
    """Everything a scenario run produced."""

    scenario: Scenario
    monitor: FleetMonitor
    alerts: list[Alert]
    rack_values: dict[int, float]
    hwlog: HardwareLog
    n_chunks: int
    restarted: bool

    def alerts_for_rule(self, rule: str) -> list[Alert]:
        return [a for a in self.alerts if a.rule == rule]

    def alerted_nodes(self) -> set[int]:
        return {a.node for a in self.alerts if a.node is not None}


class ScenarioRunner:
    """Drives a scenario end to end: stream -> alerts -> (restart) -> products.

    Parameters
    ----------
    scenario:
        The workload description.
    sinks:
        Alert sinks attached to the engine (and re-attached after a
        restart).
    checkpoint_dir:
        Where the restart scenario persists its checkpoint; required when
        ``scenario.restart_after_chunk`` is set.
    executor / max_workers:
        Shard fan-out backend for the monitor (``None``/``"serial"``,
        ``"process"``), held open across the whole run and closed before
        returning; both backends produce identical products.
    deep_levels:
        When set (``"inline"``/``"deferred"``), overrides the scenario
        config's deep-level mode — the CLI's ``--deep-levels`` switch for
        trying the asynchronous levels-2..L refresh on any catalog
        workload without editing it.
    checkpoint_every:
        When set, the runner additionally saves a rotated checkpoint
        after every N streaming chunks (requires ``checkpoint_dir``).
        For scenarios that also restart mid-run, periodic entries live
        under ``<checkpoint_dir>/periodic`` so they never collide with
        the restart checkpoint at the root.
    checkpoint_mode / checkpoint_keep_last:
        Forwarded to :func:`save_checkpoint` for the periodic saves
        (which, like every save, write only shards whose revision stamp
        moved): ``"async"`` moves serialisation off the chunk loop onto
        the monitor's background writer (flushed at close), and
        ``checkpoint_keep_last`` bounds the rotation depth.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        sinks: Sequence[AlertSink] = (),
        checkpoint_dir: str | None = None,
        executor: str | None = None,
        max_workers: int | None = None,
        deep_levels: str | None = None,
        checkpoint_every: int | None = None,
        checkpoint_mode: str = "sync",
        checkpoint_keep_last: int = 3,
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
        if scenario.grows_mid_run and not (
            1 <= scenario.grow_after_chunk <= scenario.n_chunks
        ):
            raise ValueError(
                f"grow_after_chunk must be in [1, {scenario.n_chunks}]"
            )
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every!r}"
                )
            if checkpoint_dir is None:
                raise ValueError("checkpoint_every requires checkpoint_dir")
        if checkpoint_mode not in ("sync", "async"):
            raise ValueError(f"unknown checkpoint mode {checkpoint_mode!r}")
        if checkpoint_keep_last < 1:
            raise ValueError(
                f"checkpoint_keep_last must be >= 1, got {checkpoint_keep_last!r}"
            )
        if deep_levels is not None and scenario.config.deep_levels != deep_levels:
            scenario = replace(
                scenario, config=replace(scenario.config, deep_levels=deep_levels)
            )
        self.scenario = scenario
        self.sinks = list(sinks)
        self.checkpoint_dir = checkpoint_dir
        self.executor = executor
        self.max_workers = max_workers
        self.checkpoint_every = checkpoint_every
        self.checkpoint_mode = checkpoint_mode
        self.checkpoint_keep_last = checkpoint_keep_last

    def _periodic_dir(self) -> str | None:
        """Root for periodic rotated entries (None when not configured).

        Kept apart from the restart checkpoint: the restart scenario
        writes a legacy in-place manifest at ``checkpoint_dir``'s root,
        which must not be shadowed by rotation entries.
        """
        if self.checkpoint_every is None:
            return None
        if self.scenario.restart_after_chunk is not None:
            return os.path.join(self.checkpoint_dir, "periodic")
        return self.checkpoint_dir

    def _build_monitor(self, stream: TelemetryStream) -> FleetMonitor:
        engine = AlertEngine(
            rules=default_rules(),
            sinks=self.sinks,
            cooldown=self.scenario.alert_cooldown,
        )
        return FleetMonitor.from_stream(
            stream,
            policy=self.scenario.policy,
            config=self.scenario.config,
            alert_engine=engine,
            executor=self.executor,
            max_workers=self.max_workers,
            resilience=self.scenario.resilience,
            fault_plan=self.scenario.fault_plan,
        )

    def run(self) -> ScenarioResult:
        """Execute the scenario; returns the final monitor and alert trail.

        The monitor's executor is held open across every chunk (and
        re-opened with the same backend after the restart scenario's
        restore); the returned monitor is closed, with all shard state
        landed in-process, so post-run queries keep working.
        """
        scenario = self.scenario
        stream = scenario.build_stream()
        hwlog = scenario.build_hwlog()
        replay = StreamingReplay(
            stream=stream,
            initial_size=scenario.initial_size,
            chunk_size=scenario.chunk_size,
        )

        # With a mid-run growth event the monitor starts on the initial
        # channels' rows only (a prefix of the full matrix — validated by
        # _initial_live_rows) and absorbs the rest at the event.
        n_live_rows = _initial_live_rows(scenario, stream)
        if scenario.grows_mid_run:
            monitor = self._build_monitor(_row_prefix_stream(stream, n_live_rows))
        else:
            monitor = self._build_monitor(stream)
        alerts: list[Alert] = []
        restarted = False
        # try/finally: a mid-run failure must not leak the persistent
        # executor's workers (the restart path rebinds `monitor`, so the
        # finally closes whichever one is current).
        try:
            monitor.ingest(replay.initial()[:n_live_rows])
            for index, chunk in enumerate(replay.chunks(), start=1):
                _, fired = monitor.ingest_and_alert(chunk[:n_live_rows], hwlog=hwlog)
                alerts.extend(fired)
                if scenario.grows_mid_run and scenario.grow_after_chunk == index:
                    monitor.add_sensors(
                        np.asarray(stream.sensor_names)[n_live_rows:],
                        np.asarray(stream.node_indices)[n_live_rows:],
                        policy=scenario.policy,
                        machine=scenario.machine,
                    )
                    n_live_rows = stream.n_rows
                periodic_dir = self._periodic_dir()
                if (
                    periodic_dir is not None
                    and index % self.checkpoint_every == 0
                ):
                    save_checkpoint(
                        periodic_dir,
                        monitor,
                        keep_last=self.checkpoint_keep_last,
                        mode=self.checkpoint_mode,
                    )
                if scenario.restart_after_chunk == index:
                    # Persist, tear down, restore: the restored monitor must
                    # continue exactly where this one stopped.
                    save_checkpoint(self.checkpoint_dir, monitor)
                    monitor.close()
                    monitor = load_checkpoint(
                        self.checkpoint_dir,
                        rules=default_rules(),
                        sinks=self.sinks,
                        executor=self.executor,
                        max_workers=self.max_workers,
                    )
                    restarted = True

            # Deferred deep levels: catch the backlog up before the final
            # products, so the returned monitor answers exactly like an
            # inline run (mid-run staleness was the trade, not the result).
            monitor.refresh_deep_levels()
            rack_values = monitor.rack_values()
        finally:
            monitor.close()
        return ScenarioResult(
            scenario=scenario,
            monitor=monitor,
            alerts=alerts,
            rack_values=rack_values,
            hwlog=hwlog,
            n_chunks=replay.n_chunks,
            restarted=restarted,
        )


# --------------------------------------------------------------------------- #
# Catalog
# --------------------------------------------------------------------------- #
def quiet_fleet() -> Scenario:
    """Nominal operation: no injected anomalies, background hw events only."""
    return Scenario(
        name="quiet-fleet",
        description="Nominal fleet; alert stream should be near silent.",
    )


def rack_cooling_failure() -> Scenario:
    """Cooling degradation on every node of rack 1 starting mid-stream."""
    machine = _default_machine()
    rack1_nodes = tuple(
        n for n in range(machine.n_nodes) if machine.rack_of_node(n) == 1
    )
    return Scenario(
        name="rack-cooling-failure",
        description="Rack 1 loses cooling margin; temperatures creep up rack-wide.",
        machine=machine,
        anomalies=(
            CoolingDegradation(
                node_indices=rack1_nodes,
                start=200,
                rate_per_hour=18.0,
                dt_seconds=machine.dt_seconds,
                label="rack-1 cooling failure",
            ),
        ),
        hot_nodes=rack1_nodes[:4],
    )


def noisy_neighbor_job() -> Scenario:
    """A heavy job drives four nodes hot; hardware events follow."""
    job_nodes = (10, 11, 12, 13)
    return Scenario(
        name="noisy-neighbor-job",
        description="A co-scheduled job overheats its nodes; neighbors stay nominal.",
        anomalies=(
            HotNodes(node_indices=job_nodes, start=260, delta=16.0, label="noisy job"),
        ),
        hot_nodes=job_nodes,
        hw_background_scale=4.0,
        hw_hot_multiplier=60.0,
    )


def sensor_dropout() -> Scenario:
    """A faulty cpu_temp sensor on three nodes emits wild spikes."""
    return Scenario(
        name="sensor-dropout",
        description="Faulty sensors spike; denoised analysis should stay calm.",
        anomalies=(
            SensorFault(
                node_indices=(3, 17, 40),
                start=120,
                spike_probability=0.06,
                spike_std=20.0,
                label="flaky sensors",
            ),
        ),
    )


def mid_run_add_sensors() -> Scenario:
    """The node_power channel comes online two chunks into the stream.

    The monitor starts on ``cpu_temp`` rows only (one metric shard);
    after chunk 2 the ``node_power`` rows are onboarded through
    :meth:`FleetMonitor.add_sensors`, which mints a brand-new
    ``metric-node_power`` shard into the running executor pool — no
    restart, no refit of the cpu_temp decomposition — and subsequent
    chunks carry the full matrix.  The noisy-job anomaly keeps the alert
    path exercised across the event.
    """
    job_nodes = (10, 11, 12, 13)
    return Scenario(
        name="mid-run-add-sensors",
        description=(
            "node_power sensors stream in after chunk 2, minting a new "
            "metric shard into the live pool without a restart or refit."
        ),
        sensors=("cpu_temp", "node_power"),
        initial_sensors=("cpu_temp",),
        grow_after_chunk=2,
        policy=MetricSharding(),
        anomalies=(
            HotNodes(node_indices=job_nodes, start=260, delta=16.0, label="noisy job"),
        ),
        hot_nodes=job_nodes,
        hw_background_scale=4.0,
        hw_hot_multiplier=60.0,
    )


def mid_run_restart() -> Scenario:
    """Cooling failure plus a service restart halfway through the stream."""
    base = rack_cooling_failure()
    return replace(
        base,
        name="mid-run-restart",
        description=(
            "Rack cooling failure with a checkpoint/restore after chunk 2; "
            "resumed products must match an uninterrupted run exactly."
        ),
        restart_after_chunk=2,
    )


def chaos_fleet() -> Scenario:
    """The quiet workload under a deterministic barrage of faults.

    The default machine shards one-per-rack (``rack-0``..``rack-3``) and
    streams four chunks after the initial fit — ingest rounds 2..5.  The
    plan hits every failure mode the supervisor handles:

    * round 2 — ``rack-1``'s worker **crashes** mid-task (a real
      ``os._exit`` on the process backend) and ``rack-3`` runs **slow**
      but inside the deadline;
    * round 3 — ``rack-2``'s task **hangs** past the deadline, tripping
      dead-worker detection and a respawn;
    * round 4 — ``rack-0`` raises a transient **exception** (retried);
    * round 5 — ``rack-3``'s chunk arrives **NaN-poisoned**; the data is
      bad on every attempt, so the shard is quarantined and the final
      snapshot reports it in ``degraded_shards``.

    Every recovered shard must converge bit-for-bit with a fault-free
    run; the quarantined shard is excluded from fleet products but the
    monitor keeps answering (asserted by the chaos tests).
    """
    return Scenario(
        name="chaos-fleet",
        description=(
            "Quiet fleet under injected crash/hang/exception/slow/poison "
            "faults; supervised recovery must converge bit-for-bit and "
            "quarantine the poisoned shard."
        ),
        resilience=ResiliencePolicy(
            max_attempts=3,
            task_deadline=5.0,
            backoff_base=0.01,
            backoff_cap=0.05,
            seed=8,
        ),
        fault_plan=FaultPlan(
            faults=(
                FaultSpec(FaultKind.CRASH, "rack-1", 2),
                FaultSpec(FaultKind.SLOW, "rack-3", 2, duration=0.05),
                FaultSpec(FaultKind.HANG, "rack-2", 3, duration=30.0),
                FaultSpec(FaultKind.EXCEPTION, "rack-0", 4),
                FaultSpec(FaultKind.NAN_CHUNK, "rack-3", 5),
            ),
            seed=8,
        ),
    )


SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "quiet-fleet": quiet_fleet,
    "rack-cooling-failure": rack_cooling_failure,
    "noisy-neighbor-job": noisy_neighbor_job,
    "sensor-dropout": sensor_dropout,
    "mid-run-restart": mid_run_restart,
    "mid-run-add-sensors": mid_run_add_sensors,
    "chaos-fleet": chaos_fleet,
}


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by catalog name."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None
    return factory()
