"""The federated monitor: one queryable system over N machine monitors.

A :class:`FederatedMonitor` sits on top of a
:class:`~repro.federation.registry.MachineRegistry` and turns N
independent :class:`~repro.service.monitor.FleetMonitor` instances into a
single ingest/alert/query surface:

1. :meth:`ingest_and_alert` hands one chunk to each machine, in registry
   order.  Each machine runs its own sharded ingest + alert evaluation on
   its own executor (``serial`` or ``process``, chosen when the machine
   is built or restored), so a machine's shards run in parallel whatever
   the federation does.  The federation owns no pool of its own.
2. Per-machine products merge into federated equivalents:
   :class:`FederatedSnapshot` (per-machine and fleet-wide ``max_drift``),
   :class:`FederatedSpectrum` (``total_power_by_shard`` keyed
   ``machine/shard``) and fleet z-score maps.
3. Alerts route through a shared
   :class:`~repro.federation.routing.AlertRouter`: machine-stamped,
   federation-level cooldown/dedup, global + per-machine sinks, and
   fleet-wide rules (:class:`~repro.federation.routing.FleetWideRule`)
   that no single machine can express.

Machines on the ``serial`` and ``process`` shard executors produce
bit-for-bit identical federated products (asserted by the tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..align.zscore_map import NodeZScores
from ..hwlog.events import HardwareLog
from ..obs import OBS
from ..obs.flight import FLIGHT
from ..obs.health import HealthScore, aggregate, percentile, score_shard
from ..util.growbuf import RingBuffer
from ..service.alerts import Alert
from ..service.monitor import (
    FleetMonitor,
    FleetSnapshot,
    FleetSpectrum,
    _grouped_power,
)
from ..util.timer import now
from .chunklog import ChunkLog
from .registry import MachineRegistry
from .routing import AlertRouter, FederatedAlertContext

__all__ = ["FederatedMonitor", "FederatedSnapshot", "FederatedSpectrum"]


@dataclass
class FederatedSnapshot:
    """Merged diagnostics for one federated ingest round."""

    step: int
    n_machines: int
    machine_snapshots: dict[str, FleetSnapshot]
    #: Per-machine health plus a ``"federation"`` aggregate.  Derived from
    #: wall-clock round latency, so it is comparison-exempt: federated
    #: snapshot equality (restart and parity tests) must stay a statement
    #: about the model state only.
    health: dict[str, "HealthScore"] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def total_modes(self) -> int:
        return sum(snap.total_modes for snap in self.machine_snapshots.values())

    @property
    def drift_by_machine(self) -> dict[str, float]:
        """Largest per-shard drift per machine this round."""
        return {
            machine: snap.max_drift
            for machine, snap in self.machine_snapshots.items()
        }

    @property
    def max_drift(self) -> float:
        """Largest drift across the whole federation this round."""
        return max(self.drift_by_machine.values(), default=0.0)

    @property
    def degraded_shards(self) -> dict[str, tuple[str, ...]]:
        """Quarantined shards per machine (machines with none are omitted).

        A supervised machine (see
        :class:`~repro.resilience.ResiliencePolicy`) keeps answering
        rounds after quarantining a failing shard; this surfaces that
        degradation at the federation level so operators see which
        machines are running on reduced coverage.
        """
        return {
            machine: snap.degraded_shards
            for machine, snap in self.machine_snapshots.items()
            if snap.degraded_shards
        }


@dataclass
class FederatedSpectrum:
    """Fleet-level power/frequency table merged across machines and shards.

    The same scalar-column merge as
    :class:`~repro.service.monitor.FleetSpectrum`, with one more origin
    column: every mode carries both the shard and the machine it came
    from, and shard-keyed aggregates use ``machine/shard`` keys so shards
    with the same local name on different machines stay distinct.
    """

    frequencies: np.ndarray
    power: np.ndarray
    levels: np.ndarray
    shard_ids: np.ndarray  # object array, one local shard id per mode
    machine_ids: np.ndarray  # object array, one machine name per mode

    @property
    def n_modes(self) -> int:
        return int(self.frequencies.size)

    def dominant_frequency(self) -> float:
        """Frequency (Hz) of the highest-power mode federation-wide."""
        if self.n_modes == 0:
            return float("nan")
        return float(self.frequencies[int(np.argmax(self.power))])

    def total_power_by_shard(self) -> dict[str, float]:
        """Summed mode power keyed ``machine/shard``."""
        keys = [f"{m}/{s}" for m, s in zip(self.machine_ids, self.shard_ids)]
        return _grouped_power(self.power, keys)

    def total_power_by_machine(self) -> dict[str, float]:
        """Summed mode power per machine (coarse site fingerprint)."""
        return _grouped_power(self.power, self.machine_ids)


def _clamped_node_zscores(
    monitor: FleetMonitor, time_range, reducer: str
) -> NodeZScores | None:
    """One machine's node z-scores over ``time_range`` clamped to its own
    timeline; ``None`` when the machine has no data in the window."""
    if time_range is not None:
        # Machines advance at their own pace (staggered rounds, joiners):
        # clamp the fleet-level window to this machine's timeline and skip
        # machines with nothing in it.
        lo, hi = time_range
        hi = min(int(hi), monitor.step)
        lo = max(0, min(int(lo), hi))
        if hi <= lo:
            return None
        time_range = (lo, hi)
    return monitor.node_zscores(time_range=time_range, reducer=reducer)


class FederatedMonitor:
    """One ingest/alert/query surface over every registered machine.

    Parameters
    ----------
    registry:
        A :class:`MachineRegistry` (or a plain ``name -> FleetMonitor``
        mapping, wrapped into one).  Membership may change between rounds;
        every call reads the registry as it stands.  Each machine runs its
        shards on its own executor, configured when it was built.
    router:
        The shared :class:`AlertRouter` (default: one with no sinks and a
        default :class:`FleetWideRule`).  Pass ``router=None`` explicitly
        configured instances to attach sinks and fleet rules.
    chunk_log:
        Optional shared :class:`~repro.federation.chunklog.ChunkLog`.
        When set, every round's chunks are recorded, enabling
        :meth:`catch_up` — a machine restored from an older checkpoint
        (or registered mid-run) replays the logged tail before rejoining
        alert evaluation.
    """

    def __init__(
        self,
        registry: MachineRegistry | Mapping[str, FleetMonitor],
        *,
        router: AlertRouter | None = None,
        chunk_log: ChunkLog | None = None,
    ) -> None:
        if not isinstance(registry, MachineRegistry):
            registry = MachineRegistry(registry)
        if len(registry) == 0:
            raise ValueError("FederatedMonitor needs at least one registered machine")
        self.registry = registry
        self.chunk_log = chunk_log
        self.router = router if router is not None else AlertRouter()
        self._step = max(
            (monitor.step for monitor in registry.monitors().values()), default=0
        )
        #: Always-on per-machine round-latency samples feeding the health
        #: score (bounded; never part of compared state semantics).
        self._round_latency: dict[str, RingBuffer] = {}
        self._last_health: dict[str, HealthScore] | None = None
        #: Lazily created background writer for mode="async" federated
        #: saves; flush_checkpoints() is the durability/error barrier.
        self._checkpoint_writer = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_machines(self) -> int:
        return len(self.registry)

    @property
    def machine_names(self) -> tuple[str, ...]:
        return self.registry.names

    @property
    def step(self) -> int:
        """Federated timeline position (max machine step seen so far)."""
        return self._step

    @property
    def machines(self) -> dict[str, FleetMonitor]:
        """Name -> the registered (live) monitor."""
        return self.registry.monitors()

    def machine(self, name: str) -> FleetMonitor:
        """One machine's live monitor."""
        return self.registry.get(name)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def collect_metrics(self):
        """Merge every machine's process-worker metric registries into the
        session provider and return its registry (drain-with-reset: repeat
        calls never double-count)."""
        for monitor in self.registry.monitors().values():
            monitor.collect_metrics()
        return OBS.metrics

    def _ensure_checkpoint_writer(self):
        """The federation's background checkpoint writer (created lazily)."""
        if self._checkpoint_writer is None or self._checkpoint_writer.closed:
            from ..io.delta import AsyncCheckpointWriter

            self._checkpoint_writer = AsyncCheckpointWriter(
                name="federated-checkpoint-writer"
            )
        return self._checkpoint_writer

    def flush_checkpoints(self) -> None:
        """Barrier: wait for pending asynchronous federated checkpoint
        commits, re-raising the first deferred write error.  No-op when no
        async save ever ran."""
        if self._checkpoint_writer is not None:
            self._checkpoint_writer.flush()

    def close(self) -> None:
        """Drain the background checkpoint writer, surfacing any deferred
        write error.  Idempotent.

        Machine monitors stay open (the registry owns them and their
        executors); close those via ``registry.close()``.
        """
        writer, self._checkpoint_writer = self._checkpoint_writer, None
        if writer is not None:
            writer.close(flush=True)

    def __enter__(self) -> "FederatedMonitor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def _validated_chunks(
        self, chunks: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Validate a round's chunks; rounds may be *partial*.

        Every chunk must belong to a registered machine, but machines may
        skip rounds (staggered sites, a machine catching up after a
        restore) — absent machines simply do not advance this round.
        """
        names = set(self.registry.names)
        unknown = sorted(set(chunks) - names)
        if unknown:
            raise ValueError(f"chunks reference unknown machines {unknown}")
        if not chunks:
            raise ValueError("a federated round needs at least one machine's chunk")
        # Registry order, not caller order: deterministic fan-out/merge.
        return {name: chunks[name] for name in self.registry.names if name in chunks}

    def _finish_round(
        self, snapshots: dict[str, FleetSnapshot]
    ) -> FederatedSnapshot:
        self._step = max(
            self._step, max(snap.step for snap in snapshots.values())
        )
        snapshot = FederatedSnapshot(
            step=self._step,
            n_machines=len(snapshots),
            machine_snapshots=snapshots,
        )
        snapshot.health = self._compute_health(snapshots)
        if OBS.enabled:
            # Deterministic degradation accounting (membership only):
            # quarantined shard count across the round's machines.
            OBS.gauge(
                "federation.degraded_shards",
                float(sum(len(v) for v in snapshot.degraded_shards.values())),
            )
            for entity, score in snapshot.health.items():
                if entity == "federation":
                    OBS.gauge("federation.health.score", score.score)
                else:
                    OBS.gauge(
                        "federation.health.score", score.score, machine=entity
                    )
        return snapshot

    def _note_round_latency(self, name: str, seconds: float) -> None:
        """Record one machine's slice of a round (always on: feeds health
        and the flight recorder even when the obs provider is off)."""
        ring = self._round_latency.get(name)
        if ring is None:
            ring = self._round_latency[name] = RingBuffer(64)
        ring.append(float(seconds))
        FLIGHT.record_delta(
            "federation.machine_round.seconds",
            seconds,
            scope=f"machine:{name}",
            machine=name,
        )

    def _compute_health(
        self, snapshots: dict[str, FleetSnapshot]
    ) -> dict[str, HealthScore]:
        """Per-machine health plus a ``"federation"`` aggregate.

        A machine that scored itself this round (its
        :class:`FleetSnapshot` carries a ``health["fleet"]`` aggregate —
        quarantine roster, shard latency vs. its own resilience budget,
        deep-level staleness) contributes that score directly; machines
        whose snapshots predate health scoring are scored here from the
        federation-side round latency alone (no budget → latency-neutral).
        """
        per_machine: dict[str, HealthScore] = {}
        for name, snap in snapshots.items():
            fleet_score = None
            if getattr(snap, "health", None):
                fleet_score = snap.health.get("fleet")
            if fleet_score is not None:
                per_machine[name] = fleet_score
                continue
            ring = self._round_latency.get(name)
            samples = ring.items() if ring is not None else []
            per_machine[name] = score_shard(
                p95_seconds=percentile(samples, 0.95) if samples else None,
                budget_seconds=None,
            )
        health = dict(per_machine)
        health["federation"] = aggregate(per_machine.values())
        self._last_health = health
        return health

    @property
    def health(self) -> dict[str, HealthScore] | None:
        """Most recent per-machine (plus ``"federation"``) health scores,
        or ``None`` before the first round."""
        return self._last_health

    def _log_chunk(self, name: str, chunk: np.ndarray, step: int) -> None:
        """Record one machine's ingested chunk, ending at ``step``."""
        if self.chunk_log is not None:
            chunk = np.asarray(chunk)
            self.chunk_log.record(name, step - chunk.shape[1], chunk)

    def _record_round_metrics(self, chunks: Mapping[str, np.ndarray]) -> None:
        """Deterministic round accounting (membership only, no timings)."""
        OBS.inc("federation.rounds")
        if len(chunks) < len(self.registry.names):
            OBS.inc("federation.partial_rounds")
        OBS.gauge("federation.round_machines", float(len(chunks)))

    def ingest(self, chunks: Mapping[str, np.ndarray]) -> FederatedSnapshot:
        """Feed one ``(P_m, T)`` block per participating machine; no alerts.

        Each machine ingests its chunk on its own shard executor;
        per-machine :class:`FleetSnapshot` products merge into one
        :class:`FederatedSnapshot`.  Rounds may be partial: machines
        absent from ``chunks`` skip the round and keep their position.
        The round is the one :meth:`ingest_and_alert` runs, minus alerts.
        """
        snapshot, _ = self._run_round(chunks, alerting=False)
        return snapshot

    def ingest_and_alert(
        self,
        chunks: Mapping[str, np.ndarray],
        *,
        hwlogs: Mapping[str, HardwareLog] | None = None,
        window: int = 200,
    ) -> tuple[FederatedSnapshot, list[Alert]]:
        """Ingest one chunk per machine and route the round's alerts.

        Each machine runs its own overlapped
        :meth:`~repro.service.monitor.FleetMonitor.ingest_and_alert`
        (per-machine rules, per-machine cooldown) on its own executor;
        the per-machine alert streams then pass through the shared
        :class:`AlertRouter` — machine-stamped, federation-deduped,
        delivered to global/per-machine sinks — and the fleet-wide rules
        run against the merged picture.  Rounds may be partial (machines
        may skip); fleet rules still see the full registered membership,
        so skipping a round neither drops a machine's drift memory nor
        counts it as drifting.  Returns the federated snapshot and the
        routed alerts, in delivery order.
        """
        return self._run_round(chunks, alerting=True, hwlogs=hwlogs, window=window)

    def _run_round(
        self,
        chunks: Mapping[str, np.ndarray],
        *,
        alerting: bool,
        hwlogs: Mapping[str, HardwareLog] | None = None,
        window: int = 200,
    ) -> tuple[FederatedSnapshot, list[Alert]]:
        """One federated round: run each machine's round in registry
        order, merge, and (``alerting``) route the machines' alerts.
        Plain rounds return no alerts."""
        chunks = self._validated_chunks(chunks)
        hwlogs = dict(hwlogs) if hwlogs else {}
        unknown_logs = sorted(set(hwlogs) - set(self.registry.names))
        if unknown_logs:
            raise ValueError(f"hwlogs reference unknown machines {unknown_logs}")
        with OBS.span("federation.round", n_machines=len(chunks)):
            results = {}
            for name, chunk in chunks.items():
                monitor = self.registry.get(name)
                started = now()
                if alerting:
                    results[name] = monitor.ingest_and_alert(
                        chunk, hwlog=hwlogs.get(name), window=window
                    )
                else:
                    results[name] = monitor.ingest(chunk), []
                # Logged as soon as the machine has it: a later machine
                # that raises must not leave a gap in this one's log.
                self._log_chunk(name, chunk, results[name][0].step)
                elapsed = now() - started
                self._note_round_latency(name, elapsed)
                if OBS.enabled:
                    OBS.observe(
                        "federation.machine_round.seconds", elapsed, machine=name
                    )
        snapshots = {name: results[name][0] for name in results}
        if OBS.enabled:
            self._record_round_metrics(chunks)
        snapshot = self._finish_round(snapshots)
        if not alerting:
            return snapshot, []
        context = FederatedAlertContext(
            step=self._step,
            updates={
                name: {
                    shard_id: shard_snap.update
                    for shard_id, shard_snap in fleet_snap.shard_snapshots.items()
                }
                for name, fleet_snap in snapshot.machine_snapshots.items()
            },
            window=window,
            machines=self.registry.names,
        )
        routed = self.router.route(
            {name: results[name][1] for name in results}, context
        )
        for alert in routed:
            FLIGHT.record_alert(alert)
        return snapshot, routed

    # ------------------------------------------------------------------ #
    # Elastic topology: new sensors / shards inside a member machine
    # ------------------------------------------------------------------ #
    def add_sensors(
        self,
        name: str,
        sensor_names,
        node_of_row,
        *,
        history: np.ndarray | None = None,
        policy=None,
        machine=None,
    ):
        """Stream new sensors into one member machine's live monitor.

        Calls :meth:`FleetMonitor.add_sensors` on the machine (its worker
        pool keeps running); existing shards absorb their rows, new shards
        join the machine's executor, and the machine's next chunks must
        carry its grown row count.  Returns the machine's
        :class:`~repro.service.monitor.TopologyUpdate`.
        """
        return self.registry.get(name).add_sensors(
            sensor_names, node_of_row, history=history, policy=policy, machine=machine
        )

    # ------------------------------------------------------------------ #
    # Elastic membership: mid-run registration and stale-restore catch-up
    # ------------------------------------------------------------------ #
    def register_machine(
        self, name: str, monitor: FleetMonitor, *, catch_up: bool = True
    ) -> int:
        """Register a machine mid-run; it joins the next round.

        With a chunk log configured the newcomer is caught up on any
        chunks already logged under its name (normally none for a truly
        new machine).  Returns the number of chunks replayed.
        """
        self.registry.register(name, monitor)
        if catch_up and self.chunk_log is not None:
            return self.catch_up(name)
        return 0

    def deregister_machine(self, name: str) -> FleetMonitor:
        """Deregister a machine and drop its chunk-log history."""
        monitor = self.registry.deregister(name)
        if self.chunk_log is not None:
            self.chunk_log.forget(name)
        return monitor

    def reattach_machine(
        self, name: str, monitor: FleetMonitor, *, catch_up: bool = True
    ) -> int:
        """Swap in a restored monitor for ``name`` and catch it up.

        This is the stale-restore flow: a machine that crashed is rebuilt
        from its newest (possibly older) retained checkpoint, reattached
        here, and — before it rejoins alert evaluation — replays every
        chunk the shared log recorded past its restored position, so its
        next round ingests from the live stream edge.  Returns the number
        of chunks replayed.
        """
        if name in self.registry:
            self.registry.deregister(name)
        self.registry.register(name, monitor)
        if catch_up and self.chunk_log is not None:
            return self.catch_up(name)
        return 0

    def catch_up(self, name: str) -> int:
        """Replay logged chunks into a lagging machine (no alert evaluation).

        Replays straight into the registry's monitor.  Alert engines are
        deliberately not consulted during replay: the federation already
        routed (and deduplicated) this history when it happened live.
        """
        if self.chunk_log is None:
            raise RuntimeError("catch_up requires a chunk_log on the federation")
        monitor = self.registry.get(name)
        replayed = 0
        for entry in self.chunk_log.entries_since(name, monitor.step):
            values = entry.values
            if entry.start < monitor.step:
                # Partially covered entry (restore mid-chunk): replay only
                # the unseen tail.
                values = values[:, monitor.step - entry.start :]
            if values.shape[1] == 0:
                continue
            monitor.ingest(values)
            replayed += 1
        if OBS.enabled and replayed:
            OBS.inc(
                "federation.catchup.replayed_chunks", replayed, machine=name
            )
        return replayed

    def refresh_deep_levels(self) -> int:
        """Force every machine's queued deep-level work through.

        Calls :meth:`FleetMonitor.refresh_deep_levels` on every machine
        (no-op per machine under ``deep_levels="inline"``);
        returns the total number of tree nodes added fleet-wide.  Call at
        a quiescent point — after the last round, before final federated
        products — when machines ran with ``deep_levels="deferred"``.
        """
        return sum(
            monitor.refresh_deep_levels()
            for monitor in self.registry.monitors().values()
        )

    # ------------------------------------------------------------------ #
    # Federated analysis products
    # ------------------------------------------------------------------ #
    def node_zscores(
        self,
        *,
        time_range: tuple[int, int] | None = None,
        reducer: str = "mean",
    ) -> dict[str, NodeZScores]:
        """Per-machine fleet-merged node z-scores, keyed by machine name.

        Node indices are machine-local (two machines both have a node 0),
        so scores stay keyed per machine; :meth:`zscore_map` flattens them
        under ``machine/node`` keys when one global map is wanted.
        Machines whose own timeline has no data in ``time_range``
        (staggered joiners lagging the fleet edge) are omitted.
        """
        results = {
            name: _clamped_node_zscores(monitor, time_range, reducer)
            for name, monitor in self.registry.monitors().items()
        }
        return {name: scores for name, scores in results.items() if scores is not None}

    def rack_values(
        self,
        *,
        time_range: tuple[int, int] | None = None,
        reducer: str = "mean",
    ) -> dict[str, dict[int, float]]:
        """``machine -> {node: zscore}`` — one rack view per machine."""
        return {
            name: scores.as_dict()
            for name, scores in self.node_zscores(
                time_range=time_range, reducer=reducer
            ).items()
        }

    def zscore_map(
        self,
        *,
        time_range: tuple[int, int] | None = None,
        reducer: str = "mean",
    ) -> dict[str, float]:
        """One flat federated z-score map keyed ``machine/node``."""
        out: dict[str, float] = {}
        for name, values in self.rack_values(
            time_range=time_range, reducer=reducer
        ).items():
            for node, z in values.items():
                out[f"{name}/{node}"] = z
        return out

    def fleet_spectrum(self) -> FederatedSpectrum:
        """Merged power/frequency table across every machine and shard."""
        freqs, power, levels, shard_ids, machine_ids = [], [], [], [], []
        for name, monitor in self.registry.monitors().items():
            spectrum = monitor.fleet_spectrum()
            freqs.append(spectrum.frequencies)
            power.append(spectrum.power)
            levels.append(spectrum.levels)
            shard_ids.append(spectrum.shard_ids)
            machine_ids.append(np.full(spectrum.n_modes, name, dtype=object))
        return FederatedSpectrum(
            frequencies=np.concatenate(freqs) if freqs else np.zeros(0),
            power=np.concatenate(power) if power else np.zeros(0),
            levels=np.concatenate(levels) if levels else np.zeros(0, dtype=int),
            shard_ids=(
                np.concatenate(shard_ids) if shard_ids else np.zeros(0, dtype=object)
            ),
            machine_ids=(
                np.concatenate(machine_ids)
                if machine_ids
                else np.zeros(0, dtype=object)
            ),
        )

    def machine_steps(self) -> dict[str, int]:
        """Per-machine stream positions."""
        return {name: monitor.step for name, monitor in self.registry.monitors().items()}
