"""The fleet monitor: sharded online pipelines over one machine's telemetry.

This is the operable form of the paper's "online analytical system": instead
of one in-process :class:`~repro.pipeline.online.OnlineAnalysisPipeline`
over the whole sensor matrix, a :class:`FleetMonitor`

1. partitions the matrix rows into shards via a pluggable
   :class:`~repro.service.sharding.ShardingPolicy` (by rack, by metric
   group, ...);
2. runs one independent I-mrDMD pipeline per shard on a **persistent**
   :class:`~repro.util.parallel.ShardExecutor` (serial by default; process
   workers on request).  Workers are created once and own their
   shard pipelines resident, so an ingest ships only ``(shard_id, chunk)``
   and queries ship small commands back — each shard's decomposition is
   embarrassingly parallel, exactly the structure the paper notes, without
   re-pickling the full pipeline state every chunk;
3. merges per-shard products (node z-scores, rack values, spectra) back
   into fleet-level ones;
4. feeds an optional :class:`~repro.service.alerts.AlertEngine` after each
   ingest — :meth:`ingest_and_alert` overlaps the per-shard scoring needed
   by the rules with the other shards' updates.

Both executor backends produce bit-for-bit identical products (asserted by
the tests).  The monitor is fully serialisable (see
:mod:`repro.service.checkpoint`): a restarted monitor resumes mid-stream
with bit-for-bit identical products.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..align.zscore_map import NodeZScores, reduce_by_node
from ..core.baseline import classify_zscores
from ..core.imrdmd import TopologyChange
from ..core.spectrum import MrDMDSpectrum
from ..hwlog.events import HardwareLog
from ..obs import OBS
from ..obs.flight import FLIGHT
from ..obs.health import HealthScore, aggregate, percentile, score_shard
from ..pipeline.config import PipelineConfig
from ..pipeline.online import OnlineAnalysisPipeline, PipelineSnapshot
from ..resilience.faults import FaultPlan, PoisonChunkError
from ..resilience.policy import ResiliencePolicy
from ..resilience.recovery import ShardRecoveryStore
from ..telemetry.generator import TelemetryStream
from ..telemetry.machine import MachineDescription
from ..util.growbuf import RingBuffer
from ..util.parallel import (
    ShardExecutor,
    ShardTaskError,
    ShardTimeoutError,
    make_shard_executor,
    validate_executor_spec,
)
from ..util.timer import now
from .alerts import Alert, AlertContext, AlertEngine
from .sharding import ShardSpec, ShardingPolicy, SingleShard, validate_partition

__all__ = [
    "FleetMonitor",
    "FleetSnapshot",
    "FleetSpectrum",
    "IngestStats",
    "TopologyUpdate",
]


@dataclass
class IngestStats:
    """Row accounting for one ingested chunk.

    Under ``missing_rows="nan"`` a short chunk is padded with NaN rows up
    to the partition's row count before routing; this records how many
    rows the fleet *actually* received and how they landed per shard —
    the observable a padded chunk otherwise erases.  The counts are pure
    functions of the chunk shape and the partition (no timings), so
    snapshots stay bit-for-bit identical across executor backends.
    """

    rows_received: int
    rows_padded: int
    chunk_columns: int
    rows_received_by_shard: dict[str, int]

    @property
    def entries_received(self) -> int:
        """Sensor readings in the chunk: received rows × columns."""
        return self.rows_received * self.chunk_columns


@dataclass
class FleetSnapshot:
    """Merged diagnostics for one :meth:`FleetMonitor.ingest` call."""

    step: int
    chunk_size: int
    n_shards: int
    total_modes: int
    shard_snapshots: dict[str, PipelineSnapshot]
    ingest_stats: IngestStats | None = None
    #: Shards quarantined by the supervisor at the time of this snapshot:
    #: they contributed nothing to this round (absent from
    #: ``shard_snapshots`` and every merged product) — the fleet answers
    #: with visible degradation instead of crashing.
    degraded_shards: tuple[str, ...] = ()
    #: Derived health per shard plus a ``"fleet"`` aggregate (see
    #: :mod:`repro.obs.health`).  ``compare=False``: health folds in
    #: wall-clock latency, which must never break the bit-for-bit snapshot
    #: parity the backend/restart tests assert.
    health: dict[str, "HealthScore"] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def deep_pending(self) -> int:
        """Queued deep-level refresh entries across the fleet (0 when the
        pipelines run ``deep_levels="inline"``)."""
        return sum(snap.deep_pending for snap in self.shard_snapshots.values())

    @property
    def deep_stale_snapshots(self) -> int:
        """Worst-case deep-level staleness: snapshots ingested since the
        oldest un-refreshed chunk of any shard (0 = fully fresh)."""
        return max(
            (snap.deep_stale_snapshots for snap in self.shard_snapshots.values()),
            default=0,
        )

    @property
    def max_drift(self) -> float:
        """Largest level-1 drift across shards this update (0 on initial fit)."""
        drifts = [
            snap.update.drift
            for snap in self.shard_snapshots.values()
            if snap.update is not None
        ]
        return max(drifts, default=0.0)


@dataclass
class TopologyUpdate:
    """What one :meth:`FleetMonitor.add_sensors` event did, fleet-wide.

    Attributes
    ----------
    step:
        Fleet step at which the sensors joined.
    n_new_rows:
        Total new matrix rows.
    extended:
        ``shard_id -> TopologyChange`` for shards that absorbed new rows
        into their live decomposition.  The value is ``None`` when the
        shard had no decomposition yet (minted earlier at this same fleet
        step, no chunk since): the rows joined its pending row map and
        there was no model event to record.
    minted:
        Ids of brand-new shards created for rows no existing shard could
        take, in partition order.  Their pipelines do their initial fit on
        the next ingested chunk (shard-local step 0 = fleet step of the
        event), unless back-filled history seeded them at the event.
    """

    step: int
    n_new_rows: int
    extended: dict[str, TopologyChange | None] = field(default_factory=dict)
    minted: tuple[str, ...] = ()


def _grouped_power(power: np.ndarray, keys: np.ndarray) -> dict[str, float]:
    """Summed ``power`` per distinct key (as ``str``, in sorted order).

    One masked ``.sum()`` per key (NumPy's pairwise summation, not a
    running accumulator), so a federated aggregate is bit-for-bit the
    standalone per-machine one.
    """
    keys = np.asarray(keys).astype(str)
    return {str(key): float(power[keys == key].sum()) for key in np.unique(keys)}


@dataclass
class FleetSpectrum:
    """Fleet-level power/frequency table merged across shards.

    The frequency, power and level columns of every shard's
    :class:`MrDMDSpectrum` (see :meth:`FleetMonitor.spectra`), plus the
    shard each mode came from.
    """

    frequencies: np.ndarray
    power: np.ndarray
    levels: np.ndarray
    shard_ids: np.ndarray  # object array, one shard id per mode

    @property
    def n_modes(self) -> int:
        return int(self.frequencies.size)

    def dominant_frequency(self) -> float:
        """Frequency (Hz) of the highest-power mode fleet-wide (NaN if empty)."""
        if self.n_modes == 0:
            return float("nan")
        return float(self.frequencies[int(np.argmax(self.power))])

    def total_power_by_shard(self) -> dict[str, float]:
        """Summed mode power per shard (coarse health fingerprint)."""
        return _grouped_power(self.power, self.shard_ids)


# --------------------------------------------------------------------------- #
# Shard commands.  Top-level functions so the process backend can pickle
# them by reference; each is called as fn(resident_pipeline, *args) inside
# the worker and only its (small) result travels back.
# --------------------------------------------------------------------------- #
def _shard_ingest(
    pipeline: OnlineAnalysisPipeline, chunk: np.ndarray, fault=None
) -> PipelineSnapshot:
    """Ingest one chunk.  An injected ``fault`` (chaos testing only)
    executes first, before the pipeline is touched, so a retried task
    always starts from unmutated shard state."""
    if fault is not None:
        fault.execute()
    return pipeline.ingest(chunk)


def _shard_node_zscores(
    pipeline: OnlineAnalysisPipeline, time_range, reducer: str
) -> NodeZScores | None:
    # A shard minted by a topology event has no decomposition until its
    # first chunk arrives; it scores as "no data" rather than crashing.
    if not pipeline.model.fitted:
        return None
    return pipeline.node_zscores(time_range=time_range, reducer=reducer)


def _shard_spectrum(
    pipeline: OnlineAnalysisPipeline, label: str
) -> MrDMDSpectrum | None:
    if not pipeline.model.fitted:
        return None
    return pipeline.spectrum(label=label)


def _shard_add_sensors(
    pipeline: OnlineAnalysisPipeline, node_of_row, history
) -> TopologyChange | None:
    if not pipeline.model.fitted:
        # Shard minted earlier at this same step, no chunk yet: the rows
        # simply join the pending row map; the initial fit sizes itself
        # from the first chunk.  No decomposition event to record.
        if pipeline.node_of_row is not None:
            pipeline.node_of_row = np.concatenate(
                [pipeline.node_of_row, np.asarray(node_of_row, dtype=int)]
            )
        return None
    return pipeline.add_sensors(node_of_row=node_of_row, history=history)


def _shard_fit_baseline(pipeline: OnlineAnalysisPipeline, kwargs: dict) -> None:
    pipeline.fit_baseline(**kwargs)


def _shard_refresh_deep(pipeline: OnlineAnalysisPipeline) -> int:
    """Drain a shard's queued deep-level work off the ingest path."""
    if not pipeline.model.fitted:
        return 0
    return pipeline.refresh_deep_levels()


def _shard_deep_staleness(pipeline: OnlineAnalysisPipeline) -> tuple[int, int]:
    """``(pending refresh entries, stale snapshot age)`` for one shard."""
    if not pipeline.model.fitted:
        return (0, 0)
    return (pipeline.model.deep_pending, pipeline.model.deep_stale_snapshots)


def _shard_state_dict(pipeline: OnlineAnalysisPipeline) -> dict:
    return pipeline.state_dict()


def _shard_state_stamp(pipeline: OnlineAnalysisPipeline) -> tuple:
    return pipeline.state_stamp()


def _shard_last_update(pipeline: OnlineAnalysisPipeline):
    history = pipeline.model.history if pipeline.model.fitted else []
    return history[-1] if history else None


def _shard_total_modes(pipeline: OnlineAnalysisPipeline) -> int:
    return pipeline.model.tree.total_modes if pipeline.model.fitted else 0


def _return_pipeline(pipeline: OnlineAnalysisPipeline) -> OnlineAnalysisPipeline:
    return pipeline


def _serial_executor(pipelines: dict[str, OnlineAnalysisPipeline]) -> ShardExecutor:
    """A started serial executor holding ``pipelines``."""
    executor = make_shard_executor("serial")
    executor.start(pipelines)
    return executor


class FleetMonitor:
    """Sharded online monitoring of one machine's sensor matrix.

    Parameters
    ----------
    dt:
        Sampling interval of incoming snapshots (seconds).
    shards:
        The row partition (see :mod:`repro.service.sharding`); validated
        against ``n_rows`` when given.
    config:
        Shared :class:`~repro.pipeline.config.PipelineConfig` for every
        shard pipeline.
    alert_engine:
        Optional engine consulted by :meth:`evaluate_alerts`.
    n_rows:
        Total row count of the full matrix (enables partition validation
        up front; otherwise the first ingest validates implicitly).
    executor:
        Shard fan-out backend: ``None``/``"serial"`` (default),
        ``"process"``, or a fresh
        :class:`~repro.util.parallel.ShardExecutor` instance; checked
        here.  The monitor always holds one started executor and the
        shard pipelines live only there: a serial one over the fresh
        pipelines until the first ingest round, which moves them onto
        this backend and **holds it open across ingests** — close it with
        :meth:`close` or by using the monitor as a context manager
        (``with FleetMonitor(...) as mon:``).  Reads before the first
        round spawn no workers.
    max_workers:
        Worker count for the process backend (default: one per shard,
        capped at the CPU count).
    missing_rows:
        What to do when an ingested matrix has *fewer* rows than the shard
        partition covers: ``"raise"`` (default — the mirror of the
        check that rejects a matrix with *more* rows) or ``"nan"``
        (pad the absent trailing rows with NaN — sensors registered in the
        topology but not yet reporting contribute nothing; requires a
        pipeline config with ``missing_values="zero"`` so the shard models
        accept the fill).
    policy / machine:
        The sharding policy and machine description the partition came
        from (recorded by :meth:`from_stream`); :meth:`add_sensors` uses
        them to route new rows onto the live partition.
    resilience:
        Optional :class:`~repro.resilience.ResiliencePolicy` turning the
        monitor into a *supervisor*: every ingest round (:meth:`ingest` and
        :meth:`ingest_and_alert` alike) gains
        per-task deadlines, capped-exponential retries with deterministic
        jitter, crash/hang detection with worker respawn and exact shard
        rehydration (snapshot + chunk-tail replay), and quarantine for
        shards that exhaust their retry budget.  ``None`` (default) keeps
        the pre-supervision behaviour bit-for-bit.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` of injected faults
        for chaos testing; requires ``resilience``.
    """

    def __init__(
        self,
        dt: float,
        shards: list[ShardSpec],
        config: PipelineConfig | None = None,
        *,
        alert_engine: AlertEngine | None = None,
        n_rows: int | None = None,
        executor: str | ShardExecutor | None = None,
        max_workers: int | None = None,
        missing_rows: str = "raise",
        policy: ShardingPolicy | None = None,
        machine: MachineDescription | None = None,
        resilience: ResiliencePolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if not shards:
            raise ValueError("FleetMonitor needs at least one shard")
        if n_rows is not None:
            validate_partition(shards, n_rows)
        validate_executor_spec(executor, max_workers)
        if missing_rows not in ("raise", "nan"):
            raise ValueError(
                f"missing_rows must be 'raise' or 'nan', got {missing_rows!r}"
            )
        self.dt = float(dt)
        self.config = config or PipelineConfig()
        if missing_rows == "nan" and self.config.missing_values != "zero":
            raise ValueError(
                "missing_rows='nan' pads absent rows with NaN, which the shard "
                "models must accept: use a PipelineConfig with "
                "missing_values='zero'"
            )
        if fault_plan is not None and resilience is None:
            raise ValueError(
                "fault_plan requires a resilience policy — the supervisor "
                "is what detects and recovers the injected faults; pass "
                "resilience=ResiliencePolicy(...)"
            )
        self.shards = list(shards)
        self.alert_engine = alert_engine
        self.missing_rows = missing_rows
        self.policy = policy
        self.machine = machine
        self.resilience = resilience
        self.fault_plan = fault_plan
        self._quarantined: dict[str, dict] = {}
        self._recovery = ShardRecoveryStore(
            resilience.snapshot_every if resilience is not None else 8
        )
        # Completed ingest rounds (plain or supervised); round N+1's fault
        # coordinates are (shard, _chunk_index + 1, attempt).
        self._chunk_index = 0
        # Delta-checkpoint dirty tracking: per shard, the block its last
        # checkpoint capture recorded (state stamp + content digest, see
        # repro.service.checkpoint).  Purely an optimisation cache — a
        # miss (fresh monitor, block absent from the target store)
        # re-serialises, never skips.
        self._checkpoint_blocks: dict[str, object] = {}
        # Lazily created background writer for mode="async" saves; owns a
        # thread, so it never pickles and is flushed/closed with the
        # monitor (flush_checkpoints() is the error barrier).
        self._checkpoint_writer = None
        pipelines = {spec.shard_id: self._make_pipeline(spec) for spec in self.shards}
        if len(pipelines) != len(self.shards):
            raise ValueError("shard ids must be unique")
        # The backend the first round moves the pipelines onto; None once
        # they are there (or when the serial executor is the target).
        self._executor_spec: str | ShardExecutor | None = (
            None if executor in (None, "serial") else executor
        )
        self._max_workers = max_workers
        self._executor = _serial_executor(pipelines)
        self._step = 0
        # Deferred deep-level bookkeeping: in-flight background refresh
        # task handles and per-shard chunk counters driving the
        # deep_refresh_every schedule.  Both are empty under
        # deep_levels="inline".
        self._refresh_tasks: list = []
        self._chunks_since_refresh: dict[str, int] = {}
        # Always-on latency rings feeding the derived health score: fleet
        # chunk latency plus (under supervision) per-shard round latency.
        # Bounded, timestamps-only, never serialised into checkpoints.
        self._chunk_latency = RingBuffer(64)
        self._shard_latency: dict[str, RingBuffer] = {}
        self._last_health: dict[str, HealthScore] | None = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_stream(
        cls,
        stream: TelemetryStream,
        policy: ShardingPolicy | None = None,
        config: PipelineConfig | None = None,
        *,
        alert_engine: AlertEngine | None = None,
        executor: str | ShardExecutor | None = None,
        max_workers: int | None = None,
        missing_rows: str = "raise",
        resilience: ResiliencePolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> "FleetMonitor":
        """Build a monitor for a telemetry stream's row layout.

        ``policy`` defaults to :class:`~repro.service.sharding.SingleShard`
        (the pre-service behaviour).  Only the stream's *metadata* is used;
        feed the actual values through :meth:`ingest`.  The policy and the
        stream's machine description are kept so
        :meth:`add_sensors` can repartition when the topology grows.
        """
        policy = policy or SingleShard()
        shards = policy.partition_stream(stream)
        validate_partition(shards, stream.n_rows)
        return cls(
            dt=stream.dt,
            shards=shards,
            config=config,
            alert_engine=alert_engine,
            n_rows=stream.n_rows,
            executor=executor,
            max_workers=max_workers,
            missing_rows=missing_rows,
            policy=policy,
            machine=stream.machine,
            resilience=resilience,
            fault_plan=fault_plan,
        )

    def _make_pipeline(self, spec: ShardSpec) -> OnlineAnalysisPipeline:
        return OnlineAnalysisPipeline(
            dt=self.dt, config=self.config, node_of_row=spec.node_of_row
        )

    # ------------------------------------------------------------------ #
    # Executor lifecycle
    # ------------------------------------------------------------------ #
    @property
    def executor(self) -> ShardExecutor:
        """The executor holding the shard pipelines — never ``None``.

        A serial executor until the first ingest round, the configured
        backend from then on, and a serial one again after :meth:`close`.
        After a close that failed it is the closed executor, whose calls
        raise.
        """
        return self._executor

    def _ensure_executor(self) -> ShardExecutor:
        """The live executor.  The first round moves the pipelines off the
        serial executor they were built on onto the configured backend; a
        backend that fails to start is left in place, closed."""
        if self._executor_spec is not None:
            pipelines = self._executor.pull()
            self._executor = make_shard_executor(
                self._executor_spec, max_workers=self._max_workers
            )
            self._executor_spec = None
            # A process executor switches its workers' metrics on and
            # calibrates their clocks as it starts (when OBS is enabled).
            self._executor.start(pipelines)
        return self._executor

    def close(self) -> None:
        """Shut the executor down, landing shard state back in-process.

        The resident pipelines are pulled back first and a serial executor
        takes them over, so every analysis product (rack values, spectra,
        checkpoints) keeps working after close — subsequent calls simply
        run serially.  If the pull fails (a worker died and its state is
        gone), the closed executor stays in place: later calls raise
        instead of answering from stale state.  Idempotent.

        Also the final barrier for asynchronous checkpointing: pending
        background commits are drained first, and a deferred write error
        surfaces here (after the executor teardown still ran).
        """
        writer, self._checkpoint_writer = self._checkpoint_writer, None
        try:
            if writer is not None:
                writer.close(flush=True)
        finally:
            self._close_executor()

    def _close_executor(self) -> None:
        executor = self._executor
        if executor.closed:
            return
        self._executor_spec = None
        try:
            self.drain_refreshes()
            self.collect_metrics()
            pipelines = executor.pull()
        finally:
            # Even if the pull fails, the remaining workers must still be
            # shut down.
            executor.close()
        self._executor = _serial_executor(pipelines)

    def collect_metrics(self):
        """Merge any process-worker metric registries into the session
        provider and return its registry.

        Workers are drained with reset, so calling this repeatedly (or
        again at :meth:`close`, which invokes it automatically) never
        double-counts.  A no-op for the serial backend and when the
        provider is disabled.
        """
        self._executor.collect_obs()
        return OBS.metrics

    def __enter__(self) -> "FleetMonitor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Pickle the monitor as its *state*, never its worker pool.

        A pickled monitor carries the pipelines (pulled fresh from
        process-resident workers first, so no state is lost), the shard
        layout and the executor's *backend name* — the live executor
        itself (pipes, child processes) stays behind.  The copy starts on
        a serial executor and moves onto that backend at its first ingest
        round, so unpickling never spawns a pool.  So a monitor can be
        copied (``pickle``, ``copy.deepcopy``) or sent to another process
        as plain state, whatever backend it runs on.
        """
        self.drain_refreshes()
        state = self.__dict__.copy()
        state["_executor"] = self._executor.pull()
        spec = self._executor_spec or self._executor
        backend = spec if isinstance(spec, str) else spec.backend
        state["_executor_spec"] = None if backend == "serial" else backend
        # Task handles carry events/pipe references and never travel; the
        # drain above guaranteed there is nothing in flight to lose.
        state["_refresh_tasks"] = []
        # The background checkpoint writer owns a thread; the copy makes
        # its own lazily.  (Pending commits keep running here — they hold
        # their own captured state, nothing to flush for the copy.)
        state["_checkpoint_writer"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._executor = _serial_executor(self._executor)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def step(self) -> int:
        """Absolute snapshot index of the end of the ingested timeline."""
        return self._step

    @property
    def pipelines(self) -> dict[str, OnlineAnalysisPipeline]:
        """Per-shard pipelines keyed by shard id.

        The serial backend returns the live objects; the process
        backend pulls fresh *copies* from the workers (mutating them does
        not affect the service — use shard commands for that).
        """
        self.drain_refreshes()
        return self._executor.pull()

    def pipeline(self, shard_id: str) -> OnlineAnalysisPipeline:
        """The pipeline of one shard (see :attr:`pipelines` for semantics).

        On the process backend this fetches just this shard's resident
        copy — one pickle, not a full-fleet pull.
        """
        self.drain_refreshes()
        return self._executor.call(shard_id, _return_pipeline)

    @property
    def total_modes(self) -> int:
        """Total slow modes across every shard's tree."""
        return sum(self._executor.broadcast(_shard_total_modes).values())

    def last_updates(self) -> dict[str, object | None]:
        """Latest UpdateRecord per shard (None before first partial_fit)."""
        return self._executor.broadcast(_shard_last_update)

    # ------------------------------------------------------------------ #
    # Shard state
    # ------------------------------------------------------------------ #
    def shard_state_dicts(self) -> dict[str, dict]:
        """Full per-shard pipeline state, keyed by shard id.

        This is the checkpoint payload: for remote-resident backends only
        the state dicts travel back, never live pipeline objects.  For a
        memory-bounded one-shard-at-a-time walk (large fleets with
        retained data), use :meth:`shard_state_dict` per shard instead.
        """
        return self._executor.broadcast(_shard_state_dict)

    def shard_state_dict(self, shard_id: str) -> dict:
        """One shard's full pipeline state (a single executor round trip)."""
        return self._executor.call(shard_id, _shard_state_dict)

    def shard_state_stamps(self) -> dict[str, tuple]:
        """Cheap per-shard state stamps (see ``state_stamp``), keyed by id.

        This is the dirty-tracking probe the delta checkpoint writer
        uses: O(1) per shard, no serialisation — for remote-resident
        backends only a tuple of ints travels home per shard.
        """
        return self._executor.broadcast(_shard_state_stamp)

    def shard_state_stamp(self, shard_id: str) -> tuple:
        """One shard's state stamp (a single executor round trip)."""
        return self._executor.call(shard_id, _shard_state_stamp)

    def _ensure_checkpoint_writer(self):
        """The monitor's background checkpoint writer (created lazily)."""
        if self._checkpoint_writer is None or self._checkpoint_writer.closed:
            from ..io.delta import AsyncCheckpointWriter

            self._checkpoint_writer = AsyncCheckpointWriter()
        return self._checkpoint_writer

    def flush_checkpoints(self) -> None:
        """Barrier: wait for pending asynchronous checkpoint commits.

        Re-raises the first deferred write error
        (:class:`~repro.io.delta.CheckpointWriteError`); a no-op when no
        async save ever ran.  Call before reading rotation entries a
        ``mode="async"`` save may still be writing.
        """
        if self._checkpoint_writer is not None:
            self._checkpoint_writer.flush()

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def _validated(self, values: np.ndarray) -> tuple[np.ndarray, IngestStats]:
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D (P, T), got shape {values.shape!r}")
        required_rows = max(int(spec.row_indices.max()) for spec in self.shards) + 1
        n_received = min(int(values.shape[0]), required_rows)
        if values.shape[0] < required_rows:
            if self.missing_rows == "raise":
                raise ValueError(
                    f"values has {values.shape[0]} rows but the shard partition "
                    f"covers rows up to {required_rows - 1}; rows would be "
                    f"silently invented — fix the chunk or pass "
                    f"missing_rows='nan' to the monitor to pad not-yet-"
                    f"reporting sensors"
                )
            pad = np.full(
                (required_rows - values.shape[0], values.shape[1]), np.nan
            )
            values = np.vstack([values, pad])
        if values.shape[0] > required_rows:
            raise ValueError(
                f"values has {values.shape[0]} rows but the shard partition "
                f"covers only rows [0, {required_rows}); extra rows would be "
                f"silently dropped — fix the partition (add_sensors grows it)"
            )
        stats = IngestStats(
            rows_received=n_received,
            rows_padded=required_rows - n_received,
            chunk_columns=int(values.shape[1]),
            rows_received_by_shard={
                spec.shard_id: int(np.count_nonzero(spec.row_indices < n_received))
                for spec in self.shards
            },
        )
        return values, stats

    def ingest(self, values: np.ndarray) -> FleetSnapshot:
        """Feed a ``(P, T_chunk)`` block of full-matrix snapshots.

        Rows are routed to shards by the partition; each shard pipeline
        does its initial fit on the first call and incremental updates
        afterwards.  Fan-out runs on the monitor's persistent executor
        (see the ``executor`` constructor argument); results are identical
        across backends.  The round is the one :meth:`ingest_and_alert`
        runs, minus the scoring — including supervision when the monitor
        has a resilience policy.
        """
        snapshot, _ = self._run_round(values, alerting=False)
        return snapshot

    def _run_round(
        self,
        values: np.ndarray,
        *,
        alerting: bool,
        hwlog: HardwareLog | None = None,
        window: int = 200,
    ) -> tuple[FleetSnapshot, list[Alert]]:
        """The one ingest round behind :meth:`ingest` and
        :meth:`ingest_and_alert`.

        Slices each live shard's chunk (applying any planned poison),
        submits the shard ingests, gathers them (:meth:`_gather_ingests`),
        books the round and queues deep-level refreshes.  With
        ``alerting`` it also scores each shard's recent window and
        evaluates the alert engine.  A shard's score task queues right
        behind its own ingest — overlapping the other shards' updates —
        only when nothing can invalidate it: the monitor is unsupervised
        (no retry or rehydration will replace the shard's state) and deep
        levels are inline (the tree is final once the update ran).
        Otherwise scoring is submitted after the gather and the refresh
        scheduling, exactly what :meth:`evaluate_alerts` after a plain
        :meth:`ingest` would observe.
        """
        values, stats = self._validated(values)
        t_start = now()
        score = alerting and self.alert_engine is not None
        overlap = (
            score
            and self.resilience is None
            and self.config.deep_levels == "inline"
        )
        alerts: list[Alert] = []
        span = "service.ingest_and_alert" if alerting else "service.ingest"
        with OBS.span(span, chunk=stats.chunk_columns):
            executor = self._ensure_executor()
            new_step = self._step + values.shape[1]
            round_index = self._chunk_index + 1
            chunks: dict[str, np.ndarray] = {}
            for spec in self.shards:
                if spec.shard_id in self._quarantined:
                    continue
                chunk = spec.take(values)
                if self.fault_plan is not None and self.fault_plan.poisons(
                    spec.shard_id, round_index
                ):
                    chunk = FaultPlan.poison(chunk)
                chunks[spec.shard_id] = chunk
            tasks = {
                shard_id: self._submit_ingest(
                    executor, shard_id, chunk, round_index, 1
                )
                for shard_id, chunk in chunks.items()
            }
            score_tasks = (
                self._submit_score_tasks(executor, new_step, window)
                if overlap
                else []
            )
            snapshots = self._gather_ingests(executor, chunks, tasks, round_index)
            snapshot = self._finish_ingest(values, snapshots, stats)
            self._schedule_deep_refreshes(snapshots)
            if score:
                if not overlap:
                    score_tasks = self._submit_score_tasks(
                        executor, new_step, window
                    )
                per_shard: dict[str, NodeZScores] = {}
                for shard_id, task in score_tasks:
                    scores = self._gather_score(executor, shard_id, task)
                    if scores is not None:
                        per_shard[shard_id] = scores
                context = AlertContext(
                    step=self._step,
                    node_zscores=self._merge_node_scores(per_shard, reducer="mean"),
                    updates={sid: snap.update for sid, snap in snapshots.items()},
                    hwlog=hwlog,
                    window=window,
                    deep_stale=self._deep_stale_ages(),
                    degraded_shards=self.quarantined_shards,
                )
                alerts = self.alert_engine.evaluate(context)
        for alert in alerts:
            FLIGHT.record_alert(alert)
        self._finalize_round(snapshot, stats, now() - t_start)
        return snapshot, alerts

    def _finish_ingest(
        self,
        values: np.ndarray,
        snapshots: dict[str, PipelineSnapshot],
        stats: IngestStats,
    ) -> FleetSnapshot:
        self._step += values.shape[1]
        self._chunk_index += 1
        if OBS.enabled:
            # Deterministic row accounting only — never timings — so the
            # snapshot itself stays identical across executor backends.
            for shard_id, n_rows in stats.rows_received_by_shard.items():
                OBS.gauge("service.shard.rows_received", n_rows, shard=shard_id)
            if stats.rows_padded:
                OBS.inc("service.rows_padded",
                        stats.rows_padded * stats.chunk_columns)
        return FleetSnapshot(
            step=self._step,
            chunk_size=int(values.shape[1]),
            n_shards=self.n_shards,
            total_modes=sum(snap.n_modes for snap in snapshots.values()),
            shard_snapshots=snapshots,
            ingest_stats=stats,
            degraded_shards=self.quarantined_shards,
        )

    def _record_chunk_metrics(self, stats: IngestStats, elapsed: float) -> None:
        """Throughput metrics for one ingested chunk (provider is enabled)."""
        entries = stats.entries_received
        OBS.observe("service.chunk.seconds", elapsed)
        OBS.inc("service.rows", entries)
        OBS.inc("service.snapshots", stats.chunk_columns)
        if elapsed > 0.0:
            OBS.gauge("service.rows_per_sec", entries / elapsed)

    # ------------------------------------------------------------------ #
    # Fleet health & flight recording (always on)
    # ------------------------------------------------------------------ #
    def _finalize_round(
        self, snapshot: FleetSnapshot, stats: IngestStats, elapsed: float
    ) -> None:
        """Always-on post-round accounting: latency rings, flight-recorder
        breadcrumbs and the derived health score.  Only the *metrics*
        emission stays gated on the obs provider — health and the black
        box are exactly what an uninstrumented run needs after a crash."""
        self._chunk_latency.append(float(elapsed))
        FLIGHT.record_delta(
            "service.chunk.seconds",
            elapsed,
            step=snapshot.step,
            rows=stats.entries_received,
        )
        snapshot.health = self._compute_health(snapshot.shard_snapshots)
        if OBS.enabled:
            self._record_chunk_metrics(stats, elapsed)
            for entity, score in snapshot.health.items():
                if entity == "fleet":
                    OBS.gauge("service.health.score", score.score)
                else:
                    OBS.gauge("service.health.score", score.score, shard=entity)

    def _note_shard_latency(self, shard_id: str, seconds: float) -> None:
        ring = self._shard_latency.get(shard_id)
        if ring is None:
            ring = self._shard_latency[shard_id] = RingBuffer(64)
        ring.append(float(seconds))

    def _latency_budget(self) -> float | None:
        """The latency budget health scores against: the supervision
        deadline when resilience is on, else unbudgeted (neutral)."""
        if self.resilience is not None:
            return self.resilience.task_deadline
        return None

    def _compute_health(
        self, snapshots: dict[str, PipelineSnapshot]
    ) -> dict[str, HealthScore]:
        """Score every shard plus a ``"fleet"`` aggregate.

        Latency uses each shard's own supervised-round p95 when sampled
        (supervised gathers time per shard), else the fleet-wide chunk
        p95; staleness comes from the shard's deferred deep-level backlog;
        availability from the quarantine roster.
        """
        budget = self._latency_budget()
        fleet_p95 = percentile(self._chunk_latency.items(), 0.95)
        per_shard: dict[str, HealthScore] = {}
        for spec in self.shards:
            sid = spec.shard_id
            ring = self._shard_latency.get(sid)
            samples = ring.items() if ring is not None else []
            p95 = percentile(samples, 0.95) if samples else fleet_p95
            snap = snapshots.get(sid)
            stale = 0.0 if snap is None else float(snap.deep_stale_snapshots)
            per_shard[sid] = score_shard(
                quarantined=sid in self._quarantined,
                p95_seconds=p95,
                budget_seconds=budget,
                deep_stale_snapshots=stale,
            )
        health = dict(per_shard)
        health["fleet"] = aggregate(per_shard.values())
        self._last_health = health
        return health

    @property
    def health(self) -> dict[str, HealthScore] | None:
        """Most recent per-shard (plus ``"fleet"``) health scores, or
        ``None`` before the first ingest round."""
        return self._last_health

    def _snapshot_stamps(self) -> dict:
        """Recovery-store stamps embedded in flight bundles: which shards
        hold a state snapshot and how long their replay tails are."""
        return {
            sid: {
                "has_snapshot": bool(self._recovery.has_snapshot(sid)),
                "replay_tail": int(self._recovery.tail_length(sid)),
            }
            for sid in self._recovery.shard_ids
        }

    # ------------------------------------------------------------------ #
    # Supervision & resilience (resilience=ResiliencePolicy(...))
    # ------------------------------------------------------------------ #
    @property
    def quarantined_shards(self) -> tuple[str, ...]:
        """Ids of shards currently quarantined, in sorted order."""
        return tuple(sorted(self._quarantined))

    @property
    def quarantine_info(self) -> dict[str, dict]:
        """Per-quarantined-shard diagnostics: fleet step, attempt count
        and the final failure's ``reason`` string."""
        return {sid: dict(info) for sid, info in self._quarantined.items()}

    def reinstate_shard(self, shard_id: str) -> None:
        """Lift a shard's quarantine (operator action).

        The shard rejoins the next ingest round from its *last recovered
        state* — chunks ingested by the rest of the fleet while it was
        quarantined are gone, so its shard-local timeline lags the fleet's
        until enough new chunks arrive.  Merged products stay well-defined
        (each shard scores against its own baseline); window-aligned
        queries over the gap are the operator's judgement call.
        """
        if shard_id not in self._quarantined:
            raise KeyError(f"shard {shard_id!r} is not quarantined")
        del self._quarantined[shard_id]
        self._rehydrate_shard(shard_id)

    @staticmethod
    def _failure_kind(exc: BaseException) -> str:
        """Coarse failure class for metrics and recovery routing."""
        if isinstance(exc, ShardTimeoutError):
            return "timeout"
        if getattr(exc, "kind", None) == "crash":
            return "crash"
        if isinstance(exc, PoisonChunkError):
            return "poison"
        return "error"

    @staticmethod
    def _is_worker_loss(exc: BaseException) -> bool:
        """Whether the failure means the *worker* (not just the task) is
        gone: a missed deadline (hung worker) or a crash-class error (the
        executor observed the worker die / abandoned its queue)."""
        return isinstance(exc, ShardTimeoutError) or (
            getattr(exc, "kind", None) == "crash"
        )

    def _rehydrate_pipeline(
        self, shard_id: str
    ) -> tuple[OnlineAnalysisPipeline, int]:
        """Rebuild one shard's pipeline from the recovery store.

        Falls back to a fresh (unfitted) pipeline when the shard was never
        snapshotted — i.e. it failed before its very first chunk landed,
        so pre-first-chunk state *is* the correct restore point.
        """
        if self._recovery.has_snapshot(shard_id):
            pipeline, replayed = self._recovery.rebuild(shard_id)
        else:
            spec = next(s for s in self.shards if s.shard_id == shard_id)
            pipeline, replayed = self._make_pipeline(spec), 0
        if OBS.enabled:
            OBS.inc("service.resilience.rehydrated_shards")
            if replayed:
                OBS.inc("service.resilience.replayed_chunks", replayed)
        return pipeline, replayed

    def _rehydrate_shard(self, shard_id: str) -> None:
        """Replace one shard's (possibly partially mutated) pipeline with
        an exact rebuild — the task failed, so the chunk was not applied."""
        pipeline, _ = self._rehydrate_pipeline(shard_id)
        self._executor.install(shard_id, pipeline)

    def _recover_worker(
        self, executor: ShardExecutor, shard_id: str
    ) -> tuple[str, ...]:
        """Respawn the worker serving ``shard_id`` and rehydrate *every*
        shard resident on it (their in-worker state died with the worker).
        Returns the resident shard ids."""
        residents = executor.worker_shards(shard_id)
        objects: dict[str, OnlineAnalysisPipeline] = {}
        for rsid in residents:
            objects[rsid], _ = self._rehydrate_pipeline(rsid)
        executor.respawn(shard_id, objects)
        FLIGHT.record_note(
            "worker_lost",
            scope=f"shard:{shard_id}",
            shard=shard_id,
            step=int(self._step),
            residents=list(residents),
        )
        FLIGHT.dump(
            "worker_lost",
            shard_id=shard_id,
            step=int(self._step),
            snapshot_stamps=self._snapshot_stamps(),
            extra={"residents": list(residents)},
        )
        return residents

    def _quarantine(self, shard_id: str, exc: BaseException, attempts: int) -> None:
        """Mark a shard quarantined after it exhausted its retry budget."""
        info = {
            "step": int(self._step),
            "attempts": int(attempts),
            "reason": f"{type(exc).__name__}: {exc}",
        }
        self._quarantined[shard_id] = info
        FLIGHT.record_note(
            "quarantine",
            scope=f"shard:{shard_id}",
            shard=shard_id,
            **info,
        )
        FLIGHT.dump(
            "quarantine",
            shard_id=shard_id,
            step=int(self._step),
            quarantine=info,
            snapshot_stamps=self._snapshot_stamps(),
        )
        if OBS.enabled:
            OBS.inc("service.resilience.quarantined")
            OBS.gauge(
                "service.resilience.quarantined_shards", len(self._quarantined)
            )

    def _record_recovery(
        self, chunks: dict[str, np.ndarray]
    ) -> None:
        """Record this round's successfully ingested chunks (and periodic
        state snapshots) so a later worker loss can be replayed exactly."""
        for shard_id, chunk in chunks.items():
            self._recovery.record_chunk(shard_id, chunk)
            if self._recovery.needs_snapshot(shard_id):
                # Stamp first: when the shard hasn't mutated since the
                # recorded snapshot (quarantined, or only replayed
                # chunks), the store skips the state_dict() pull and
                # re-serialisation entirely (dirty-tracking fast path).
                self._recovery.record_snapshot_if_changed(
                    shard_id,
                    self.shard_state_stamp(shard_id),
                    lambda sid=shard_id: self.shard_state_dict(sid),
                )

    def _submit_ingest(
        self,
        executor: ShardExecutor,
        shard_id: str,
        chunk: np.ndarray,
        round_index: int,
        attempt: int,
    ):
        """Submit one shard ingest task, attaching any planned fault for
        this ``(shard, round, attempt)`` coordinate."""
        fault = None
        if self.fault_plan is not None:
            fault = self.fault_plan.task_fault(shard_id, round_index, attempt)
        if fault is None:
            return executor.submit(shard_id, _shard_ingest, chunk)
        return executor.submit(shard_id, _shard_ingest, chunk, fault)

    def _gather_ingests(
        self,
        executor: ShardExecutor,
        chunks: dict[str, np.ndarray],
        tasks: dict,
        round_index: int,
    ) -> dict[str, PipelineSnapshot]:
        """Gather one round's shard ingests: detect, retry, recover.

        Unsupervised (``resilience=None``) each shard gets one attempt
        with no deadline, and the first failure re-raises as a
        :class:`ShardTaskError` naming the shard.

        Under a policy each shard gets up to ``max_attempts`` tries with
        capped-exponential deterministically-jittered backoff.  A missed
        deadline or crash-class failure means the *worker* is gone: it is
        force-terminated and respawned, and every resident shard is
        rehydrated from its recovery snapshot plus chunk-tail replay
        (bit-for-bit — the chaos tests compare against fault-free runs);
        co-resident shards whose round results died with the worker are
        transparently resubmitted without burning their retry budget.
        Shards that exhaust their budget are quarantined and excluded from
        this and later rounds.  The round's ingested chunks then feed the
        recovery store.
        """
        policy = self.resilience
        deadline = None if policy is None else policy.task_deadline
        attempts = dict.fromkeys(chunks, 1)
        snapshots: dict[str, PipelineSnapshot] = {}
        pending = list(chunks)
        while pending:
            shard_id = pending.pop(0)
            if shard_id in snapshots or shard_id in self._quarantined:
                continue  # settled while re-queued after a worker recovery
            try:
                t_task = now()
                snapshots[shard_id] = tasks[shard_id].result(timeout=deadline)
                if policy is not None:
                    self._note_shard_latency(shard_id, now() - t_task)
                continue
            except Exception as exc:  # noqa: BLE001 — supervisor boundary
                if policy is None:
                    if isinstance(exc, ShardTaskError):
                        raise
                    # One shard's worker exception must not surface as a
                    # raw traceback with no fleet context: name the shard
                    # and keep the original as the cause chain.
                    raise ShardTaskError(
                        f"shard {shard_id!r} failed during ingest at step "
                        f"{self._step}: {exc}",
                        shard_id=shard_id,
                        attempts=1,
                        cause=exc,
                    ) from exc
                attempt = attempts[shard_id]
                if OBS.enabled:
                    OBS.inc(
                        "service.resilience.failures",
                        kind=self._failure_kind(exc),
                    )
                if self._is_worker_loss(exc):
                    residents = self._recover_worker(executor, shard_id)
                    # Co-residents lost their in-worker state with the
                    # worker; their round results (gathered or in flight)
                    # are stale → resubmit at their *current* attempt so
                    # planned faults still fire at the same coordinates.
                    for rsid in residents:
                        if (
                            rsid == shard_id
                            or rsid not in chunks
                            or rsid in self._quarantined
                        ):
                            continue
                        snapshots.pop(rsid, None)
                        tasks[rsid] = self._submit_ingest(
                            executor, rsid, chunks[rsid],
                            round_index, attempts[rsid],
                        )
                        if rsid not in pending:
                            pending.append(rsid)
                else:
                    self._rehydrate_shard(shard_id)
                if attempt >= policy.max_attempts:
                    self._quarantine(shard_id, exc, attempt)
                    continue
                delay = policy.backoff_delay(shard_id, attempt)
                if delay > 0.0:
                    time.sleep(delay)
                attempts[shard_id] = attempt + 1
                if OBS.enabled:
                    OBS.inc("service.resilience.retries", shard=shard_id)
                tasks[shard_id] = self._submit_ingest(
                    executor, shard_id, chunks[shard_id],
                    round_index, attempts[shard_id],
                )
                pending.append(shard_id)
        if policy is not None:
            self._record_recovery(
                {sid: chunk for sid, chunk in chunks.items() if sid in snapshots}
            )
        return snapshots

    def _gather_score(self, executor: ShardExecutor, shard_id: str, task):
        """Gather one scoring result.  Unsupervised, a failure re-raises;
        supervised, it degrades to "no score this round" (scores are
        presentation, not model state) after recovering the
        worker/pipeline for the next round."""
        policy = self.resilience
        if policy is None:
            return task.result()
        try:
            return task.result(timeout=policy.task_deadline)
        except Exception as exc:  # noqa: BLE001 — supervisor boundary
            if OBS.enabled:
                OBS.inc(
                    "service.resilience.failures", kind=self._failure_kind(exc)
                )
            if self._is_worker_loss(exc):
                if executor.worker_alive(shard_id):
                    # Collateral of a respawn already done for a co-resident
                    # this gather — the new worker is healthy and already
                    # rehydrated; nothing further to recover.
                    return None
                self._recover_worker(executor, shard_id)
            else:
                self._rehydrate_shard(shard_id)
            return None

    # ------------------------------------------------------------------ #
    # Asynchronous deep-level refresh (deep_levels="deferred")
    # ------------------------------------------------------------------ #
    def _schedule_deep_refreshes(self, snapshots: dict[str, PipelineSnapshot]) -> None:
        """Queue background deep-level refreshes after one ingest round.

        Under ``deep_levels="deferred"`` a shard's levels-2..L work
        accumulates in its pipeline; this schedules the drain as an
        executor task — behind the shard's own FIFO queue, so it runs off
        the ingest critical path (overlapping the *next* chunks on the
        process backend) while every later command on that shard
        still observes the refreshed tree.  A shard is scheduled when its
        drift flag fired this chunk or every ``deep_refresh_every`` chunks,
        whichever comes first; the decision depends only on snapshot
        contents, so scheduling (and the resulting trees) are identical
        across backends.  No-op under ``deep_levels="inline"``.
        """
        if self.config.deep_levels != "deferred":
            return
        executor = self._ensure_executor()
        every = self.config.deep_refresh_every
        n_scheduled = 0
        for shard_id, snap in snapshots.items():
            if snap.update is None:
                continue  # initial fit: nothing deferred yet
            count = self._chunks_since_refresh.get(shard_id, 0) + 1
            self._chunks_since_refresh[shard_id] = count
            drifted = bool(snap.update.stale)
            due = every > 0 and count >= every
            if (drifted or due) and snap.deep_pending > 0:
                self._chunks_since_refresh[shard_id] = 0
                self._refresh_tasks.append(
                    executor.submit(shard_id, _shard_refresh_deep)
                )
                n_scheduled += 1
        if OBS.enabled:
            if n_scheduled:
                OBS.inc("service.deep_refresh.scheduled", n_scheduled)
            # Deterministic staleness gauges (snapshot contents only).
            OBS.gauge(
                "service.deep.queue_depth",
                sum(snap.deep_pending for snap in snapshots.values()),
            )
            OBS.gauge(
                "service.deep.stale_snapshots",
                max((snap.deep_stale_snapshots for snap in snapshots.values()),
                    default=0),
            )

    def drain_refreshes(self) -> int:
        """Wait for every scheduled deep-level refresh; returns the total
        number of tree nodes the refreshes added.

        Ingest keeps scheduling refreshes in the background; call this at
        a quiescent point (before a checkpoint comparison, in tests, at
        shutdown — :meth:`close` and pickling do it automatically) to
        guarantee no refresh task is still in flight.  Queued-but-never-
        scheduled entries stay queued: they are ordinary serialisable
        model state, not in-flight work.
        """
        if not self._refresh_tasks:
            return 0
        tasks, self._refresh_tasks = self._refresh_tasks, []
        return sum(int(task.result() or 0) for task in tasks)

    def refresh_deep_levels(self) -> int:
        """Force every queued deep-level entry through, fleet-wide.

        Submits a refresh to each shard and waits (alongside any refreshes
        already in flight); returns the total number of tree nodes added.
        After this the fleet's trees match what ``deep_levels="inline"``
        would have produced — use it to catch up before a final analysis
        when the drift/every-N schedule has not drained the backlog yet.
        No-op (returns 0) under ``deep_levels="inline"``.
        """
        if self.config.deep_levels != "deferred":
            return 0
        executor = self._ensure_executor()
        self._refresh_tasks.extend(
            executor.submit(spec.shard_id, _shard_refresh_deep)
            for spec in self.shards
        )
        self._chunks_since_refresh.clear()
        added = self.drain_refreshes()
        if OBS.enabled:
            # The backlog gauges otherwise keep the last mid-run reading.
            OBS.gauge("service.deep.queue_depth", 0)
            OBS.gauge("service.deep.stale_snapshots", 0)
        return added

    def deep_staleness(self) -> dict[str, tuple[int, int]]:
        """Per-shard ``(pending refresh entries, stale snapshot age)``.

        Answered through the executor, so on the process backend the
        values reflect every refresh already scheduled for a shard (the
        query queues behind it).  All zeros under ``deep_levels="inline"``.
        """
        return self._executor.broadcast(_shard_deep_staleness)

    def _deep_stale_ages(self) -> dict[str, int]:
        """Nonzero per-shard staleness ages for alert-context stamping."""
        if self.config.deep_levels != "deferred":
            return {}
        return {
            shard_id: int(stale)
            for shard_id, (_pending, stale) in self.deep_staleness().items()
            if stale
        }

    # ------------------------------------------------------------------ #
    # Elastic topology
    # ------------------------------------------------------------------ #
    def add_sensors(
        self,
        sensor_names,
        node_of_row,
        *,
        history: np.ndarray | None = None,
        policy: ShardingPolicy | None = None,
        machine: MachineDescription | None = None,
    ) -> TopologyUpdate:
        """Stream new sensors into the live fleet (topology event).

        The sharding policy maps the new rows onto the partition
        (:meth:`ShardingPolicy.repartition`): rows landing in an existing
        shard are shipped to that shard's *resident* pipeline as an
        ``add_sensors`` command (the worker pool keeps running — no
        restart, no refit of unaffected shards), and rows no existing
        shard can take mint new shards that join the pool via
        :meth:`ShardExecutor.add_shard`.  New rows occupy the matrix rows
        directly after the current partition, in the order given;
        subsequent :meth:`ingest` chunks must carry the grown row count
        (or use ``missing_rows="nan"`` until the sensors report).

        Parameters
        ----------
        sensor_names / node_of_row:
            Channel name and populated-node index per new row.
        history:
            Optional ``(r, step)`` back-filled readings over the fleet
            timeline; without it the rows join *now* at O(r) cost.  Rows
            with history that land in an existing fitted shard back-fill
            its basis; rows minting a new shard seed it by ingesting the
            history (the shard then spans the fleet timeline).  History
            for rows landing in a shard that has not fitted yet (minted
            earlier at this same step, no chunk since) is ignored — the
            initial fit sizes itself from the first chunk.
        policy / machine:
            Override the recorded sharding policy / machine description
            (required after a checkpoint restore, which persists neither).
        """
        sensor_names = np.asarray(sensor_names, dtype=object)
        node_of_row = np.asarray(node_of_row, dtype=int)
        if node_of_row.ndim != 1 or node_of_row.size == 0:
            raise ValueError("node_of_row must be a non-empty 1-D index array")
        if sensor_names.shape != node_of_row.shape:
            raise ValueError("sensor_names and node_of_row lengths differ")
        policy = policy or self.policy
        if policy is None:
            raise ValueError(
                "no sharding policy available: build the monitor with "
                "FleetMonitor.from_stream or pass policy=..."
            )
        machine = machine if machine is not None else self.machine
        n_new = int(node_of_row.size)
        if history is not None:
            history = np.asarray(history, dtype=float)
            if history.ndim == 1:
                history = history[None, :]
            if history.shape != (n_new, self._step):
                raise ValueError(
                    f"history must be ({n_new}, {self._step}) — one row per new "
                    f"sensor over the fleet timeline — got {history.shape}"
                )
        row_offset = max(int(spec.row_indices.max()) for spec in self.shards) + 1
        new_partition = policy.repartition(
            self.shards, sensor_names, node_of_row, machine, row_offset=row_offset
        )
        validate_partition(new_partition, row_offset + n_new)

        old_by_id = {spec.shard_id: spec for spec in self.shards}
        update = TopologyUpdate(step=self._step, n_new_rows=n_new)
        final_specs: list[ShardSpec] = []
        minted: list[ShardSpec] = []
        for spec in new_partition:
            old = old_by_id.get(spec.shard_id)
            if old is None:
                # Stamp the birth step so absolute query windows translate.
                spec = replace(spec, start_step=self._step)
                minted.append(spec)
                final_specs.append(spec)
                continue
            if spec.n_rows == old.n_rows:
                final_specs.append(old)
                continue
            new_rows_abs = spec.row_indices[old.n_rows :]
            new_nodes = spec.node_of_row[old.n_rows :]
            shard_history = None
            if history is not None:
                shard_history = np.ascontiguousarray(
                    history[new_rows_abs - row_offset][:, old.start_step :]
                )
            change = self._executor.call(
                spec.shard_id, _shard_add_sensors, new_nodes, shard_history
            )
            update.extended[spec.shard_id] = change
            final_specs.append(spec)
        for index, spec in enumerate(minted):
            pipeline = self._make_pipeline(spec)
            if history is not None:
                # Back-filled rows minting a new shard seed it with their
                # full history: the shard then spans the fleet timeline
                # (start_step 0) instead of starting at the event.
                pipeline.ingest(
                    np.ascontiguousarray(history[spec.row_indices - row_offset])
                )
                seeded = replace(spec, start_step=0)
                for position, existing in enumerate(final_specs):
                    if existing.shard_id == spec.shard_id:
                        final_specs[position] = seeded
                        break
                minted[index] = spec = seeded
            self._executor.add_shard(spec.shard_id, pipeline)
        update.minted = tuple(spec.shard_id for spec in minted)
        self.shards = final_specs
        return update

    def add_shard(
        self,
        spec: ShardSpec,
        *,
        pipeline: OnlineAnalysisPipeline | None = None,
    ) -> ShardSpec:
        """Mint one explicit new shard into the live fleet.

        The lower-level sibling of :meth:`add_sensors` for callers that
        already know the shard layout: ``spec`` must cover exactly the
        matrix rows directly after the current partition.  The shard joins
        the running executor pool without a restart; its pipeline does the
        initial fit on the next ingested chunk.  Returns the installed
        spec (stamped with the current fleet step as its ``start_step``
        unless the caller set one).
        """
        if spec.shard_id in self._executor.shard_ids:
            raise ValueError(f"shard {spec.shard_id!r} already exists")
        if spec.start_step == 0 and self._step > 0:
            spec = replace(spec, start_step=self._step)
        n_rows = max(
            int(s.row_indices.max()) for s in (*self.shards, spec)
        ) + 1
        validate_partition([*self.shards, spec], n_rows)
        pipeline = pipeline or self._make_pipeline(spec)
        self._executor.add_shard(spec.shard_id, pipeline)
        self.shards = [*self.shards, spec]
        return spec

    def _shard_window(self, spec: ShardSpec, time_range):
        """Absolute window -> shard-local window (None = full timeline).

        Returns the sentinel ``False`` when the window ends before the
        shard's stream began (nothing to score there).
        """
        if time_range is None:
            return None
        lo, hi = time_range
        lo_local = max(int(lo) - spec.start_step, 0)
        hi_local = int(hi) - spec.start_step
        if hi_local <= lo_local:
            return False
        return (lo_local, hi_local)

    def ingest_and_alert(
        self,
        values: np.ndarray,
        *,
        hwlog: HardwareLog | None = None,
        window: int = 200,
    ) -> tuple[FleetSnapshot, list[Alert]]:
        """Ingest a chunk and evaluate alerts, overlapping the two.

        Equivalent to ``ingest(values)`` followed by
        ``evaluate_alerts(hwlog=hwlog, window=window)`` — bit-for-bit, as
        the tests assert — but each shard's recent-window scoring is
        enqueued directly behind its own update, so on the process
        backend shard A is being scored while shard B is still updating,
        and the drift records are taken from the ingest results instead of
        a second query round-trip.
        """
        return self._run_round(values, alerting=True, hwlog=hwlog, window=window)

    def _submit_score_tasks(
        self, executor: ShardExecutor, new_step: int, window: int
    ) -> list[tuple[str, object]]:
        """Enqueue the per-shard recent-window scoring commands."""
        lo = max(0, new_step - window)
        tasks = []
        for spec in self.shards:
            if spec.shard_id in self._quarantined:
                continue
            local = self._shard_window(spec, (lo, new_step))
            if local is False:
                continue
            tasks.append(
                (
                    spec.shard_id,
                    executor.submit(spec.shard_id, _shard_node_zscores, local, "mean"),
                )
            )
        return tasks

    # ------------------------------------------------------------------ #
    # Fleet-level analysis products
    # ------------------------------------------------------------------ #
    def fit_baselines(self, **kwargs) -> None:
        """Fit every shard's baseline (from its reconstruction by default)."""
        self._executor.broadcast(_shard_fit_baseline, kwargs)

    def _merge_node_scores(
        self, per_shard: dict[str, NodeZScores], reducer: str
    ) -> NodeZScores:
        """Aggregate per-shard node scores into one fleet-level set.

        Shards absent from ``per_shard`` (not yet fitted, or outside the
        scored window) simply contribute nothing.  A node scored by several
        shards (metric sharding) is reduced over its shards in
        ``self.shards`` order.
        """
        t_start = now() if OBS.enabled else 0.0
        present = [
            per_shard[spec.shard_id] for spec in self.shards if spec.shard_id in per_shard
        ]
        empty = [np.zeros(0)]
        nodes, merged = reduce_by_node(
            np.concatenate([s.node_indices for s in present] or empty),
            np.concatenate([s.zscores for s in present] or empty),
            reducer,
        )
        categories = classify_zscores(
            merged, near=self.config.zscore_near, extreme=self.config.zscore_extreme
        )
        if OBS.enabled:
            # A trace event under the open span (the round); a read outside
            # any span — a federated worker answering a query — could never
            # chain onto the merged timeline, so it feeds only the span
            # histogram, as executor.task does.
            if OBS.tracer.current_span_id() is None:
                OBS.observe("span.service.merge_node_scores", now() - t_start)
            else:
                OBS.record("service.merge_node_scores", now() - t_start,
                           shards=len(present))
        return NodeZScores(node_indices=nodes, zscores=merged, categories=categories)

    def node_zscores(
        self,
        *,
        time_range: tuple[int, int] | None = None,
        reducer: str = "mean",
    ) -> NodeZScores:
        """Fleet-merged per-node z-scores.

        Each shard scores its own rows against its own baseline (fanned
        out over the executor); nodes appearing in several shards (metric
        sharding) are aggregated with ``reducer`` (``"mean"``, ``"max"``
        or ``"absmax"``), then re-classified with the shared thresholds.
        Passing ``time_range`` scores a *window* of the reconstruction —
        only that window's modes are expanded (and cached per shard), so
        recent-window queries stop paying O(full timeline) per call.
        Absolute windows are translated into each shard's local timeline
        (shards minted mid-run start later); shards with no data in the
        window are skipped.
        """
        args: dict[str, tuple] = {}
        for spec in self.shards:
            if spec.shard_id in self._quarantined:
                continue
            local = self._shard_window(spec, time_range)
            if local is False:
                continue
            args[spec.shard_id] = (local, reducer)
        results = self._executor.map(_shard_node_zscores, args)
        per_shard = {
            shard_id: scores
            for shard_id, scores in results.items()
            if scores is not None
        }
        return self._merge_node_scores(per_shard, reducer=reducer)

    def rack_values(
        self,
        *,
        time_range: tuple[int, int] | None = None,
        reducer: str = "mean",
    ) -> dict[int, float]:
        """``{node: zscore}`` over the whole fleet, ready for the rack view."""
        return self.node_zscores(time_range=time_range, reducer=reducer).as_dict()

    def spectra(self) -> dict[str, MrDMDSpectrum]:
        """Per-shard (filtered) spectra keyed by shard id.

        Each spectrum carries its shard's frequency, power, |amplitude|
        and level columns — O(modes) scalars, read-only.  Shards still
        awaiting their first chunk (minted mid-run) have no decomposition
        yet and are omitted.
        """
        results = self._executor.map(
            _shard_spectrum,
            {
                spec.shard_id: (spec.shard_id,)
                for spec in self.shards
                if spec.shard_id not in self._quarantined
            },
        )
        return {
            shard_id: spectrum
            for shard_id, spectrum in results.items()
            if spectrum is not None
        }

    def fleet_spectrum(self) -> FleetSpectrum:
        """Merged power/frequency table across every shard."""
        freqs, power, levels, shard_ids = [], [], [], []
        for shard_id, spectrum in self.spectra().items():
            freqs.append(spectrum.frequencies)
            power.append(spectrum.power)
            levels.append(spectrum.table.levels)
            shard_ids.append(np.full(spectrum.n_modes, shard_id, dtype=object))
        return FleetSpectrum(
            frequencies=np.concatenate(freqs) if freqs else np.zeros(0),
            power=np.concatenate(power) if power else np.zeros(0),
            levels=np.concatenate(levels) if levels else np.zeros(0, dtype=int),
            shard_ids=np.concatenate(shard_ids) if shard_ids else np.zeros(0, dtype=object),
        )

    # ------------------------------------------------------------------ #
    # Alerting
    # ------------------------------------------------------------------ #
    def evaluate_alerts(
        self,
        *,
        hwlog: HardwareLog | None = None,
        window: int = 200,
    ) -> list[Alert]:
        """Run the alert engine against the current fleet state.

        Returns the deduplicated alerts fired this evaluation (also
        delivered to the engine's sinks).  A monitor without an engine
        returns an empty list.  :meth:`ingest_and_alert` produces the same
        alerts while overlapping scoring with the shard updates.
        """
        if self.alert_engine is None:
            return []
        # Score the *recent* window: an operator cares about the current
        # state; an all-time mean dilutes late-onset anomalies.
        lo = max(0, self._step - window)
        context = AlertContext(
            step=self._step,
            node_zscores=self.node_zscores(time_range=(lo, self._step)),
            updates=self.last_updates(),
            hwlog=hwlog,
            window=window,
            deep_stale=self._deep_stale_ages(),
            degraded_shards=self.quarantined_shards,
        )
        return self.alert_engine.evaluate(context)
