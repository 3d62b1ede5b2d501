"""The benchmark's workloads over ``repro``'s public entry points.

Every workload is a closed loop with one caller: the next chunk round or
read is issued only after the previous one returned.  An *episode* is one
fixed schedule of operations against a fresh monitor, so every timing is
taken at the same stream ages whatever the speed of the code; ``run.py``
repeats episodes until its time is spent.  Inputs come from
``TelemetryGenerator`` on a Theta-shaped machine and depend only on the
seed.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
import traceback

import numpy as np

from repro.core import MrDMDConfig
from repro.hwlog.generator import HardwareErrorModel
from repro.pipeline import PipelineConfig
from repro.resilience import ResiliencePolicy
from repro.service import FleetMonitor, RackSharding
from repro.service.alerts import AlertEngine, AlertSeverity, default_rules
from repro.service.checkpoint import load_checkpoint, save_checkpoint
from repro.telemetry import TelemetryGenerator, theta_machine
from repro.telemetry.anomalies import CoolingDegradation
from repro.viz import RackLayout, RackView

#: Columns of the initial fit and of every streamed chunk.
INITIAL = 200
CHUNK = 100
#: Trailing window (snapshots) that alerts score and rack views show.
WINDOW = 200

FAILED = object()


def _config(**overrides) -> PipelineConfig:
    """The catalog scenarios' pipeline settings: four mrDMD levels and a
    baseline band around the generator's quiet operating point."""
    return PipelineConfig(
        mrdmd=MrDMDConfig(max_levels=4),
        baseline_range=(40.0, 75.0),
        power_quantile=0.0,
        **overrides,
    )


class Recorder:
    """Latencies of one episode's timed operations, by schedule position.

    Every episode replays the same schedule, so ``chunks[i]`` (``reads[i]``)
    is the same operation at the same stream age in every episode; a
    failed operation keeps its position as NaN.
    """

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self.reads: list[float] = []
        #: The episode's closing step (final flush and ``close()``).
        self.finish: list[float] = []
        self.attempted = 0
        self.failed = 0

    def attempt(self, fn, *args, **kwargs):
        """Run one timed operation; returns ``(result, seconds)``, with
        :data:`FAILED` as the result when it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 — counted, reported, run continues
            self.failed += 1
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            return FAILED, time.perf_counter() - start
        return result, time.perf_counter() - start


class Workload:
    """One workload: inputs from the seed, set-up, an episode, checks.

    ``chunk_tail`` / ``read_tail`` are the pinned tail percentiles: the
    highest multiples of five that leave at least ten raw samples beyond
    them at run.py's minimum of four episodes.
    """

    name = ""
    chunk_tail = 0
    read_tail = 0
    process_backend = False

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = int(seed)
        self.workdir = workdir

    # Subclasses implement setup() -> monitor, episode(monitor, rec, clock)
    # -> sensor readings ingested, and check(monitor) -> list of problems.

    def _read(self, rec: Recorder, clock, fn, *args, **kwargs):
        """One timed operator read (query plus render)."""
        before = clock.calls.get("core.tree.reconstruct", 0) if clock else 0
        result, seconds = rec.attempt(fn, *args, **kwargs)
        rec.reads.append(np.nan if result is FAILED else seconds)
        if clock is not None:
            clock.add("reads", 1)
            clock.add(
                "read.reconstruct.calls",
                clock.calls.get("core.tree.reconstruct", 0) - before,
            )
        return result


class AlertStream(Workload):
    """Serial unsupervised ``ingest_and_alert`` over an aging stream; each
    round is followed by the rack view of its alert window.

    256 cpu_temp rows of a Theta-shaped machine: 192 nodes in rack 0, 64 in
    rack 1, one rack shard each.  Rack 1 loses cooling part-way.
    """

    name = "alert-stream"
    n_chunks = 24
    chunk_tail = 85
    read_tail = 85

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.machine = theta_machine(racks_per_row=2, node_limit=256)
        self.rack1 = tuple(
            n for n in range(self.machine.n_nodes) if self.machine.rack_of_node(n) == 1
        )
        total = INITIAL + self.n_chunks * CHUNK
        self.onset = INITIAL + (self.n_chunks * CHUNK) * 2 // 5
        self.stream = TelemetryGenerator(
            self.machine, seed=self.seed, utilization_target=0.3
        ).generate(
            total,
            sensors=["cpu_temp"],
            anomalies=[
                CoolingDegradation(
                    node_indices=self.rack1,
                    start=self.onset,
                    rate_per_hour=18.0,
                    dt_seconds=self.machine.dt_seconds,
                    label="rack-1 cooling failure",
                )
            ],
        )
        self.hwlog = HardwareErrorModel(
            n_nodes=self.machine.n_nodes, seed=self.seed + 1
        ).generate(total, hot_nodes=list(self.rack1[:4]))
        self.view = RackView(RackLayout.from_machine(self.machine))

    def chunk(self, index: int) -> np.ndarray:
        start = INITIAL + index * CHUNK
        return self.stream.values[:, start : start + CHUNK]

    def setup(self) -> FleetMonitor:
        monitor = FleetMonitor.from_stream(
            self.stream,
            policy=RackSharding(),
            config=_config(),
            alert_engine=AlertEngine(rules=default_rules()),
        )
        monitor.ingest(self.stream.values[:, :INITIAL])
        return monitor

    def episode(self, monitor: FleetMonitor, rec: Recorder, clock) -> int:
        self.alerts = []
        self.errors = []
        readings = 0
        for index in range(self.n_chunks):
            chunk = self.chunk(index)
            result, seconds = rec.attempt(
                monitor.ingest_and_alert, chunk, hwlog=self.hwlog, window=WINDOW
            )
            outlined = []
            if result is FAILED:
                rec.chunks.append(np.nan)
            else:
                snapshot, alerts = result
                rec.chunks.append(seconds)
                readings += chunk.size
                self.alerts.extend(alerts)
                self.errors.extend(
                    snap.reconstruction_error
                    for snap in snapshot.shard_snapshots.values()
                )
                outlined = sorted({a.node for a in alerts if a.node is not None})
            self._read(rec, clock, self._evidence, monitor, monitor.step, outlined)
        result, seconds = rec.attempt(monitor.close)
        rec.finish.append(np.nan if result is FAILED else seconds)
        return readings

    def _evidence(self, monitor: FleetMonitor, step: int, outlined) -> str:
        values = monitor.rack_values(time_range=(max(0, step - WINDOW), step))
        return self.view.render_svg(values, outlined_nodes=outlined)

    def check(self, monitor: FleetMonitor) -> list[str]:
        problems = []
        if len(self.errors) != monitor.n_shards * self.n_chunks:
            problems.append(f"{len(self.errors)} reconstruction errors recorded")
        bad = [e for e in self.errors if e is None or not np.isfinite(e)]
        if bad:
            problems.append(f"{len(bad)} non-finite reconstruction errors")
        # Overheating alerts after the onset must cover most of the degraded
        # rack and land mostly on it.
        rack1 = set(self.rack1)
        hot = [
            a.node
            for a in self.alerts
            if a.rule == "zscore"
            and a.severity is AlertSeverity.CRITICAL
            and a.step > self.onset
        ]
        on_rack = [node for node in hot if node in rack1]
        if len(set(on_rack)) < len(rack1) // 2:
            problems.append(
                f"overheating alerts name {len(set(on_rack))} of the "
                f"{len(rack1)} degraded-rack nodes"
            )
        if 2 * len(on_rack) <= len(hot):
            problems.append(
                f"{len(hot) - len(on_rack)} of {len(hot)} overheating alerts "
                f"name healthy-rack nodes"
            )
        return problems


class IngestPersist(Workload):
    """Supervised ingest on the process backend with periodic async delta
    checkpoints; the operator reads the fleet spectrum every other round.

    768 cpu_temp rows of a Theta-shaped machine, 192 per rack, one rack
    shard each, spread over one worker process per core.
    """

    name = "ingest-persist"
    process_backend = True
    n_chunks = 32
    save_every = 4
    read_every = 2
    chunk_tail = 90
    read_tail = 80

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        machine = theta_machine(racks_per_row=4, node_limit=768)
        self.stream = TelemetryGenerator(
            machine, seed=self.seed, utilization_target=0.3
        ).generate(INITIAL + self.n_chunks * CHUNK, sensors=["cpu_temp"])
        self.ckpt_dir = os.path.join(workdir, "checkpoints")

    def setup(self) -> FleetMonitor:
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)
        monitor = FleetMonitor.from_stream(
            self.stream,
            policy=RackSharding(),
            config=_config(retain_data="window", retain_window=4 * CHUNK),
            executor="process",
            max_workers=os.cpu_count(),
            # Recovery snapshots on the checkpoint cadence, so the rounds
            # that persist state form one tail cluster.
            resilience=ResiliencePolicy(snapshot_every=self.save_every),
        )
        monitor.ingest(self.stream.values[:, :INITIAL])
        return monitor

    def episode(self, monitor: FleetMonitor, rec: Recorder, clock) -> int:
        readings = 0
        for index in range(self.n_chunks):
            col = INITIAL + index * CHUNK
            chunk = self.stream.values[:, col : col + CHUNK]
            result, seconds = rec.attempt(monitor.ingest_and_alert, chunk)
            ok = result is not FAILED
            if ok:
                readings += chunk.size
            if (index + 1) % self.save_every == 0:
                info, stall = rec.attempt(
                    save_checkpoint,
                    self.ckpt_dir,
                    monitor,
                    keep_last=2,
                    format="delta",
                    mode="async",
                )
                ok = ok and info is not FAILED
                seconds += stall
                if clock is not None:
                    clock.tick("checkpoint.save", stall)
            rec.chunks.append(seconds if ok else np.nan)
            if (index + 1) % self.read_every == 0:
                self._read(rec, clock, monitor.fleet_spectrum)
        flushed, flush_s = rec.attempt(monitor.flush_checkpoints)
        if clock is not None:
            clock.tick("checkpoint.flush", flush_s)
        closed, close_s = rec.attempt(monitor.close)
        ok = flushed is not FAILED and closed is not FAILED
        rec.finish.append(flush_s + close_s if ok else np.nan)
        return readings

    def check(self, monitor: FleetMonitor) -> list[str]:
        restored = load_checkpoint(self.ckpt_dir, rules=default_rules())
        try:
            if restored.step != monitor.step:
                return [f"newest checkpoint is at step {restored.step}, live at {monitor.step}"]
            problems = []
            live_stamps = monitor.shard_state_stamps()
            back_stamps = restored.shard_state_stamps()
            for shard_id, stamp in live_stamps.items():
                # Tokens and mutation counters restart on restore; the tree
                # position (snapshots ingested, deep work pending) must not.
                if back_stamps[shard_id][3:] != stamp[3:]:
                    problems.append(f"shard {shard_id}: stamp {back_stamps[shard_id]} vs {stamp}")
                if not _same(restored.shard_state_dict(shard_id), monitor.shard_state_dict(shard_id)):
                    problems.append(f"shard {shard_id}: restored state differs")
            window = (monitor.step - WINDOW, monitor.step)
            if restored.rack_values(time_range=window) != monitor.rack_values(time_range=window):
                problems.append("restored windowed rack_values differ from the live monitor's")
            return problems
        finally:
            restored.close()


def _same(a, b) -> bool:
    """Exact structural equality of nested state containers."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype.kind in "fc":
            return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
        return a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)):
        return (
            isinstance(b, (list, tuple))
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, float) and isinstance(b, float) and np.isnan(a) and np.isnan(b):
        return True
    return a == b


WORKLOADS = {cls.name: cls for cls in (AlertStream, IngestPersist)}
