"""Fault-tolerant fleet: supervision, retry/quarantine, crash recovery.

The contract under test: a supervised :class:`FleetMonitor` driven through
a deterministic :class:`FaultPlan` must (a) converge **bit-for-bit** with a
fault-free run for every recovered shard, on every backend — a worker
crash, a hang past the deadline or a transient exception costs retries and
rehydration but never changes the analysis — and (b) degrade *visibly* for
shards whose failures persist: the poisoned shard lands in quarantine, the
snapshot reports it, the quarantine alert fires, and the rest of the fleet
keeps answering.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core import MrDMDConfig
from repro.pipeline import PipelineConfig
from repro.resilience import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    PoisonChunkError,
    ResiliencePolicy,
    ShardRecoveryStore,
)
from repro.service import FleetMonitor, RackSharding, load_checkpoint, save_checkpoint
from repro.service.alerts import AlertEngine, default_rules
from repro.service.scenarios import ScenarioRunner, chaos_fleet, get_scenario, quiet_fleet
from repro.telemetry import TelemetryGenerator, theta_machine
from repro.util.parallel import (
    ProcessShardExecutor,
    ShardTaskError,
    ShardTimeoutError,
)

CONFIG = PipelineConfig(
    mrdmd=MrDMDConfig(max_levels=4),
    baseline_range=(40.0, 75.0),
)

INITIAL = 200
CHUNKS = (slice(200, 280), slice(280, 360))  # ingest rounds 2 and 3


@pytest.fixture(scope="module")
def fleet_stream():
    scenario = quiet_fleet()
    generator = TelemetryGenerator(scenario.machine, seed=23, utilization_target=0.3)
    return generator.generate(360, sensors=["cpu_temp"])


def _drive(stream, backend, *, resilience=None, fault_plan=None, max_workers=2):
    """Initial fit + two alert-evaluated chunks; returns closed monitor + trail."""
    monitor = FleetMonitor.from_stream(
        stream,
        policy=RackSharding(),
        config=CONFIG,
        alert_engine=AlertEngine(rules=default_rules(), cooldown=60),
        executor=backend,
        max_workers=max_workers,
        resilience=resilience,
        fault_plan=fault_plan,
    )
    alerts = []
    with monitor:
        monitor.ingest(stream.values[:, :INITIAL])
        snapshots = []
        for window in CHUNKS:
            snapshot, fired = monitor.ingest_and_alert(stream.values[:, window])
            snapshots.append(snapshot)
            alerts.extend(fired)
        states = monitor.shard_state_dicts()
    return monitor, snapshots, alerts, states


def _assert_state_equal(a, b, path=""):
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), path
        for key in a:
            _assert_state_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_state_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.shape == b.shape, path
        assert np.array_equal(a, b, equal_nan=True), path
    else:
        assert a == b, path


# --------------------------------------------------------------------------- #
# Fault plan and policy units
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_spec_matches_exact_coordinates(self):
        spec = FaultSpec(FaultKind.EXCEPTION, "rack-1", 2)
        assert spec.matches("rack-1", 2, 1)
        assert not spec.matches("rack-1", 2, 2)  # attempt defaults to 1
        assert not spec.matches("rack-1", 3, 1)
        assert not spec.matches("rack-0", 2, 1)

    def test_attempt_none_fires_every_attempt(self):
        spec = FaultSpec(FaultKind.EXCEPTION, "rack-1", 2, attempt=None)
        assert all(spec.matches("rack-1", 2, a) for a in (1, 2, 3, 7))

    def test_task_fault_skips_data_borne_poison(self):
        plan = FaultPlan(
            [
                FaultSpec(FaultKind.NAN_CHUNK, "rack-1", 2),
                FaultSpec(FaultKind.EXCEPTION, "rack-1", 2),
            ]
        )
        fault = plan.task_fault("rack-1", 2, 1)
        assert fault is not None and fault.kind is FaultKind.EXCEPTION
        assert plan.poisons("rack-1", 2)
        assert not plan.poisons("rack-1", 3)

    def test_poison_is_a_nan_copy(self):
        chunk = np.arange(12.0).reshape(3, 4)
        poisoned = FaultPlan.poison(chunk)
        assert poisoned.shape == chunk.shape
        assert np.all(np.isnan(poisoned))
        assert np.array_equal(chunk, np.arange(12.0).reshape(3, 4))  # untouched

    def test_persistent_faults_name_the_doomed_shards(self):
        plan = FaultPlan(
            [
                FaultSpec(FaultKind.NAN_CHUNK, "rack-3", 5),
                FaultSpec(FaultKind.EXCEPTION, "rack-2", 2, attempt=None),
                FaultSpec(FaultKind.CRASH, "rack-0", 2),  # transient
            ]
        )
        assert plan.shards_with_persistent_faults() == ("rack-2", "rack-3")

    def test_rejects_non_spec_entries(self):
        with pytest.raises(TypeError):
            FaultPlan(["rack-1"])

    def test_executed_exception_is_typed(self):
        with pytest.raises(InjectedFaultError):
            FaultSpec(FaultKind.EXCEPTION, "rack-1", 2).execute()


class TestResiliencePolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = ResiliencePolicy(backoff_base=0.02, backoff_cap=0.05, seed=8)
        first = [policy.backoff_delay("rack-1", a) for a in (1, 2, 3, 4)]
        again = [policy.backoff_delay("rack-1", a) for a in (1, 2, 3, 4)]
        assert first == again
        # jittered by at most +jitter, never below the exponential base
        assert 0.02 <= first[0] <= 0.02 * 1.5
        assert all(delay <= 0.05 * 1.5 for delay in first)

    def test_jitter_decorrelates_shards(self):
        policy = ResiliencePolicy(seed=8)
        assert policy.backoff_delay("rack-0", 1) != policy.backoff_delay("rack-1", 1)

    def test_zero_jitter_is_pure_exponential(self):
        policy = ResiliencePolicy(backoff_base=0.01, backoff_cap=1.0, jitter=0.0)
        assert policy.backoff_delay("s", 1) == 0.01
        assert policy.backoff_delay("s", 3) == 0.04

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"task_deadline": 0.0},
            {"backoff_base": -1.0},
            {"jitter": 2.0},
            {"snapshot_every": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ResiliencePolicy(**kwargs)


class TestShardTaskError:
    def test_carries_typed_context(self):
        cause = ValueError("boom")
        err = ShardTaskError("ingest failed", shard_id="rack-1", attempts=3, cause=cause)
        assert err.shard_id == "rack-1"
        assert err.attempts == 3
        assert err.cause is cause

    def test_survives_pickling(self):
        err = ShardTaskError("gone", shard_id="rack-2", attempts=2, kind="crash")
        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, ShardTaskError)
        assert (back.shard_id, back.attempts, back.kind) == ("rack-2", 2, "crash")

    def test_timeout_is_a_task_error(self):
        assert issubclass(ShardTimeoutError, ShardTaskError)


class TestRecoveryStore:
    def test_rebuild_replays_the_tail(self, fleet_stream):
        from repro.pipeline.online import OnlineAnalysisPipeline

        rows = fleet_stream.values[:16]
        pipeline = OnlineAnalysisPipeline(dt=fleet_stream.dt, config=CONFIG)
        pipeline.ingest(rows[:, :INITIAL])
        store = ShardRecoveryStore(snapshot_every=8)
        store.record_snapshot("s", pipeline.state_dict())
        for window in CHUNKS:
            pipeline.ingest(rows[:, window])
            store.record_chunk("s", rows[:, window])
        rebuilt, n_replayed = store.rebuild("s")
        assert n_replayed == len(CHUNKS)
        _assert_state_equal(rebuilt.state_dict(), pipeline.state_dict())


# --------------------------------------------------------------------------- #
# Supervised monitor: parity, retry, quarantine
# --------------------------------------------------------------------------- #
class TestSupervisedMonitor:
    def test_fault_free_supervision_is_invisible(self, fleet_stream):
        _, _, _, plain = _drive(fleet_stream, "serial")
        _, _, _, supervised = _drive(
            fleet_stream, "serial", resilience=ResiliencePolicy()
        )
        _assert_state_equal(supervised, plain)

    def test_fault_plan_requires_resilience(self, fleet_stream):
        with pytest.raises(ValueError, match="resilience"):
            FleetMonitor.from_stream(
                fleet_stream,
                policy=RackSharding(),
                config=CONFIG,
                fault_plan=FaultPlan([FaultSpec(FaultKind.EXCEPTION, "rack-0", 2)]),
            )

    @pytest.mark.parametrize(
        "kind", [FaultKind.CRASH, FaultKind.EXCEPTION, FaultKind.SLOW]
    )
    def test_transient_faults_converge_bit_for_bit(self, fleet_stream, kind):
        _, _, _, reference = _drive(fleet_stream, "serial")
        duration = 0.02 if kind is FaultKind.SLOW else 30.0
        _, snapshots, _, recovered = _drive(
            fleet_stream,
            "serial",
            resilience=ResiliencePolicy(backoff_base=0.001, backoff_cap=0.002, seed=8),
            fault_plan=FaultPlan(
                [FaultSpec(kind, "rack-1", 2, duration=duration)], seed=8
            ),
        )
        _assert_state_equal(recovered, reference)
        assert all(not snap.degraded_shards for snap in snapshots)

    def test_poison_quarantines_and_fleet_keeps_answering(self, fleet_stream):
        _, _, _, reference = _drive(fleet_stream, "serial")
        monitor, snapshots, alerts, states = _drive(
            fleet_stream,
            "serial",
            resilience=ResiliencePolicy(
                max_attempts=2, backoff_base=0.001, backoff_cap=0.002, seed=8
            ),
            fault_plan=FaultPlan([FaultSpec(FaultKind.NAN_CHUNK, "rack-2", 2)], seed=8),
        )
        assert monitor.quarantined_shards == ("rack-2",)
        info = monitor.quarantine_info["rack-2"]
        assert info["attempts"] == 2
        assert "PoisonChunkError" in info["reason"]
        # the round the poison landed (and every one after) reports it
        assert snapshots[0].degraded_shards == ("rack-2",)
        assert snapshots[1].degraded_shards == ("rack-2",)
        quarantine_alerts = [a for a in alerts if a.rule == "shard_quarantined"]
        assert quarantine_alerts and quarantine_alerts[0].shard_id == "rack-2"
        # healthy shards never saw the fault
        for sid in ("rack-0", "rack-1", "rack-3"):
            _assert_state_equal(states[sid], reference[sid], sid)
        # merged products exclude the quarantined shard's nodes but answer
        quarantined_nodes = {
            node for node in monitor.rack_values()
        }
        assert quarantined_nodes  # non-empty: the fleet still answers
        assert not any(32 <= node < 48 for node in quarantined_nodes)

    def test_plain_ingest_rounds_are_supervised(self, fleet_stream):
        """ingest() runs the same supervised round as ingest_and_alert():
        a planned persistent fault fires there and ends in quarantine."""
        monitor = FleetMonitor.from_stream(
            fleet_stream,
            policy=RackSharding(),
            config=CONFIG,
            resilience=ResiliencePolicy(
                max_attempts=2, backoff_base=0.001, backoff_cap=0.002, seed=8
            ),
            fault_plan=FaultPlan(
                [FaultSpec(FaultKind.EXCEPTION, "rack-1", 2, attempt=None)], seed=8
            ),
        )
        with monitor:
            first = monitor.ingest(fleet_stream.values[:, :INITIAL])
            snapshot = monitor.ingest(fleet_stream.values[:, CHUNKS[0]])
        assert first.degraded_shards == ()
        assert snapshot.degraded_shards == ("rack-1",)
        assert "rack-1" not in snapshot.shard_snapshots
        assert "InjectedFaultError" in monitor.quarantine_info["rack-1"]["reason"]

    def test_reinstate_rejoins_from_last_recovered_state(self, fleet_stream):
        monitor, _, _, _ = _drive(
            fleet_stream,
            "serial",
            resilience=ResiliencePolicy(
                max_attempts=2, backoff_base=0.001, backoff_cap=0.002, seed=8
            ),
            fault_plan=FaultPlan([FaultSpec(FaultKind.NAN_CHUNK, "rack-2", 3)], seed=8),
        )
        assert monitor.quarantined_shards == ("rack-2",)
        monitor.reinstate_shard("rack-2")
        assert monitor.quarantined_shards == ()
        # the rejoined shard answers queries again (from pre-poison state)
        assert set(monitor.rack_values()) == set(range(64))

    def test_poisoned_chunk_is_rejected_before_mutation(self, fleet_stream):
        from repro.pipeline.online import OnlineAnalysisPipeline

        pipeline = OnlineAnalysisPipeline(dt=fleet_stream.dt, config=CONFIG)
        pipeline.ingest(fleet_stream.values[:16, :INITIAL])
        before = pipeline.state_dict()
        with pytest.raises(PoisonChunkError):
            pipeline.ingest(FaultPlan.poison(fleet_stream.values[:16, 200:280]))
        _assert_state_equal(pipeline.state_dict(), before)

    def test_supervised_monitor_accepts_padded_missing_rows(self):
        """Under ``missing_rows="nan"`` + ``missing_values="zero"`` the
        padded NaN rows are zero-filled by the model: a supervised monitor
        ingests them exactly like a plain one instead of quarantining the
        shard as poisoned."""
        machine = theta_machine(racks_per_row=2, node_limit=64)
        stream = TelemetryGenerator(machine, seed=23, utilization_target=0.3).generate(
            300, sensors=["cpu_temp"]
        )
        config = replace(CONFIG, missing_values="zero")
        short = stream.values[:-4, INITIAL:300]  # the last 4 rows absent
        outcome = {}
        for label, resilience in (
            ("plain", None),
            ("supervised", ResiliencePolicy(max_attempts=2, backoff_base=0.0)),
        ):
            monitor = FleetMonitor.from_stream(
                stream,
                policy=RackSharding(),
                config=config,
                missing_rows="nan",
                resilience=resilience,
            )
            with monitor:
                monitor.ingest(stream.values[:, :INITIAL])
                snapshot = monitor.ingest(short)
                outcome[label] = (
                    snapshot,
                    monitor.quarantined_shards,
                    monitor.shard_state_dicts(),
                )
        snapshot, quarantined, states = outcome["supervised"]
        assert snapshot.ingest_stats.rows_padded == 4
        assert quarantined == ()
        assert snapshot.degraded_shards == ()
        assert set(snapshot.shard_snapshots) == set(states)
        _assert_state_equal(states, outcome["plain"][2])


class TestProcessRecovery:
    """Real crashes and real hangs: spawned workers die, state survives."""

    def test_worker_crash_recovers_bit_for_bit(self, fleet_stream):
        _, _, _, reference = _drive(fleet_stream, "serial")
        monitor, _, _, recovered = _drive(
            fleet_stream,
            "process",
            resilience=ResiliencePolicy(
                task_deadline=30.0, backoff_base=0.001, backoff_cap=0.002, seed=8
            ),
            fault_plan=FaultPlan([FaultSpec(FaultKind.CRASH, "rack-1", 2)], seed=8),
        )
        assert monitor.quarantined_shards == ()
        _assert_state_equal(recovered, reference)

    def test_hung_worker_is_reaped_and_recovers(self, fleet_stream):
        _, _, _, reference = _drive(fleet_stream, "serial")
        monitor, _, _, recovered = _drive(
            fleet_stream,
            "process",
            resilience=ResiliencePolicy(
                task_deadline=2.0, backoff_base=0.001, backoff_cap=0.002, seed=8
            ),
            fault_plan=FaultPlan(
                [FaultSpec(FaultKind.HANG, "rack-2", 2, duration=30.0)], seed=8
            ),
        )
        assert monitor.quarantined_shards == ()
        _assert_state_equal(recovered, reference)


# --------------------------------------------------------------------------- #
# Checkpoints carry quarantine state
# --------------------------------------------------------------------------- #
class TestQuarantineCheckpoint:
    def test_round_trips_through_save_load(self, fleet_stream, tmp_path):
        monitor, _, _, _ = _drive(
            fleet_stream,
            "serial",
            resilience=ResiliencePolicy(
                max_attempts=2, backoff_base=0.001, backoff_cap=0.002, seed=8
            ),
            fault_plan=FaultPlan([FaultSpec(FaultKind.NAN_CHUNK, "rack-2", 2)], seed=8),
        )
        assert monitor.quarantined_shards == ("rack-2",)
        save_checkpoint(str(tmp_path / "ckpt"), monitor)
        restored = load_checkpoint(
            str(tmp_path / "ckpt"),
            rules=default_rules(),
            resilience=ResiliencePolicy(),
        )
        assert restored.quarantined_shards == ("rack-2",)
        assert restored.quarantine_info["rack-2"]["attempts"] == 2
        # the restored monitor keeps excluding the shard from merges
        assert not any(32 <= node < 48 for node in restored.rack_values())


# --------------------------------------------------------------------------- #
# Executor shutdown with lost workers (satellite: close() force-terminate)
# --------------------------------------------------------------------------- #
def _sleep_forever(obj):
    time.sleep(60.0)
    return obj


def _identity(obj):
    return obj


class TestCloseWithHungWorker:
    def test_close_names_the_lost_shards(self):
        executor = ProcessShardExecutor(max_workers=2, close_timeout=0.5)
        executor.start({"a": 1, "b": 2})
        assert executor.call("a", _identity) == 1
        executor.submit("b", _sleep_forever)
        with pytest.raises(ShardTaskError, match="'b'") as excinfo:
            executor.close()
        assert excinfo.value.kind == "crash"
        assert executor.closed  # force-terminated, not leaked

    def test_clean_close_is_unaffected(self):
        executor = ProcessShardExecutor(max_workers=2, close_timeout=30.0)
        executor.start({"a": 1})
        assert executor.call("a", _identity) == 1
        executor.close()
        assert executor.closed


# --------------------------------------------------------------------------- #
# The chaos-fleet scenario end to end
# --------------------------------------------------------------------------- #
class TestChaosFleetScenario:
    def test_catalog_entry(self):
        scenario = get_scenario("chaos-fleet")
        assert scenario.resilience is not None
        assert scenario.fault_plan.shards_with_persistent_faults() == ("rack-3",)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_recovers_bit_for_bit_and_quarantines_the_poisoned_shard(
        self, backend
    ):
        from dataclasses import replace

        scenario = chaos_fleet()
        result = ScenarioRunner(
            scenario, executor=backend, max_workers=2
        ).run()
        reference = ScenarioRunner(
            replace(scenario, fault_plan=None, resilience=None)
        ).run()
        assert result.monitor.quarantined_shards == ("rack-3",)
        assert [a.rule for a in result.alerts if a.rule == "shard_quarantined"]
        for sid in ("rack-0", "rack-1", "rack-2"):
            _assert_state_equal(
                result.monitor.shard_state_dict(sid),
                reference.monitor.shard_state_dict(sid),
                sid,
            )
        # rack 3's nodes (48..63) are excluded; the rest match the clean run
        assert set(result.rack_values) == set(range(48))
        for node, value in result.rack_values.items():
            assert value == reference.rack_values[node]
