"""Checkpoint/restore round trips: storage format, pipeline state, monitor.

The central property: a restored monitor is *indistinguishable* from one
that never stopped — identical spectra, z-scores, rack values, and
identical products after further streaming.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import MrDMDConfig
from repro.io import load_state, save_state
from repro.pipeline import OnlineAnalysisPipeline, PipelineConfig
from repro.service import (
    FleetMonitor,
    RackSharding,
    RingBufferSink,
    ZScoreRule,
    list_checkpoints,
    load_checkpoint,
    read_manifest,
    resolve_checkpoint_dir,
    save_checkpoint,
)
from repro.service.alerts import AlertEngine
from repro.service.scenarios import quiet_fleet
from repro.telemetry import HotNodes, TelemetryGenerator

from helpers import make_multiscale_signal


CONFIG = PipelineConfig(
    mrdmd=MrDMDConfig(max_levels=4),
    baseline_range=(40.0, 75.0),
    power_quantile=0.3,
)


# --------------------------------------------------------------------------- #
# io.storage generic state format
# --------------------------------------------------------------------------- #
def test_save_state_round_trips_nested_structures(tmp_path):
    state = {
        "scalars": {"i": 3, "f": 1.5, "b": True, "none": None, "s": "hello"},
        "tup": (1, 2.5, "x"),
        "nested": [{"a": np.arange(4)}, (np.eye(2), "label")],
        "complex": np.array([1 + 2j, 3 - 4j]),
        "floaty": np.linspace(0, 1, 7),
        "empty": np.zeros((0, 3)),
    }
    path = str(tmp_path / "state.npz")
    save_state(path, state)
    restored = load_state(path)

    assert restored["scalars"] == state["scalars"]
    assert restored["tup"] == state["tup"]
    assert isinstance(restored["tup"], tuple)
    assert np.array_equal(restored["nested"][0]["a"], state["nested"][0]["a"])
    assert np.array_equal(restored["nested"][1][0], np.eye(2))
    assert restored["nested"][1][1] == "label"
    assert np.array_equal(restored["complex"], state["complex"])
    assert restored["complex"].dtype == np.complex128
    assert np.array_equal(restored["floaty"], state["floaty"])
    assert restored["empty"].shape == (0, 3)


def test_save_state_rejects_non_string_keys(tmp_path):
    with pytest.raises(TypeError, match="strings"):
        save_state(str(tmp_path / "bad.npz"), {1: "x"})


def test_save_state_rejects_reserved_keys(tmp_path):
    with pytest.raises(ValueError, match="__"):
        save_state(str(tmp_path / "bad.npz"), {"__array__": 1})


def test_save_state_rejects_unserialisable_objects(tmp_path):
    with pytest.raises(TypeError, match="cannot serialise"):
        save_state(str(tmp_path / "bad.npz"), {"obj": object()})


# --------------------------------------------------------------------------- #
# Pipeline state round trip
# --------------------------------------------------------------------------- #
def test_pipeline_state_round_trip_is_bit_exact(tmp_path):
    data, dt = make_multiscale_signal(n_sensors=12, n_timesteps=900)
    pipeline = OnlineAnalysisPipeline(
        dt=dt, config=CONFIG, node_of_row=np.arange(12) // 3
    )
    pipeline.ingest(data[:, :500])
    pipeline.ingest(data[:, 500:700])
    pipeline.fit_baseline()

    path = str(tmp_path / "pipeline.npz")
    save_state(path, pipeline.state_dict())
    restored = OnlineAnalysisPipeline.from_state_dict(load_state(path))

    assert np.array_equal(pipeline.reconstruction(), restored.reconstruction())
    assert np.array_equal(pipeline.spectrum().power, restored.spectrum().power)
    assert pipeline.rack_values() == restored.rack_values()

    # Streaming must continue identically after the round trip.
    chunk = data[:, 700:]
    assert pipeline.ingest(chunk) == restored.ingest(chunk)
    assert np.array_equal(pipeline.reconstruction(), restored.reconstruction())
    assert pipeline.rack_values() == restored.rack_values()


def test_pipeline_state_preserves_update_history():
    data, dt = make_multiscale_signal(n_sensors=8, n_timesteps=600)
    pipeline = OnlineAnalysisPipeline(dt=dt, config=CONFIG)
    pipeline.ingest(data[:, :300])
    pipeline.ingest(data[:, 300:450])
    pipeline.ingest(data[:, 450:])

    restored = OnlineAnalysisPipeline.from_state_dict(pipeline.state_dict())
    assert restored.model.history == pipeline.model.history
    assert np.array_equal(restored.model.drift_history, pipeline.model.drift_history)


# --------------------------------------------------------------------------- #
# Monitor checkpoint round trip
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def monitored_stream():
    scenario = quiet_fleet()
    generator = TelemetryGenerator(scenario.machine, seed=13, utilization_target=0.3)
    return generator.generate(
        560,
        sensors=["cpu_temp"],
        anomalies=[HotNodes(node_indices=(17, 18), start=260, delta=16.0)],
    )


def build_monitor(stream, sink=None):
    engine = AlertEngine(
        rules=[ZScoreRule()], sinks=[sink] if sink else [], cooldown=100
    )
    return FleetMonitor.from_stream(
        stream, policy=RackSharding(), config=CONFIG, alert_engine=engine
    )


def test_restored_monitor_matches_uninterrupted_run(monitored_stream, tmp_path):
    """The ISSUE acceptance property, as a test.

    Run A streams without interruption.  Run B checkpoints mid-stream,
    restores from disk, and streams the rest.  Every next-window product
    must match exactly.
    """
    values = monitored_stream.values
    splits = (240, 320, 400, 480, 560)

    # Run A: uninterrupted.
    mon_a = build_monitor(monitored_stream)
    lo = 0
    for hi in splits:
        mon_a.ingest(values[:, lo:hi])
        if lo > 0:
            mon_a.evaluate_alerts()
        lo = hi

    # Run B: checkpoint + restore after the second chunk.
    sink = RingBufferSink()
    mon_b = build_monitor(monitored_stream, sink)
    mon_b.ingest(values[:, :240])
    mon_b.ingest(values[:, 240:320])
    mon_b.evaluate_alerts()

    ckpt = save_checkpoint(str(tmp_path / "ckpt"), mon_b)
    assert ckpt.step == 320
    assert ckpt.n_shards == mon_b.n_shards
    assert ckpt.total_bytes > 0
    del mon_b

    mon_b = load_checkpoint(str(tmp_path / "ckpt"), rules=[ZScoreRule()], sinks=[sink])
    assert mon_b.step == 320
    for lo, hi in ((320, 400), (400, 480), (480, 560)):
        mon_b.ingest(values[:, lo:hi])
        mon_b.evaluate_alerts()

    assert mon_b.rack_values() == mon_a.rack_values()
    spec_a, spec_b = mon_a.spectra(), mon_b.spectra()
    for shard_id in spec_a:
        assert np.array_equal(spec_a[shard_id].power, spec_b[shard_id].power)
        assert np.array_equal(
            spec_a[shard_id].frequencies, spec_b[shard_id].frequencies
        )
    assert mon_b.node_zscores().zscores == pytest.approx(
        mon_a.node_zscores().zscores, abs=0.0
    )


def test_checkpoint_restores_alert_cooldown_state(monitored_stream, tmp_path):
    sink = RingBufferSink()
    monitor = build_monitor(monitored_stream, sink)
    monitor.ingest(monitored_stream.values[:, :320])
    fired = monitor.evaluate_alerts()
    assert fired or True  # cooldown state is what matters below
    before = monitor.alert_engine.state_dict()

    save_checkpoint(str(tmp_path / "ckpt"), monitor)
    restored = load_checkpoint(
        str(tmp_path / "ckpt"), rules=[ZScoreRule()], sinks=[sink]
    )
    assert restored.alert_engine is not None
    assert restored.alert_engine.state_dict()["last_fired"] == before["last_fired"]
    assert restored.alert_engine.cooldown == monitor.alert_engine.cooldown


def test_manifest_contents(monitored_stream, tmp_path):
    monitor = build_monitor(monitored_stream)
    monitor.ingest(monitored_stream.values[:, :240])
    save_checkpoint(str(tmp_path / "ckpt"), monitor)

    manifest = read_manifest(str(tmp_path / "ckpt"))
    assert manifest["version"] == 3
    assert manifest["step"] == 240
    assert len(manifest["shards"]) == monitor.n_shards
    assert "shard_files" not in manifest
    # A checkpoint written in place keeps its blocks inside itself.
    assert manifest["blocks_dir"] == "blocks"
    assert len(manifest["shard_blocks"]) == monitor.n_shards
    for digest in manifest["shard_blocks"]:
        assert os.path.exists(str(tmp_path / "ckpt" / "blocks" / f"{digest}.npz"))


def test_manifest_version_check(monitored_stream, tmp_path):
    monitor = build_monitor(monitored_stream)
    monitor.ingest(monitored_stream.values[:, :240])
    save_checkpoint(str(tmp_path / "ckpt"), monitor)
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest_path.write_text(manifest_path.read_text().replace('"version": 3', '"version": 99'))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(str(tmp_path / "ckpt"))


# --------------------------------------------------------------------------- #
# Rotating retention (save_checkpoint(..., keep_last=N))
# --------------------------------------------------------------------------- #
def test_rotated_checkpoints_prune_to_keep_last(monitored_stream, tmp_path):
    root = str(tmp_path / "rotating")
    monitor = build_monitor(monitored_stream)
    steps = (240, 320, 400, 480)
    lo = 0
    for hi in steps:
        monitor.ingest(monitored_stream.values[:, lo:hi])
        info = save_checkpoint(root, monitor, keep_last=2)
        assert info.directory.startswith(root)
        assert f"step_{hi:012d}" in info.directory
        lo = hi

    history = list_checkpoints(root)
    assert [entry.step for entry in history] == [480, 400], "newest first"
    for entry in history:
        assert os.path.isdir(entry.path)
        assert read_manifest(entry.path)["step"] == entry.step
    # Pruned entries are fully gone — no trash/tmp residue either; the
    # retained entries share the root's block store.
    assert sorted(os.listdir(root)) == [
        "blocks",
        "step_000000000400",
        "step_000000000480",
    ]


def test_load_checkpoint_resumes_from_rotation_root(monitored_stream, tmp_path):
    root = str(tmp_path / "rotating")
    monitor = build_monitor(monitored_stream)
    monitor.ingest(monitored_stream.values[:, :240])
    save_checkpoint(root, monitor, keep_last=3)
    monitor.ingest(monitored_stream.values[:, 240:320])
    save_checkpoint(root, monitor, keep_last=3)

    assert resolve_checkpoint_dir(root) == list_checkpoints(root)[0].path
    restored = load_checkpoint(root, rules=[ZScoreRule()])
    assert restored.step == 320
    assert restored.rack_values() == monitor.rack_values()
    # An older entry is still loadable explicitly.
    older = load_checkpoint(list_checkpoints(root)[1].path)
    assert older.step == 240


def test_rollback_save_discards_abandoned_future_entries(monitored_stream, tmp_path):
    """Restore an older rotation entry, resume, checkpoint again: entries
    newer than the resumed timeline are from an abandoned future and must
    be discarded — and the just-written checkpoint must survive (it used
    to be pruned as the 'oldest' entry and the save crashed)."""
    root = str(tmp_path / "rotating")
    monitor = build_monitor(monitored_stream)
    lo = 0
    for hi in (240, 320, 400):
        monitor.ingest(monitored_stream.values[:, lo:hi])
        save_checkpoint(root, monitor, keep_last=2)
        lo = hi
    assert [e.step for e in list_checkpoints(root)] == [400, 320]

    # Roll back to step 320 and resume on a shorter cadence.
    rolled = load_checkpoint(list_checkpoints(root)[1].path, rules=[ZScoreRule()])
    rolled.ingest(monitored_stream.values[:, 320:360])
    info = save_checkpoint(root, rolled, keep_last=2)
    assert os.path.isdir(info.directory)
    history = list_checkpoints(root)
    assert [e.step for e in history] == [360, 320], "step_400 was abandoned"
    assert load_checkpoint(root).step == 360


def test_rotated_save_replaces_same_step(monitored_stream, tmp_path):
    root = str(tmp_path / "rotating")
    monitor = build_monitor(monitored_stream)
    monitor.ingest(monitored_stream.values[:, :240])
    save_checkpoint(root, monitor, keep_last=2)
    save_checkpoint(root, monitor, keep_last=2)  # same step again
    assert [entry.step for entry in list_checkpoints(root)] == [240]


def test_list_checkpoints_ignores_partial_and_foreign_entries(tmp_path):
    root = tmp_path / "rotating"
    root.mkdir()
    (root / "step_000000000100").mkdir()  # no manifest: incomplete write
    (root / "step_000000000200.tmp").mkdir()  # in-flight write
    (root / "not-a-checkpoint").mkdir()
    assert list_checkpoints(str(root)) == []
    with pytest.raises(FileNotFoundError, match="no checkpoint"):
        load_checkpoint(str(root))


def test_keep_last_validation(monitored_stream, tmp_path):
    monitor = build_monitor(monitored_stream)
    monitor.ingest(monitored_stream.values[:, :240])
    with pytest.raises(ValueError, match="keep_last"):
        save_checkpoint(str(tmp_path / "rot"), monitor, keep_last=0)
