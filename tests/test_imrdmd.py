"""Unit tests for the incremental mrDMD (repro.core.imrdmd) — the paper's contribution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.imrdmd import IncrementalMrDMD, UpdateRecord
from repro.core.mrdmd import MrDMDConfig, compute_mrdmd

from helpers import make_multiscale_signal


@pytest.fixture(scope="module")
def signal():
    return make_multiscale_signal(n_sensors=12, n_timesteps=1600, seed=21)


class TestFit:
    def test_fit_builds_batch_tree(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=4)
        model.fit(data[:, :800])
        batch = compute_mrdmd(data[:, :800], dt, MrDMDConfig(max_levels=4))
        assert len(model.tree) == len(batch)
        assert model.n_snapshots == 800
        assert model.n_features == 12
        assert model.fitted

    def test_fit_validates_input(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        with pytest.raises(ValueError):
            model.fit(data[:, :4])       # shorter than min_window
        with pytest.raises(ValueError):
            model.fit(np.ones(10))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            IncrementalMrDMD(dt=0.0)
        with pytest.raises(ValueError):
            IncrementalMrDMD(dt=1.0, drift_threshold=-1.0)
        with pytest.raises(TypeError):
            IncrementalMrDMD(dt=1.0, config=MrDMDConfig(), max_levels=3)

    def test_unfitted_access_raises(self):
        model = IncrementalMrDMD(dt=1.0)
        assert not model.fitted
        with pytest.raises(RuntimeError):
            _ = model.tree
        with pytest.raises(RuntimeError):
            model.partial_fit(np.ones((3, 10)))
        with pytest.raises(RuntimeError):
            model.reconstruct()


class TestPartialFit:
    def test_update_record_fields(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=4)
        model.fit(data[:, :800])
        record = model.partial_fit(data[:, 800:1200])
        assert isinstance(record, UpdateRecord)
        assert record.chunk_size == 400
        assert record.total_snapshots == 1200
        assert record.level1_modes >= 0
        assert record.drift >= 0.0
        assert record.new_nodes >= 1

    def test_levels_are_reindexed(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        model.fit(data[:, :800])
        levels_before = model.tree.n_levels
        model.partial_fit(data[:, 800:1200])
        # A single level-1 node spans the new total; the old tree is one deeper.
        level1 = model.tree.nodes_at_level(1)
        assert len(level1) == 1
        assert level1[0].n_snapshots == 1200
        assert model.tree.n_levels == levels_before + 1

    def test_new_level1_contributes_only_over_new_chunk(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        model.fit(data[:, :800])
        model.partial_fit(data[:, 800:1200])
        level1 = model.tree.nodes_at_level(1)[0]
        assert level1.contribution_window == (800, 1200)

    def test_reconstruction_covers_full_timeline(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=4, retain_data="all")
        model.fit(data[:, :800])
        model.partial_fit(data[:, 800:])
        recon = model.reconstruct()
        assert recon.shape == data.shape
        rel = np.linalg.norm(data - recon) / np.linalg.norm(data)
        assert rel < 0.15

    def test_incremental_close_to_batch_accuracy_q2(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=4, retain_data="all")
        model.fit(data[:, :800])
        model.partial_fit(data[:, 800:])
        gap = model.incremental_vs_batch_gap(data)
        err_batch = np.linalg.norm(
            data - compute_mrdmd(data, dt, model.config).reconstruct(data.shape[1])
        )
        # The incremental shortcut gives up only a small fraction of accuracy.
        assert gap <= 0.5 * err_batch + 1e-9

    def test_multiple_chunks(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=3, retain_data="all")
        model.fit(data[:, :400])
        for lo in range(400, 1600, 400):
            model.partial_fit(data[:, lo : lo + 400])
        assert model.n_snapshots == 1600
        assert len(model.history) == 3
        assert model.drift_history.shape == (3,)
        recon = model.reconstruct()
        assert np.all(np.isfinite(recon))

    def test_single_column_chunk(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        model.fit(data[:, :800])
        record = model.partial_fit(data[:, 800])
        assert record.chunk_size == 1
        assert model.n_snapshots == 801

    def test_feature_mismatch_rejected(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        model.fit(data[:, :800])
        with pytest.raises(ValueError):
            model.partial_fit(np.ones((5, 10)))

    def test_empty_chunk_rejected(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        model.fit(data[:, :800])
        with pytest.raises(ValueError):
            model.partial_fit(np.zeros((12, 0)))


class TestDriftAndRefresh:
    def test_drift_threshold_marks_stale(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=3, drift_threshold=0.0, retain_data="all")
        model.fit(data[:, :800])
        record = model.partial_fit(data[:, 800:1200] + 50.0)   # large regime change
        assert record.stale
        assert model.stale_levels

    def test_no_threshold_never_stale(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        model.fit(data[:, :800])
        model.partial_fit(data[:, 800:1200])
        assert not model.stale_levels

    def test_refresh_requires_keep_data(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        model.fit(data[:, :800])
        with pytest.raises(RuntimeError):
            model.refresh()

    def test_refresh_matches_batch_tree(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=3, retain_data="all", drift_threshold=0.0)
        model.fit(data[:, :800])
        model.partial_fit(data[:, 800:1200])
        assert model.stale_levels
        refreshed = model.refresh()
        assert not model.stale_levels
        batch = compute_mrdmd(data[:, :1200], dt, model.config)
        assert len(refreshed) == len(batch)
        assert np.allclose(
            refreshed.reconstruct(1200), batch.reconstruct(1200), atol=1e-8
        )

    def test_reconstruction_error_requires_reference_or_keep_data(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=3)
        model.fit(data[:, :800])
        with pytest.raises(RuntimeError):
            model.reconstruction_error()
        err = model.reconstruction_error(data[:, :800])
        assert err >= 0.0

    def test_reconstruction_error_shape_check(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(dt=dt, max_levels=3, retain_data="all")
        model.fit(data[:, :800])
        with pytest.raises(ValueError):
            model.reconstruction_error(data[:, :700])


class TestPerformanceShape:
    def test_partial_fit_cheaper_than_refit_for_long_history(self):
        """The headline claim: updating is cheaper than recomputing (Table I)."""
        import time

        data, dt = make_multiscale_signal(n_sensors=60, n_timesteps=6000, seed=3)
        config = MrDMDConfig(max_levels=6)
        model = IncrementalMrDMD(dt=dt, config=config)
        model.fit(data[:, :5000])

        start = time.perf_counter()
        model.partial_fit(data[:, 5000:])
        partial_seconds = time.perf_counter() - start

        start = time.perf_counter()
        compute_mrdmd(data, dt, config)
        full_seconds = time.perf_counter() - start

        assert partial_seconds < full_seconds
