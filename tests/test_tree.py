"""Unit tests for the mrDMD tree data structures (repro.core.tree)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import IncrementalMrDMD
from repro.core.tree import ModeTable, MrDMDNode, MrDMDTree

from helpers import make_multiscale_signal
from reference_viz import reference_mode_table


def make_node(
    level: int = 1,
    bin_index: int = 0,
    start: int = 0,
    n_snapshots: int = 100,
    dt: float = 1.0,
    n_features: int = 4,
    n_modes: int = 2,
    eigenvalue: complex = 0.999 + 0.01j,
) -> MrDMDNode:
    gen = np.random.default_rng(level * 100 + bin_index)
    modes = gen.standard_normal((n_features, n_modes)) + 1j * gen.standard_normal((n_features, n_modes))
    eigenvalues = np.full(n_modes, eigenvalue, dtype=complex)
    amplitudes = gen.standard_normal(n_modes) + 0j
    return MrDMDNode(
        level=level,
        bin_index=bin_index,
        start=start,
        n_snapshots=n_snapshots,
        dt=dt,
        step=1,
        rho=0.1,
        modes=modes,
        eigenvalues=eigenvalues,
        amplitudes=amplitudes,
        svd_rank=n_modes,
    )


class TestMrDMDNode:
    def test_basic_properties(self):
        node = make_node()
        assert node.n_modes == 2
        assert node.n_features == 4
        assert node.end == 100
        assert node.local_dt == 1.0
        assert node.time_span == (0.0, 100.0)

    def test_frequencies_and_power_shapes(self):
        node = make_node()
        assert node.frequencies.shape == (2,)
        assert node.power.shape == (2,)
        assert np.all(node.power > 0)

    def test_empty_node_properties(self):
        node = make_node(n_modes=0)
        assert node.n_modes == 0
        assert node.frequencies.shape == (0,)
        assert node.power.shape == (0,)
        recon = node.local_reconstruction(10)
        assert recon.shape == (4, 10)
        assert np.allclose(recon, 0.0)

    def test_local_reconstruction_is_real_and_finite(self):
        node = make_node()
        recon = node.local_reconstruction()
        assert recon.shape == (4, 100)
        assert np.isrealobj(recon)
        assert np.all(np.isfinite(recon))

    def test_local_reconstruction_range_matches_full(self):
        node = make_node()
        full = node.local_reconstruction(100)
        part = node.local_reconstruction_range(30, 20)
        assert np.allclose(part, full[:, 30:50])

    def test_contribution_window_defaults_to_full_span(self):
        node = make_node(start=10, n_snapshots=50)
        assert node.contribution_window == (10, 60)

    def test_contribution_window_clipping(self):
        node = make_node(start=0, n_snapshots=100)
        node.contribution_start = 40
        node.contribution_end = 80
        assert node.contribution_window == (40, 80)

    def test_copy_with_overrides(self):
        node = make_node()
        copy = node.copy_with(level=5, start=7)
        assert copy.level == 5 and copy.start == 7
        assert copy.n_snapshots == node.n_snapshots
        assert copy.modes is node.modes  # shallow copy

    def test_growth_rates_sign(self):
        decaying = make_node(eigenvalue=0.9 + 0.0j)
        growing = make_node(eigenvalue=1.1 + 0.0j)
        assert np.all(decaying.growth_rates < 0)
        assert np.all(growing.growth_rates > 0)


class TestMrDMDTreeStructure:
    def test_add_and_iterate(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        tree.add(make_node(level=1))
        tree.add(make_node(level=2, start=0, n_snapshots=50))
        tree.add(make_node(level=2, bin_index=1, start=50, n_snapshots=50))
        assert len(tree) == 3
        assert tree.n_levels == 2
        assert tree.n_snapshots == 100
        assert [n.level for n in tree] == [1, 2, 2]
        assert tree[0].level == 1

    def test_feature_mismatch_rejected(self):
        # On a tree that never grew, any width mismatch is a bug.
        tree = MrDMDTree(dt=1.0, n_features=5)
        with pytest.raises(ValueError):
            tree.add(make_node(n_features=4))
        with pytest.raises(ValueError):
            tree.add(make_node(n_features=6))
        # After an add_features topology event, nodes down to the
        # pre-event width are legal and zero-extend lazily.
        tree = MrDMDTree(dt=1.0, n_features=4)
        tree.add_features(1)
        tree.add(make_node(n_features=4))
        with pytest.raises(ValueError):
            tree.add(make_node(n_features=3))  # narrower than pre-event
        assert np.array_equal(tree.mode_table().power, tree[0].power)
        assert tree.reconstruct(100).shape == (5, 100)

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            MrDMDTree(dt=0.0, n_features=4)
        with pytest.raises(ValueError):
            MrDMDTree(dt=1.0, n_features=0)

    def test_nodes_at_level_sorted_by_start(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        tree.add(make_node(level=2, bin_index=1, start=50, n_snapshots=50))
        tree.add(make_node(level=2, bin_index=0, start=0, n_snapshots=50))
        nodes = tree.nodes_at_level(2)
        assert [n.start for n in nodes] == [0, 50]

    def test_shift_levels(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        tree.add(make_node(level=1))
        tree.add(make_node(level=2))
        tree.shift_levels(1)
        assert tree.levels() == [2, 3]
        with pytest.raises(ValueError):
            tree.shift_levels(-1)

    def test_total_modes_and_summary(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        tree.add(make_node(level=1, n_modes=3))
        tree.add(make_node(level=2, n_modes=1))
        assert tree.total_modes == 4
        summary = tree.summary()
        assert "level 1" in summary and "level 2" in summary


class TestModeTableAndReconstruction:
    def test_mode_table_flattening(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        tree.add(make_node(level=1, n_modes=2))
        tree.add(make_node(level=2, n_modes=3))
        table = tree.mode_table()
        assert len(table) == 5
        assert list(ModeTable.__dataclass_fields__) == [
            "frequencies", "power", "amplitudes", "levels",
        ]
        assert table.levels.tolist() == [1, 1, 2, 2, 2]

    def test_mode_table_empty_tree(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        table = tree.mode_table()
        assert len(table) == 0
        assert table.power.dtype == float and table.levels.dtype == int

    def test_mode_table_filter(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        tree.add(make_node(level=1, n_modes=4))
        table = tree.mode_table()
        filtered = table.filter(table.power > np.median(table.power))
        assert isinstance(filtered, ModeTable)
        assert len(filtered) <= len(table)

    def test_reconstruct_sums_node_contributions(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        node1 = make_node(level=1, n_snapshots=100)
        node2 = make_node(level=2, start=0, n_snapshots=50)
        tree.add(node1)
        tree.add(node2)
        recon = tree.reconstruct(100)
        expected = node1.local_reconstruction(100)
        expected[:, :50] += node2.local_reconstruction(50)
        assert np.allclose(recon, expected)

    def test_reconstruct_respects_contribution_window(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        node = make_node(level=1, n_snapshots=100)
        node.contribution_start = 60
        tree.add(node)
        recon = tree.reconstruct(100)
        assert np.allclose(recon[:, :60], 0.0)
        assert not np.allclose(recon[:, 60:], 0.0)

    def test_reconstruct_level_filter(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        tree.add(make_node(level=1))
        tree.add(make_node(level=2))
        only_level1 = tree.reconstruct(100, levels=[1])
        both = tree.reconstruct(100)
        assert not np.allclose(only_level1, both)

    def test_reconstruct_frequency_filter_drops_fast_modes(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        slow = make_node(level=1, eigenvalue=np.exp(1j * 0.001))
        fast = make_node(level=2, eigenvalue=np.exp(1j * 2.0))
        tree.add(slow)
        tree.add(fast)
        # keep only modes below 0.01 Hz
        recon = tree.reconstruct(100, frequency_range=(0.0, 0.01))
        expected = slow.local_reconstruction(100)
        assert np.allclose(recon, expected)

    def test_reconstruct_min_power_filter(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        node = make_node(level=1, n_modes=3)
        tree.add(node)
        heavy = tree.reconstruct(100, min_power=float(node.power.max()) + 1.0)
        assert np.allclose(heavy, 0.0)

    def test_reconstruct_shorter_than_tree_span(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        tree.add(make_node(level=1, n_snapshots=100))
        recon = tree.reconstruct(40)
        assert recon.shape == (4, 40)


def assert_tables_identical(got: ModeTable, want: ModeTable) -> None:
    for name in ModeTable.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), name


class TestModeTableOracle:
    """mode_table() appends only new nodes' rows; the table rebuilt from
    every node is the oracle across every structural edit."""

    STEPS = [
        lambda t: t.add(make_node(level=1, n_modes=2)),
        lambda t: t.add(make_node(level=2, n_modes=0)),
        lambda t: t.add(make_node(level=2, bin_index=1, start=50, n_modes=3)),
        lambda t: t.shift_levels(1),
        lambda t: t.add_features(2),
        lambda t: t.add(make_node(level=1, n_features=6, n_modes=1)),
        lambda t: t.shift_levels(2),
        lambda t: t.add(make_node(level=1, bin_index=7, n_features=6, n_modes=4)),
        lambda t: t.add(make_node(level=2, bin_index=8, n_features=6, n_modes=0)),
    ]

    def test_every_edit_matches_the_oracle(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        assert_tables_identical(tree.mode_table(), reference_mode_table(tree))
        for step in self.STEPS:
            tree.mode_table()  # extend the rows before the edit
            step(tree)
            assert_tables_identical(tree.mode_table(), reference_mode_table(tree))

    def test_edits_between_reads_match_the_oracle(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        for step in self.STEPS:
            step(tree)
        assert_tables_identical(tree.mode_table(), reference_mode_table(tree))

    def test_streaming_model_matches_the_oracle(self):
        data, dt = make_multiscale_signal(n_sensors=8, n_timesteps=960)
        model = IncrementalMrDMD(dt=dt, max_levels=4)
        model.fit(data[:, :480])
        for lo in range(480, 960, 120):
            model.partial_fit(data[:, lo : lo + 120])
            if lo == 600:
                model.add_rows(2)
                data = np.vstack([data, data[:2]])
            assert_tables_identical(
                model.tree.mode_table(), reference_mode_table(model.tree)
            )

    def test_a_table_is_read_only_and_outlives_later_edits(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        for step in self.STEPS:
            before = tree.mode_table()
            kept = {
                name: getattr(before, name).copy()
                for name in ModeTable.__dataclass_fields__
            }
            step(tree)
            tree.mode_table()
            for name, column in kept.items():
                assert np.array_equal(getattr(before, name), column), name
                with pytest.raises(ValueError):
                    getattr(before, name)[:] = 0
        filtered = tree.mode_table().filter(tree.mode_table().levels > 1)
        with pytest.raises(ValueError):
            filtered.power[:] = 0

    def test_rows_are_not_pickled(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        tree.add(make_node(level=1, n_modes=3))
        cold = pickle.dumps(tree)
        tree.mode_table()
        warm = pickle.dumps(tree)
        assert warm == cold
        restored = pickle.loads(warm)
        assert_tables_identical(restored.mode_table(), reference_mode_table(tree))
        restored.add(make_node(level=2, n_modes=2))
        assert_tables_identical(restored.mode_table(), reference_mode_table(restored))
        assert "_table_rows" not in tree.to_dict()


class TestWindowedReconstruction:
    def _multi_node_tree(self) -> MrDMDTree:
        """Uneven tree with a partial contribution window (post-append shape)."""
        tree = MrDMDTree(dt=1.0, n_features=4)
        level1 = make_node(level=1, n_snapshots=100)
        level1.contribution_start = 60  # the incremental-append shape
        tree.add(level1)
        tree.add(make_node(level=2, start=0, n_snapshots=60))
        tree.add(make_node(level=3, start=0, n_snapshots=30))
        tree.add(make_node(level=3, start=30, bin_index=1, n_snapshots=30))
        tree.add(make_node(level=2, start=60, bin_index=1, n_snapshots=40))
        return tree

    # Windowed output matches the corresponding slice of the full
    # reconstruction to machine precision.  (Exact bitwise equality is not
    # guaranteed: BLAS may order the mode-sum differently for different
    # column counts, which perturbs the last ulp.)
    TOL = dict(rtol=1e-12, atol=1e-12)

    def test_window_equals_slice_of_full(self):
        tree = self._multi_node_tree()
        full = tree.reconstruct(100)
        for lo, hi in [(0, 100), (0, 10), (45, 75), (90, 100), (59, 61)]:
            windowed = tree.reconstruct(100, time_range=(lo, hi))
            assert windowed.shape == (4, hi - lo)
            assert np.allclose(windowed, full[:, lo:hi], **self.TOL), (lo, hi)

    def test_window_equals_slice_with_filters(self):
        tree = self._multi_node_tree()
        power = np.concatenate([n.power for n in tree])
        min_power = float(np.median(power))
        full = tree.reconstruct(100, min_power=min_power, frequency_range=(0.0, 0.01))
        windowed = tree.reconstruct(
            100, time_range=(20, 80), min_power=min_power, frequency_range=(0.0, 0.01)
        )
        assert np.allclose(windowed, full[:, 20:80], **self.TOL)

    def test_window_is_clamped_to_timeline(self):
        tree = self._multi_node_tree()
        full = tree.reconstruct(100)
        windowed = tree.reconstruct(100, time_range=(-25, 1000))
        assert np.allclose(windowed, full, **self.TOL)

    def test_empty_window(self):
        tree = self._multi_node_tree()
        assert tree.reconstruct(100, time_range=(40, 40)).shape == (4, 0)
        assert tree.reconstruct(100, time_range=(200, 300)).shape == (4, 0)

    def test_reversed_window_rejected(self):
        tree = self._multi_node_tree()
        with pytest.raises(ValueError, match="time_range"):
            tree.reconstruct(100, time_range=(50, 10))


class TestTouchedColumns:
    def test_edits_report_the_earliest_column_they_touch(self):
        tree = MrDMDTree(dt=1.0, n_features=4)
        tree.add(make_node(level=1, n_snapshots=100))
        before, seen = tree.revision, len(tree)
        assert tree.touched_since(before, seen) is None
        tree.shift_levels(1)
        assert tree.touched_since(before, seen) is None, "levels do not enter the sum"
        appended = make_node(level=1, n_snapshots=160)
        appended.contribution_start = 100
        tree.add(appended)
        tree.add(make_node(level=2, start=120, n_snapshots=40))
        assert tree.touched_since(before, seen) == 100
        assert tree.touched_since(tree.revision - 1, len(tree) - 1) == 120
        grown = tree.revision
        tree.add_features(2)
        assert tree.touched_since(grown, len(tree)) == 0
        assert tree.touched_since(tree.revision, len(tree)) is None

    def test_windowed_reconstruct_skips_nodes_outside_the_window(self, monkeypatch):
        tree = TestWindowedReconstruction()._multi_node_tree()
        expanded = []
        original = MrDMDNode.local_reconstruction_range

        def counting(node, offset, length):
            expanded.append((node.level, node.start))
            return original(node, offset, length)

        monkeypatch.setattr(MrDMDNode, "local_reconstruction_range", counting)
        tree.reconstruct(100, time_range=(65, 100))
        # Insertion order: the level-1 append node, then the right level 2.
        assert expanded == [(1, 0), (2, 60)]


class TestSerialization:
    def test_round_trip(self):
        tree = MrDMDTree(dt=0.5, n_features=4)
        node = make_node(level=1, dt=0.5)
        node.contribution_start = 10
        tree.add(node)
        tree.add(make_node(level=2, dt=0.5, bin_index=1))
        payload = tree.to_dict()
        restored = MrDMDTree.from_dict(payload)
        assert len(restored) == len(tree)
        assert restored.dt == tree.dt
        assert restored[0].contribution_start == 10
        assert restored[1].contribution_start is None
        assert np.allclose(restored.reconstruct(100), tree.reconstruct(100))

    def test_round_trip_keeps_values_and_layout(self):
        tree = MrDMDTree(dt=0.5, n_features=4)
        tree.add(make_node(level=1, dt=0.5))
        fortran = make_node(level=2, dt=0.5, bin_index=1, n_modes=3)
        fortran.modes = np.asfortranarray(fortran.modes)
        tree.add(fortran)
        tree.add(make_node(level=3, dt=0.5, n_modes=0))
        payload = tree.to_dict()
        assert all(
            not value.flags.writeable
            for value in payload.values()
            if isinstance(value, np.ndarray)
        )
        restored = MrDMDTree.from_dict(payload)
        for node, back in zip(tree, restored):
            for name in ("modes", "eigenvalues", "amplitudes"):
                assert np.array_equal(getattr(back, name), getattr(node, name))
            assert back.modes.flags.f_contiguous == node.modes.flags.f_contiguous
        assert np.array_equal(restored.reconstruct(100), tree.reconstruct(100))

    def test_reads_the_per_node_layout(self):
        """Checkpoints written before to_dict stacked its arrays."""
        tree = MrDMDTree(dt=0.5, n_features=4)
        tree.add(make_node(level=1, dt=0.5))
        tree.add(make_node(level=2, dt=0.5, bin_index=1))
        fields = (
            "level", "bin_index", "start", "n_snapshots", "dt", "step", "rho",
            "modes", "eigenvalues", "amplitudes", "svd_rank",
            "contribution_start", "contribution_end",
        )
        legacy = {
            "dt": tree.dt,
            "n_features": tree.n_features,
            "nodes": [{f: getattr(n, f) for f in fields} for n in tree],
        }
        restored = MrDMDTree.from_dict(legacy)
        assert np.array_equal(restored.reconstruct(100), tree.reconstruct(100))
