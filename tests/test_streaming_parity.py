"""Parity and regression suite for the O(T)-streaming core overhaul.

Pins the contract of the lazy right-factor rotation, the growth buffers
and the projected level-1 path:

* lazy ``Vh`` rotation is **bit-for-bit** identical to eager per-update
  rotation — for the raw :class:`IncrementalSVD` (including mid-stream
  ``to_dict``/``from_dict`` checkpoints) against an inline
  re-implementation of the pre-overhaul (seed) eager algorithm, and
  against a run that reads ``.vh`` after every update;
* :class:`IncrementalMrDMD` produces bit-for-bit the trees, checkpoints
  and pipeline z-scores of a run that materialises ``Vh`` after every
  update (the serial/process executor parity suite in
  ``test_service_executor.py`` extends this across backends), and
  reconstructs within 5% of the data norm of the dense whole-timeline
  level-1 oracle (``reference_level1.DenseLevel1MrDMD``);
* checkpoints carrying the retired ``level1_path``/``lazy_vh``/
  ``lazy_rotation``/``baseline_refit`` keys still restore and resume;
* growth-buffer accumulation matches ``np.hstack`` accumulation exactly;
* per-update cost of the streaming path does not grow with the stream
  length (the regression guard for the ISSUE's O(T^2) degradation);
* ``add_rows`` participates in the re-orthogonalisation schedule;
* the raw-snapshot retention policies are behaviour-preserving for every
  analysis product and every other state entry (retention never feeds
  the numerics, and the level-1 grid keeps only its trailing column under
  every policy); states carrying the older full grid restore to it.
"""

from __future__ import annotations

import copy
import time

import numpy as np
import pytest

from repro.core.imrdmd import RETENTION_POLICIES, IncrementalMrDMD
from repro.core.isvd import IncrementalSVD
from repro.core.mrdmd import MrDMDConfig, decompose_window
from repro.core.svht import svht_rank
from repro.pipeline import OnlineAnalysisPipeline, PipelineConfig

from helpers import make_multiscale_signal
from reference_level1 import DenseLevel1MrDMD


def _assert_state_equal(a, b, path=""):
    """Deep bit-for-bit comparison of nested state dicts."""
    assert type(a) is type(b), f"{path}: {type(a)} vs {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _assert_state_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_state_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert np.array_equal(a, b, equal_nan=True), path
    else:
        assert a == b, path


# --------------------------------------------------------------------------- #
# The pre-overhaul (seed) incremental SVD, reimplemented verbatim: eager
# per-update right-factor rotation, no reorthogonalisation on add_rows.
# The new lazy path must reproduce its factors bit for bit.
# --------------------------------------------------------------------------- #
class _SeedEagerISVD:
    def __init__(self, rank=None, *, use_svht=True, max_rank_cap=512,
                 reorthogonalize_every=16):
        self.rank = rank
        self.use_svht = use_svht
        self.max_rank_cap = max_rank_cap
        self.reorthogonalize_every = reorthogonalize_every
        self.u = self.s = self.vh = None
        self.n_cols_seen = 0
        self.n_updates = 0

    def _truncation_rank(self, s, shape):
        if self.use_svht:
            decision = svht_rank(s, shape, max_rank=self.rank or self.max_rank_cap)
            r = decision.rank
        else:
            r = s.size if self.rank is None else min(self.rank, s.size)
        return int(min(max(r, 1), self.max_rank_cap, s.size)) if s.size else 0

    def initialize(self, data):
        u, s, vh = np.linalg.svd(data, full_matrices=False)
        r = self._truncation_rank(s, data.shape)
        self.u = np.ascontiguousarray(u[:, :r])
        self.s = np.ascontiguousarray(s[:r])
        self.vh = np.ascontiguousarray(vh[:r, :])
        self.n_cols_seen = data.shape[1]

    def update(self, c_block):
        u, s, vh = self.u, self.s, self.vh
        q = s.size
        c = c_block.shape[1]
        l_proj = u.conj().T @ c_block
        residual = c_block - u @ l_proj
        j, k = np.linalg.qr(residual)
        k_cols = j.shape[1]
        core = np.zeros((q + k_cols, q + c), dtype=np.float64)
        core[:q, :q] = np.diag(s)
        core[:q, q:] = l_proj
        core[q:, q:] = k
        cu, cs, cvh = np.linalg.svd(core, full_matrices=False)
        total_cols = self.n_cols_seen + c
        r = self._truncation_rank(cs, (u.shape[0], total_cols))
        r = min(r, cs.size)
        new_u = np.hstack([u, j]) @ cu[:, :r]
        new_vh = np.empty((r, total_cols), dtype=np.float64)
        np.matmul(cvh[:r, :q], vh, out=new_vh[:, : self.n_cols_seen])
        new_vh[:, self.n_cols_seen:] = cvh[:r, q:]
        self.u, self.s, self.vh = new_u, np.ascontiguousarray(cs[:r]), new_vh
        self.n_cols_seen = total_cols
        self.n_updates += 1
        if self.reorthogonalize_every and self.n_updates % self.reorthogonalize_every == 0:
            qmat, rmat = np.linalg.qr(self.u)
            ru, rs, rvh = np.linalg.svd(rmat * self.s[None, :], full_matrices=False)
            self.u = qmat @ ru
            self.s = rs
            self.vh = rvh @ self.vh


def _stream_matrix(n_rows=32, n_cols=600, seed=5):
    gen = np.random.default_rng(seed)
    base = gen.standard_normal((n_rows, 6)) @ gen.standard_normal((6, n_cols))
    return base + 0.01 * gen.standard_normal((n_rows, n_cols))


class TestLazyVhParity:
    @pytest.mark.parametrize("use_svht", [False, True])
    def test_lazy_equals_eager_bit_for_bit(self, use_svht):
        x = _stream_matrix()
        kwargs = dict(rank=8, use_svht=use_svht, reorthogonalize_every=4)
        lazy = IncrementalSVD(**kwargs)
        eager = _SeedEagerISVD(**kwargs)
        for model in (lazy, eager):
            model.initialize(x[:, :60])
        for lo in range(60, x.shape[1], 36):
            lazy.update(x[:, lo : lo + 36])
            eager.update(x[:, lo : lo + 36])
        assert lazy.pending_rotations > 0
        for name, a, b in zip("u s vh", lazy.factors(), (eager.u, eager.s, eager.vh)):
            assert np.array_equal(a, b), name

    def test_lazy_reproduces_seed_algorithm_bit_for_bit(self):
        x = _stream_matrix(seed=11)
        new = IncrementalSVD(rank=6, use_svht=False, reorthogonalize_every=3)
        seed = _SeedEagerISVD(rank=6, use_svht=False, reorthogonalize_every=3)
        new.initialize(x[:, :50])
        seed.initialize(x[:, :50])
        for lo in range(50, x.shape[1], 25):
            new.update(x[:, lo : lo + 25])
            seed.update(x[:, lo : lo + 25])
        u, s, vh = new.factors()
        assert np.array_equal(u, seed.u)
        assert np.array_equal(s, seed.s)
        assert np.array_equal(vh, seed.vh)

    def test_materialization_timing_is_irrelevant(self):
        """Accessing vh mid-stream must not change later factors."""
        x = _stream_matrix(seed=3)
        touched = IncrementalSVD(rank=5, use_svht=False, reorthogonalize_every=4)
        untouched = IncrementalSVD(rank=5, use_svht=False, reorthogonalize_every=4)
        for model in (touched, untouched):
            model.initialize(x[:, :40])
        for i, lo in enumerate(range(40, x.shape[1], 20)):
            touched.update(x[:, lo : lo + 20])
            untouched.update(x[:, lo : lo + 20])
            if i % 3 == 0:
                _ = touched.vh  # force materialisation mid-stream
        for a, b in zip(touched.factors(), untouched.factors()):
            assert np.array_equal(a, b)

    def test_checkpoint_round_trip_mid_stream(self):
        x = _stream_matrix(seed=9)
        model = IncrementalSVD(rank=6, use_svht=True, reorthogonalize_every=4)
        model.initialize(x[:, :50])
        for lo in range(50, 300, 25):
            model.update(x[:, lo : lo + 25])
        resumed = IncrementalSVD.from_dict(model.to_dict())
        for lo in range(300, x.shape[1], 25):
            model.update(x[:, lo : lo + 25])
            resumed.update(x[:, lo : lo + 25])
        for a, b in zip(model.factors(), resumed.factors()):
            assert np.array_equal(a, b)
        _assert_state_equal(model.to_dict(), resumed.to_dict())

    def test_state_access_materializes(self):
        x = _stream_matrix()
        model = IncrementalSVD(rank=4, use_svht=False)
        model.initialize(x[:, :50])
        model.update(x[:, 50:80])
        assert model.pending_rotations > 0
        state = model.state
        assert model.pending_rotations == 0
        assert state.vh.shape[1] == 80


class TestUpdateCostFlat:
    def test_update_never_touches_the_right_factor(self):
        """Structural regression: update() must not widen/rotate _vh."""
        x = _stream_matrix(n_cols=400)
        model = IncrementalSVD(rank=6, use_svht=False, reorthogonalize_every=0)
        model.initialize(x[:, :50])
        base_width = model._vh.shape[1]
        for lo in range(50, 400, 10):
            model.update(x[:, lo : lo + 10])
        assert model._vh.shape[1] == base_width          # untouched
        assert model.pending_rotations == 35             # one op per update
        assert model.n_columns == 400                    # bookkeeping advanced

    def test_per_update_wall_time_does_not_grow_with_stream_length(self):
        """The ISSUE's regression guard: update cost independent of T.

        An eager implementation pays O(q^2 T) per update, so the late
        updates (T ~ 60k columns) would be orders of magnitude slower
        than the early ones (T ~ 600).  The bound is deliberately loose
        (10x) so scheduler noise cannot flip it, while still catching any
        O(T) re-entry into the hot path.
        """
        gen = np.random.default_rng(2)
        p, c = 24, 60
        model = IncrementalSVD(rank=6, use_svht=False, reorthogonalize_every=8)
        model.initialize(gen.standard_normal((p, c)))

        def median_update_seconds(n_timed=20):
            times = []
            for _ in range(n_timed):
                block = gen.standard_normal((p, c))
                start = time.perf_counter()
                model.update(block)
                times.append(time.perf_counter() - start)
            return float(np.median(times))

        early = median_update_seconds()
        # Push the column count up by three orders of magnitude.
        for _ in range(1000):
            model.update(gen.standard_normal((p, c)))
        late = median_update_seconds()
        assert model.n_columns > 60_000
        assert late < 10 * max(early, 1e-5), (
            f"per-update time grew with stream length: "
            f"{early * 1e6:.0f}us at T~1k vs {late * 1e6:.0f}us at T~60k"
        )


class TestAddRowsSchedule:
    def test_add_rows_participates_in_reorth_schedule(self):
        x = _stream_matrix(n_rows=20, n_cols=140)
        model = IncrementalSVD(rank=5, use_svht=False, reorthogonalize_every=2)
        model.initialize(x[:, :120])
        gen = np.random.default_rng(0)
        # update (counter 1), then add_rows (counter 2) -> the schedule
        # fires on the add_rows call: its trailing op is the queued
        # re-orthogonalisation rotation.  The seed implementation bumped
        # the counter in add_rows but never checked it.
        model.update(x[:, 120:140])
        model.add_rows(gen.standard_normal((2, model.n_columns)))
        ops = model.last_update_ops
        assert [op[0] for op in ops] == ["rotate", "rotate"], (
            "add_rows on the schedule boundary must append the "
            "re-orthogonalisation rotation"
        )

    def test_orthogonality_drift_bounded_under_add_rows(self):
        gen = np.random.default_rng(4)
        x = gen.standard_normal((16, 200))
        model = IncrementalSVD(rank=8, use_svht=False, reorthogonalize_every=4)
        model.initialize(x)
        for i in range(24):
            model.add_rows(gen.standard_normal((3, model.n_columns)))
        gram = model.u.conj().T @ model.u
        assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-8), (
            "left basis drifted despite the unified re-orthogonalisation "
            "schedule"
        )

    def test_add_rows_equivalent_with_and_without_lazy_rotation(self):
        # The eager reference reads .vh after every op, which applies the
        # queued re-orthogonalisation rotation immediately.
        gen = np.random.default_rng(6)
        x = gen.standard_normal((12, 80))
        rows = gen.standard_normal((4, 80))
        results = []
        for eager in (False, True):
            model = IncrementalSVD(rank=6, use_svht=False, reorthogonalize_every=1)
            model.initialize(x)
            model.add_rows(rows)
            if eager:
                _ = model.vh
                assert model.pending_rotations == 0
            else:
                assert model.pending_rotations > 0
            results.append(model.factors())
        for a, b in zip(*results):
            assert np.array_equal(a, b)


@pytest.fixture(scope="module")
def signal():
    return make_multiscale_signal(n_sensors=14, n_timesteps=1800, seed=33)


def _drive_model(signal, model_cls=IncrementalMrDMD, *, eager=False, **kwargs):
    """Fit on 600 columns, then stream 300-column chunks.

    ``eager`` reads the level-1 right factor after every update, which
    materialises each queued rotation as soon as it is issued.
    """
    data, dt = signal
    model = model_cls(dt=dt, config=MrDMDConfig(max_levels=4), **kwargs)
    model.fit(data[:, :600])
    for lo in range(600, data.shape[1], 300):
        model.partial_fit(data[:, lo : lo + 300])
        if eager:
            _ = model._isvd.vh
            assert model._isvd.pending_rotations == 0
    return model


class TestIncrementalMrDMDParity:
    def test_lazy_vs_eager_trees_bit_for_bit(self, signal):
        lazy = _drive_model(signal)
        eager = _drive_model(signal, eager=True)
        # The entire state (tree, factors, cross product, history) must
        # match.
        _assert_state_equal(lazy.state_dict(), eager.state_dict())

    def test_checkpoint_resume_mid_stream_bit_for_bit(self, signal):
        data, dt = signal
        continuous = IncrementalMrDMD(dt=dt, config=MrDMDConfig(max_levels=4))
        continuous.fit(data[:, :600])
        continuous.partial_fit(data[:, 600:900])
        resumed = IncrementalMrDMD.from_state_dict(continuous.state_dict())
        for lo in range(900, data.shape[1], 300):
            continuous.partial_fit(data[:, lo : lo + 300])
            resumed.partial_fit(data[:, lo : lo + 300])
        _assert_state_equal(continuous.state_dict(), resumed.state_dict())

    def test_pipeline_zscores_lazy_vs_eager_bit_for_bit(self, signal):
        data, dt = signal
        config = PipelineConfig(
            mrdmd=MrDMDConfig(max_levels=4), baseline_range=(40.0, 75.0)
        )
        products = []
        for eager in (False, True):
            pipeline = OnlineAnalysisPipeline(dt=dt, config=config)
            for lo, hi in ((0, 600), (600, 1200), (1200, data.shape[1])):
                pipeline.ingest(data[:, lo:hi])
                if eager:
                    _ = pipeline.model._isvd.vh
            products.append(pipeline.zscores())
        a, b = products
        assert np.array_equal(a.zscores, b.zscores)
        assert np.array_equal(a.categories, b.categories)

    def test_dense_path_stays_available_and_close(self, signal):
        """The projected level-1 path agrees with the dense oracle.

        The projected path fits level-1 amplitudes over the appended
        chunk (the node's contribution window) instead of the whole
        growing timeline, so the two paths are not bit-identical — but
        the tree size and reconstructions must agree closely.
        """
        data, dt = signal
        projected = _drive_model(signal, retain_data="all")
        dense = _drive_model(signal, DenseLevel1MrDMD, retain_data="all")
        assert len(projected.tree) == len(dense.tree)
        err_projected = projected.reconstruction_error()
        err_dense = dense.reconstruction_error()
        scale = np.linalg.norm(data)
        assert abs(err_projected - err_dense) < 0.05 * scale


class TestRetentionPolicies:
    def test_retention_does_not_change_the_numerics(self, signal):
        # Retention decides only how many raw snapshots are kept: every
        # other state entry, the level-1 grid included, matches bit for bit.
        def masked_state(policy):
            model = _drive_model(signal, retain_data=policy, retain_window=250)
            state = model.state_dict()
            for key in ("retain_data", "data"):
                state[key] = None
            return state

        reference = masked_state("all")
        for policy in ("window", "none"):
            _assert_state_equal(masked_state(policy), reference)

    @pytest.mark.parametrize("policy", RETENTION_POLICIES)
    def test_level1_grid_keeps_trailing_column_only(self, signal, policy):
        data, dt = signal
        model = IncrementalMrDMD(
            dt=dt, config=MrDMDConfig(max_levels=4), retain_data=policy
        )
        model.fit(data[:, :600])
        assert np.asarray(model.state_dict()["sub"]).shape == (data.shape[0], 1)
        model = _drive_model(signal, retain_data=policy)
        state = model.state_dict()
        stride = state["level1_stride"]
        assert np.asarray(state["sub"]).shape == (data.shape[0], 1)
        assert state["sub_offset"] == -(-data.shape[1] // stride) - 1
        np.testing.assert_array_equal(
            state["sub"][:, 0], data[:, state["sub_offset"] * stride]
        )

    @pytest.mark.parametrize("policy", ["all", "window"])
    def test_legacy_full_grid_restores_to_trailing_column(self, signal, policy):
        # States saved while "all" and "window" kept the whole level-1
        # grid carry it from sub_offset 0.
        data, dt = signal
        live = IncrementalMrDMD(
            dt=dt, config=MrDMDConfig(max_levels=4),
            retain_data=policy, retain_window=250,
        )
        live.fit(data[:, :600])
        live.partial_fit(data[:, 600:900])
        state = live.state_dict()
        state["sub"] = data[:, : state["n_snapshots"] : state["level1_stride"]]
        assert state["sub"].shape[1] == state["sub_offset"] + 1
        state["sub_offset"] = 0
        restored = IncrementalMrDMD.from_state_dict(state)
        assert np.asarray(restored.state_dict()["sub"]).shape[1] == 1
        for lo in (900, 1200):
            live.partial_fit(data[:, lo : lo + 300])
            restored.partial_fit(data[:, lo : lo + 300])
        _assert_state_equal(restored.state_dict(), live.state_dict())

    def test_window_state_dict_survives_the_next_trim(self, signal):
        # Checkpoint capture shares the state arrays read-only, so the
        # window trim in the next partial_fit must not write into them.
        data, dt = signal
        model = IncrementalMrDMD(
            dt=dt, config=MrDMDConfig(max_levels=4),
            retain_data="window", retain_window=250,
        )
        model.fit(data[:, :600])
        model.partial_fit(data[:, 600:900])
        state = model.state_dict()
        before = copy.deepcopy(state)
        model.partial_fit(data[:, 900:1200])
        assert model.retained_range() == (950, 1200)
        _assert_state_equal(state, before)
        np.testing.assert_array_equal(state["data"], data[:, 650:900])

    @pytest.mark.parametrize("policy", ["all", "window"])
    def test_retained_data_returns_copies(self, signal, policy):
        # A restored model's buffers are exactly full, and the window's
        # full range is the whole buffer: neither may leak a live view.
        data, _ = signal
        live = _drive_model(signal, retain_data=policy, retain_window=250)
        restored = IncrementalMrDMD.from_state_dict(live.state_dict())
        for model in (live, restored):
            first, last = model.retained_range()
            for out in (
                model.retained_data(),
                model.retained_data(time_range=(first, last)),
                model.retained_data(time_range=(last - 1, last)),
            ):
                out += 1.0
            np.testing.assert_array_equal(model.retained_data(), data[:, first:last])

    def test_none_drops_raw_snapshots(self, signal):
        model = _drive_model(signal, retain_data="none")
        assert model.retained_data() is None
        assert model.retained_range() is None
        with pytest.raises(RuntimeError):
            model.reconstruction_error()
        with pytest.raises(RuntimeError):
            model.refresh()

    def test_window_keeps_trailing_snapshots_only(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(
            dt=dt, config=MrDMDConfig(max_levels=3),
            retain_data="window", retain_window=250,
        )
        model.fit(data[:, :600])
        for lo in range(600, 1500, 300):
            model.partial_fit(data[:, lo : lo + 300])
        kept = model.retained_data()
        assert kept.shape == (data.shape[0], 250)
        assert model.retained_range() == (1250, 1500)
        assert np.array_equal(kept, data[:, 1250:1500])

    @pytest.mark.parametrize(
        ("keep_data", "policy"), [(True, "all"), (False, "none")]
    )
    def test_legacy_keep_data_reads_as_retention_policy(
        self, signal, keep_data, policy
    ):
        # States and manifests written before the flag was folded into
        # retain_data carry keep_data with retain_data=None.
        model = _drive_model(signal, retain_data=policy)
        state = model.state_dict()
        state["keep_data"], state["retain_data"] = keep_data, None
        restored = IncrementalMrDMD.from_state_dict(state)
        assert restored.retain_data == policy
        _assert_state_equal(restored.state_dict(), model.state_dict())

        payload = PipelineConfig().to_dict()
        payload["keep_data"], payload["retain_data"] = keep_data, None
        assert PipelineConfig.from_dict(payload).retain_data == policy

    def test_checkpoint_preserves_retention(self, signal):
        data, dt = signal
        model = IncrementalMrDMD(
            dt=dt, config=MrDMDConfig(max_levels=3),
            retain_data="window", retain_window=300,
        )
        model.fit(data[:, :600])
        model.partial_fit(data[:, 600:900])
        restored = IncrementalMrDMD.from_state_dict(model.state_dict())
        assert restored.retain_data == "window"
        assert restored.retain_window == 300
        assert np.array_equal(restored.retained_data(), model.retained_data())
        # and the restored model keeps streaming identically
        model.partial_fit(data[:, 900:1200])
        restored.partial_fit(data[:, 900:1200])
        _assert_state_equal(model.state_dict(), restored.state_dict())

    def test_pipeline_retention_knob(self, signal):
        data, dt = signal
        config = PipelineConfig(
            mrdmd=MrDMDConfig(max_levels=3), retain_data="none",
            baseline_range=(40.0, 75.0),
        )
        pipeline = OnlineAnalysisPipeline(dt=dt, config=config)
        snapshot = pipeline.ingest(data[:, :600])
        assert snapshot.reconstruction_error is None
        assert pipeline.model.retain_data == "none"
        # products still work (they come from the tree, not raw data)
        assert pipeline.zscores().zscores.shape[0] == data.shape[0]

    def test_invalid_retention_rejected(self):
        with pytest.raises(ValueError):
            IncrementalMrDMD(dt=1.0, retain_data="sometimes")
        with pytest.raises(ValueError):
            IncrementalMrDMD(dt=1.0, retain_data="window", retain_window=0)
        with pytest.raises(ValueError):
            PipelineConfig(retain_data="sometimes")


class TestRetiredKnobs:
    """The reproduction knobs are gone; checkpoints naming them still load."""

    @pytest.mark.parametrize(
        ("factory", "kwargs"),
        [
            (PipelineConfig, {"level1_path": "dense"}),
            (PipelineConfig, {"baseline_refit": "never"}),
            (lambda **kw: IncrementalMrDMD(dt=1.0, **kw), {"level1_path": "dense"}),
            (lambda **kw: IncrementalMrDMD(dt=1.0, **kw), {"lazy_vh": False}),
            (IncrementalSVD, {"lazy_rotation": False}),
            (
                lambda **kw: decompose_window(
                    np.zeros((2, 16)), 1.0, MrDMDConfig(),
                    level=1, bin_index=0, start=0, **kw,
                ),
                {"svd_factors": None},
            ),
        ],
    )
    def test_removed_keywords_rejected(self, factory, kwargs):
        with pytest.raises(TypeError):
            factory(**kwargs)

    def test_projected_state_with_retired_keys_resumes_bit_for_bit(self, signal):
        data, dt = signal
        live = IncrementalMrDMD(dt=dt, config=MrDMDConfig(max_levels=4))
        live.fit(data[:, :600])
        live.partial_fit(data[:, 600:900])
        state = live.state_dict()
        state["level1_path"], state["lazy_vh"] = "projected", True
        state["isvd"] = {**state["isvd"], "lazy_rotation": True}
        restored = IncrementalMrDMD.from_state_dict(state)
        for lo in range(900, data.shape[1], 300):
            live.partial_fit(data[:, lo : lo + 300])
            restored.partial_fit(data[:, lo : lo + 300])
        _assert_state_equal(restored.state_dict(), live.state_dict())

    def test_dense_state_restores_with_recomputed_cross(self, signal):
        # A state saved under level1_path="dense" had no cross product and
        # a full level-1 grid.
        data, dt = signal
        dense = DenseLevel1MrDMD(dt=dt, config=MrDMDConfig(max_levels=4))
        dense.fit(data[:, :600])
        dense.partial_fit(data[:, 600:900])
        state = dense.state_dict()
        state["level1_path"], state["lazy_vh"] = "dense", False
        state["level1_cross"] = None
        state["isvd"] = {**state["isvd"], "lazy_rotation": False}
        restored = IncrementalMrDMD.from_state_dict(state)
        assert type(restored) is IncrementalMrDMD
        np.testing.assert_allclose(
            restored._level1_cross, dense._level1_cross, rtol=1e-9, atol=1e-9
        )
        for lo in range(900, data.shape[1], 300):
            restored.partial_fit(data[:, lo : lo + 300])
        assert restored._sub.n_cols == 1, "resumes with the trailing grid column"
        assert np.isfinite(restored._level1_cross).all()
        assert np.isfinite(restored.reconstruct()).all()
        assert np.isfinite(restored.drift_history).all()

    def test_never_refit_payload_loads_and_refits_when_stale(self, signal):
        data, dt = signal
        payload = PipelineConfig(
            mrdmd=MrDMDConfig(max_levels=3), baseline_range=(40.0, 75.0)
        ).to_dict()
        payload["baseline_refit"], payload["level1_path"] = "never", "dense"
        config = PipelineConfig.from_dict(payload)
        assert config.to_dict().keys() == PipelineConfig().to_dict().keys()
        pipeline = OnlineAnalysisPipeline(dt=dt, config=config)
        pipeline.ingest(data[:, :600])
        pipeline.zscores()
        first = pipeline._baseline
        pipeline.ingest(data[:, 600:900])
        assert pipeline.baseline_is_stale()
        pipeline.zscores()
        assert pipeline._baseline is not first, "a stale baseline is refit"
        assert not pipeline.baseline_is_stale()
