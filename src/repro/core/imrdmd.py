"""Incremental multiresolution Dynamic Mode Decomposition (I-mrDMD).

This is the paper's primary contribution (Sec. III-A-1, Fig. 1(c),
Algorithm 1): an online variant of mrDMD whose *partial fit* over a newly
arrived chunk of snapshots costs roughly ``O(L * P * T_new)`` instead of the
``O(L * P * (T_old + T_new))`` of a full recomputation, by

1. maintaining an :class:`~repro.core.isvd.IncrementalSVD` of the level-1
   (subsampled) snapshot matrix, so the slowest modes are *updated* instead
   of recomputed when data arrives;
2. re-indexing the previously computed mode tree — every old node's level is
   incremented, so the old level-1 node becomes the level-2 node describing
   the ``[0, T)`` half of the new, longer timeline (Algorithm 1, line 7-9);
3. running the ordinary mrDMD recursion *only on the new chunk*
   ``[T, T + T1)`` (after subtracting the updated level-1 slow dynamics),
   which attaches a fresh right-hand subtree starting at level 2;
4. tracking the drift (Frobenius norm) between the previous and the updated
   level-1 slow modes; when a user-defined threshold is exceeded the old
   levels 2..L are flagged stale and can be refreshed — an embarrassingly
   parallel recomputation the paper leaves asynchronous.

Accuracy follows the paper's observation (Q2): the incremental
reconstruction differs from the batch one by a small amount that grows with
the number of appended chunks, because old deep-level nodes are not refreshed
against the updated level-1 modes.  :meth:`IncrementalMrDMD.reconstruction_error`
and the Q2 benchmark quantify this gap.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..obs import OBS
from ..util.growbuf import GrowableMatrix
from ..util.timer import now
from .dmd import DMDResult, compute_dmd_projected, slow_mode_mask
from .isvd import IncrementalSVD
from .mrdmd import MrDMDConfig, compute_mrdmd, grow_mrdmd
from .tree import MrDMDNode, MrDMDTree

__all__ = [
    "IncrementalMrDMD",
    "PoisonChunkError",
    "UpdateRecord",
    "TopologyChange",
    "RETENTION_POLICIES",
    "MISSING_VALUE_POLICIES",
    "DEEP_LEVEL_MODES",
]

#: Raw-snapshot retention policies (see :class:`IncrementalMrDMD`).
RETENTION_POLICIES = ("all", "window", "none")

#: When the levels-2..L recursion over an appended chunk runs (see
#: :class:`IncrementalMrDMD`): ``"inline"`` on the ingest path (the
#: historical behaviour), ``"deferred"`` queued for a later
#: :meth:`IncrementalMrDMD.refresh_deep_levels` call.
DEEP_LEVEL_MODES = ("inline", "deferred")

#: What to do with non-finite readings in ingested data (see
#: :class:`IncrementalMrDMD`).
MISSING_VALUE_POLICIES = ("raise", "zero")


class PoisonChunkError(ValueError):
    """Ingested data held non-finite values under ``missing_values="raise"``.

    Raised before the model mutates, so a rejected chunk leaves it intact.
    """


@dataclass
class UpdateRecord:
    """Diagnostics for one :meth:`IncrementalMrDMD.partial_fit` call.

    Attributes
    ----------
    chunk_size:
        Number of snapshots appended.
    total_snapshots:
        Timeline length after the update.
    level1_rank:
        Rank of the updated level-1 SVD.
    level1_modes:
        Number of slow modes retained at the new level 1.
    drift:
        Frobenius norm of the difference between the previous and the new
        level-1 slow-mode matrices (the paper's recompute trigger).
    stale:
        Whether ``drift`` exceeded the configured threshold, marking the
        old deep levels as stale.
    new_nodes:
        Number of tree nodes created for the appended chunk.
    """

    chunk_size: int
    total_snapshots: int
    level1_rank: int
    level1_modes: int
    drift: float
    stale: bool
    new_nodes: int


@dataclass
class TopologyChange:
    """One row-growth event: new sensors joining a live decomposition.

    This is the first-class record threaded through every layer of the
    stack (model → pipeline → shard → machine → federation): the model
    emits it from :meth:`IncrementalMrDMD.add_rows`, the pipeline and the
    fleet monitor enrich/forward it, and checkpoints persist the history so
    a restored system knows which rows existed when.

    Attributes
    ----------
    step:
        Absolute snapshot index at which the rows joined.  Rows onboarded
        with back-filled history carry ``step=0`` (they are treated as
        having existed from the start); rows onboarded without history are
        born at the current stream position.
    n_new_rows:
        How many rows joined in this event.
    total_rows:
        State dimension ``P`` after the event.
    backfilled:
        Whether caller-supplied history covered the existing timeline.
    tree_revision:
        The mode-tree revision after the event (caches/baselines keyed on
        the revision invalidate exactly once per event).
    """

    step: int
    n_new_rows: int
    total_rows: int
    backfilled: bool
    tree_revision: int


def _mode_drift(previous: np.ndarray, current: np.ndarray) -> float:
    """Frobenius distance between two slow-mode matrices.

    The matrices may have different numbers of columns (the SVHT rank can
    change between updates); the narrower one is zero-padded, matching the
    paper's "difference between the newly computed slower modes and the
    previous slower modes".
    """
    if previous.size == 0 and current.size == 0:
        return 0.0
    rows = max(previous.shape[0] if previous.size else 0,
               current.shape[0] if current.size else 0)
    cols = max(previous.shape[1] if previous.size else 0,
               current.shape[1] if current.size else 0)
    a = np.zeros((rows, cols), dtype=complex)
    b = np.zeros((rows, cols), dtype=complex)
    if previous.size:
        a[: previous.shape[0], : previous.shape[1]] = previous
    if current.size:
        b[: current.shape[0], : current.shape[1]] = current
    return float(np.linalg.norm(a - b))


class IncrementalMrDMD:
    """Online mrDMD with incremental level-1 updates.

    Each :meth:`partial_fit` computes the updated level-1 DMD in the
    rank-``q`` projected space: the ``Y Vh^H`` cross product is maintained
    incrementally, the lazily rotated right factor is never materialised,
    and the level-1 amplitudes are least-squares fitted over the appended
    chunk (the only range the new level-1 node contributes to
    reconstructions), so the per-chunk cost does not grow with the stream.

    Parameters
    ----------
    dt:
        Sampling interval of the snapshots (seconds).
    config:
        :class:`~repro.core.mrdmd.MrDMDConfig`; keyword overrides may be
        passed instead (``IncrementalMrDMD(dt=1.0, max_levels=8)``).
    drift_threshold:
        User-defined Frobenius-norm threshold on the level-1 slow-mode
        drift above which the previously computed levels 2..L are marked
        stale (``stale_levels``).  ``None`` disables the check.
    retain_data:
        Raw-snapshot retention policy; it decides only how many trailing
        raw snapshots the model keeps, never the numerics or the rest of
        the state.  ``"all"`` retains the full ``(P, T)`` timeline (in an
        amortized-growth buffer) — required only for :meth:`refresh` (the
        asynchronous full recomputation of stale levels) and for
        :meth:`reconstruction_error` without an explicit reference.
        ``"window"`` keeps only the trailing ``retain_window`` snapshots
        (enough for recent-window diagnostics at bounded memory).
        ``"none"`` (default) keeps nothing, honouring the paper's
        "factors, never the raw matrix" memory claim, as the streaming
        deployments the paper targets need.  Under every policy the model
        holds the mode tree, the level-1 factors and only the trailing
        column of the subsampled level-1 grid.
    retain_window:
        Number of trailing snapshots kept under ``retain_data="window"``.
    deep_levels:
        When the levels-2..L mrDMD recursion over an appended chunk runs.
        ``"inline"`` (default) keeps it on the ingest path — the
        historical behaviour, reproduced exactly.  ``"deferred"`` runs
        only the projected level-1 update at ingest and queues the
        chunk's level-1 residual; a later
        :meth:`refresh_deep_levels` call (scheduled off the ingest path
        by the service layer, on drift firings or every N chunks)
        replays the queued recursions and attaches *bit-for-bit the same
        nodes* the inline path would have attached — the queue tracks
        how many :meth:`partial_fit` level shifts each entry has missed,
        so the re-indexing maths is identical, just late.  Until the
        refresh lands, reconstructions and alerts see a tree whose deep
        levels lag the stream by :attr:`deep_stale_snapshots` columns
        (level 1 is always current).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import IncrementalMrDMD
    >>> t = np.linspace(0, 40, 2000)
    >>> x = np.vstack([np.sin(0.3 * t), np.cos(0.3 * t)]) + 0.01
    >>> model = IncrementalMrDMD(dt=t[1] - t[0], max_levels=3)
    >>> model.fit(x[:, :1000])                     # doctest: +ELLIPSIS
    <repro.core.imrdmd.IncrementalMrDMD object at ...>
    >>> record = model.partial_fit(x[:, 1000:])
    >>> record.total_snapshots
    2000
    """

    def __init__(
        self,
        dt: float = 1.0,
        config: MrDMDConfig | None = None,
        *,
        drift_threshold: float | None = None,
        retain_data: str = "none",
        retain_window: int = 4096,
        missing_values: str = "raise",
        deep_levels: str = "inline",
        **config_overrides,
    ) -> None:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt!r}")
        if config is None:
            config = MrDMDConfig(**config_overrides)
        elif config_overrides:
            raise TypeError("pass either a config object or keyword overrides, not both")
        if drift_threshold is not None and drift_threshold < 0:
            raise ValueError("drift_threshold must be non-negative")
        if retain_data not in RETENTION_POLICIES:
            raise ValueError(
                f"retain_data must be one of {RETENTION_POLICIES}, got {retain_data!r}"
            )
        if retain_window < 1:
            raise ValueError("retain_window must be >= 1")
        if missing_values not in MISSING_VALUE_POLICIES:
            raise ValueError(
                f"missing_values must be one of {MISSING_VALUE_POLICIES}, "
                f"got {missing_values!r}"
            )
        if deep_levels not in DEEP_LEVEL_MODES:
            raise ValueError(
                f"deep_levels must be one of {DEEP_LEVEL_MODES}, got {deep_levels!r}"
            )
        self.dt = float(dt)
        self.config = config
        self.drift_threshold = drift_threshold
        self.retain_data = retain_data
        self.retain_window = int(retain_window)
        self.missing_values = missing_values
        self.deep_levels = deep_levels

        self._tree: MrDMDTree | None = None
        self._isvd: IncrementalSVD | None = None
        self._level1_stride: int = 1
        # Trailing column of the subsampled level-1 matrix (the only one a
        # later update reads); ``_sub_offset`` counts the leading grid
        # columns dropped, so absolute grid indices stay recoverable.
        self._sub: GrowableMatrix | None = None
        self._sub_offset: int = 0
        self._next_sub_index: int = 0                 # next absolute index to subsample
        self._n_snapshots: int = 0
        self._n_features: int = 0
        self._level1_modes: np.ndarray = np.zeros((0, 0), dtype=complex)
        # Y Vh^H of the shifted level-1 matrix, advanced per update from
        # the iSVD's rotation ops (the level-1 update's whole view of Vh).
        self._level1_cross: np.ndarray | None = None
        # Retained trailing raw snapshots (None under retain_data="none").
        self._data: GrowableMatrix | None = None
        self._stale: bool = False
        self._history: list[UpdateRecord] = []
        # Elastic topology: absolute birth step per row + event history.
        self._row_birth: np.ndarray = np.zeros(0, dtype=int)
        self._topology: list[TopologyChange] = []
        # Deferred levels-2..L work, oldest first.  Each entry holds the
        # chunk's level-1 residual plus the bookkeeping needed to attach
        # the recursion's nodes exactly where the inline path would have:
        # "start" is the chunk's absolute start column and "shifts" counts
        # the tree level shifts the entry has missed since it was queued.
        self._deep_pending: list[dict] = []
        #: Deep-level windows of appended chunks whose Gram-route guard
        #: fell back to the SVD (a runtime diagnostic; not saved in the
        #: state, so a restored model counts from zero).
        self.svd_fallbacks = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._tree is not None

    @property
    def tree(self) -> MrDMDTree:
        """The current mode tree (raises if not fitted)."""
        self._require_fitted()
        return self._tree

    @property
    def n_snapshots(self) -> int:
        """Total number of snapshots ingested so far."""
        return self._n_snapshots

    @property
    def n_features(self) -> int:
        """State dimension ``P``."""
        return self._n_features

    @property
    def stale_levels(self) -> bool:
        """True when the level-1 drift has exceeded ``drift_threshold``."""
        return self._stale

    @property
    def deep_pending(self) -> int:
        """Number of chunks whose levels-2..L recursion is still queued."""
        return len(self._deep_pending)

    @property
    def deep_stale_snapshots(self) -> int:
        """How many trailing snapshots the deep levels lag the stream by.

        ``0`` when nothing is queued (the tree is fully current).  Under
        ``deep_levels="deferred"`` this is the distance from the oldest
        queued chunk's start to the stream head — the staleness bound that
        snapshots and alerts stamp.
        """
        if not self._deep_pending:
            return 0
        return self._n_snapshots - int(self._deep_pending[0]["start"])

    @property
    def history(self) -> list[UpdateRecord]:
        """Per-update diagnostics, in chronological order."""
        return list(self._history)

    @property
    def drift_history(self) -> np.ndarray:
        """Array of level-1 drifts, one entry per :meth:`partial_fit`."""
        return np.array([rec.drift for rec in self._history], dtype=float)

    @property
    def row_birth(self) -> np.ndarray:
        """Absolute snapshot index at which each row joined (0 = original)."""
        return self._row_birth.copy()

    @property
    def topology_history(self) -> list[TopologyChange]:
        """Row-growth events, in chronological order."""
        return list(self._topology)

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError("IncrementalMrDMD must be fitted before use")

    def _sanitize(self, data: np.ndarray, what: str) -> np.ndarray:
        """Police non-finite readings per the ``missing_values`` policy.

        ``"raise"`` (default) rejects them with :class:`PoisonChunkError`
        before anything mutates; ``"zero"`` fills them with 0.0 — the same
        fill the elastic ``add_rows`` backfill uses for pre-birth history,
        so a sensor that is registered in the topology but not yet
        reporting contributes nothing.
        """
        if np.isfinite(data).all():
            return data
        if self.missing_values == "raise":
            bad = int(data.size - np.count_nonzero(np.isfinite(data)))
            raise PoisonChunkError(
                f"{what} contains {bad} non-finite value(s); pass "
                f"missing_values='zero' (PipelineConfig.missing_values) to "
                f"treat missing readings as zero-filled"
            )
        return np.nan_to_num(data, nan=0.0, posinf=0.0, neginf=0.0)

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, data: np.ndarray) -> "IncrementalMrDMD":
        """Run the initial (batch) fit over ``(P, T0)`` snapshots.

        The batch mrDMD tree is computed exactly as
        :func:`~repro.core.mrdmd.compute_mrdmd` would, and the level-1
        incremental-SVD state is initialised so that subsequent
        :meth:`partial_fit` calls are cheap.
        """
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-D (P, T), got shape {data.shape!r}")
        if data.shape[1] < self.config.min_window:
            raise ValueError(
                f"initial fit needs at least min_window={self.config.min_window} "
                f"snapshots, got {data.shape[1]}"
            )
        data = self._sanitize(data, "fit data")
        self._n_features, t0 = data.shape
        self._n_snapshots = t0
        self._row_birth = np.zeros(self._n_features, dtype=int)
        self._topology = []
        self._sub_offset = 0

        # Batch tree for the initial window.
        self._tree = compute_mrdmd(data, self.dt, self.config)

        # Level-1 incremental state: fix the stride at its initial value so
        # later appends extend a consistent subsampled grid.  The stride
        # leaves at least two grid columns (min_window >= 4), so the iSVD
        # of the shifted grid always initialises here.
        self._level1_stride = self.config.stride_for(t0)
        sub = np.ascontiguousarray(data[:, :: self._level1_stride])
        self._sub = GrowableMatrix.from_array(sub)
        self._next_sub_index = (
            ((t0 - 1) // self._level1_stride + 1) * self._level1_stride
        )
        self._isvd = IncrementalSVD(
            rank=self.config.svd_rank, use_svht=self.config.use_svht
        )
        self._isvd.initialize(sub[:, :-1])
        self._level1_cross = self._initial_cross(sub)

        level1_nodes = self._tree.nodes_at_level(1)
        self._level1_modes = (
            level1_nodes[0].modes.copy() if level1_nodes else np.zeros((self._n_features, 0), dtype=complex)
        )
        self._data = None if self.retain_data == "none" else GrowableMatrix.from_array(data)
        self._stale = False
        self._history = []
        self._deep_pending = []
        self._drop_unread_columns()
        return self

    def _drop_unread_columns(self) -> None:
        """Trim the grid and the raw snapshots to what is ever read again.

        Once the iSVD and the cross product hold the level-1 grid, later
        updates read only its trailing column (the anchor for the next
        update block and the stride-shorter amplitude fit), so the grid
        costs ``O(P)`` instead of ``O(P T/stride)``; ``_sub_offset`` keeps
        absolute column indices recoverable.  The raw snapshots keep the
        trailing ``retain_window`` columns under ``retain_data="window"``.
        """
        self._sub_offset += self._sub.keep_trailing(1)
        if self.retain_data == "window":
            self._data.keep_trailing(self.retain_window)

    # ------------------------------------------------------------------ #
    # Level-1 cross-product maintenance
    # ------------------------------------------------------------------ #
    def _initial_cross(self, sub: np.ndarray) -> np.ndarray:
        """Batch ``Y Vh^H`` for the freshly (re)initialised level-1 iSVD."""
        y = np.ascontiguousarray(sub[:, 1:])
        return y @ self._isvd.vh.conj().T

    def _advance_cross(self, cross: np.ndarray, y_new: np.ndarray) -> np.ndarray:
        """Advance ``Y Vh^H`` through the iSVD's latest right-factor ops.

        An ``("extend", R, B)`` op means ``Vh <- [R Vh, B]`` while ``Y``
        gained the columns ``y_new``, so ``G <- G R^H + y_new B^H``; a
        ``("rotate", M)`` op (re-orthogonalisation) means ``G <- G M^H``.
        Cost is ``O(P q (q + c))`` per update — never ``O(T)``.
        """
        for op in self._isvd.last_update_ops:
            if op[0] == "extend":
                cross = cross @ op[1].conj().T + y_new @ op[2].conj().T
            else:
                cross = cross @ op[1].conj().T
        return cross

    # ------------------------------------------------------------------ #
    # Incremental update
    # ------------------------------------------------------------------ #
    def partial_fit(self, new_data: np.ndarray) -> UpdateRecord:
        """Fold a new chunk of ``(P, T1)`` snapshots into the decomposition.

        Implements Algorithm 1 of the paper: incremental SVD update of the
        level-1 factors, slow-mode extraction over the full (extended)
        timeline, level re-indexing of the existing tree, and a fresh
        mrDMD recursion over the appended chunk only.
        """
        self._require_fitted()
        new_data = np.asarray(new_data, dtype=float)
        if new_data.ndim == 1:
            new_data = new_data[:, None]
        if new_data.ndim != 2:
            raise ValueError(f"new_data must be 1-D or 2-D, got shape {new_data.shape!r}")
        if new_data.shape[0] != self._n_features:
            raise ValueError(
                f"feature mismatch: model has {self._n_features}, chunk has {new_data.shape[0]}"
            )
        t1 = new_data.shape[1]
        if t1 == 0:
            raise ValueError("new_data must contain at least one snapshot")
        new_data = self._sanitize(new_data, "new_data")

        t_old = self._n_snapshots
        t_total = t_old + t1
        t_phase = now() if OBS.enabled else 0.0

        # ---- 1. extend the level-1 subsampled grid ------------------- #
        new_sub_indices = np.arange(self._next_sub_index, t_total, self._level1_stride)
        new_cols: np.ndarray | None = None
        if new_sub_indices.size:
            new_cols = np.ascontiguousarray(new_data[:, new_sub_indices - t_old])
            self._sub.append(new_cols)
            self._next_sub_index = int(new_sub_indices[-1]) + self._level1_stride
            # The shifted matrix X = sub[:, :-1] gains the previous
            # trailing column and every new one but the last; the shifted
            # targets Y = sub[:, 1:] gain exactly `new_cols`.
            self._isvd.update(self._sub.slice(0, self._sub.n_cols - 1))
            self._level1_cross = self._advance_cross(self._level1_cross, new_cols)
        if OBS.enabled:
            OBS.record("core.grid_extend", now() - t_phase, cols=int(t1))
            t_phase = now()

        # ---- 2. updated level-1 DMD over the full timeline ----------- #
        rho = self.config.rho_for(t_total, self.dt)
        local_dt = self.dt * self._level1_stride
        # Absolute grid-column count; the stored buffer holds the trailing
        # column plus this chunk's (see _drop_unread_columns).
        n_sub = self._sub_offset + self._sub.n_cols
        dmd = self._level1_dmd(new_cols, n_sub, local_dt)
        slow = dmd.mode_subset(slow_mode_mask(dmd, rho)) if dmd.n_modes else dmd
        if OBS.enabled:
            OBS.record("core.level1_dmd", now() - t_phase, rank=int(dmd.svd_rank))
            t_phase = now()

        drift = _mode_drift(self._level1_modes, slow.modes)
        stale_now = (
            self.drift_threshold is not None and drift > self.drift_threshold
        )
        self._stale = self._stale or stale_now

        new_level1 = MrDMDNode(
            level=1,
            bin_index=0,
            start=0,
            n_snapshots=t_total,
            dt=self.dt,
            step=self._level1_stride,
            rho=rho,
            modes=slow.modes,
            eigenvalues=slow.eigenvalues,
            amplitudes=slow.amplitudes,
            svd_rank=dmd.svd_rank,
            # The appended chunk is the only part of the timeline not yet
            # described by the (re-indexed) previous nodes.
            contribution_start=t_old,
            contribution_end=t_total,
        )

        # ---- 3. re-index the previous tree (Algorithm 1, lines 7-9) -- #
        self._tree.shift_levels(1)
        # Entries already queued for deferred recursion have now missed
        # one more shift; their nodes must land one level deeper.
        for entry in self._deep_pending:
            entry["shifts"] += 1

        # ---- 4. mrDMD recursion over the appended chunk --------------- #
        # Subtract the updated level-1 slow dynamics over the new range.
        level1_on_chunk = new_level1.local_reconstruction_range(t_old, t1)
        residual = new_data - level1_on_chunk
        new_nodes = 0
        if self.deep_levels == "deferred":
            # Keep only the residual + re-indexing bookkeeping; the
            # recursion itself runs off the ingest path in
            # refresh_deep_levels(), attaching bit-for-bit the nodes the
            # inline branch below would have attached now.
            self._deep_pending.append(
                {"start": t_old, "shifts": 0, "residual": residual}
            )
            if OBS.enabled:
                OBS.gauge("core.deep.queue_depth", len(self._deep_pending))
        else:
            n_before = len(self._tree)
            fallbacks = self._grow_chunk(residual, t_old, shifts=0)
            new_nodes = len(self._tree) - n_before
            if OBS.enabled:
                OBS.record("core.chunk_mrdmd", now() - t_phase, cols=int(t1),
                           new_nodes=new_nodes, windows=new_nodes,
                           svd_fallbacks=fallbacks)

        # ---- 5. install the new level-1 node and bookkeeping ---------- #
        self._tree.add(new_level1)
        # complex by contract, like the node arrays (eig may return real)
        self._level1_modes = np.asarray(slow.modes, dtype=complex)
        self._n_snapshots = t_total
        if self._data is not None:
            self._data.append(new_data)

        record = UpdateRecord(
            chunk_size=t1,
            total_snapshots=t_total,
            level1_rank=dmd.svd_rank,
            level1_modes=slow.modes.shape[1],
            drift=drift,
            stale=stale_now,
            new_nodes=new_nodes,
        )
        self._history.append(record)
        self._drop_unread_columns()
        return record

    def _level1_dmd(
        self, new_cols: np.ndarray | None, n_sub: int, local_dt: float
    ) -> DMDResult:
        """The updated level-1 DMD of the ``n_sub``-column grid, flat cost.

        The operator projection reads only the incrementally maintained
        ``(P, q)`` cross product, and the amplitudes are fitted over the
        appended chunk's grid columns ``new_cols`` (the only range the new
        level-1 node contributes to, see ``contribution_start`` in
        :meth:`partial_fit`) at their absolute positions.
        """
        if new_cols is not None and new_cols.shape[1]:
            amp_data = new_cols
            amp_powers = np.arange(n_sub - new_cols.shape[1], n_sub)
        else:
            # Chunk shorter than the stride: no new grid column; anchor
            # the fit at the latest retained column.
            amp_data = self._sub.column(self._sub.n_cols - 1)[:, None]
            amp_powers = np.arange(n_sub - 1, n_sub)
        return compute_dmd_projected(
            self._isvd.u,
            self._isvd.s,
            self._level1_cross,
            dt=local_dt,
            n_snapshots=n_sub,
            svd_rank=self.config.svd_rank,
            use_svht=self.config.use_svht,
            amplitude_data=amp_data,
            amplitude_powers=amp_powers,
        )

    def _chunk_config(self) -> MrDMDConfig:
        """The mrDMD config for the recursion over one appended chunk."""
        return MrDMDConfig(
            max_levels=max(self.config.max_levels - 1, 1),
            max_cycles=self.config.max_cycles,
            nyquist_factor=self.config.nyquist_factor,
            min_window=self.config.min_window,
            use_svht=self.config.use_svht,
            svd_rank=self.config.svd_rank,
            split=self.config.split,
            amplitude_method=self.config.amplitude_method,
        )

    def refresh_deep_levels(self, max_entries: int | None = None) -> int:
        """Run queued levels-2..L recursions (the paper's async recompute).

        Under ``deep_levels="deferred"`` each :meth:`partial_fit` queues
        its chunk's level-1 residual instead of recursing inline; this
        call drains the queue (oldest first, up to ``max_entries``) and
        attaches the resulting nodes exactly where the inline path would
        have: an entry queued at level offset 1 that has missed ``k``
        later level shifts lands at ``level + 1 + k`` — bit-for-bit the
        node arrays inline ingestion produces, because the residual was
        captured against the same updated level-1 reconstruction at
        ingest time.  Returns the number of nodes added.  Safe (a no-op)
        when nothing is queued, including under ``deep_levels="inline"``.

        The service layer schedules this off the ingest path — on the
        persistent shard executor when a ``DriftRule`` fires or every N
        chunks (:class:`repro.service.FleetMonitor`).
        """
        self._require_fitted()
        n_entries = len(self._deep_pending)
        if max_entries is not None:
            n_entries = min(n_entries, max(int(max_entries), 0))
        if n_entries == 0:
            return 0
        t_start = now() if OBS.enabled else 0.0
        n_before = len(self._tree)
        fallbacks = 0
        for _ in range(n_entries):
            entry = self._deep_pending.pop(0)
            fallbacks += self._grow_chunk(
                entry["residual"], entry["start"], shifts=entry["shifts"]
            )
        added = len(self._tree) - n_before
        if OBS.enabled:
            OBS.record("core.deep_refresh", now() - t_start,
                       entries=int(n_entries), new_nodes=added, windows=added,
                       svd_fallbacks=fallbacks)
            OBS.gauge("core.deep.queue_depth", len(self._deep_pending))
        return added

    def _grow_chunk(self, residual: np.ndarray, start: int, *, shifts: int) -> int:
        """Attach the levels-2..L subtree of one appended chunk.

        The recursion over the chunk's level-1 residual writes its nodes
        straight into the tree: its root at level ``2 + shifts`` (one below
        the new level 1, plus the level shifts an entry queued for
        deferred recursion has missed), snapshot ``start`` and bin 1.
        Counts the windows whose Gram guard fell back to the SVD, in
        :attr:`svd_fallbacks` and the ``core.numerics.svd_fallbacks``
        metric, and returns that number.
        """
        fallbacks = grow_mrdmd(
            self._tree, residual, self.dt, self._chunk_config(),
            start=start, level_offset=1 + shifts, bin_offset=1,
        )
        if fallbacks:
            self.svd_fallbacks += fallbacks
            OBS.inc("core.numerics.svd_fallbacks", fallbacks)
        return fallbacks

    # ------------------------------------------------------------------ #
    # Elastic topology: streaming new sensor rows
    # ------------------------------------------------------------------ #
    def add_rows(self, new_rows: int | np.ndarray) -> TopologyChange:
        """Fold new *sensor rows* into a live decomposition (topology event).

        This closes the paper's stated future-work loop ("add new entire
        time series or sensor measurements incrementally") end to end:

        * ``new_rows`` as an **int** onboards that many sensors *now*, with
          no history — their pre-birth timeline is treated as missing
          (zero-filled), which makes the whole event O(k) in the number of
          new sensors and **independent of the stream length**: the iSVD
          takes its all-zero-rows fast path (no right-factor
          materialisation), the ``Y Vh^H`` cross product gains zero rows,
          and existing tree nodes gain zero mode rows.
        * ``new_rows`` as a ``(r, T)`` **array** back-fills caller-supplied
          history over the full ingested timeline (NaNs are zero-filled);
          the basis extension then genuinely reads every retained column,
          so this form is O(T) by necessity.

        Either way the mode-tree revision is bumped exactly once, so every
        derived cache (reconstruction buffers, power-quantile thresholds)
        and every revision-tracking baseline invalidates correctly, and
        subsequent :meth:`partial_fit` chunks must carry the grown row
        count.  Returns the :class:`TopologyChange` record (also
        appended to :attr:`topology_history` and checkpointed).
        """
        self._require_fitted()
        t_now = self._n_snapshots
        if isinstance(new_rows, (int, np.integer)):
            r = int(new_rows)
            if r < 1:
                raise ValueError(f"new_rows must be >= 1, got {new_rows!r}")
            history = None
        else:
            history = np.asarray(new_rows, dtype=float)
            if history.ndim == 1:
                history = history[None, :]
            if history.ndim != 2:
                raise ValueError(
                    f"new_rows must be an int or a 1-D/2-D array, "
                    f"got shape {history.shape!r}"
                )
            if history.shape[1] != t_now:
                raise ValueError(
                    f"history must cover the full ingested timeline: model has "
                    f"{t_now} snapshots, history has {history.shape[1]}"
                )
            r = history.shape[0]
            if r == 0:
                raise ValueError("new_rows must contain at least one row")
            # Pre-birth gaps in supplied history are missing data by
            # definition; zero-fill regardless of the ingest policy.
            history = np.nan_to_num(history, nan=0.0, posinf=0.0, neginf=0.0)
        birth = 0 if history is not None else t_now

        n_sub = self._sub_offset + self._sub.n_cols
        stride = self._level1_stride

        # ---- 1. widen the level-1 grid ------------------------------- #
        stored_abs = np.arange(self._sub_offset, n_sub) * stride
        if history is not None:
            grid_rows = np.ascontiguousarray(history[:, stored_abs])
        else:
            grid_rows = np.zeros((r, stored_abs.size), dtype=float)
        self._sub.add_rows(grid_rows)

        # ---- 2. extend the iSVD basis and the cross product ---------- #
        if history is not None:
            isvd_rows = np.ascontiguousarray(
                history[:, np.arange(self._isvd.n_columns) * stride]
            )
        else:
            isvd_rows = np.zeros((r, self._isvd.n_columns), dtype=float)
        self._isvd.add_rows(isvd_rows)
        cross = self._level1_cross
        # The row-append rotates Vh (no-op on the zero fast path);
        # advance the existing rows through the recorded ops, then
        # append the new rows' Y Vh^H block.
        for op in self._isvd.last_update_ops:
            cross = cross @ op[1].conj().T
        if history is not None:
            y_rows = np.ascontiguousarray(
                history[:, np.arange(1, n_sub) * stride]
            )
            new_cross_rows = y_rows @ self._isvd.vh.conj().T
        else:
            new_cross_rows = np.zeros((r, cross.shape[1]), dtype=cross.dtype)
        self._level1_cross = np.vstack([cross, new_cross_rows])

        # ---- 3. widen the mode tree and bookkeeping ------------------ #
        self._tree.add_features(r)
        self._level1_modes = np.vstack(
            [
                self._level1_modes,
                np.zeros((r, self._level1_modes.shape[1]), dtype=complex),
            ]
        )
        if self._data is not None:
            kept = self._data.n_cols
            if history is not None:
                self._data.add_rows(history[:, t_now - kept : t_now])
            else:
                self._data.add_rows(np.zeros((r, kept), dtype=float))

        self._n_features += r
        self._row_birth = np.concatenate(
            [self._row_birth, np.full(r, birth, dtype=int)]
        )
        change = TopologyChange(
            step=birth,
            n_new_rows=r,
            total_rows=self._n_features,
            backfilled=history is not None,
            tree_revision=self._tree.revision,
        )
        self._topology.append(change)
        return change

    # ------------------------------------------------------------------ #
    # Serialisation (checkpoint / restore)
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Full model state as plain containers (for checkpointing).

        Everything :meth:`partial_fit` depends on is captured — the mode
        tree, the level-1 iSVD factors, the subsampled level-1 matrix, the
        stride/bookkeeping counters, the previous slow modes and the update
        history — so a model restored with :meth:`from_state_dict` resumes
        the stream bit-for-bit where the original left off.
        """
        self._require_fitted()
        return {
            "dt": self.dt,
            "config": asdict(self.config),
            "drift_threshold": self.drift_threshold,
            "retain_data": self.retain_data,
            "retain_window": self.retain_window,
            "missing_values": self.missing_values,
            "deep_levels": self.deep_levels,
            "deep_pending": [
                {
                    "start": int(entry["start"]),
                    "shifts": int(entry["shifts"]),
                    "residual": entry["residual"],
                }
                for entry in self._deep_pending
            ],
            "level1_stride": self._level1_stride,
            "sub_offset": self._sub_offset,
            "next_sub_index": self._next_sub_index,
            "n_snapshots": self._n_snapshots,
            "n_features": self._n_features,
            "stale": self._stale,
            "sub": self._sub.frozen_view(),
            "level1_modes": self._level1_modes,
            "level1_cross": self._level1_cross,
            "data": None if self._data is None else self._data.frozen_view(),
            "isvd": self._isvd.to_dict(),
            "tree": self._tree.to_dict(),
            # Flat records of scalars: the field dict is asdict() without
            # its recursive copy, and this sits on checkpoint capture.
            "history": [dict(vars(record)) for record in self._history],
            "row_birth": self._row_birth,
            "topology": [asdict(change) for change in self._topology],
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "IncrementalMrDMD":
        """Rebuild a fitted model from :meth:`state_dict` output.

        Older states carry the retired ``keep_data`` flag, with
        ``retain_data`` missing or ``None`` before the streaming-core
        overhaul: retention then reads ``"all"`` when the flag was set and
        ``"none"`` otherwise.  Their retired ``level1_path`` and
        ``lazy_vh`` keys are ignored.  Older states may also carry the
        full level-1 grid (``sub_offset`` 0); states without a
        ``level1_cross`` (saved before the cross product existed, or under
        the retired ``level1_path="dense"``) always do, and get the cross
        product recomputed from that grid and the factors, so old
        checkpoints keep resuming (deterministically, via the same batch
        product the initial fit uses).  The grid is then trimmed to its
        trailing column, as a live model holds it.
        """
        retain_data = state.get("retain_data")
        if retain_data is None:
            retain_data = "all" if state.get("keep_data") else "none"
        model = cls(
            dt=float(state["dt"]),
            config=MrDMDConfig(**state["config"]),
            drift_threshold=state["drift_threshold"],
            retain_data=retain_data,
            retain_window=int(state.get("retain_window", 4096)),
            missing_values=str(state.get("missing_values", "raise")),
            deep_levels=str(state.get("deep_levels", "inline")),
        )
        model._deep_pending = [
            {
                "start": int(entry["start"]),
                "shifts": int(entry["shifts"]),
                "residual": np.asarray(entry["residual"], dtype=float),
            }
            for entry in state.get("deep_pending", [])
        ]
        model._tree = MrDMDTree.from_dict(state["tree"])
        model._isvd = IncrementalSVD.from_dict(state["isvd"])
        model._level1_stride = int(state["level1_stride"])
        model._sub_offset = int(state.get("sub_offset", 0))
        model._next_sub_index = int(state["next_sub_index"])
        model._n_snapshots = int(state["n_snapshots"])
        model._n_features = int(state["n_features"])
        model._stale = bool(state["stale"])
        model._sub = GrowableMatrix.from_array(np.asarray(state["sub"], dtype=float))
        model._level1_modes = np.asarray(state["level1_modes"], dtype=complex)
        cross = state.get("level1_cross")
        model._level1_cross = (
            model._initial_cross(model._sub.view())
            if cross is None
            else np.asarray(cross, dtype=float)
        )
        raw = state["data"]
        model._data = (
            None if raw is None else GrowableMatrix.from_array(np.asarray(raw, dtype=float))
        )
        model._drop_unread_columns()
        model._history = [UpdateRecord(**record) for record in state["history"]]
        # Pre-elastic checkpoints lack the provenance keys: every row is
        # then original (birth 0) with no topology events.
        birth = state.get("row_birth")
        model._row_birth = (
            np.zeros(model._n_features, dtype=int)
            if birth is None
            else np.asarray(birth, dtype=int)
        )
        model._topology = [
            TopologyChange(**change) for change in state.get("topology", [])
        ]
        return model

    # ------------------------------------------------------------------ #
    # Refresh / accuracy
    # ------------------------------------------------------------------ #
    def refresh(self) -> MrDMDTree:
        """Recompute the whole tree from the retained raw data (batch mrDMD).

        This is the "asynchronous recomputation of levels 2..L" the paper
        defers to operators when the drift threshold is crossed.  Requires
        the full raw timeline (``retain_data="all"``).  The refreshed tree
        replaces the incremental one and the stale flag is cleared.
        """
        self._require_fitted()
        if self.retain_data != "all":
            raise RuntimeError("refresh() requires retain_data='all'")
        self._tree = compute_mrdmd(self._data.materialize(), self.dt, self.config)
        level1_nodes = self._tree.nodes_at_level(1)
        self._level1_modes = (
            level1_nodes[0].modes.copy()
            if level1_nodes
            else np.zeros((self._n_features, 0), dtype=complex)
        )
        self._stale = False
        # The batch recompute covers every timeline column, so any queued
        # deferred deep-level work is subsumed.
        self._deep_pending = []
        return self._tree

    def reconstruct(self, **kwargs) -> np.ndarray:
        """Reconstruct the ingested timeline from the current tree (Eq. 7)."""
        self._require_fitted()
        return self._tree.reconstruct(self._n_snapshots, **kwargs)

    def retained_data(
        self, time_range: tuple[int, int] | None = None
    ) -> np.ndarray | None:
        """Copy of the retained raw snapshots (``None`` under ``"none"``).

        Under ``retain_data="window"`` this is the trailing window only;
        :meth:`retained_range` gives its absolute snapshot indices.
        ``time_range`` copies only the absolute columns ``[start, stop)``,
        which must lie inside that range.
        """
        if self._data is None:
            return None
        if time_range is None:
            return self._data.materialize()
        first, last = self.retained_range()
        start, stop = time_range
        if not first <= start <= stop <= last:
            raise IndexError(
                f"time_range {time_range!r} outside the retained range "
                f"{(first, last)!r}"
            )
        return self._data.slice(start - first, stop - first)

    def retained_range(self) -> tuple[int, int] | None:
        """Absolute ``[start, stop)`` snapshot range of the retained data."""
        if self._data is None:
            return None
        return (self._n_snapshots - self._data.n_cols, self._n_snapshots)

    def reconstruction_error(self, reference: np.ndarray | None = None) -> float:
        """Frobenius norm ``||X - X_hat||_F`` of the reconstruction error.

        ``reference`` defaults to the retained raw data (requires
        ``retain_data="all"``).  This is the quantity the paper reports for
        both case studies (3958.58 and 3423.85).
        """
        self._require_fitted()
        if reference is None:
            if self.retain_data != "all":
                raise RuntimeError(
                    "reconstruction_error() without a reference requires "
                    "retain_data='all'"
                )
            reference = self._data.view()
        reference = np.asarray(reference, dtype=float)
        if reference.shape != (self._n_features, self._n_snapshots):
            raise ValueError(
                f"reference shape {reference.shape} does not match ingested data "
                f"({self._n_features}, {self._n_snapshots})"
            )
        return float(np.linalg.norm(reference - self.reconstruct()))

    def incremental_vs_batch_gap(self, reference: np.ndarray) -> float:
        """Difference between incremental and batch reconstruction errors (Q2).

        Computes ``|err_incremental - err_batch|`` on ``reference`` (the raw
        data the model has seen), i.e. how much accuracy the incremental
        shortcut gives up relative to recomputing mrDMD from scratch.
        """
        self._require_fitted()
        reference = np.asarray(reference, dtype=float)
        batch_tree = compute_mrdmd(reference, self.dt, self.config)
        err_batch = float(np.linalg.norm(reference - batch_tree.reconstruct(reference.shape[1])))
        err_inc = self.reconstruction_error(reference)
        return abs(err_inc - err_batch)
