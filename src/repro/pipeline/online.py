"""The online analysis pipeline: stream -> I-mrDMD -> spectrum -> z-scores -> views.

This is the "online analytical system" of the paper's introduction wired
end to end:

1. ingest environment-log snapshots (initial fit + streaming chunks);
2. maintain the I-mrDMD decomposition incrementally;
3. filter the mode spectrum to the configured band / power quantile;
4. reconstruct the denoised signal and score it against baselines
   (z-scores per row, aggregated per node);
5. expose rack-view values, spectrum exports, and multi-log alignment
   reports for the hardware/job logs.

The pipeline object is deliberately stateful (it mirrors a long-running
monitoring service); every analysis product is a method so operators — or
the case-study examples — can pull what they need after any update.
"""

from __future__ import annotations

import bisect
import itertools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..align.report import AlignmentReport, build_alignment_report
from ..align.zscore_map import NodeZScores, map_zscores_to_nodes
from ..core.baseline import BaselineModel, BaselineMoments, BaselineSpec, ZScoreResult
from ..core.imrdmd import IncrementalMrDMD, TopologyChange, UpdateRecord
from ..core.reconstruction import evaluate_reconstruction, ReconstructionReport
from ..core.spectrum import MrDMDSpectrum
from ..hwlog.events import HardwareLog
from ..obs import OBS
from ..joblog.jobs import JobLog
from ..telemetry.generator import TelemetryStream
from .config import PipelineConfig

__all__ = ["OnlineAnalysisPipeline", "PipelineSnapshot"]

#: Process-wide source of pipeline stamp tokens (see ``state_stamp``).
_STAMP_TOKENS = itertools.count(1)


@dataclass
class PipelineSnapshot:
    """Analysis products after one update (returned by :meth:`ingest`).

    ``deep_pending`` / ``deep_stale_snapshots`` stamp the deep-level
    staleness under ``config.deep_levels="deferred"``: how many chunks
    still await their levels-2..L recursion and how many trailing
    snapshots the deep levels lag the stream by (both 0 under
    ``"inline"``, where the tree is always current).  They default so
    pickled snapshots from older checkpoints keep loading.
    ``svd_fallbacks`` is the model's running count of deep-level windows
    its Gram-route guard sent to the SVD; a process-lifetime diagnostic,
    so it takes no part in snapshot equality.
    """

    update: UpdateRecord | None
    n_snapshots: int
    n_modes: int
    reconstruction_error: float | None
    deep_pending: int = 0
    deep_stale_snapshots: int = 0
    svd_fallbacks: int = field(default=0, compare=False)


class _BlockFold:
    """The pipeline's read half, kept one ingest block at a time.

    Blocks are the initial fit and every ``partial_fit`` chunk (their
    boundaries come from the model's update history).  An incremental
    update only adds tree nodes over its own chunk, so the reconstruction
    of older blocks is frozen; :meth:`MrDMDTree.touched_since` says when
    an edit broke that (deferred deep levels landing on an older chunk,
    a topology event).  Three products are kept per block:

    * ``recon`` — the reconstruction buffer, allocated on the first read
      and filled per block on demand (``done``), so a window read
      computes only the blocks it overlaps;
    * ``moments`` — in-band baseline moments, Chan-merged in block order
      (entry ``k`` covers blocks ``0..k``);
    * ``sq_errors`` — squared residual norms against the retained data,
      summed in block order.

    Every block product comes from the same call on the same block
    shape, and every merge runs in block order, so the products depend
    only on the current tree — a pipeline restored from ``state_dict`` or
    a pickle recomputes them bit-for-bit, whichever reads it served.
    """

    def __init__(self) -> None:
        self.tree_ref: weakref.ref | None = None
        self.revision = -1
        self.n_nodes = 0
        self.frequency_range: tuple[float, float] | None = None
        self.min_power = 0.0
        self.edges: list[int] = []
        self.recon: np.ndarray | None = None
        self.done: list[bool] = []
        self.moments: list[BaselineMoments] = []
        self.moments_spec: BaselineSpec | None = None
        self.sq_errors: list[float] = []

    @property
    def n_blocks(self) -> int:
        return len(self.edges) - 1

    @property
    def filtered(self) -> bool:
        return self.frequency_range is not None or self.min_power > 0.0

    def sync(
        self, model: IncrementalMrDMD, frequency_range, min_power: float
    ) -> None:
        """Drop every product an edit since the last sync may have changed."""
        tree = model.tree
        if self.tree_ref is None or self.tree_ref() is not tree:
            # A new tree (refresh(), a restored model): start over.
            self.__init__()
            self.tree_ref = weakref.ref(tree)
            self.frequency_range = frequency_range
            self.min_power = min_power
        if not self.edges or self.edges[-1] != model.n_snapshots:
            history = model.history
            if not self.edges:
                first = history[0] if history else None
                self.edges = [
                    0,
                    model.n_snapshots if first is None
                    else first.total_snapshots - first.chunk_size,
                ]
            self.edges.extend(
                record.total_snapshots for record in history[len(self.edges) - 2 :]
            )
            self.done.extend([False] * (self.n_blocks - len(self.done)))
        column = tree.touched_since(self.revision, self.n_nodes)
        self.revision = tree.revision
        self.n_nodes = len(tree)
        if column is not None:
            self.invalidate(bisect.bisect_right(self.edges, column) - 1)
        if (frequency_range, min_power) != (self.frequency_range, self.min_power):
            # The spectral filter moved: the reconstruction (and the
            # baseline over it) changes everywhere; the unfiltered error
            # does not.
            self.frequency_range = frequency_range
            self.min_power = min_power
            self.done = [False] * self.n_blocks
            self.moments = []

    def invalidate(self, block: int) -> None:
        """Forget every product of blocks ``block`` onwards."""
        self.done[block:] = [False] * (self.n_blocks - block)
        del self.moments[block:]
        del self.sq_errors[block:]

    def block_range(self, k: int) -> tuple[int, int]:
        return (self.edges[k], self.edges[k + 1])

    def _reconstruct(
        self, model: IncrementalMrDMD, k: int, *, apply_filter: bool
    ) -> np.ndarray:
        return model.tree.reconstruct(
            model.n_snapshots,
            time_range=self.block_range(k),
            frequency_range=self.frequency_range if apply_filter else None,
            min_power=self.min_power if apply_filter else 0.0,
        )

    def fill(
        self, model: IncrementalMrDMD, first: int = 0, last: int | None = None
    ) -> None:
        """Reconstruct the missing blocks among ``first..last-1`` (all by default)."""
        last = self.n_blocks if last is None else last
        if all(self.done[first:last]):
            return
        rows, cols = model.tree.n_features, self.edges[-1]
        if self.recon is None or self.recon.shape[0] != rows:
            # First read, or the row count grew (which touches every
            # block anyway): a fresh buffer with nothing in it.
            self.recon = np.empty((rows, cols))
            self.done = [False] * self.n_blocks
        elif self.recon.shape[1] < cols:
            grown = np.empty((rows, max(cols, 2 * self.recon.shape[1])))
            grown[:, : self.recon.shape[1]] = self.recon
            self.recon = grown
        missing = [k for k in range(first, last) if not self.done[k]]
        with OBS.span(
            "pipeline.read_catchup",
            cols=sum(self.edges[k + 1] - self.edges[k] for k in missing),
            blocks=len(missing),
            full=len(missing) == self.n_blocks,
        ):
            for k in missing:
                lo, hi = self.block_range(k)
                self.recon[:, lo:hi] = self._reconstruct(model, k, apply_filter=True)
                self.done[k] = True

    def window(self, model: IncrementalMrDMD, lo: int, hi: int) -> np.ndarray:
        """Read-only view of the reconstruction's columns ``[lo, hi)``,
        valid until the next update; only the blocks it overlaps are
        reconstructed."""
        if hi <= lo:
            return np.zeros((model.tree.n_features, 0))
        self.fill(
            model,
            bisect.bisect_right(self.edges, lo) - 1,
            bisect.bisect_left(self.edges, hi),
        )
        return self.recon[:, lo:hi]

    def baseline_moments(
        self, model: IncrementalMrDMD, spec: BaselineSpec
    ) -> BaselineMoments:
        """Baseline moments of the whole reconstruction under ``spec``."""
        if spec != self.moments_spec:
            self.moments = []
            self.moments_spec = spec
        self.fill(model, len(self.moments))
        with OBS.span("pipeline.baseline_fold", blocks=self.n_blocks - len(self.moments)):
            for k in range(len(self.moments), self.n_blocks):
                lo, hi = self.block_range(k)
                block = BaselineMoments.of_block(self.recon[:, lo:hi], spec, start=lo)
                self.moments.append(self.moments[-1].merge(block) if k else block)
        return self.moments[-1]

    def reconstruction_error(self, model: IncrementalMrDMD) -> float:
        """``||X - X_hat||_F`` of the unfiltered reconstruction, per block.

        Blocks come from the buffer once a read has allocated it (the
        next read needs them too) and the buffer is unfiltered; until
        then, or with a spectral filter active, they are reconstructed
        here and dropped, so an ingest-only pipeline holds no buffer.
        """
        for k in range(len(self.sq_errors), self.n_blocks):
            lo, hi = self.block_range(k)
            if self.recon is not None and not self.filtered:
                self.fill(model, k, k + 1)
                recon = self.recon[:, lo:hi]
            else:
                recon = self._reconstruct(model, k, apply_filter=False)
            residual = (model.retained_data(time_range=(lo, hi)) - recon).ravel()
            sq = float(residual.dot(residual))
            self.sq_errors.append(self.sq_errors[-1] + sq if k else sq)
        return math.sqrt(self.sq_errors[-1])


class OnlineAnalysisPipeline:
    """Streaming analysis of one telemetry matrix.

    Parameters
    ----------
    dt:
        Sampling interval of the incoming snapshots (seconds).
    config:
        :class:`~repro.pipeline.config.PipelineConfig`.
    node_of_row:
        Optional mapping from matrix rows to node indices (e.g.
        ``TelemetryStream.node_indices``); required for per-node products
        (rack values, alignment reports).
    """

    def __init__(
        self,
        dt: float,
        config: PipelineConfig | None = None,
        *,
        node_of_row: np.ndarray | None = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.model = IncrementalMrDMD(
            dt=dt,
            config=self.config.mrdmd,
            drift_threshold=self.config.drift_threshold,
            retain_data=self.config.retain_data,
            retain_window=self.config.retain_window,
            missing_values=self.config.missing_values,
            deep_levels=self.config.deep_levels,
        )
        self.node_of_row = None if node_of_row is None else np.asarray(node_of_row, dtype=int)
        self._baseline: BaselineModel | None = None
        # Provenance of the fitted baseline, for staleness detection: the
        # spec it was fitted with (replayable), whether it was pinned to
        # caller-supplied data (never auto-refit), and the tree revision it
        # saw.  The weakref guards against revision collisions when
        # refresh() swaps in a brand-new tree whose counter restarts.
        self._baseline_spec: BaselineSpec | None = None
        self._baseline_pinned: bool = False
        self._baseline_revision: int | None = None
        self._baseline_tree_ref: weakref.ref | None = None
        # (tree weakref, tree revision, quantile) -> power threshold.
        self._min_power_cache: tuple[weakref.ref, int, float, float] | None = None
        # Reconstruction buffer, baseline moments and error, per block.
        self._fold = _BlockFold()
        # Monotonic count of state-bearing mutations (ingests, deep
        # refreshes, topology events, baseline fits).  Combined with the
        # tree revision in state_stamp(), it lets the checkpoint layer
        # prove "nothing state_dict() captures has changed" without
        # serialising anything.
        self._mutations: int = 0
        # Distinguishes stamps across constructed instances: a pipeline
        # rebuilt via from_state_dict restarts its counters and must not
        # collide with a stamp its predecessor issued.  A pickled copy
        # keeps the token deliberately — the round trip is exact, so its
        # stamps remain interchangeable with the original's.
        self._stamp_token: int = next(_STAMP_TOKENS)

    # ------------------------------------------------------------------ #
    # Pickling: memoised products and weakrefs are process-local.  A copy
    # shipped to a shard-executor worker rebuilds its read half lazily
    # (bit-for-bit, see _BlockFold) against its own tree object; the
    # baseline revision itself is a plain int and travels with the
    # (pickled) tree, so staleness decisions stay bit-for-bit identical
    # across backends.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_min_power_cache"] = None
        state["_fold"] = _BlockFold()
        state["_baseline_tree_ref"] = None
        # Weakrefs cannot travel, so persist the staleness *verdict*: a
        # baseline that is stale here (including via the refresh()-swap
        # guard, which a revision number alone cannot express) must stay
        # stale in the copy.
        if self.baseline_is_stale():
            state["_baseline_revision"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # A non-None revision means the baseline was fresh when pickled,
        # so the copy's current tree is exactly the one it was fitted
        # against — re-anchor the identity guard to it.
        if self._baseline_revision is not None and self.model.fitted:
            self._baseline_tree_ref = weakref.ref(self.model.tree)

    def clear_caches(self) -> None:
        """Drop memoised spectra/reconstruction products (rebuilt lazily)."""
        self._min_power_cache = None
        self._fold = _BlockFold()

    # ------------------------------------------------------------------ #
    @classmethod
    def from_stream(
        cls, stream: TelemetryStream, config: PipelineConfig | None = None
    ) -> "OnlineAnalysisPipeline":
        """Convenience constructor wiring ``dt`` and the node mapping from a stream."""
        return cls(dt=stream.dt, config=config, node_of_row=stream.node_indices)

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def ingest(self, data: np.ndarray) -> PipelineSnapshot:
        """Feed a block of snapshots (initial fit on the first call)."""
        data = np.asarray(data, dtype=float)
        with OBS.span("pipeline.ingest", cols=int(data.shape[-1])):
            if not self.model.fitted:
                with OBS.span("core.fit"):
                    self.model.fit(data)
                update = None
            else:
                with OBS.span("core.partial_fit"):
                    update = self.model.partial_fit(data)
            self._mutations += 1
            return self._snapshot(update)

    def _snapshot(self, update: UpdateRecord | None) -> PipelineSnapshot:
        error = None
        if self.model.retain_data == "all":
            error = self._synced_fold().reconstruction_error(self.model)
        return PipelineSnapshot(
            update=update,
            n_snapshots=self.model.n_snapshots,
            n_modes=self.model.tree.total_modes,
            reconstruction_error=error,
            deep_pending=self.model.deep_pending,
            deep_stale_snapshots=self.model.deep_stale_snapshots,
            svd_fallbacks=self.model.svd_fallbacks,
        )

    def refresh_deep_levels(self, max_entries: int | None = None) -> int:
        """Drain queued deferred deep-level work (off the ingest path).

        Forwards to
        :meth:`~repro.core.imrdmd.IncrementalMrDMD.refresh_deep_levels`;
        the nodes it attaches bump the tree revision and mark the chunks
        they land on, so the next read recomputes exactly those blocks of
        the read half, and power thresholds and staleness-aware baselines
        invalidate as an inline ingest would have.
        """
        with OBS.span("pipeline.deep_refresh"):
            refreshed = self.model.refresh_deep_levels(max_entries)
        if refreshed:
            self._mutations += 1
        return refreshed

    # ------------------------------------------------------------------ #
    # Elastic topology
    # ------------------------------------------------------------------ #
    def add_sensors(
        self,
        node_of_row: np.ndarray | None = None,
        *,
        history: np.ndarray | None = None,
        n_rows: int | None = None,
    ) -> TopologyChange:
        """Stream new sensor rows into a live pipeline (topology event).

        Extends the I-mrDMD basis via
        :meth:`~repro.core.imrdmd.IncrementalMrDMD.add_rows`, re-derives
        the node/row map, and keeps the fitted baseline usable across the
        event: the *unaffected* rows keep their fitted statistics (the
        grown tree reconstructs them identically — new sensors contribute
        zero mode rows to old windows), while statistics for the new rows
        are fitted fresh from the current reconstruction.  Baselines
        pinned to caller-supplied data cannot be replayed over a grown
        row space and are dropped (the next scoring call fits fresh).

        Parameters
        ----------
        node_of_row:
            Populated-node index per new row; required when the pipeline
            tracks a node/row map, forbidden when it does not.
        history:
            Optional ``(r, T)`` back-filled readings over the full
            ingested timeline (NaN = missing).  Without it the rows join
            *now* at O(r) cost, independent of the stream length; their
            pre-birth timeline reconstructs as zero, so full-timeline
            aggregates dilute young rows — score recent windows
            (``time_range=...``), as the alert engine does.
        n_rows:
            Row count when neither ``node_of_row`` nor ``history`` pins it.
        """
        new_nodes = None
        if node_of_row is not None:
            new_nodes = np.asarray(node_of_row, dtype=int)
            if new_nodes.ndim != 1 or new_nodes.size == 0:
                raise ValueError("node_of_row must be a non-empty 1-D index array")
        if self.node_of_row is not None and new_nodes is None:
            raise ValueError(
                "this pipeline tracks a node/row map: pass node_of_row for the "
                "new rows"
            )
        if self.node_of_row is None and new_nodes is not None:
            raise ValueError(
                "this pipeline has no node/row map; pass history/n_rows only"
            )
        if history is not None:
            history = np.asarray(history, dtype=float)
            if history.ndim == 1:
                history = history[None, :]
        counts = {
            name: count
            for name, count in (
                ("node_of_row", None if new_nodes is None else int(new_nodes.size)),
                ("history", None if history is None else int(history.shape[0])),
                ("n_rows", None if n_rows is None else int(n_rows)),
            )
            if count is not None
        }
        if not counts:
            raise ValueError("pass node_of_row, history or n_rows")
        if len(set(counts.values())) != 1:
            raise ValueError(f"inconsistent new-row counts: {counts}")
        n_rows = next(iter(counts.values()))
        if n_rows < 1:
            raise ValueError("at least one new row is required")

        # Baseline freshness *before* the event (the event itself bumps the
        # tree revision, which must not count as staleness for old rows).
        extendable = (
            self._baseline is not None
            and not self._baseline_pinned
            and not self.baseline_is_stale()
        )
        change = self.model.add_rows(history if history is not None else n_rows)
        if new_nodes is not None:
            self.node_of_row = np.concatenate([self.node_of_row, new_nodes])
        self.clear_caches()

        if self._baseline is None:
            pass
        elif self._baseline_pinned:
            # Caller-supplied fit data cannot be replayed over the grown
            # row space: drop the baseline; the next scoring call fits a
            # fresh full-width one.
            self._baseline = None
            self._baseline_spec = None
            self._baseline_pinned = False
            self._baseline_revision = None
            self._baseline_tree_ref = None
        else:
            # The extension only bridges until the next ingest bumps the
            # revision and triggers the refit.
            self._extend_baseline(n_rows, fresh=extendable)
        self._mutations += 1
        return change

    def _extend_baseline(self, n_new: int, *, fresh: bool) -> None:
        """Widen the fitted baseline for the rows a topology event added.

        Only the *affected* rows are refitted: new rows get statistics
        from the current reconstruction under the baseline's original
        spec, existing rows keep theirs.  A baseline that was fresh before
        the event is re-anchored to the post-event tree revision (no
        spurious full refit on the next scoring call); one that was
        already stale stays stale.
        """
        old = self._baseline
        spec = self._baseline_spec or BaselineSpec(
            value_range=self.config.baseline_range
        )
        # At event time the new rows reconstruct as exactly zero — no tree
        # node spans them yet (pre-event nodes keep their narrower width,
        # and the event itself adds none) — so their statistics come from
        # a single zero column instead of reconstructing (or even
        # allocating) the timeline: per-row the result is identical (mean
        # 0, std at the fallback floor) and the event stays O(r).  Real
        # statistics arrive with the next refit, once post-event nodes
        # exist.
        grown = BaselineModel.from_data(
            np.zeros((n_new, 1)),
            spec,
            near=self.config.zscore_near,
            extreme=self.config.zscore_extreme,
        )
        self._baseline = BaselineModel(
            np.concatenate([old.mean, grown.mean]),
            np.concatenate([old.std, grown.std]),
            near=old.near,
            extreme=old.extreme,
            std_floor=old.std_floor,
        )
        if fresh and self.model.fitted:
            self._baseline_revision = self.model.tree.revision
            self._baseline_tree_ref = weakref.ref(self.model.tree)

    # ------------------------------------------------------------------ #
    # Analysis products
    # ------------------------------------------------------------------ #
    def _min_power_threshold(self) -> float:
        """Power threshold implied by ``config.power_quantile``, cached.

        The quantile only changes when the mode tree does, so the value is
        cached per tree revision — :meth:`spectrum` and
        :meth:`reconstruction` would otherwise rebuild a full
        :class:`MrDMDSpectrum` on every call between updates.
        """
        if self.config.power_quantile <= 0.0:
            return 0.0
        tree = self.model.tree
        revision = tree.revision
        cached = self._min_power_cache
        if (
            cached is not None
            and cached[0]() is tree
            and cached[1] == revision
            and cached[2] == self.config.power_quantile
        ):
            return cached[3]
        full = MrDMDSpectrum(tree)
        threshold = (
            float(np.quantile(full.power, self.config.power_quantile))
            if full.n_modes
            else 0.0
        )
        self._min_power_cache = (
            weakref.ref(tree), revision, self.config.power_quantile, threshold
        )
        return threshold

    def spectrum(self, label: str = "") -> MrDMDSpectrum:
        """The (optionally filtered) mrDMD spectrum of the current tree."""
        spectrum = MrDMDSpectrum(self.model.tree, label=label)
        if self.config.power_quantile > 0.0:
            spectrum = spectrum.filter(min_power=self._min_power_threshold())
        if self.config.frequency_range is not None:
            spectrum = spectrum.filter(self.config.frequency_range)
        return spectrum

    def _normalize_time_range(
        self, time_range: tuple[int, int] | None
    ) -> tuple[int, int] | None:
        """Clamp an absolute window to the ingested timeline (None = full)."""
        if time_range is None:
            return None
        start, stop = time_range
        total = self.model.n_snapshots
        return (min(max(int(start), 0), total), min(max(int(stop), 0), total))

    def _synced_fold(self) -> _BlockFold:
        """The read half, with every product an edit invalidated dropped."""
        fold = self._fold
        fold.sync(self.model, self.config.frequency_range, self._min_power_threshold())
        return fold

    def _reconstruction_window(
        self, time_range: tuple[int, int] | None
    ) -> np.ndarray:
        """Reconstruction over a (normalised) window: a read-only slice of
        the reconstruction buffer, valid until the next update."""
        lo, hi = time_range or (0, self.model.n_snapshots)
        return self._synced_fold().window(self.model, lo, hi)

    def reconstruction(
        self, *, time_range: tuple[int, int] | None = None
    ) -> np.ndarray:
        """Denoised reconstruction over the ingested timeline.

        ``time_range`` restricts the output to an absolute ``(start,
        stop)`` snapshot window — column ``j`` of the result equals column
        ``start + j`` of the full reconstruction.  Both are copies out of
        the reconstruction buffer (see :meth:`zscores`).
        """
        return self._reconstruction_window(
            self._normalize_time_range(time_range)
        ).copy()

    def reconstruction_report(self, reference: np.ndarray) -> ReconstructionReport:
        """Quality metrics of the current reconstruction against ``reference``."""
        return evaluate_reconstruction(
            self.model.tree,
            np.asarray(reference, dtype=float),
            frequency_range=self.config.frequency_range,
        )

    def fit_baseline(
        self,
        data: np.ndarray | None = None,
        *,
        value_range: tuple[float, float] | None = None,
        time_range: tuple[int, int] | None = None,
    ) -> BaselineModel:
        """Estimate the baseline statistics (from the reconstruction by default).

        From the reconstruction, the statistics are the per-block in-band
        moments of the buffer, Chan-merged in block order: equal to
        :meth:`BaselineModel.from_data` over the whole reconstruction up
        to summation order.

        A baseline fitted from the reconstruction records the tree revision
        it saw, so later scoring can detect and repair staleness as more
        data streams in: the fit is replayed with its original spec, so
        explicit ``value_range``/``time_range`` choices are honoured, and
        only the blocks an update touched are re-summarised and merged
        into the running moments.  A baseline fitted from caller-supplied
        ``data`` is *pinned*: the pipeline cannot replay it, so it is
        never auto-refit.
        """
        pinned = data is not None
        spec = BaselineSpec(
            value_range=value_range or self.config.baseline_range,
            time_range=time_range,
        )
        if pinned:
            moments = BaselineMoments.of_block(data, spec)
        else:
            moments = self._synced_fold().baseline_moments(self.model, spec)
        self._baseline = BaselineModel.from_moments(
            moments,
            spec,
            near=self.config.zscore_near,
            extreme=self.config.zscore_extreme,
        )
        self._baseline_spec = spec
        self._baseline_pinned = pinned
        if self.model.fitted:
            self._baseline_revision = self.model.tree.revision
            self._baseline_tree_ref = weakref.ref(self.model.tree)
        else:
            self._baseline_revision = None
            self._baseline_tree_ref = None
        self._mutations += 1
        return self._baseline

    def baseline_is_stale(self) -> bool:
        """Whether the fitted baseline predates the current mode tree."""
        if self._baseline is None or not self.model.fitted:
            return False
        if self._baseline_revision is None:
            return True
        tree = self.model.tree
        if self._baseline_tree_ref is not None and self._baseline_tree_ref() is not tree:
            return True
        return self._baseline_revision != tree.revision

    def _ensure_baseline(self) -> BaselineModel:
        """Fit the baseline lazily; refit a stale unpinned one."""
        if self._baseline is None:
            self.fit_baseline()
        elif not self._baseline_pinned and self.baseline_is_stale():
            spec = self._baseline_spec or BaselineSpec(
                value_range=self.config.baseline_range
            )
            self.fit_baseline(
                value_range=spec.value_range, time_range=spec.time_range
            )
        return self._baseline

    def zscores(
        self,
        data: np.ndarray | None = None,
        *,
        time_range: tuple[int, int] | None = None,
    ) -> ZScoreResult:
        """Row-level z-scores of (a window of) the reconstruction.

        With the default ``data=None`` the window is a slice of the
        pipeline's reconstruction buffer.  A read reconstructs only the
        blocks its window overlaps that an update touched (the appended
        chunk, under inline deep levels) or that were never filled, and
        a stale baseline's refit merges those blocks' baseline moments
        into the running fold — so a read costs O(chunk), not O(full
        timeline), at any stream age.
        """
        baseline = self._ensure_baseline()
        if data is None:
            window = self._normalize_time_range(time_range)
            if window is not None and window[1] <= window[0]:
                raise ValueError(f"time_range {time_range!r} selects no columns")
            return baseline.score(
                self._reconstruction_window(window),
                reducer=self.config.zscore_reducer,
            )
        return baseline.score(
            data, reducer=self.config.zscore_reducer, time_range=time_range
        )

    def node_zscores(
        self,
        data: np.ndarray | None = None,
        *,
        time_range: tuple[int, int] | None = None,
        reducer: str = "mean",
    ) -> NodeZScores:
        """Per-node aggregated z-scores (requires ``node_of_row``)."""
        if self.node_of_row is None:
            raise RuntimeError("node_of_row is required for per-node z-scores")
        result = self.zscores(data, time_range=time_range)
        return map_zscores_to_nodes(result, self.node_of_row, reducer=reducer)

    def rack_values(
        self,
        *,
        time_range: tuple[int, int] | None = None,
    ) -> dict[int, float]:
        """``{node: zscore}`` dictionary ready for the rack view."""
        return self.node_zscores(time_range=time_range).as_dict()

    # ------------------------------------------------------------------ #
    # Serialisation (checkpoint / restore)
    # ------------------------------------------------------------------ #
    def state_stamp(self) -> tuple:
        """Cheap revision stamp over everything :meth:`state_dict` captures.

        O(1) to compute — no serialisation, no array reads.  Two calls
        returning the same stamp on the *same live pipeline object*
        guarantee the state did not change in between (every mutating
        entry point bumps ``_mutations``); the tree revision and
        snapshot/pending counts ride along as a cross-check.  Stamps are
        only comparable within one pipeline instance: a restored or
        copied pipeline restarts its counter, which at worst costs one
        redundant re-serialisation, never a stale skip.
        """
        if self.model.fitted:
            tree_stamp = (
                self.model.tree.revision,
                self.model.n_snapshots,
                self.model.deep_pending,
            )
        else:
            tree_stamp = (-1, -1, -1)
        return (self._stamp_token, self._mutations) + tree_stamp

    def state_dict(self) -> dict:
        """Full pipeline state as plain containers.

        Captures the configuration, the I-mrDMD model state (when fitted)
        and the fitted baseline, so :meth:`from_state_dict` resumes the
        stream exactly — same spectra, z-scores and subsequent updates as
        an uninterrupted pipeline.
        """
        baseline = None
        if self._baseline is not None:
            spec = self._baseline_spec
            baseline = {
                "mean": self._baseline.mean,
                "std": self._baseline.std,
                "near": self._baseline.near,
                "extreme": self._baseline.extreme,
                "std_floor": self._baseline.std_floor,
                # Provenance for staleness-aware restore.  Tree revision
                # counters do not survive to_dict/from_dict, so freshness
                # is stored as a bool and re-anchored on the rebuilt tree.
                "pinned": self._baseline_pinned,
                "fresh": not self.baseline_is_stale(),
                "spec_value_range": None if spec is None else spec.value_range,
                "spec_time_range": None if spec is None else spec.time_range,
            }
        return {
            "config": self.config.to_dict(),
            "dt": self.model.dt,
            "node_of_row": self.node_of_row,
            "model": self.model.state_dict() if self.model.fitted else None,
            "baseline": baseline,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "OnlineAnalysisPipeline":
        """Rebuild a pipeline from :meth:`state_dict` output."""
        pipeline = cls(
            dt=float(state["dt"]),
            config=PipelineConfig.from_dict(state["config"]),
            node_of_row=state["node_of_row"],
        )
        if state["model"] is not None:
            pipeline.model = IncrementalMrDMD.from_state_dict(state["model"])
        if state["baseline"] is not None:
            b = state["baseline"]
            pipeline._baseline = BaselineModel(
                np.asarray(b["mean"], dtype=float),
                np.asarray(b["std"], dtype=float),
                near=float(b["near"]),
                extreme=float(b["extreme"]),
                std_floor=float(b["std_floor"]),
            )
            pipeline._baseline_pinned = bool(b.get("pinned", False))
            value_range = b.get("spec_value_range")
            time_range = b.get("spec_time_range")
            if value_range is not None or time_range is not None:
                pipeline._baseline_spec = BaselineSpec(
                    value_range=None if value_range is None else tuple(value_range),
                    time_range=None if time_range is None else tuple(time_range),
                )
            if bool(b.get("fresh", True)) and pipeline.model.fitted:
                pipeline._baseline_revision = pipeline.model.tree.revision
                pipeline._baseline_tree_ref = weakref.ref(pipeline.model.tree)
        return pipeline

    def alignment_report(
        self,
        *,
        hwlog: HardwareLog | None = None,
        joblog: JobLog | None = None,
        time_range: tuple[int, int] | None = None,
    ) -> AlignmentReport:
        """Join the current z-scores with the hardware and job logs (Q3)."""
        node_scores = self.node_zscores(time_range=time_range)
        return build_alignment_report(
            node_scores, hwlog=hwlog, joblog=joblog, window=time_range
        )
