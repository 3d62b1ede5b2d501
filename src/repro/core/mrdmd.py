"""Batch multiresolution Dynamic Mode Decomposition (mrDMD).

Implements the recursion of Kutz, Fu & Brunton (2016) as summarised in
Sec. III-A / Fig. 1(a) of the paper:

* level 1 processes the whole timeline and keeps only the *slow* modes —
  those oscillating at most ``max_cycles`` times across the window;
* the slow-mode reconstruction is subtracted from the data;
* the residual timeline is split into two halves and each half is
  processed recursively at the next level (finer temporal resolution,
  hence faster dynamics), until ``max_levels`` is reached or the window
  becomes too short;
* each level's local DMD runs on a *subsampled* view of its window.  The
  stride is chosen so that the retained slow dynamics are sampled at four
  times their Nyquist rate, following the paper ("we set the sampling rate
  to four times the Nyquist limit to capture cycles"); this is the main
  algorithmic lever that keeps the analysis tractable for terabyte-scale
  environment logs.

The entry point :func:`compute_mrdmd` returns a :class:`~repro.core.tree.MrDMDTree`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dmd import compute_dmd, slow_mode_mask
from .tree import MrDMDNode, MrDMDTree

__all__ = ["MrDMDConfig", "compute_mrdmd", "decompose_window"]


@dataclass(frozen=True)
class MrDMDConfig:
    """Configuration of the multiresolution recursion.

    Attributes
    ----------
    max_levels:
        Maximum recursion depth (level 1 = whole timeline).  The paper
        uses 6-9 depending on the dataset.
    max_cycles:
        Number of oscillations across a window below which a mode counts
        as "slow" (``rho`` in Kutz et al.).  Default 2, as in the
        reference implementations and the paper's Fig. 9 settings.
    nyquist_factor:
        Oversampling factor relative to the Nyquist rate of the slow
        band.  4 reproduces the paper's choice; larger values subsample
        less (slower, slightly more accurate).
    min_window:
        Windows shorter than this many snapshots are not decomposed
        further (guards the recursion against degenerate leaves).
    use_svht:
        Apply the optimal hard threshold when truncating each local SVD.
    svd_rank:
        Optional hard cap on the local SVD rank.
    split:
        Number of children per node (2 = halves, as in the paper).
    amplitude_method:
        Amplitude fitting strategy forwarded to :func:`repro.core.dmd.compute_dmd`
        (``"window"`` default: least squares over the whole subsampled
        window, which gives noticeably better reconstructions than the
        classic first-snapshot fit at negligible cost).  Note: the
        incremental model's streaming level-1 update
        (:class:`~repro.core.imrdmd.IncrementalMrDMD`) overrides this at
        level 1 only — it fits amplitudes over the appended chunk (the
        node's contribution window) to keep per-chunk cost flat; all
        deeper levels and the batch recursion honour this setting.
    """

    max_levels: int = 6
    max_cycles: int = 2
    nyquist_factor: int = 4
    min_window: int = 8
    use_svht: bool = True
    svd_rank: int | None = None
    split: int = 2
    amplitude_method: str = "window"

    def __post_init__(self) -> None:
        if self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if self.nyquist_factor < 1:
            raise ValueError("nyquist_factor must be >= 1")
        if self.min_window < 4:
            raise ValueError("min_window must be >= 4")
        if self.split < 2:
            raise ValueError("split must be >= 2")
        if self.amplitude_method not in ("first", "window"):
            raise ValueError(
                f"amplitude_method must be 'first' or 'window', got {self.amplitude_method!r}"
            )

    @property
    def snapshots_required(self) -> int:
        """Snapshots needed in a window to resolve ``max_cycles`` slow cycles."""
        # Nyquist needs 2 samples/cycle; the paper oversamples by
        # ``nyquist_factor``.
        return int(self.nyquist_factor * 2 * self.max_cycles)

    def stride_for(self, window_length: int) -> int:
        """Subsampling stride for a window of ``window_length`` snapshots."""
        required = self.snapshots_required
        if window_length <= required:
            return 1
        return max(1, window_length // required)

    def rho_for(self, window_length: int, dt: float) -> float:
        """Slow/fast cutoff frequency in Hz for a window of given length."""
        window_seconds = window_length * dt
        if window_seconds <= 0:
            return 0.0
        return self.max_cycles / window_seconds


def decompose_window(
    data: np.ndarray,
    dt: float,
    config: MrDMDConfig,
    *,
    level: int,
    bin_index: int,
    start: int,
) -> tuple[MrDMDNode, np.ndarray]:
    """Extract the slow modes of one window and its slow reconstruction.

    Returns the populated :class:`MrDMDNode` and the real ``(P, T_window)``
    slow-mode reconstruction to be subtracted before recursing.
    """
    n_features, window_length = data.shape
    step = config.stride_for(window_length)
    sub = data[:, ::step] if step > 1 else data
    local_dt = dt * step
    rho = config.rho_for(window_length, dt)

    dmd = compute_dmd(
        sub,
        local_dt,
        svd_rank=config.svd_rank,
        use_svht=config.use_svht,
        amplitude_method=config.amplitude_method,
    )
    mask = slow_mode_mask(dmd, rho) if dmd.n_modes else np.zeros(0, dtype=bool)
    slow = dmd.mode_subset(mask)

    node = MrDMDNode(
        level=level,
        bin_index=bin_index,
        start=start,
        n_snapshots=window_length,
        dt=dt,
        step=step,
        rho=rho,
        modes=slow.modes,
        eigenvalues=slow.eigenvalues,
        amplitudes=slow.amplitudes,
        svd_rank=dmd.svd_rank,
    )
    reconstruction = node.local_reconstruction(window_length)
    return node, reconstruction


def _recurse(
    data: np.ndarray,
    dt: float,
    config: MrDMDConfig,
    tree: MrDMDTree,
    *,
    level: int,
    bin_index: int,
    start: int,
) -> None:
    """Depth-first mrDMD recursion over ``data`` (a residual window view)."""
    window_length = data.shape[1]
    if window_length < config.min_window:
        return
    node, slow_recon = decompose_window(
        data, dt, config, level=level, bin_index=bin_index, start=start
    )
    tree.add(node)
    if level >= config.max_levels:
        return
    residual = data - slow_recon
    # Split the residual timeline into `split` nearly-equal children.
    edges = np.linspace(0, window_length, config.split + 1, dtype=int)
    for child, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if hi - lo < config.min_window:
            continue
        _recurse(
            residual[:, lo:hi],
            dt,
            config,
            tree,
            level=level + 1,
            bin_index=bin_index * config.split + child,
            start=start + int(lo),
        )


def compute_mrdmd(
    data: np.ndarray,
    dt: float = 1.0,
    config: MrDMDConfig | None = None,
    **config_overrides,
) -> MrDMDTree:
    """Run the batch mrDMD over a ``(P, T)`` snapshot matrix.

    Parameters
    ----------
    data:
        Sensors along rows, snapshots along columns.
    dt:
        Sampling interval in seconds.
    config:
        Full :class:`MrDMDConfig`; individual fields may instead be given
        as keyword overrides (e.g. ``compute_mrdmd(x, 1.0, max_levels=8)``).

    Returns
    -------
    MrDMDTree
        The populated mode tree.  ``tree.reconstruct()`` gives the
        noise-filtered reconstruction of ``data`` (Eq. 7).
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-D (P, T), got shape {data.shape!r}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if config is None:
        config = MrDMDConfig(**config_overrides)
    elif config_overrides:
        raise TypeError("pass either a config object or keyword overrides, not both")

    tree = MrDMDTree(dt=dt, n_features=data.shape[0])
    if data.shape[1] >= config.min_window:
        _recurse(data, dt, config, tree, level=1, bin_index=0, start=0)
    return tree
