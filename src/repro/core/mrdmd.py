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
:func:`grow_mrdmd` runs the same recursion into an existing tree at a level,
start and bin offset; the incremental model attaches each appended chunk's
subtree with it (Fig. 1(c)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dmd import _exact_dmd
from .tree import MrDMDNode, MrDMDTree

__all__ = ["MrDMDConfig", "compute_mrdmd", "decompose_window", "grow_mrdmd"]


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
    slow-mode reconstruction to be subtracted before recursing.  The
    window's DMD runs on its subsampled view through the one
    factorisation step of :mod:`repro.core.dmd`: a tall window takes the
    guarded Gram route (method of snapshots), anything else, or a window
    the guard rejects, the SVD.
    """
    node, reconstruction, _ = _decompose(
        data, dt, config, level=level, bin_index=bin_index, start=start,
        reconstruct=True,
    )
    return node, reconstruction


def _decompose(
    data: np.ndarray,
    dt: float,
    config: MrDMDConfig,
    *,
    level: int,
    bin_index: int,
    start: int,
    reconstruct: bool,
) -> tuple[MrDMDNode, np.ndarray | None, bool]:
    """One window: its node, its slow reconstruction (``None`` unless
    ``reconstruct``) and whether the Gram guard fell back to the SVD.

    Only the slow modes leave the window; the continuous-time
    eigenvalues are computed once, for the slow-mode test and the
    reconstruction alike.
    """
    n_features, window_length = data.shape
    step = config.stride_for(window_length)
    sub = data[:, ::step] if step > 1 else data
    local_dt = dt * step
    rho = config.rho_for(window_length, dt)

    eigenvalues, modes, amplitudes, _, fallback = _exact_dmd(
        sub,
        svd_rank=config.svd_rank,
        use_svht=config.use_svht,
        noise_sigma=None,
        amplitude_method=config.amplitude_method,
        cutoff=2.0 * np.pi * rho * local_dt,
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = np.log(eigenvalues.astype(complex)) / local_dt
    slow = np.flatnonzero(np.abs(omega.imag) / (2.0 * np.pi) <= rho)
    node = MrDMDNode(
        level=level, bin_index=bin_index, start=start,
        n_snapshots=window_length, dt=dt, step=step, rho=rho,
        modes=modes[:, slow],
        eigenvalues=eigenvalues[slow],
        amplitudes=amplitudes[slow],
        svd_rank=modes.shape[1],
    )
    if not reconstruct:
        return node, None, fallback
    if not slow.size:
        return node, np.zeros((n_features, window_length)), fallback
    # The node's own local_reconstruction, with omega already at hand.
    t = np.arange(window_length) * dt
    dynamics = node.amplitudes[:, None] * np.exp(np.outer(omega[slow], t))
    return node, np.real(node.modes @ dynamics), fallback


def _recurse(
    data: np.ndarray,
    dt: float,
    config: MrDMDConfig,
    tree: MrDMDTree,
    *,
    depth: int,
    bin_index: int,
    start: int,
    level_offset: int,
    bin_offset: int,
) -> int:
    """Depth-first mrDMD recursion over ``data`` (a residual window view).

    Writes one node per window straight into ``tree`` at level
    ``depth + level_offset`` and bin ``bin_index + bin_offset``; a leaf
    window computes no reconstruction.  Returns the number of windows
    whose Gram guard fell back to the SVD.
    """
    window_length = data.shape[1]
    if window_length < config.min_window:
        return 0
    leaf = depth >= config.max_levels
    node, slow_recon, fallback = _decompose(
        data, dt, config,
        level=depth + level_offset, bin_index=bin_index + bin_offset,
        start=start, reconstruct=not leaf,
    )
    tree.add(node)
    fallbacks = int(fallback)
    if leaf:
        return fallbacks
    residual = data - slow_recon
    # Split the residual timeline into `split` nearly-equal children (the
    # integer edges of np.linspace(0, window_length, split + 1)).
    split = config.split
    for child in range(split):
        lo = child * window_length // split
        hi = (child + 1) * window_length // split
        if hi - lo < config.min_window:
            continue
        fallbacks += _recurse(
            residual[:, lo:hi],
            dt,
            config,
            tree,
            depth=depth + 1,
            bin_index=bin_index * split + child,
            start=start + lo,
            level_offset=level_offset,
            bin_offset=bin_offset,
        )
    return fallbacks


def grow_mrdmd(
    tree: MrDMDTree,
    data: np.ndarray,
    dt: float,
    config: MrDMDConfig,
    *,
    start: int = 0,
    level_offset: int = 0,
    bin_offset: int = 0,
) -> int:
    """Run the mrDMD recursion over ``data`` and add its nodes to ``tree``.

    The root window's node lands at level ``1 + level_offset``, snapshot
    ``start`` and bin ``bin_offset``; ``config.max_levels`` counts levels
    from that root.  Nodes are added in depth-first order, each as its
    window is decomposed.  :func:`compute_mrdmd` is this call on an empty
    tree with no offsets.  Returns the number of windows whose Gram-route
    guard fell back to the SVD (see :mod:`repro.core.dmd`).
    """
    return _recurse(
        data, dt, config, tree, depth=1, bin_index=0, start=start,
        level_offset=level_offset, bin_offset=bin_offset,
    )


def compute_mrdmd(
    data: np.ndarray,
    dt: float = 1.0,
    config: MrDMDConfig | None = None,
    **config_overrides,
) -> MrDMDTree:
    """Run the batch mrDMD over a ``(P, T)`` snapshot matrix.

    Every window runs the lean kernel of :func:`decompose_window`
    (:func:`grow_mrdmd` into a fresh tree): the method of snapshots for
    the tall subsampled windows of the deep levels, behind a conditioning
    guard that falls back to the SVD, and no reconstruction for a leaf.

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
    grow_mrdmd(tree, data, dt, config)
    return tree
