"""Test-only references for the DMD window kernels.

:func:`repro.core.dmd._fit_window_amplitudes` reduces the window least
squares to the ``r``-dimensional mode space with one QR factorisation of
the modes.  The form it replaced builds the whole ``(P T) x r`` design
matrix and hands it to ``np.linalg.lstsq``; it is kept here verbatim as
the oracle the equivalence tests compare the reduced solve against.

The mrDMD window kernel takes the method of snapshots for a tall window
behind a conditioning guard.  The SVD route it replaced (``np.linalg.svd``
of every window, then a :class:`~repro.core.dmd.DMDResult`, its slow-mode
subset and the node's own reconstruction, with ``np.linspace`` split
edges) is kept here verbatim as :func:`reference_decompose_window` and
:func:`reference_compute_mrdmd`: a window the guard rejects must match it
bit for bit, and any other to a stated tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.core.dmd import DMDResult, _fit_window_amplitudes, slow_mode_mask
from repro.core.mrdmd import MrDMDConfig
from repro.core.svht import truncate_singular_triplets
from repro.core.tree import MrDMDNode, MrDMDTree


def reference_window_amplitudes(
    modes: np.ndarray,
    eigenvalues: np.ndarray,
    data: np.ndarray,
    powers: np.ndarray | None = None,
) -> np.ndarray:
    """Least-squares mode amplitudes against every snapshot of the window.

    Solves ``min_a || sum_i a_i phi_i lambda_i^t - x_t ||`` jointly over all
    ``t`` by flattening the (P, T) problem into a single tall least-squares
    system with ``r`` unknowns.  ``powers`` optionally gives the snapshot
    index of each data column (default ``0 .. T-1``).
    """
    n_snapshots = data.shape[1]
    r = modes.shape[1]
    # Vandermonde of eigenvalues: (r, T)
    if powers is None:
        powers = np.arange(n_snapshots)
    vander = eigenvalues[:, None] ** powers[None, :]
    # Design matrix: column i is vec(phi_i outer lambda_i^t); build (P, T, r)
    # then flatten the first two axes to obtain the (P*T, r) system.
    design = np.transpose(modes[:, :, None] * vander[None, :, :], (0, 2, 1)).reshape(
        -1, r
    )
    target = np.asarray(data, dtype=complex).reshape(-1)
    amplitudes, *_ = np.linalg.lstsq(design, target, rcond=None)
    return amplitudes


def window_residual_norm(
    modes: np.ndarray,
    eigenvalues: np.ndarray,
    data: np.ndarray,
    amplitudes: np.ndarray,
    powers: np.ndarray | None = None,
) -> float:
    """``|| Phi diag(a) [lambda^t] - X ||_F`` of a window amplitude fit."""
    if powers is None:
        powers = np.arange(data.shape[1])
    vander = eigenvalues[:, None] ** powers[None, :]
    return float(np.linalg.norm(modes @ (amplitudes[:, None] * vander) - data))


def reference_compute_dmd(
    data: np.ndarray,
    dt: float,
    *,
    svd_rank: int | None = None,
    use_svht: bool = True,
    amplitude_method: str = "first",
) -> DMDResult:
    """Exact DMD of a ``(P, T)`` window through ``np.linalg.svd`` of ``X``."""
    n_features, n_snapshots = data.shape

    def empty():
        return DMDResult(
            modes=np.zeros((n_features, 0), dtype=complex),
            eigenvalues=np.zeros(0, dtype=complex),
            amplitudes=np.zeros(0, dtype=complex),
            dt=dt, n_snapshots=n_snapshots, svd_rank=0, svht=None,
        )

    if n_snapshots < 2 or n_features == 0:
        return empty()
    x = data[:, :-1]
    y = data[:, 1:]
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    positive = s > max(s[0], 1.0) * np.finfo(float).eps * max(x.shape) if s.size else s > 0
    u, s, vh = u[:, positive], s[positive], vh[positive, :]
    if s.size == 0:
        return empty()
    u_r, s_r, vh_r, decision = truncate_singular_triplets(
        u, s, vh, x.shape, sigma=None, use_svht=use_svht, max_rank=svd_rank
    )
    r = s_r.size
    if r == 0:
        return empty()
    yv = y @ vh_r.conj().T
    yvs = yv / s_r[None, :]
    atilde = u_r.conj().T @ yvs
    eigenvalues, w = np.linalg.eig(atilde)
    modes = yvs @ w
    if amplitude_method == "first":
        amplitudes, *_ = np.linalg.lstsq(modes, data[:, 0].astype(complex), rcond=None)
    else:
        amplitudes = _fit_window_amplitudes(modes, eigenvalues, data)
    return DMDResult(
        modes=modes, eigenvalues=eigenvalues, amplitudes=amplitudes, dt=dt,
        n_snapshots=n_snapshots, svd_rank=r, svht=decision if use_svht else None,
    )


def reference_decompose_window(
    data: np.ndarray,
    dt: float,
    config: MrDMDConfig,
    *,
    level: int,
    bin_index: int,
    start: int,
) -> tuple[MrDMDNode, np.ndarray]:
    """One mrDMD window through the SVD route: its node and its slow
    reconstruction."""
    n_features, window_length = data.shape
    step = config.stride_for(window_length)
    sub = data[:, ::step] if step > 1 else data
    local_dt = dt * step
    rho = config.rho_for(window_length, dt)
    dmd = reference_compute_dmd(
        sub, local_dt, svd_rank=config.svd_rank, use_svht=config.use_svht,
        amplitude_method=config.amplitude_method,
    )
    mask = slow_mode_mask(dmd, rho) if dmd.n_modes else np.zeros(0, dtype=bool)
    slow = dmd.mode_subset(mask)
    node = MrDMDNode(
        level=level, bin_index=bin_index, start=start,
        n_snapshots=window_length, dt=dt, step=step, rho=rho,
        modes=slow.modes, eigenvalues=slow.eigenvalues,
        amplitudes=slow.amplitudes, svd_rank=dmd.svd_rank,
    )
    return node, node.local_reconstruction(window_length)


def _reference_recurse(data, dt, config, tree, *, level, bin_index, start):
    window_length = data.shape[1]
    if window_length < config.min_window:
        return
    node, slow_recon = reference_decompose_window(
        data, dt, config, level=level, bin_index=bin_index, start=start
    )
    tree.add(node)
    if level >= config.max_levels:
        return
    residual = data - slow_recon
    edges = np.linspace(0, window_length, config.split + 1, dtype=int)
    for child, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if hi - lo < config.min_window:
            continue
        _reference_recurse(
            residual[:, lo:hi], dt, config, tree, level=level + 1,
            bin_index=bin_index * config.split + child, start=start + int(lo),
        )


def reference_compute_mrdmd(
    data: np.ndarray, dt: float, config: MrDMDConfig
) -> MrDMDTree:
    """Batch mrDMD with every window on the SVD route."""
    data = np.asarray(data, dtype=float)
    tree = MrDMDTree(dt=dt, n_features=data.shape[0])
    if data.shape[1] >= config.min_window:
        _reference_recurse(data, dt, config, tree, level=1, bin_index=0, start=0)
    return tree
