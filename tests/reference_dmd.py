"""Test-only reference for the window amplitude fit: the full-space solve.

:func:`repro.core.dmd._fit_window_amplitudes` reduces the window least
squares to the ``r``-dimensional mode space with one QR factorisation of
the modes.  The form it replaced builds the whole ``(P T) x r`` design
matrix and hands it to ``np.linalg.lstsq``; it is kept here verbatim as
the oracle the equivalence tests compare the reduced solve against.
"""

from __future__ import annotations

import numpy as np


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
