"""Test-only reference for the level-1 update: the whole-timeline refit.

:class:`~repro.core.imrdmd.IncrementalMrDMD` computes each updated level-1
DMD in the projected space at a per-chunk cost independent of the stream
length, and keeps only the trailing column of the level-1 grid.  The
algorithm it replaced materialises the full iSVD factors and re-fits the
level-1 amplitudes per ``config.amplitude_method`` over the whole (growing)
level-1 grid, at ``O(T)`` per chunk.  That refit is kept here as an oracle:
the parity tests check the projected path's products against it, and the
core streaming benchmark times it as the seed-equivalent growth curve.
"""

from __future__ import annotations

import numpy as np

from repro.core.dmd import compute_dmd
from repro.core.imrdmd import IncrementalMrDMD
from repro.util.growbuf import GrowableMatrix


class DenseLevel1MrDMD(IncrementalMrDMD):
    """:class:`IncrementalMrDMD` with the dense whole-timeline level-1 refit.

    The full level-1 grid is kept beside the model's trailing column (the
    refit reads every grid column), ``factors()`` materialises the right
    factor on every chunk, and :meth:`state_dict` writes the full grid
    with ``sub_offset`` 0 — the layout older states carry.  Row growth is
    not supported.
    """

    def fit(self, data):
        super().fit(data)
        data = self._sanitize(np.asarray(data, dtype=float), "fit data")
        self._full_grid = GrowableMatrix.from_array(data[:, :: self._level1_stride])
        return self

    def _level1_dmd(self, new_cols, n_sub, local_dt):
        if new_cols is not None:
            self._full_grid.append(new_cols)
        assert self._full_grid.n_cols == n_sub
        return compute_dmd(
            self._full_grid.materialize(),
            local_dt,
            svd_rank=self.config.svd_rank,
            use_svht=self.config.use_svht,
            svd_factors=self._isvd.factors(),
            amplitude_method=self.config.amplitude_method,
        )

    def add_rows(self, new_rows):
        raise NotImplementedError("the dense level-1 oracle has fixed rows")

    def state_dict(self):
        state = super().state_dict()
        state["sub"] = self._full_grid.frozen_view()
        state["sub_offset"] = 0
        return state
