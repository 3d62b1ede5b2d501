"""Test-only reference for the level-1 update: the whole-timeline refit.

:class:`~repro.core.imrdmd.IncrementalMrDMD` computes each updated level-1
DMD in the projected space at a per-chunk cost independent of the stream
length.  The algorithm it replaced materialises the full iSVD factors and
re-fits the level-1 amplitudes per ``config.amplitude_method`` over the
whole (growing) level-1 grid, at ``O(T)`` per chunk.  That refit is kept
here as an oracle: the parity tests check the projected path's products
against it, and the core streaming benchmark times it as the
seed-equivalent growth curve.
"""

from __future__ import annotations

from repro.core.dmd import compute_dmd
from repro.core.imrdmd import IncrementalMrDMD


class DenseLevel1MrDMD(IncrementalMrDMD):
    """:class:`IncrementalMrDMD` with the dense whole-timeline level-1 refit.

    The full level-1 grid is always kept (the refit reads every column),
    and ``factors()`` materialises the right factor on every chunk.
    """

    def _level1_dmd(self, new_cols, n_sub, local_dt):
        return compute_dmd(
            self._sub.materialize(),
            local_dt,
            svd_rank=self.config.svd_rank,
            use_svht=self.config.use_svht,
            svd_factors=self._isvd.factors(),
            amplitude_method=self.config.amplitude_method,
        )

    def _shrink_level1_grid(self) -> None:
        pass
