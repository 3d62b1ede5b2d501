"""Mapping row-level z-scores onto nodes for the rack view.

The mrDMD/z-score analysis operates on (sensor, node) rows; the rack view
(Figs. 4/6) colours *nodes*.  This module collapses row-level z-scores onto
nodes (rows of the same node are aggregated), producing the per-node value
dictionary the visualization and alignment consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.baseline import ZScoreCategory, ZScoreResult, classify_zscores

__all__ = ["NodeZScores", "map_zscores_to_nodes", "reduce_by_node"]

_REDUCERS = ("mean", "max", "absmax")


@dataclass
class NodeZScores:
    """Per-node z-score summary.

    Attributes
    ----------
    node_indices:
        Sorted populated-node indices present in the analysis.
    zscores:
        One aggregated z-score per node (same order as ``node_indices``).
    categories:
        :class:`~repro.core.baseline.ZScoreCategory` per node.
    """

    node_indices: np.ndarray
    zscores: np.ndarray
    categories: np.ndarray

    def as_dict(self) -> dict[int, float]:
        """``{node_index: zscore}`` mapping for the rack view."""
        return {int(n): float(z) for n, z in zip(self.node_indices, self.zscores)}

    def nodes_in_category(self, category: ZScoreCategory) -> np.ndarray:
        """Node indices whose aggregated z-score falls in ``category``."""
        return self.node_indices[self.categories == category]

    def hot_nodes(self) -> np.ndarray:
        """Nodes with z > extreme threshold (overheating risk)."""
        return self.nodes_in_category(ZScoreCategory.VERY_HIGH)

    def cold_nodes(self) -> np.ndarray:
        """Nodes with z < -extreme threshold (idle / stalled)."""
        return self.nodes_in_category(ZScoreCategory.VERY_LOW)


def map_zscores_to_nodes(
    result: ZScoreResult,
    node_of_row: np.ndarray,
    *,
    reducer: str = "mean",
    near: float | None = None,
    extreme: float | None = None,
) -> NodeZScores:
    """Aggregate row z-scores per node.

    Parameters
    ----------
    result:
        Row-level z-scores from :meth:`repro.core.baseline.BaselineModel.score`.
    node_of_row:
        Length-``P`` array mapping each scored row to its node index
        (e.g. ``TelemetryStream.node_indices``).
    reducer:
        ``"mean"`` (default), ``"max"`` (worst-case reading wins) or
        ``"absmax"`` (largest magnitude, keeping its sign).
    near / extreme:
        Classification thresholds; default to those in ``result``.
    """
    node_of_row = np.asarray(node_of_row, dtype=int)
    if node_of_row.shape[0] != result.zscores.shape[0]:
        raise ValueError(
            f"node_of_row has {node_of_row.shape[0]} entries but result has "
            f"{result.zscores.shape[0]} rows"
        )
    near = result.near if near is None else near
    extreme = result.extreme if extreme is None else extreme

    unique_nodes, aggregated = reduce_by_node(node_of_row, result.zscores, reducer)
    categories = classify_zscores(aggregated, near=near, extreme=extreme)
    return NodeZScores(
        node_indices=unique_nodes,
        zscores=aggregated,
        categories=categories,
    )


def reduce_by_node(
    nodes: np.ndarray, values: np.ndarray, reducer: str
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse ``values`` onto their ``nodes`` with one segment reduce.

    Returns ``(unique_nodes, reduced)``: the sorted distinct nodes and one
    value per node.  ``reducer`` is ``"mean"``, ``"max"`` (NaN propagates)
    or ``"absmax"`` (the value of largest magnitude, keeping its sign; the
    first such value in input order wins a tie, and a NaN value wins over
    any number, as ``np.argmax`` would pick it).

    The rows of one node are combined in input order, so ``"max"`` and
    ``"absmax"`` equal a per-node loop exactly.  ``"mean"`` sums with
    ``np.bincount``, a sequential sum: it equals ``rows.mean()`` bit for
    bit for 1-7 rows per node, and within ``rtol=1e-12`` from 8 rows on,
    where ``ndarray.mean`` switches to pairwise summation.
    """
    if reducer not in _REDUCERS:
        raise ValueError(f"unknown reducer {reducer!r}")
    nodes = np.asarray(nodes, dtype=int)
    values = np.asarray(values, dtype=float)
    unique, inverse = np.unique(nodes, return_inverse=True)
    if reducer == "mean":
        sums = np.bincount(inverse, weights=values, minlength=unique.size)
        return unique, sums / np.bincount(inverse, minlength=unique.size)
    if unique.size == 0:
        return unique, np.zeros(0, dtype=float)
    order = np.argsort(inverse, kind="stable")
    segment = inverse[order]
    ordered = values[order]
    starts = np.flatnonzero(np.diff(segment, prepend=-1))
    if reducer == "max":
        return unique, np.maximum.reduceat(ordered, starts)
    magnitude = np.abs(ordered)
    peak = np.maximum.reduceat(magnitude, starts)
    hits = np.flatnonzero((magnitude == peak[segment]) | np.isnan(magnitude))
    first = hits[np.diff(segment[hits], prepend=-1) != 0]
    return unique, ordered[first]
