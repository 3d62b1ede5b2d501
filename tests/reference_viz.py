"""Test-only references for the read path: colours, glyphs, rack views,
per-node reductions and the mode table, one element at a time.

The library colours a rack view with one vectorised colormap pass
(:meth:`~repro.viz.DivergingTurbo.hex_array`), collapses row z-scores onto
nodes with one segment reduce (:func:`~repro.align.reduce_by_node`) and
appends only new tree nodes' rows to its mode table.  The per-element code
those replaced is kept here verbatim as the oracle the tests compare
against:

* :func:`reference_hex` / :func:`reference_glyph` — the scalar colour and
  glyph chains;
* :func:`reference_render_svg` / :func:`reference_render_ascii` — the
  per-cell renderers built on them;
* :func:`reference_reduce` / :func:`reference_merge` — the per-node loops
  of ``map_zscores_to_nodes`` and ``FleetMonitor._merge_node_scores``;
* :func:`reference_mode_table` — the mode table rebuilt from every node.

:func:`float_hex` transcribes :func:`reference_hex` into plain Python
floats (the same IEEE operations and the same C ``pow``), ~20x faster, so
a dense grid of colours can be checked in a few seconds; the tests check
it against :func:`reference_hex` itself at every 8-bit rounding edge.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.tree import ModeTable, MrDMDTree
from repro.viz import DivergingTurbo, RackView, to_hex, turbo_rgb
from repro.viz.colormap import _B_COEF, _G_COEF, _R_COEF
from repro.viz.svg import SVGCanvas


# ---------------------------------------------------------------------- #
# Colours and glyphs
# ---------------------------------------------------------------------- #
def reference_hex(cmap: DivergingTurbo, value: float) -> str:
    """``#rrggbb`` for one raw value through the scalar chain."""
    return to_hex(turbo_rgb(float(cmap.normalize(value))))


def float_hex(limit: float, value: float) -> str:
    """:func:`reference_hex` in plain Python floats (finite ``limit``)."""
    x = min(max((value + limit) / (2.0 * limit), 0.0), 1.0)
    channels = []
    for coef in (_R_COEF, _G_COEF, _B_COEF):
        total = 0.0
        for power, c in enumerate(coef):
            total += c * x**power
        channels.append(round(min(max(total, 0.0), 1.0) * 255))
    return "#{:02x}{:02x}{:02x}".format(*channels)


def reference_glyph(cmap: DivergingTurbo, value: float) -> str:
    """ASCII glyph for one raw value through the scalar threshold chain."""
    v = float(value)
    if v > cmap.limit * 0.4:
        return "#"
    if v > cmap.limit * 0.2:
        return "+"
    if v < -cmap.limit * 0.4:
        return "="
    if v < -cmap.limit * 0.2:
        return "-"
    return "."


# ---------------------------------------------------------------------- #
# Rack views
# ---------------------------------------------------------------------- #
def reference_values_array(
    view: RackView, values: Mapping[int, float] | np.ndarray
) -> np.ndarray:
    """Dense per-node array filled one Mapping item at a time."""
    n = view.layout.n_nodes
    out = np.full(n, np.nan)
    if isinstance(values, Mapping):
        for node, value in values.items():
            if 0 <= int(node) < n:
                out[int(node)] = float(value)
    else:
        arr = np.asarray(values, dtype=float)
        limit = min(arr.size, n)
        out[:limit] = arr[:limit]
    return out


def reference_render_svg(
    view: RackView,
    values: Mapping[int, float] | np.ndarray,
    *,
    outlined_nodes: Sequence[int] = (),
    secondary_outlined_nodes: Sequence[int] = (),
    missing_color: str = "#e8e8e8",
    node_names: Sequence[str] | None = None,
) -> str:
    """:meth:`RackView.render_svg` with one scalar colour per cell."""
    vals = reference_values_array(view, values)
    cmap = view.colormap
    scale = view.cell_pixels
    width, height = view.layout.bounds
    margin = 2 * scale
    canvas = SVGCanvas(width * scale + 2 * margin, height * scale + 2 * margin + 20)
    if view.title:
        canvas.text(margin, 14, view.title, size=14.0)
    outline_set = {int(n) for n in outlined_nodes}
    secondary_set = {int(n) for n in secondary_outlined_nodes}

    for geom in view.layout.geometries:
        value = vals[geom.index]
        if np.isnan(value):
            fill = missing_color
        else:
            fill = reference_hex(cmap, value)
        stroke, stroke_width = "#ffffff", 0.3
        if geom.index in outline_set:
            stroke, stroke_width = "#cc0000", 1.6
        elif geom.index in secondary_set:
            stroke, stroke_width = "#000000", 1.4
        name = (
            node_names[geom.index]
            if node_names is not None and geom.index < len(node_names)
            else f"node {geom.index}"
        )
        title = f"{name}: {value:.2f}" if not np.isnan(value) else f"{name}: n/a"
        canvas.rect(
            margin + geom.x * scale,
            20 + margin + geom.y * scale,
            geom.width * scale,
            geom.height * scale,
            fill=fill,
            stroke=stroke,
            stroke_width=stroke_width,
            title=title,
        )
    bar_width, bar_height = 120.0, 8.0
    x0 = margin
    y0 = canvas.height - bar_height - 4
    steps = 24
    for i in range(steps):
        frac = i / (steps - 1)
        value = -cmap.limit + 2 * cmap.limit * frac
        canvas.rect(
            x0 + i * bar_width / steps,
            y0,
            bar_width / steps + 0.5,
            bar_height,
            fill=reference_hex(cmap, value),
            stroke="none",
        )
    canvas.text(x0, y0 - 2, f"-{cmap.limit:g}", size=8.0)
    canvas.text(x0 + bar_width, y0 - 2, f"+{cmap.limit:g}", size=8.0, anchor="end")
    return canvas.render()


def reference_render_ascii(
    view: RackView,
    values: Mapping[int, float] | np.ndarray,
    *,
    outlined_nodes: Sequence[int] = (),
) -> str:
    """:meth:`RackView.render_ascii` with one scalar glyph per cell."""
    vals = reference_values_array(view, values)
    outline_set = {int(n) for n in outlined_nodes}
    width, height = view.layout.bounds
    n_cols = int(np.ceil(width)) + 1
    n_rows = int(np.ceil(height)) + 1
    grid = np.full((n_rows, n_cols), " ", dtype="<U1")
    for geom in view.layout.geometries:
        col = int(round(geom.x))
        row = int(round(geom.y))
        if not (0 <= row < n_rows and 0 <= col < n_cols):
            continue
        if geom.index in outline_set:
            glyph = "!"
        elif np.isnan(vals[geom.index]):
            glyph = "?"
        else:
            glyph = reference_glyph(view.colormap, vals[geom.index])
        grid[row, col] = glyph
    return "\n".join("".join(row).rstrip() for row in grid)


# ---------------------------------------------------------------------- #
# Per-node reductions
# ---------------------------------------------------------------------- #
def _reduce_rows(rows: np.ndarray, reducer: str) -> float:
    if reducer == "mean":
        return rows.mean()
    if reducer == "max":
        return rows.max()
    if reducer == "absmax":
        return rows[np.argmax(np.abs(rows))]
    raise ValueError(f"unknown reducer {reducer!r}")


def reference_reduce(
    nodes: np.ndarray, values: np.ndarray, reducer: str
) -> tuple[np.ndarray, np.ndarray]:
    """The per-node mask loop of ``map_zscores_to_nodes``."""
    nodes = np.asarray(nodes, dtype=int)
    values = np.asarray(values, dtype=float)
    unique_nodes = np.unique(nodes)
    aggregated = np.zeros(unique_nodes.size, dtype=float)
    for i, node in enumerate(unique_nodes):
        aggregated[i] = _reduce_rows(values[nodes == node], reducer)
    return unique_nodes, aggregated


def reference_merge(
    shard_order: Sequence[str], per_shard: Mapping, reducer: str
) -> tuple[np.ndarray, np.ndarray]:
    """The per-node list loop of ``FleetMonitor._merge_node_scores``
    (``per_shard`` maps shard ids to ``NodeZScores``)."""
    per_node: dict[int, list[float]] = {}
    for shard_id in shard_order:
        shard_scores = per_shard.get(shard_id)
        if shard_scores is None:
            continue
        for node, z in zip(shard_scores.node_indices, shard_scores.zscores):
            per_node.setdefault(int(node), []).append(float(z))
    nodes = np.array(sorted(per_node), dtype=int)
    merged = np.empty(nodes.size, dtype=float)
    for i, node in enumerate(nodes):
        merged[i] = _reduce_rows(np.asarray(per_node[int(node)], dtype=float), reducer)
    return nodes, merged


# ---------------------------------------------------------------------- #
# Mode table
# ---------------------------------------------------------------------- #
def reference_mode_table(tree: MrDMDTree) -> ModeTable:
    """Every node's spectrum rows recomputed and concatenated, no buffer."""
    freqs, power, amps, levels = [], [], [], []
    for node in tree.nodes:
        if node.n_modes == 0:
            continue
        freqs.append(node.frequencies)
        power.append(node.power)
        amps.append(np.abs(node.amplitudes))
        levels.append(np.full(node.n_modes, node.level, dtype=int))
    if not freqs:
        empty = np.zeros(0, dtype=float)
        return ModeTable(
            frequencies=empty,
            power=empty,
            amplitudes=empty,
            levels=np.zeros(0, dtype=int),
        )
    return ModeTable(
        frequencies=np.concatenate(freqs),
        power=np.concatenate(power),
        amplitudes=np.concatenate(amps),
        levels=np.concatenate(levels),
    )


def rounding_edges(limit: float, grid: np.ndarray, colours: list[str]) -> list[float]:
    """Pairs of adjacent doubles straddling every colour change between
    consecutive ``grid`` values (``colours`` is :func:`float_hex` of the
    grid), found by bisection."""
    edges: list[float] = []
    changes = np.array(colours[1:]) != np.array(colours[:-1])
    for k in np.flatnonzero(changes).tolist():
        lo, hi = float(grid[k]), float(grid[k + 1])
        while np.nextafter(lo, np.inf) < hi:
            mid = lo + (hi - lo) / 2
            if not lo < mid < hi:
                mid = float(np.nextafter(lo, np.inf))
            if float_hex(limit, mid) == colours[k]:
                lo = mid
            else:
                hi = mid
        edges.extend((lo, hi))
    return edges
