"""Rack-layout view: per-node values painted on the machine's floor plan.

This is the reproduction of the paper's D3/Jupyter rack visualization
(Figs. 2, 4 and 6): every node is drawn at its physical position, coloured
by a per-node value (z-score, temperature, down-hours, ...), with optional
outlines marking nodes that also appear in the hardware log ("the nodes
highlighted in red outline are the ones showing correctable memory issues").

Two renderers share the same geometry: an SVG file for inspection in a
browser, and a compact ASCII rendering for terminals and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .colormap import DivergingTurbo
from .layout import RackLayout
from .svg import SVGCanvas

__all__ = ["RackView"]


@dataclass
class RackView:
    """Renderer of per-node values on a :class:`~repro.viz.layout.RackLayout`.

    Attributes
    ----------
    layout:
        Node geometry (from a layout-spec string or a machine description).
    colormap:
        Diverging Turbo mapping; its ``limit`` is the +/- z-score range of
        the colour bar (5 in the paper's figures).
    cell_pixels:
        Pixel size of one node rectangle in the SVG output.
    title:
        Title drawn at the top of the SVG.
    """

    layout: RackLayout
    colormap: DivergingTurbo = field(default_factory=lambda: DivergingTurbo(limit=5.0))
    cell_pixels: float = 10.0
    title: str = ""

    # ------------------------------------------------------------------ #
    def _values_array(self, values: Mapping[int, float] | np.ndarray) -> np.ndarray:
        """Normalise the input into a dense per-node array (NaN = missing)."""
        n = self.layout.n_nodes
        out = np.full(n, np.nan)
        if isinstance(values, Mapping):
            nodes = np.fromiter(values.keys(), dtype=np.int64, count=len(values))
            vals = np.fromiter(values.values(), dtype=float, count=len(values))
            keep = (nodes >= 0) & (nodes < n)
            out[nodes[keep]] = vals[keep]
        else:
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1:
                raise ValueError("values array must be 1-D")
            limit = min(arr.size, n)
            out[:limit] = arr[:limit]
        return out

    # ------------------------------------------------------------------ #
    def render_svg(
        self,
        values: Mapping[int, float] | np.ndarray,
        *,
        outlined_nodes: Sequence[int] = (),
        secondary_outlined_nodes: Sequence[int] = (),
        missing_color: str = "#e8e8e8",
        node_names: Sequence[str] | None = None,
    ) -> str:
        """Render the rack view as an SVG string.

        Parameters
        ----------
        values:
            Per-node values (dict or dense array); NaN / missing nodes are
            drawn in ``missing_color``.
        outlined_nodes:
            Nodes drawn with a heavy red outline (e.g. correctable memory
            errors, Fig. 4).
        secondary_outlined_nodes:
            Nodes drawn with a black outline (e.g. persistent hardware
            errors, Fig. 6).
        node_names:
            Optional per-node names used as hover tooltips.
        """
        vals = self._values_array(values)
        scale = self.cell_pixels
        width, height = self.layout.bounds
        margin = 2 * scale
        canvas = SVGCanvas(width * scale + 2 * margin, height * scale + 2 * margin + 20)
        if self.title:
            canvas.text(margin, 14, self.title, size=14.0)
        outline_set = {int(n) for n in outlined_nodes}
        secondary_set = {int(n) for n in secondary_outlined_nodes}

        fills = self.colormap.hex_array(vals, missing=missing_color)
        cells = vals.tolist()
        for geom in self.layout.geometries:
            value = cells[geom.index]
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
            title = f"{name}: n/a" if math.isnan(value) else f"{name}: {value:.2f}"
            canvas.rect(
                margin + geom.x * scale,
                20 + margin + geom.y * scale,
                geom.width * scale,
                geom.height * scale,
                fill=fills[geom.index],
                stroke=stroke,
                stroke_width=stroke_width,
                title=title,
            )
        self._draw_colorbar(canvas, margin)
        return canvas.render()

    def _draw_colorbar(self, canvas: SVGCanvas, margin: float) -> None:
        """Horizontal colour bar with the +/- limit labels (bottom-left)."""
        bar_width, bar_height = 120.0, 8.0
        x0 = margin
        y0 = canvas.height - bar_height - 4
        steps = 24
        limit = self.colormap.limit
        fills = self.colormap.hex_array(
            [-limit + 2 * limit * (i / (steps - 1)) for i in range(steps)]
        )
        for i, fill in enumerate(fills):
            canvas.rect(
                x0 + i * bar_width / steps,
                y0,
                bar_width / steps + 0.5,
                bar_height,
                fill=fill,
                stroke="none",
            )
        canvas.text(x0, y0 - 2, f"-{self.colormap.limit:g}", size=8.0)
        canvas.text(x0 + bar_width, y0 - 2, f"+{self.colormap.limit:g}", size=8.0, anchor="end")

    def save_svg(
        self,
        path: str,
        values: Mapping[int, float] | np.ndarray,
        **kwargs,
    ) -> str:
        """Render and write the SVG to ``path``."""
        content = self.render_svg(values, **kwargs)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        return path

    # ------------------------------------------------------------------ #
    def render_ascii(
        self,
        values: Mapping[int, float] | np.ndarray,
        *,
        outlined_nodes: Sequence[int] = (),
    ) -> str:
        """Compact glyph rendering for terminals and golden-file tests.

        Each node becomes one character at its (rounded) layout position:
        ``.`` baseline, ``-``/``=`` cool, ``+``/``#`` hot, ``!`` for
        outlined nodes, space for gaps between racks.
        """
        vals = self._values_array(values)
        outline_set = {int(n) for n in outlined_nodes}
        width, height = self.layout.bounds
        n_cols = int(np.ceil(width)) + 1
        n_rows = int(np.ceil(height)) + 1
        grid = np.full((n_rows, n_cols), " ", dtype="<U1")
        glyphs = self.colormap.glyph_array(vals)
        glyphs[np.isnan(vals)] = "?"
        for geom in self.layout.geometries:
            col = int(round(geom.x))
            row = int(round(geom.y))
            if not (0 <= row < n_rows and 0 <= col < n_cols):
                continue
            grid[row, col] = "!" if geom.index in outline_set else glyphs[geom.index]
        return "\n".join("".join(row).rstrip() for row in grid)
