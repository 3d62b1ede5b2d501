"""Colour maps for the rack and spectrum views.

The paper colours node z-scores with the **Turbo** map used divergingly
("blue hues representing negative z-scores, green representing baseline and
red hues showing more positive z-scores", Sec. V).  Turbo is implemented
with Google's published polynomial approximation so no plotting library is
required; values are mapped to ``#rrggbb`` strings for the SVG renderer and
to a small palette of glyphs for the ASCII renderer.  Both mappings take a
whole vector at once (:meth:`DivergingTurbo.hex_array`,
:meth:`DivergingTurbo.glyph_array`): a rack view colours every node with
one polynomial pass instead of one per cell.
"""

from __future__ import annotations

import numpy as np

__all__ = ["turbo_rgb", "to_hex", "DivergingTurbo"]

#: ``"%02x"`` of every 8-bit channel value, indexed by the value.
_HEX_BYTE = [f"{i:02x}" for i in range(256)]
#: A channel scaled to ``[0, 255]`` this close to a ``k + 0.5`` rounding
#: edge is recomputed on the scalar path.  NumPy's SIMD ``power`` over an
#: array and the C library's ``pow`` on a scalar differ in the last bits
#: (up to ~1e-11 after scaling by 255), which would otherwise move a
#: channel across the edge and change a colour.
_EDGE_MARGIN = 1e-8


# Coefficients of Google's 5th-order polynomial approximation of Turbo
# (Anton Mikhailov, 2019).
_R_COEF = (0.13572138, 4.61539260, -42.66032258, 132.13108234, -152.94239396, 59.28637943)
_G_COEF = (0.09140261, 2.19418839, 4.84296658, -14.18503333, 4.27729857, 2.82956604)
_B_COEF = (0.10667330, 12.64194608, -60.58204836, 110.36276771, -89.90310912, 27.34824973)


def _poly(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    out = np.zeros_like(x)
    for power, c in enumerate(coef):
        out += c * x**power
    return out


def turbo_rgb(values: np.ndarray | float) -> np.ndarray:
    """Map values in ``[0, 1]`` to RGB triples in ``[0, 1]`` (Turbo).

    Scalars return shape ``(3,)``; arrays return ``(..., 3)``.  Inputs are
    clipped into the valid range.
    """
    x = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
    rgb = np.stack(
        [_poly(x, _R_COEF), _poly(x, _G_COEF), _poly(x, _B_COEF)], axis=-1
    )
    return np.clip(rgb, 0.0, 1.0)


def to_hex(rgb: np.ndarray) -> str:
    """Convert one RGB triple in ``[0, 1]`` to an ``#rrggbb`` string."""
    rgb = np.clip(np.asarray(rgb, dtype=float), 0.0, 1.0)
    if rgb.shape != (3,):
        raise ValueError(f"expected an RGB triple, got shape {rgb.shape!r}")
    r, g, b = (int(round(c * 255)) for c in rgb)
    return f"#{r:02x}{g:02x}{b:02x}"


class DivergingTurbo:
    """Diverging use of Turbo centred on zero (the Figs. 4/6 scale).

    Values are mapped linearly from ``[-limit, +limit]`` to the ``[0, 1]``
    domain of Turbo, so strongly negative z-scores land in the blue end,
    zero in the green middle, and strongly positive in the red end.  Values
    beyond the limit saturate.
    """

    def __init__(self, limit: float = 5.0) -> None:
        if limit <= 0:
            raise ValueError("limit must be positive")
        self.limit = float(limit)

    def normalize(self, values: np.ndarray | float) -> np.ndarray:
        """Map raw values to the ``[0, 1]`` colormap domain."""
        v = np.asarray(values, dtype=float)
        return np.clip((v + self.limit) / (2.0 * self.limit), 0.0, 1.0)

    def rgb(self, values: np.ndarray | float) -> np.ndarray:
        """RGB triples for raw (un-normalised) values."""
        return turbo_rgb(self.normalize(values))

    def hex_array(
        self, values: np.ndarray | list[float], *, missing: str | None = None
    ) -> list[str]:
        """``#rrggbb`` colours for raw values, one per element.

        One Turbo pass over the whole vector, then an 8-bit lookup; every
        colour equals the one the scalar chain
        ``to_hex(turbo_rgb(float(self.normalize(v))))`` gives, and ``+inf``
        / ``-inf`` saturate like values beyond the limit.  NaN maps to
        ``missing`` when given; without it a NaN raises ``ValueError``
        (it has no colour).
        """
        v = np.asarray(values, dtype=float).ravel()
        nan = np.isnan(v)
        if missing is None and nan.any():
            raise ValueError(
                "cannot colour NaN values; pass missing= for their colour"
            )
        x = self.normalize(np.where(nan, 0.0, v))
        scaled = turbo_rgb(x) * 255
        codes = np.rint(scaled).astype(np.intp)
        near_edge = np.abs(scaled - np.floor(scaled) - 0.5) < _EDGE_MARGIN
        for i in np.flatnonzero(near_edge.any(axis=1)).tolist():
            codes[i] = np.rint(turbo_rgb(float(x[i])) * 255)
        out = [
            f"#{_HEX_BYTE[r]}{_HEX_BYTE[g]}{_HEX_BYTE[b]}"
            for r, g, b in codes.tolist()
        ]
        for i in np.flatnonzero(nan).tolist():
            out[i] = missing
        return out

    def hex(self, value: float) -> str:
        """``#rrggbb`` colour for one raw value (see :meth:`hex_array`)."""
        return self.hex_array([value])[0]

    def glyph_array(self, values: np.ndarray | list[float]) -> np.ndarray:
        """Single-character glyphs for ASCII rendering, one per element.

        ``.`` near baseline (and for NaN), ``-``/``=`` cool, ``+``/``#``
        hot, matching the sign convention of the colour scale; every
        threshold is strict.
        """
        v = np.asarray(values, dtype=float).ravel()
        return np.select(
            [
                v > self.limit * 0.4,
                v > self.limit * 0.2,
                v < -self.limit * 0.4,
                v < -self.limit * 0.2,
            ],
            ["#", "+", "=", "-"],
            default=".",
        )

    def glyph(self, value: float) -> str:
        """Glyph for one raw value (see :meth:`glyph_array`)."""
        return str(self.glyph_array([value])[0])
