"""Unit tests for the visualization subpackage (repro.viz)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MrDMDSpectrum, compute_mrdmd
from repro.telemetry import polaris_machine, theta_machine
from repro.viz import (
    DivergingTurbo,
    NodeGeometry,
    RackLayout,
    RackView,
    SpectrumPlot,
    SVGCanvas,
    TimeSeriesView,
    parse_layout_spec,
    parse_range,
    to_hex,
    turbo_rgb,
)

from reference_viz import (
    float_hex,
    reference_glyph,
    reference_hex,
    reference_render_ascii,
    reference_render_svg,
    rounding_edges,
)


class TestColormap:
    def test_turbo_rgb_bounds(self):
        rgb = turbo_rgb(np.linspace(0, 1, 100))
        assert rgb.shape == (100, 3)
        assert rgb.min() >= 0.0 and rgb.max() <= 1.0

    def test_turbo_endpoints_are_blue_and_red(self):
        # The polynomial approximation is least accurate exactly at 0/1, so
        # probe just inside the ends.
        low = turbo_rgb(0.05)
        high = turbo_rgb(0.95)
        assert low[2] > low[0]          # blue end
        assert high[0] > high[2]        # red end

    def test_turbo_scalar_clipping(self):
        assert turbo_rgb(-1.0).shape == (3,)
        assert np.allclose(turbo_rgb(-1.0), turbo_rgb(0.0))

    def test_to_hex(self):
        assert to_hex(np.array([1.0, 0.0, 0.0])) == "#ff0000"
        assert to_hex(np.array([0.0, 0.0, 0.0])) == "#000000"
        with pytest.raises(ValueError):
            to_hex(np.array([1.0, 0.0]))

    def test_diverging_turbo_normalisation(self):
        cmap = DivergingTurbo(limit=5.0)
        assert cmap.normalize(0.0) == pytest.approx(0.5)
        assert cmap.normalize(-5.0) == pytest.approx(0.0)
        assert cmap.normalize(10.0) == pytest.approx(1.0)
        assert cmap.hex(0.0).startswith("#")
        with pytest.raises(ValueError):
            DivergingTurbo(limit=0.0)

    def test_diverging_glyphs(self):
        cmap = DivergingTurbo(limit=5.0)
        assert cmap.glyph(0.0) == "."
        assert cmap.glyph(3.0) == "#"
        assert cmap.glyph(1.5) == "+"
        assert cmap.glyph(-3.0) == "="
        assert cmap.glyph(-1.5) == "-"


class TestVectorisedColormap:
    """hex_array / glyph_array against the scalar chains they replaced."""

    LIMIT = 5.0

    @pytest.fixture(scope="class")
    def dense(self):
        """>=400k values across +/-1.1 limit with their oracle colours, and
        the adjacent-double pairs straddling every 8-bit rounding edge."""
        grid = np.linspace(-1.1 * self.LIMIT, 1.1 * self.LIMIT, 400_001)
        colours = [float_hex(self.LIMIT, v) for v in grid.tolist()]
        return grid, colours, rounding_edges(self.LIMIT, grid, colours)

    def test_dense_grid_matches_the_scalar_chain(self, dense):
        grid, colours, _ = dense
        assert DivergingTurbo(self.LIMIT).hex_array(grid) == colours

    def test_rounding_edges_match_the_scalar_chain(self, dense):
        *_, edges = dense
        cmap = DivergingTurbo(self.LIMIT)
        assert len(edges) > 1000
        expected = [reference_hex(cmap, v) for v in edges]
        # The fast transcription agrees with the scalar chain exactly where
        # a last-bit difference would show...
        assert [float_hex(self.LIMIT, v) for v in edges] == expected
        # ...and so does the vectorised pass, vector and scalar entry.
        assert cmap.hex_array(edges) == expected
        assert [cmap.hex(v) for v in edges[:200]] == expected[:200]

    def test_infinities_saturate(self):
        cmap = DivergingTurbo(self.LIMIT)
        assert cmap.hex_array([np.inf, -np.inf]) == ["#900d00", "#23171b"]
        assert cmap.hex(np.inf) == reference_hex(cmap, np.inf) == "#900d00"
        assert cmap.hex(-np.inf) == reference_hex(cmap, -np.inf) == "#23171b"

    def test_nan_needs_a_missing_colour(self):
        cmap = DivergingTurbo(self.LIMIT)
        with pytest.raises(ValueError, match="NaN"):
            cmap.hex_array([0.0, np.nan])
        with pytest.raises(ValueError, match="NaN"):
            cmap.hex(np.nan)
        assert cmap.hex_array([np.nan, 0.0, np.nan], missing="#e8e8e8") == [
            "#e8e8e8", reference_hex(cmap, 0.0), "#e8e8e8",
        ]
        assert cmap.hex_array([], missing="#e8e8e8") == []

    def test_glyph_thresholds_are_strict(self):
        cmap = DivergingTurbo(self.LIMIT)
        cuts = [f * self.LIMIT for f in (-0.4, -0.2, 0.2, 0.4)]
        values = [0.0, np.nan, np.inf, -np.inf]
        for cut in cuts:
            values += [cut, np.nextafter(cut, -np.inf), np.nextafter(cut, np.inf)]
        values += np.linspace(-1.1 * self.LIMIT, 1.1 * self.LIMIT, 2001).tolist()
        expected = [reference_glyph(cmap, v) for v in values]
        assert cmap.glyph_array(values).tolist() == expected
        assert [cmap.glyph(v) for v in values] == expected


class TestRackViewOracle:
    """The vectorised renderers are byte-identical to the per-cell ones."""

    @pytest.fixture(scope="class")
    def perfbench_view(self):
        """The end-to-end benchmark's 256-node Theta layout."""
        machine = theta_machine(racks_per_row=2, node_limit=256)
        return RackView(RackLayout.from_machine(machine), title="rack view")

    @pytest.fixture(scope="class")
    def values(self):
        rng = np.random.default_rng(7)
        values = rng.normal(0.0, 3.0, 256)
        values[[5, 17, 200]] = np.nan
        values[[9, 10]] = [np.inf, -np.inf]
        values[11] = 2.0  # exactly on a glyph threshold
        return values

    def test_svg_dict_input(self, perfbench_view, values):
        as_dict = {i: float(v) for i, v in enumerate(values) if i % 13}
        as_dict[-1] = 3.0
        as_dict[999] = -3.0  # outside the layout: ignored
        kwargs = dict(outlined_nodes=[1, 2, 40], secondary_outlined_nodes=[2, 3, 77])
        assert perfbench_view.render_svg(as_dict, **kwargs) == reference_render_svg(
            perfbench_view, as_dict, **kwargs
        )

    def test_svg_dense_input_names_and_missing_colour(self, perfbench_view, values):
        names = [f"nid{i:05d}" for i in range(100)]
        kwargs = dict(
            secondary_outlined_nodes=[5, 6], missing_color="#123456", node_names=names
        )
        for dense in (values, values[:100], np.zeros(300)):
            assert perfbench_view.render_svg(dense, **kwargs) == reference_render_svg(
                perfbench_view, dense, **kwargs
            )

    def test_svg_other_limit(self, values):
        machine = theta_machine(racks_per_row=1, n_rows=1, node_limit=32)
        view = RackView(
            RackLayout.from_machine(machine), DivergingTurbo(limit=2.5), cell_pixels=7.0
        )
        assert view.render_svg(values[:32]) == reference_render_svg(view, values[:32])

    def test_ascii(self, perfbench_view, values):
        for outlined in ((), (0, 5, 30)):
            assert perfbench_view.render_ascii(
                values, outlined_nodes=outlined
            ) == reference_render_ascii(perfbench_view, values, outlined_nodes=outlined)


class TestLayoutParsing:
    def test_parse_range(self):
        assert parse_range("0-10") == (0, 10)
        assert parse_range("3") == (3, 3)
        with pytest.raises(ValueError):
            parse_range("abc")
        with pytest.raises(ValueError):
            parse_range("5-2")

    def test_parse_paper_example(self):
        parsed = parse_layout_spec("xc40 1 2 row0-1:0-10 2 c:0-7 1 s:0-7 1 b:0 n:0")
        assert parsed.system == "xc40"
        assert parsed.n_rows == 2
        assert parsed.racks_per_row == 11
        assert parsed.cabinets.count == 8
        assert parsed.slots.count == 8
        assert parsed.blades.count == 1
        assert parsed.nodes.count == 1
        assert parsed.rack_row_alignment == 1
        assert parsed.rack_col_alignment == 2

    def test_parse_two_alignment_numbers(self):
        parsed = parse_layout_spec("sys 1 1 row0:0-3 2 1 c:0-1 1 1 s:0-1 1 1 b:0 n:0")
        assert parsed.cabinets.row_alignment == 2
        assert parsed.cabinets.col_alignment == 1

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_layout_spec("too short")
        with pytest.raises(ValueError):
            parse_layout_spec("sys x y row0:0 c:0 s:0 b:0 n:0")
        with pytest.raises(ValueError):
            parse_layout_spec("sys 1 1 nope c:0 s:0 b:0 n:0")
        with pytest.raises(ValueError):
            parse_layout_spec("sys 1 1 row0:0 oops! c:0 s:0 b:0 n:0")


class TestRackLayout:
    def test_from_machine_node_count_matches(self):
        machine = theta_machine(racks_per_row=2, node_limit=100)
        layout = RackLayout.from_machine(machine)
        assert layout.n_nodes == machine.n_nodes

    def test_geometries_are_disjoint(self):
        machine = theta_machine(racks_per_row=1, n_rows=1, node_limit=48)
        layout = RackLayout.from_machine(machine)
        centers = layout.node_positions()
        # No two nodes share the same centre.
        assert len({(round(x, 3), round(y, 3)) for x, y in centers}) == layout.n_nodes

    def test_geometry_lookup_and_bounds(self):
        layout = RackLayout.from_spec("sys 1 1 row0:0-1 1 c:0-1 1 s:0-3 1 b:0 n:0-1")
        geom = layout.geometry_of(0)
        assert isinstance(geom, NodeGeometry)
        width, height = layout.bounds
        assert width > 0 and height > 0
        for g in layout.geometries:
            assert 0 <= g.x < width and 0 <= g.y < height

    def test_rack_extents_cover_every_rack(self):
        machine = polaris_machine(racks_per_row=3, n_rows=1, node_limit=42)
        layout = RackLayout.from_machine(machine)
        extents = layout.rack_extents()
        assert len(extents) == 3

    def test_node_limit_truncates(self):
        layout = RackLayout.from_spec("sys 1 1 row0:0 1 c:0-3 1 s:0-3 1 b:0 n:0", node_limit=5)
        assert layout.n_nodes == 5

    def test_alignment_flips_change_positions(self):
        ltr = RackLayout.from_spec("sys 1 1 row0:0-3 1 c:0 1 s:0-3 1 b:0 n:0")
        rtl = RackLayout.from_spec("sys -1 1 row0:0-3 1 c:0 1 s:0-3 1 b:0 n:0")
        assert not np.allclose(ltr.node_positions(), rtl.node_positions())


class TestSVGCanvas:
    def test_primitives_and_render(self):
        canvas = SVGCanvas(100, 80)
        canvas.rect(0, 0, 10, 10, fill="#ff0000", title="node & 1")
        canvas.circle(50, 40, 5)
        canvas.line(0, 0, 100, 80)
        canvas.polyline([(0, 0), (10, 10), (20, 5)])
        canvas.text(5, 5, "hello <world>")
        svg = canvas.render()
        assert svg.startswith("<svg")
        assert "node &amp; 1" in svg
        assert "&lt;world&gt;" in svg
        assert canvas.n_elements == 6  # background + 5 primitives

    def test_save(self, tmp_path):
        canvas = SVGCanvas(10, 10)
        path = canvas.save(str(tmp_path / "out.svg"))
        assert (tmp_path / "out.svg").read_text().startswith("<svg")

    def test_validation(self):
        with pytest.raises(ValueError):
            SVGCanvas(0, 10)
        canvas = SVGCanvas(10, 10)
        with pytest.raises(ValueError):
            canvas.polyline([(0, 0)])


class TestRackView:
    @pytest.fixture()
    def view(self):
        machine = theta_machine(racks_per_row=1, n_rows=1, node_limit=32)
        return RackView(RackLayout.from_machine(machine), title="test view")

    def test_svg_contains_one_rect_per_node(self, view):
        values = {i: float(i % 7 - 3) for i in range(32)}
        svg = view.render_svg(values)
        # 32 node rects + background + colourbar segments + title text
        assert svg.count("<rect") >= 32

    def test_svg_outlines(self, view):
        values = np.zeros(32)
        svg = view.render_svg(values, outlined_nodes=[1], secondary_outlined_nodes=[2])
        assert "#cc0000" in svg
        assert 'stroke="#000000" stroke-width="1.400"' in svg

    def test_missing_nodes_grey(self, view):
        svg = view.render_svg({0: 1.0})
        assert "#e8e8e8" in svg

    def test_values_array_input(self, view):
        svg = view.render_svg(np.linspace(-5, 5, 32))
        assert svg.count("<rect") >= 32
        with pytest.raises(ValueError):
            view.render_svg(np.zeros((2, 2)))

    def test_save_svg(self, view, tmp_path):
        path = view.save_svg(str(tmp_path / "rack.svg"), np.zeros(32))
        assert (tmp_path / "rack.svg").exists()

    def test_ascii_rendering(self, view):
        values = np.zeros(32)
        values[3] = 4.0
        art = view.render_ascii(values, outlined_nodes=[5])
        assert "#" in art
        assert "!" in art
        assert "." in art


class TestPlots:
    def test_timeseries_svg(self, tmp_path):
        view = TimeSeriesView()
        series = {
            "actual": np.sin(np.linspace(0, 10, 200)) * 5 + 50,
            "reconstructed": np.sin(np.linspace(0, 10, 200)) * 4.5 + 50,
        }
        svg = view.render_svg(series, title="Fig 3", y_label="degC")
        assert svg.count("<polyline") == 2
        assert "Fig 3" in svg
        view.save_svg(str(tmp_path / "ts.svg"), series)
        assert (tmp_path / "ts.svg").exists()
        exported = TimeSeriesView.export_data(series)
        assert len(exported["actual"]) == 200
        with pytest.raises(ValueError):
            view.render_svg({})

    def test_spectrum_plot(self, tmp_path, multiscale_signal):
        data, dt = multiscale_signal
        spec = MrDMDSpectrum(compute_mrdmd(data, dt, max_levels=3), label="case")
        plot = SpectrumPlot()
        svg = plot.render_svg(spec, title="Fig 5")
        assert svg.count("<circle") == spec.n_modes
        svg_two = plot.render_svg([spec, spec.filter((0.0, 1.0), label="other")])
        assert "case" in svg_two and "other" in svg_two
        plot.save_svg(str(tmp_path / "spec.svg"), spec)
        assert (tmp_path / "spec.svg").exists()
        with pytest.raises(ValueError):
            plot.render_svg([])

    def test_spectrum_plot_frequency_limit(self, multiscale_signal):
        data, dt = multiscale_signal
        spec = MrDMDSpectrum(compute_mrdmd(data, dt, max_levels=3))
        plot = SpectrumPlot()
        limited = plot.render_svg(spec, frequency_limit=1e-9)
        assert limited.count("<circle") <= spec.n_modes
