"""SVG chart builders: validation and byte determinism."""

import numpy as np
import pytest

from gaitpass.svgfig import (
    DEFAULT_PALETTE,
    check_palette,
    render_heatmap,
    render_line_chart,
    svg_document,
)


def test_check_palette():
    assert len(set(DEFAULT_PALETTE)) == len(DEFAULT_PALETTE)
    check_palette(DEFAULT_PALETTE, len(DEFAULT_PALETTE) - 1)
    with pytest.raises(ValueError, match="too small"):
        check_palette(("#000000",), 1)


def test_document_frame():
    doc = svg_document(100.0, 50.0, ['<rect x="0" y="0"/>'])
    assert doc.startswith('<?xml version="1.0"')
    assert 'viewBox="0 0 100.000 50.000"' in doc
    assert doc.rstrip().endswith("</svg>")


class TestHeatmap:
    def test_structure_and_determinism(self):
        rng = np.random.default_rng(60)
        matrix = rng.uniform(0, 1, size=(3, 20))
        svg = render_heatmap(matrix, row_labels=["a", "b", "c"], title="demo")
        assert svg.count("<rect") == 60
        assert ">demo<" in svg and ">a<" in svg
        assert svg == render_heatmap(matrix, row_labels=["a", "b", "c"],
                                     title="demo")

    def test_scaling_handles_all_zero(self):
        svg = render_heatmap(np.zeros((2, 10)))
        assert svg.count("#ffffff") == 20

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            render_heatmap(np.zeros(5))
        with pytest.raises(ValueError, match="2-D"):
            render_heatmap(np.zeros((0, 3)))


class TestLineChart:
    def test_series_and_legend(self):
        xs = [1.0, 2.0, 3.0]
        svg = render_line_chart(
            xs, {"raw": [3.0, 2.0, 5.0], "coded": [1.0, 1.5, 2.0]},
            x_label="h", y_label="c", title="sweep",
        )
        assert ">raw<" in svg and ">coded<" in svg
        assert ">sweep<" in svg and ">h<" in svg
        # two axes + two data lines + two legend swatches
        assert svg.count("<polyline") == 6
        assert svg == render_line_chart(
            xs, {"raw": [3.0, 2.0, 5.0], "coded": [1.0, 1.5, 2.0]},
            x_label="h", y_label="c", title="sweep",
        )

    def test_degenerate_ranges_do_not_crash(self):
        svg = render_line_chart([2.0], {"flat": [4.0]})
        assert "</svg>" in svg

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            render_line_chart([], {})
        with pytest.raises(ValueError, match="length does not match"):
            render_line_chart([1.0, 2.0], {"bad": [1.0]})
