"""Minimal deterministic SVG builders for charts and heatmaps.

Everything here is plain string assembly with fixed-precision coordinates,
so identical inputs always produce byte-identical documents.  No external
assets, SVG 1.1 only.
"""

from __future__ import annotations

import numpy as np

# Categorical palette: 32 visually distinct colors, index = code id.
DEFAULT_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
    "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#1f77b4", "#ff7f0e",
    "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf", "#393b79", "#637939", "#8c6d31", "#843c39",
    "#7b4173", "#5254a3", "#9c9ede", "#b5cf6b", "#e7ba52", "#d6616b",
    "#ce6dbd", "#6b6ecf",
)

def check_palette(palette, max_code: int) -> None:
    if max_code >= len(palette):
        raise ValueError(
            f"palette with {len(palette)} colors too small for code {max_code}"
        )


def _f(value: float) -> str:
    return f"{value:.3f}"


def svg_document(width: float, height: float, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_f(width)}" height="{_f(height)}" '
        f'viewBox="0 0 {_f(width)} {_f(height)}">\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def text(x, y, content: str, size: float = 11, anchor: str = "start") -> str:
    return (
        f'<text x="{_f(x)}" y="{_f(y)}" font-family="sans-serif" '
        f'font-size="{_f(size)}" text-anchor="{anchor}" '
        f'fill="#333333">{content}</text>'
    )


def polyline(points: list[tuple[float, float]], stroke: str, width: float = 1.5) -> str:
    coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
        f'stroke-width="{_f(width)}"/>'
    )


def render_heatmap(
    matrix: np.ndarray,
    row_labels: list[str] | None = None,
    cell_w: float = 4.0,
    cell_h: float = 10.0,
    title: str = "",
) -> str:
    """Continuous-value heatmap with optional row labels.

    Values are scaled by the matrix maximum.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("matrix must be a nonempty 2-D array")
    n_rows, n_cols = matrix.shape
    vmax = float(matrix.max())
    if vmax <= 0:
        vmax = 1.0
    label_w = 110.0 if row_labels else 10.0
    top = 30.0 if title else 10.0
    width = label_w + n_cols * cell_w + 10.0
    height = top + n_rows * cell_h + 10.0

    # A white to dark blue ramp over the values in [0, 1], one 0xRRGGBB
    # integer per cell; np.rint breaks ties to even, as round() does.
    value = np.clip(matrix / vmax, 0.0, 1.0)
    fills = np.zeros(matrix.shape, dtype=np.int64)
    for end in (8, 48, 107):
        fills = fills * 256 + np.rint(255 + (end - 255) * value).astype(np.int64)
    # each column's x and each row's y are formatted once
    size = f'width="{_f(cell_w)}" height="{_f(cell_h)}" fill="#'
    heads = [f'<rect x="{_f(label_w + j * cell_w)}" y="' for j in range(n_cols)]

    body: list[str] = []
    if title:
        body.append(text(label_w, 18, title, size=13))
    for i, row in enumerate(fills.tolist()):
        y = top + i * cell_h
        tail = f'{_f(y)}" {size}'
        body.extend(f'{head}{tail}{fill:06x}"/>' for head, fill in zip(heads, row))
        if row_labels:
            body.append(text(4, y + cell_h * 0.75, row_labels[i], size=9))
    return svg_document(width, height, body)


def render_line_chart(
    xs: list[float],
    series: dict[str, list[float]],
    x_label: str = "",
    y_label: str = "",
    title: str = "",
) -> str:
    """Simple 560 x 360 multi-series line chart with min/max axis ticks."""
    if not xs or not series:
        raise ValueError("need at least one x value and one series")
    width, height = 560.0, 360.0
    left, right, top, bottom = 60.0, 20.0, 40.0, 50.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    all_y = [y for ys in series.values() for y in ys]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(all_y + [0.0]), max(all_y)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    def px(x):
        return left + (x - x_min) / (x_max - x_min) * plot_w

    def py(y):
        return top + plot_h - (y - y_min) / (y_max - y_min) * plot_h

    body = [
        polyline([(left, top), (left, top + plot_h)], "#333333", 1.0),
        polyline([(left, top + plot_h), (left + plot_w, top + plot_h)],
                 "#333333", 1.0),
        text(left - 6, py(y_min) + 4, f"{y_min:g}", size=10, anchor="end"),
        text(left - 6, py(y_max) + 4, f"{y_max:g}", size=10, anchor="end"),
        text(px(x_min), top + plot_h + 16, f"{x_min:g}", size=10, anchor="middle"),
        text(px(x_max), top + plot_h + 16, f"{x_max:g}", size=10, anchor="middle"),
    ]
    if title:
        body.insert(0, text(left, 22, title, size=13))
    if x_label:
        body.append(text(left + plot_w / 2, height - 12, x_label,
                         size=11, anchor="middle"))
    if y_label:
        body.append(text(12, top - 10, y_label, size=11))
    for idx, (name, ys) in enumerate(series.items()):
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} length does not match xs")
        color = DEFAULT_PALETTE[idx % len(DEFAULT_PALETTE)]
        body.append(polyline([(px(x), py(y)) for x, y in zip(xs, ys)], color))
        swatch_y = top + 10 + 14 * idx
        body.append(polyline([(left + 8, swatch_y), (left + 28, swatch_y)], color))
        body.append(text(left + 34, swatch_y + 4, name, size=10))
    return svg_document(width, height, body)
