"""Self-contained SVG figures written directly, without a plotting library."""

from __future__ import annotations

from html import escape

import numpy as np

from .analysis import MeasureMatrix


def _num(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


def _text(x: float, y: float, size: int, content: str, extra: str = "") -> str:
    """Escaped sans-serif text; ``extra`` holds the attributes after ``font-size``."""
    extra = f" {extra}" if extra else ""
    return (
        f'<text x="{_num(x)}" y="{_num(y)}" font-family="sans-serif" font-size="{size}"{extra}>'
        f"{escape(content, quote=False)}</text>"
    )


def _y_label(height: float, content: str) -> str:
    """Axis label rotated to run up the left edge."""
    rotate = f'text-anchor="middle" transform="rotate(-90 16 {_num(height / 2)})"'
    return _text(16, height / 2, 12, content, rotate)


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str = "black") -> str:
    return (
        f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
        f'stroke="{stroke}" stroke-width="1"/>'
    )


def _dot(cx: float, cy: float) -> str:
    return f'<circle cx="{_num(cx)}" cy="{_num(cy)}" r="3" fill="steelblue"/>'


def _document(width: float, height: float, body: list[str], seed: int) -> str:
    """The SVG around ``body``; an empty body reads "no data"."""
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_num(width)} {_num(height)}" '
        f'width="{_num(width)}" height="{_num(height)}">',
        f"<!-- seed: {seed} -->",
        f'<rect x="0" y="0" width="{_num(width)}" height="{_num(height)}" fill="white"/>',
    ]
    body = body or ['<text x="10" y="30">no data</text>']
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _scale(value: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    if hi <= lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def measure_panels(matrix: MeasureMatrix, seed: int) -> str:
    """One panel per measure: treebanks sorted by value, dots plus labels,
    and a vertical gray line at the mean."""
    panels: list[tuple[str, list[tuple[str, float]]]] = []
    for j, measure in enumerate(matrix.measures):
        col = matrix.values[:, j]
        present = [
            (tb, float(v)) for tb, v in zip(matrix.treebank_ids, col) if not np.isnan(v)
        ]
        present.sort(key=lambda item: (item[1], item[0]))
        panels.append((measure, present))

    if not panels:
        return _document(200, 60, [], seed)

    n_cols = 2 if len(panels) > 1 else 1
    n_rows = (len(panels) + n_cols - 1) // n_cols
    row_height = 16.0
    max_rows = max(len(values) for _, values in panels)
    panel_w, label_w, pad = 340.0, 70.0, 24.0
    panel_h = max_rows * row_height + 54.0
    width = n_cols * (panel_w + pad) + pad
    height = n_rows * (panel_h + pad) + pad

    body: list[str] = []
    for idx, (measure, values) in enumerate(panels):
        px = pad + (idx % n_cols) * (panel_w + pad)
        py = pad + (idx // n_cols) * (panel_h + pad)
        vals = [v for _, v in values]
        lo, hi = min(vals), max(vals)
        mean = float(np.mean(vals))
        x0, x1 = px + label_w, px + panel_w - 10.0
        y0 = py + 28.0
        body.append(_text(px, py + 14, 13, measure, 'font-weight="bold"'))
        mx = _scale(mean, lo, hi, x0, x1)
        y_bottom = y0 + len(values) * row_height
        body.append(_line(mx, y0 - 6, mx, y_bottom, stroke="gray"))
        # highest value on top, like a ranking
        for rank, (tb, v) in enumerate(reversed(values)):
            cy = y0 + rank * row_height + row_height / 2.0
            cx = _scale(v, lo, hi, x0, x1)
            body.append(_text(px, cy + 3, 9, tb))
            body.append(_dot(cx, cy))
        axis_y = y_bottom + 14.0
        body.append(_text(x0, axis_y, 9, _num(lo)))
        body.append(_text(x1, axis_y, 9, _num(hi), 'text-anchor="end"'))
    return _document(width, height, body, seed)


def pca_scatter(
    x: list[float],
    y: list[float],
    labels: list[str],
    ratio_x: float,
    ratio_y: float,
    seed: int,
) -> str:
    """Scatter of the first two component scores with treebank labels."""
    width, height = 640.0, 480.0
    pad = 56.0
    lo_x, hi_x = min(x), max(x)
    lo_y, hi_y = min(y), max(y)
    body = [_line(pad, height - pad, width - pad, height - pad), _line(pad, pad, pad, height - pad)]
    for xi, yi, label in zip(x, y, labels):
        cx = _scale(xi, lo_x, hi_x, pad + 12, width - pad - 12)
        cy = _scale(yi, lo_y, hi_y, height - pad - 12, pad + 12)
        body.append(_dot(cx, cy))
        body.append(_text(cx + 5, cy + 3, 9, label))
    x_label = f"component 1 ({ratio_x * 100:.2f}% of variance)"
    body.append(_text(width / 2, height - 16, 12, x_label, 'text-anchor="middle"'))
    body.append(_y_label(height, f"component 2 ({ratio_y * 100:.2f}% of variance)"))
    return _document(width, height, body, seed)


def error_reduction_bars(names: list[str], values: list[float], seed: int) -> str:
    """Bar chart of WALS prediction error reduction per target."""
    bar_w, gap, pad = 44.0, 18.0, 56.0
    width = pad * 2 + len(names) * (bar_w + gap)
    height = 320.0
    floor = height - pad
    top = pad
    hi = max(max(values), 0.0)
    lo = min(min(values), 0.0)
    zero_y = _scale(0.0, lo, hi, floor, top)
    body = [_line(pad - 8, zero_y, width - pad + 8, zero_y)]
    for i, (name, value) in enumerate(zip(names, values)):
        x = pad + i * (bar_w + gap)
        vy = _scale(value, lo, hi, floor, top)
        y = min(vy, zero_y)
        h = abs(vy - zero_y)
        body.append(
            f'<rect x="{_num(x)}" y="{_num(y)}" width="{_num(bar_w)}" height="{_num(h)}" '
            f'fill="steelblue"/>'
        )
        body.append(_text(x + bar_w / 2, y - 4, 10, f"{value:.2f}", 'text-anchor="middle"'))
        body.append(_text(x + bar_w / 2, floor + 16, 11, name, 'text-anchor="middle"'))
    body.append(_y_label(height, "error reduction"))
    return _document(width, height, body, seed)
