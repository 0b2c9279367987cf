"""Self-contained SVG figures written directly, without a plotting library."""

from __future__ import annotations

import logging
from html import escape

import numpy as np

from .analysis import MeasureMatrix

log = logging.getLogger(__name__)

_FONT = "font-family=\"sans-serif\""


def _num(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


def _document(width: float, height: float, body: list[str], seed: int) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_num(width)} {_num(height)}" '
        f'width="{_num(width)}" height="{_num(height)}">',
        f"<!-- seed: {seed} -->",
        f'<rect x="0" y="0" width="{_num(width)}" height="{_num(height)}" fill="white"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _scale(value: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    if hi <= lo:
        return (out_lo + out_hi) / 2.0
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def measure_panels(matrix: MeasureMatrix, seed: int = 0) -> str:
    """One panel per measure: treebanks sorted by value, dots plus labels,
    and a vertical gray line at the mean.  Empty columns are omitted."""
    panels: list[tuple[str, list[tuple[str, float]]]] = []
    for j, measure in enumerate(matrix.measures):
        col = matrix.values[:, j]
        present = [
            (tb, float(v)) for tb, v in zip(matrix.treebank_ids, col) if not np.isnan(v)
        ]
        if not present:
            log.info("measure_panels: no values for %s; panel omitted", measure)
            continue
        present.sort(key=lambda item: (item[1], item[0]))
        panels.append((measure, present))

    if not panels:
        return _document(200, 60, ['<text x="10" y="30">no data</text>'], seed)

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
        body.append(
            f'<text x="{_num(px)}" y="{_num(py + 14)}" {_FONT} font-size="13" '
            f'font-weight="bold">{escape(measure, quote=False)}</text>'
        )
        mx = _scale(mean, lo, hi, x0, x1)
        y_bottom = y0 + len(values) * row_height
        body.append(
            f'<line x1="{_num(mx)}" y1="{_num(y0 - 6)}" x2="{_num(mx)}" '
            f'y2="{_num(y_bottom)}" stroke="gray" stroke-width="1"/>'
        )
        # highest value on top, like a ranking
        for rank, (tb, v) in enumerate(reversed(values)):
            cy = y0 + rank * row_height + row_height / 2.0
            cx = _scale(v, lo, hi, x0, x1)
            body.append(
                f'<text x="{_num(px)}" y="{_num(cy + 3)}" {_FONT} font-size="9">'
                f"{escape(tb, quote=False)}</text>"
            )
            body.append(f'<circle cx="{_num(cx)}" cy="{_num(cy)}" r="3" fill="steelblue"/>')
        axis_y = y_bottom + 14.0
        body.append(
            f'<text x="{_num(x0)}" y="{_num(axis_y)}" {_FONT} font-size="9">{_num(lo)}</text>'
        )
        body.append(
            f'<text x="{_num(x1)}" y="{_num(axis_y)}" {_FONT} font-size="9" '
            f'text-anchor="end">{_num(hi)}</text>'
        )
    return _document(width, height, body, seed)


def pca_scatter(
    x: list[float],
    y: list[float],
    labels: list[str],
    ratio_x: float,
    ratio_y: float,
    seed: int = 0,
) -> str:
    """Scatter of the first two component scores with treebank labels."""
    width, height = 640.0, 480.0
    pad = 56.0
    lo_x, hi_x = min(x), max(x)
    lo_y, hi_y = min(y), max(y)
    body: list[str] = []
    body.append(
        f'<line x1="{_num(pad)}" y1="{_num(height - pad)}" x2="{_num(width - pad)}" '
        f'y2="{_num(height - pad)}" stroke="black" stroke-width="1"/>'
    )
    body.append(
        f'<line x1="{_num(pad)}" y1="{_num(pad)}" x2="{_num(pad)}" '
        f'y2="{_num(height - pad)}" stroke="black" stroke-width="1"/>'
    )
    for xi, yi, label in zip(x, y, labels):
        cx = _scale(xi, lo_x, hi_x, pad + 12, width - pad - 12)
        cy = _scale(yi, lo_y, hi_y, height - pad - 12, pad + 12)
        body.append(f'<circle cx="{_num(cx)}" cy="{_num(cy)}" r="3" fill="steelblue"/>')
        body.append(
            f'<text x="{_num(cx + 5)}" y="{_num(cy + 3)}" {_FONT} font-size="9">'
            f"{escape(label, quote=False)}</text>"
        )
    body.append(
        f'<text x="{_num(width / 2)}" y="{_num(height - 16)}" {_FONT} font-size="12" '
        f'text-anchor="middle">component 1 ({ratio_x * 100:.2f}% of variance)</text>'
    )
    body.append(
        f'<text x="16" y="{_num(height / 2)}" {_FONT} font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {_num(height / 2)})">'
        f"component 2 ({ratio_y * 100:.2f}% of variance)</text>"
    )
    return _document(width, height, body, seed)


def error_reduction_bars(names: list[str], values: list[float], seed: int = 0) -> str:
    """Bar chart of WALS prediction error reduction per target."""
    bar_w, gap, pad = 44.0, 18.0, 56.0
    width = pad * 2 + len(names) * (bar_w + gap)
    height = 320.0
    floor = height - pad
    top = pad
    hi = max(max(values), 0.0)
    lo = min(min(values), 0.0)
    zero_y = _scale(0.0, lo, hi, floor, top)
    body = [
        f'<line x1="{_num(pad - 8)}" y1="{_num(zero_y)}" x2="{_num(width - pad + 8)}" '
        f'y2="{_num(zero_y)}" stroke="black" stroke-width="1"/>'
    ]
    for i, (name, value) in enumerate(zip(names, values)):
        x = pad + i * (bar_w + gap)
        vy = _scale(value, lo, hi, floor, top)
        y = min(vy, zero_y)
        h = abs(vy - zero_y)
        body.append(
            f'<rect x="{_num(x)}" y="{_num(y)}" width="{_num(bar_w)}" height="{_num(h)}" '
            f'fill="steelblue"/>'
        )
        body.append(
            f'<text x="{_num(x + bar_w / 2)}" y="{_num(y - 4)}" {_FONT} font-size="10" '
            f'text-anchor="middle">{value:.2f}</text>'
        )
        body.append(
            f'<text x="{_num(x + bar_w / 2)}" y="{_num(floor + 16)}" {_FONT} font-size="11" '
            f'text-anchor="middle">{escape(name, quote=False)}</text>'
        )
    body.append(
        f'<text x="16" y="{_num(height / 2)}" {_FONT} font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {_num(height / 2)})">error reduction</text>'
    )
    return _document(width, height, body, seed)
