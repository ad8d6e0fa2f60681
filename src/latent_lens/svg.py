"""Minimal SVG chart rendering with rect/line/text primitives only."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .stats import BoxplotSummary

_FONT = 'font-family="monospace"'
SERIES_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e"]


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _doc(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    bg = f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>'
    return "\n".join([head, bg, *body, "</svg>"]) + "\n"


def _title(body: list[str], width: int, title: str) -> None:
    body.append(
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-size="15" '
        f"{_FONT}>{_esc(title)}</text>"
    )


def _axis(lo: float, hi: float, start: float, end: float):
    """The pixel map taking [lo, hi] onto [start, end]."""
    return lambda v: start + (v - lo) / (hi - lo) * (end - start)


def _frame(body: list[str], width: int, title: str, box, xticks=None, yticks=None) -> None:
    """Title, the two axis lines of ``box`` = (left, right, top, bottom) and
    five ticks per axis given as (lo, hi, pixel map, value format)."""
    left, right, top, bottom = box
    _title(body, width, title)
    body.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="#000"/>')
    body.append(f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="#000"/>')
    for k in range(5):
        if xticks:
            lo, hi, xpix, fmt = xticks
            v = lo + (hi - lo) * k / 4
            body.append(
                f'<text x="{xpix(v):.1f}" y="{bottom + 14}" text-anchor="middle" '
                f'font-size="9" {_FONT}>{v:{fmt}}</text>'
            )
        if yticks:
            lo, hi, ypix, fmt = yticks
            v = lo + (hi - lo) * k / 4
            body.append(
                f'<text x="{left - 5}" y="{ypix(v) + 3:.1f}" text-anchor="end" '
                f'font-size="9" {_FONT}>{v:{fmt}}</text>'
            )


def _xlabel(body: list[str], box, y: int, text: str) -> None:
    body.append(
        f'<text x="{(box[0] + box[1]) / 2:.1f}" y="{y}" text-anchor="middle" '
        f'font-size="11" {_FONT}>{_esc(text)}</text>'
    )


def _ylabel(body: list[str], box, x: int, text: str) -> None:
    mid = (box[2] + box[3]) / 2
    body.append(
        f'<text x="{x}" y="{mid:.1f}" font-size="11" {_FONT} '
        f'transform="rotate(-90 {x} {mid:.1f})" text-anchor="middle">{_esc(text)}</text>'
    )


def _heat_color(value: float, vmin: float, vmax: float) -> str:
    """Blue-white-red diverging map; NaN renders grey."""
    if not np.isfinite(value):
        return "#bbbbbb"
    if vmax <= vmin:
        t = 0.5
    else:
        t = (value - vmin) / (vmax - vmin)
    t = min(1.0, max(0.0, t))
    if t < 0.5:
        f = t / 0.5
        r, g, b = int(40 + 215 * f), int(80 + 175 * f), 255
    else:
        f = (t - 0.5) / 0.5
        r, g, b = 255, int(255 - 175 * f), int(255 - 215 * f)
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap(
    matrix: np.ndarray,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    title: str,
    vmin: float | None = None,
    vmax: float | None = None,
) -> str:
    matrix = np.asarray(matrix, dtype=float)
    rows, cols = matrix.shape
    cell = max(6, min(22, 900 // max(cols, 1)))
    left, top = 130, 40
    width = left + cols * cell + 40
    height = top + rows * cell + 70
    finite = matrix[np.isfinite(matrix)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    if vmin is None:
        vmin = min(lo, -hi) if lo < 0 else 0.0
    if vmax is None:
        vmax = max(hi, -lo) if lo < 0 else max(hi, 1e-12)
    body: list[str] = []
    _title(body, width, title)
    for i in range(rows):
        for j in range(cols):
            color = _heat_color(matrix[i, j], vmin, vmax)
            body.append(
                f'<rect class="cell" x="{left + j * cell}" y="{top + i * cell}" '
                f'width="{cell}" height="{cell}" fill="{color}"/>'
            )
    for i, label in enumerate(row_labels):
        body.append(
            f'<text x="{left - 6}" y="{top + i * cell + cell * 0.7:.1f}" '
            f'text-anchor="end" font-size="10" {_FONT}>{_esc(label)}</text>'
        )
    step = max(1, cols // 32)
    for j, label in enumerate(col_labels):
        if j % step:
            continue
        x = left + j * cell + cell / 2
        y = top + rows * cell + 12
        body.append(
            f'<text x="{x:.1f}" y="{y}" text-anchor="middle" font-size="9" '
            f"{_FONT}>{_esc(label)}</text>"
        )
    return _doc(width, height, body)


def render_boxplots(
    summaries: Sequence[BoxplotSummary], title: str, ylabel: str
) -> str:
    n = len(summaries)
    width = max(360, 40 + 10 * n + 40)
    height = 300
    box = left, right, top, bottom = 50, width - 20, 40, height - 30
    vals = [v for s in summaries for v in (s.lower_whisker, s.upper_whisker)]
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo -= pad
    hi += pad
    ypix = _axis(lo, hi, bottom, top)
    slot = (right - left) / max(n, 1)
    bw = min(8.0, slot * 0.7)
    body: list[str] = []
    _frame(body, width, title, box, yticks=(lo, hi, ypix, ".2f"))
    for i, s in enumerate(summaries):
        cx = left + slot * (i + 0.5)
        x0, x1 = cx - bw / 2, cx + bw / 2
        body.append(
            f'<line x1="{cx:.1f}" y1="{ypix(s.lower_whisker):.1f}" '
            f'x2="{cx:.1f}" y2="{ypix(s.q1):.1f}" stroke="#333"/>'
        )
        body.append(
            f'<line x1="{cx:.1f}" y1="{ypix(s.q3):.1f}" '
            f'x2="{cx:.1f}" y2="{ypix(s.upper_whisker):.1f}" stroke="#333"/>'
        )
        body.append(
            f'<rect class="box" x="{x0:.1f}" y="{ypix(s.q3):.1f}" width="{bw:.1f}" '
            f'height="{max(ypix(s.q1) - ypix(s.q3), 0.5):.1f}" '
            f'fill="#9ecae1" stroke="#333"/>'
        )
        body.append(
            f'<line x1="{x0:.1f}" y1="{ypix(s.median):.1f}" x2="{x1:.1f}" '
            f'y2="{ypix(s.median):.1f}" stroke="#d62728"/>'
        )
    _ylabel(body, box, 14, ylabel)
    return _doc(width, height, body)


def render_histogram(
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
) -> str:
    """Overlaid bar histograms; each series is (label, edges, counts)."""
    width, height = 560, 320
    box = left, right, top, bottom = 55, width - 20, 40, height - 45
    xlo = min(float(e[0]) for _, e, _ in series)
    xhi = max(float(e[-1]) for _, e, _ in series)
    if xhi <= xlo:
        xhi = xlo + 1.0
    ymax = max(1, max(int(c.max()) if len(c) else 1 for _, _, c in series))
    xpix, ypix = _axis(xlo, xhi, left, right), _axis(0, ymax, bottom, top)
    body: list[str] = []
    _frame(body, width, title, box, xticks=(xlo, xhi, xpix, ".3g"))
    for si, (label, edges, counts) in enumerate(series):
        color = SERIES_COLORS[si % len(SERIES_COLORS)]
        for b in range(len(counts)):
            if counts[b] <= 0:
                continue
            x0 = xpix(float(edges[b]))
            x1 = xpix(float(edges[b + 1]))
            y = ypix(float(counts[b]))
            body.append(
                f'<rect class="bar" x="{x0:.1f}" y="{y:.1f}" '
                f'width="{max(x1 - x0, 0.5):.1f}" height="{max(bottom - y, 0.0):.1f}" '
                f'fill="{color}" fill-opacity="0.45"/>'
            )
        body.append(
            f'<rect x="{right - 130}" y="{top + 16 * si}" width="10" height="10" '
            f'fill="{color}" fill-opacity="0.7"/>'
        )
        body.append(
            f'<text x="{right - 115}" y="{top + 16 * si + 9}" font-size="10" '
            f"{_FONT}>{_esc(label)}</text>"
        )
    _xlabel(body, box, height - 12, xlabel)
    return _doc(width, height, body)


def render_scatter(
    x: np.ndarray,
    y: np.ndarray,
    fit_x: np.ndarray,
    fit_y: np.ndarray,
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Scatter points (small rects) with a fitted curve drawn as line segments."""
    width, height = 560, 380
    box = left, right, top, bottom = 60, width - 20, 40, height - 50
    xlo, xhi = float(np.min(x)), float(np.max(x))
    ylo, yhi = float(np.min(y)), float(np.max(y))
    if xhi <= xlo:
        xhi = xlo + 1.0
    if yhi <= ylo:
        yhi = ylo + 1.0
    xpix, ypix = _axis(xlo, xhi, left, right), _axis(ylo, yhi, bottom, top)
    body: list[str] = []
    _frame(body, width, title, box, (xlo, xhi, xpix, ".3g"), (ylo, yhi, ypix, ".3g"))
    for xv, yv in zip(x, y):
        body.append(
            f'<rect class="pt" x="{xpix(float(xv)) - 1:.1f}" y="{ypix(float(yv)) - 1:.1f}" '
            f'width="2" height="2" fill="#1f77b4" fill-opacity="0.5"/>'
        )
    order = np.argsort(fit_x, kind="stable")
    fx = np.asarray(fit_x)[order]
    fy = np.asarray(fit_y)[order]
    for a in range(len(fx) - 1):
        if fx[a] == fx[a + 1] and fy[a] == fy[a + 1]:
            continue
        body.append(
            f'<line class="fit" x1="{xpix(float(fx[a])):.1f}" y1="{ypix(float(fy[a])):.1f}" '
            f'x2="{xpix(float(fx[a + 1])):.1f}" y2="{ypix(float(fy[a + 1])):.1f}" '
            f'stroke="#d62728" stroke-width="1.5"/>'
        )
    _xlabel(body, box, height - 14, xlabel)
    _ylabel(body, box, 16, ylabel)
    return _doc(width, height, body)
