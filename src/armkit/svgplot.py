"""Minimal deterministic SVG generation (scatter panels and box plots).

Hand-rolled on purpose: identical inputs must produce byte-identical files,
so there are no timestamps, random ids, or library-version-dependent output.
All coordinates are formatted to two decimal places.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import fixed

_POINT_COLOR = "#2c6fbb"
_BOX_COLOR = "#2c6fbb"
_AXIS_COLOR = "#222222"
_GRID_COLOR = "#dddddd"

_PANEL = 300       # drawable panel size, px
_MARGIN = 52       # left/bottom margin for labels
_PAD = 16          # top/right padding

#: Points a workspace plot draws at most.
WORKSPACE_MAX_POINTS = 20_000


def _f(v: float) -> str:
    return f"{v:.2f}"


def _axis_ticks(lo: float, hi: float, n: int = 5):
    return np.linspace(lo, hi, n)


def _y_ticks(lo: float, hi: float, py, left: float, right: float) -> list:
    """Five grid lines across [``left``, ``right``] over [``lo``, ``hi``],
    placed by ``py``, each labelled left of ``left``."""
    return [part for t in _axis_ticks(lo, hi) for part in (
        f'<line x1="{_f(left)}" y1="{_f(py(t))}" x2="{_f(right)}" '
        f'y2="{_f(py(t))}" stroke="{_GRID_COLOR}"/>',
        f'<text x="{_f(left - 4)}" y="{_f(py(t) + 3)}" text-anchor="end" '
        f'font-size="9">{fixed(t, 3)}</text>')]


def _panel_svg(x: np.ndarray, y: np.ndarray, x_label: str, y_label: str,
               title: str, ox: float, oy: float) -> list:
    """One scatter panel with frame and min/max ticks at offset (ox, oy)."""
    lo_x, hi_x = float(np.min(x)), float(np.max(x))
    lo_y, hi_y = float(np.min(y)), float(np.max(y))
    span_x = hi_x - lo_x or 1.0
    span_y = hi_y - lo_y or 1.0

    def px(v):
        return ox + _MARGIN + (v - lo_x) / span_x * _PANEL

    def py(v):
        return oy + _PAD + (hi_y - v) / span_y * _PANEL

    parts = [
        f'<rect x="{_f(ox + _MARGIN)}" y="{_f(oy + _PAD)}" '
        f'width="{_PANEL}" height="{_PANEL}" fill="none" '
        f'stroke="{_AXIS_COLOR}"/>',
        f'<text x="{_f(ox + _MARGIN + _PANEL / 2)}" y="{_f(oy + 12)}" '
        f'text-anchor="middle" font-size="12">{title}</text>',
    ]
    for t in _axis_ticks(lo_x, hi_x):
        parts.append(
            f'<line x1="{_f(px(t))}" y1="{_f(oy + _PAD)}" '
            f'x2="{_f(px(t))}" y2="{_f(oy + _PAD + _PANEL)}" '
            f'stroke="{_GRID_COLOR}"/>')
        parts.append(
            f'<text x="{_f(px(t))}" y="{_f(oy + _PAD + _PANEL + 14)}" '
            f'text-anchor="middle" font-size="9">{fixed(t, 3)}</text>')
    parts += _y_ticks(lo_y, hi_y, py, ox + _MARGIN, ox + _MARGIN + _PANEL)
    parts.append(
        f'<text x="{_f(ox + _MARGIN + _PANEL / 2)}" '
        f'y="{_f(oy + _PAD + _PANEL + 30)}" text-anchor="middle" '
        f'font-size="11">{x_label}</text>')
    parts.append(
        f'<text x="{_f(ox + 12)}" y="{_f(oy + _PAD + _PANEL / 2)}" '
        f'text-anchor="middle" font-size="11" transform="rotate(-90 '
        f'{_f(ox + 12)} {_f(oy + _PAD + _PANEL / 2)})">{y_label}</text>')
    for xi, yi in zip(x, y):
        parts.append(f'<circle cx="{_f(px(float(xi)))}" '
                     f'cy="{_f(py(float(yi)))}" r="1" '
                     f'fill="{_POINT_COLOR}" fill-opacity="0.5"/>')
    return parts


def _svg(width: int, height: int, parts: list) -> str:
    """The SVG document of ``parts`` on a white ``width`` x ``height`` px
    canvas, one element per line."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *parts, "</svg>"]) + "\n"


def decimation_stride(n: int) -> int:
    """Row stride :func:`workspace_svg` keeps of an ``n``-point cloud."""
    return max(1, -(-n // WORKSPACE_MAX_POINTS))


def workspace_svg(points: np.ndarray) -> str:
    """Top (x-y) and side (x-z) scatter views of a reachable-point cloud.

    Clouds larger than :data:`WORKSPACE_MAX_POINTS` are decimated with a
    fixed stride (:func:`decimation_stride`) so the output stays
    deterministic and small.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    pts = pts[::decimation_stride(pts.shape[0])]
    width = 2 * (_MARGIN + _PANEL + _PAD)
    height = _MARGIN + _PANEL + 2 * _PAD
    parts = _panel_svg(pts[:, 0], pts[:, 1], "x (m)", "y (m)",
                       "top view", 0.0, 0.0)
    parts += _panel_svg(pts[:, 0], pts[:, 2], "x (m)", "z (m)",
                        "side view", float(_MARGIN + _PANEL + _PAD), 0.0)
    return _svg(width, height, parts)


def box_plot_svg(labels: Sequence[str], datasets: Sequence[np.ndarray],
                 y_label: str) -> str:
    """Box-and-whisker plot: median, quartile box, 1.5 IQR whiskers, fliers."""
    if len(labels) != len(datasets) or not datasets:
        raise ValueError("labels and datasets must align and be non-empty")
    data = [np.asarray(d, dtype=float) for d in datasets]
    lo = min(float(np.min(d)) for d in data)
    hi = max(float(np.max(d)) for d in data)
    span = hi - lo or 1.0
    lo -= 0.05 * span
    hi += 0.05 * span
    span = hi - lo

    width = _MARGIN + _PAD + 70 * len(data)
    height = _MARGIN + _PANEL + 2 * _PAD

    def py(v):
        return _PAD + (hi - v) / span * _PANEL

    parts = [
        f'<rect x="{_f(_MARGIN)}" y="{_f(_PAD)}" '
        f'width="{_f(width - _MARGIN - _PAD)}" height="{_PANEL}" '
        f'fill="none" stroke="{_AXIS_COLOR}"/>',
    ]
    parts += _y_ticks(lo, hi, py, _MARGIN, width - _PAD)
    parts.append(
        f'<text x="{_f(12)}" y="{_f(_PAD + _PANEL / 2)}" '
        f'text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 {_f(12)} {_f(_PAD + _PANEL / 2)})">'
        f'{y_label}</text>')

    for i, (label, d) in enumerate(zip(labels, data)):
        cx = _MARGIN + 35 + 70 * i
        q1, med, q3 = (float(np.percentile(d, p)) for p in (25, 50, 75))
        iqr = q3 - q1
        lo_w = float(np.min(d[d >= q1 - 1.5 * iqr]))
        hi_w = float(np.max(d[d <= q3 + 1.5 * iqr]))
        half = 18
        parts += [
            f'<line x1="{_f(cx)}" y1="{_f(py(lo_w))}" x2="{_f(cx)}" '
            f'y2="{_f(py(q1))}" stroke="{_AXIS_COLOR}"/>',
            f'<line x1="{_f(cx)}" y1="{_f(py(q3))}" x2="{_f(cx)}" '
            f'y2="{_f(py(hi_w))}" stroke="{_AXIS_COLOR}"/>',
            f'<line x1="{_f(cx - 10)}" y1="{_f(py(lo_w))}" '
            f'x2="{_f(cx + 10)}" y2="{_f(py(lo_w))}" '
            f'stroke="{_AXIS_COLOR}"/>',
            f'<line x1="{_f(cx - 10)}" y1="{_f(py(hi_w))}" '
            f'x2="{_f(cx + 10)}" y2="{_f(py(hi_w))}" '
            f'stroke="{_AXIS_COLOR}"/>',
            f'<rect x="{_f(cx - half)}" y="{_f(py(q3))}" '
            f'width="{2 * half}" height="{_f(py(q1) - py(q3))}" '
            f'fill="{_BOX_COLOR}" fill-opacity="0.25" '
            f'stroke="{_BOX_COLOR}"/>',
            f'<line x1="{_f(cx - half)}" y1="{_f(py(med))}" '
            f'x2="{_f(cx + half)}" y2="{_f(py(med))}" '
            f'stroke="{_BOX_COLOR}" stroke-width="2"/>',
            f'<text x="{_f(cx)}" y="{_f(_PAD + _PANEL + 14)}" '
            f'text-anchor="middle" font-size="10">{label}</text>',
        ]
        for flier in d[(d < q1 - 1.5 * iqr) | (d > q3 + 1.5 * iqr)]:
            parts.append(f'<circle cx="{_f(cx)}" cy="{_f(py(float(flier)))}" '
                         f'r="2" fill="none" stroke="{_AXIS_COLOR}"/>')
    return _svg(width, height, parts)
