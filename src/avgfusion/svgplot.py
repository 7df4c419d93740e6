"""Minimal standalone SVG line plots for sweep results.

The plot of a sweep shows its experiment's ``DEFAULT_PLOT_METRIC``
(``F_HH_norm``, ``F_norm`` or ``trace_distance``) against the noise
half-width m: one series per copy count N, one point per cell at its mean,
with +/- one standard deviation error bars. A cell whose metric is undefined
in every trial (mean NaN) has no point; a sweep with no point at all is
rejected with a ``ValueError`` naming the metric.

No plotting or XML dependency: each SVG element is one fixed text template.
"""

from __future__ import annotations

import math
from html import escape

from .sweep import DEFAULT_PLOT_METRIC, SweepResult, write_atomic

_WIDTH, _HEIGHT = 640, 440
_LEFT, _RIGHT, _TOP, _BOTTOM = 64, 150, 40, 48
_PLOT_W, _PLOT_H = _WIDTH - _LEFT - _RIGHT, _HEIGHT - _TOP - _BOTTOM
_AXIS_Y = _TOP + _PLOT_H
_N_TICKS = 5
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo < 1e-12:
        pad = max(abs(lo) * 0.05, 0.05)
    else:
        pad = (hi - lo) * 0.08
    return lo - pad, hi + pad


def render_sweep_svg(result: SweepResult) -> str:
    """Render the sweep's ``DEFAULT_PLOT_METRIC`` as a self-contained SVG document."""
    cfg = result.config
    metric = DEFAULT_PLOT_METRIC[cfg.experiment]
    series = [
        (n, [
            (c.m, c.mean[metric], c.std[metric])
            for c in result.cells
            if c.n_copies == n and not math.isnan(c.mean[metric])
        ])
        for n in cfg.n_copies_list
    ]
    xs = [p[0] for _, pts in series for p in pts]
    if not xs:
        raise ValueError(f"no cell has a defined {metric!r} mean; nothing to plot")
    lows = [p[1] - p[2] for _, pts in series for p in pts]
    highs = [p[1] + p[2] for _, pts in series for p in pts]
    x0, x1 = _padded(min(xs), max(xs))
    y0, y1 = _padded(min(lows), max(highs))

    def px(x: float) -> float:
        return _LEFT + (x - x0) / (x1 - x0) * _PLOT_W

    def py(y: float) -> float:
        return _TOP + (y1 - y) / (y1 - y0) * _PLOT_H

    title = escape(f"{cfg.experiment}: {metric} vs m", quote=False)  # the only text built from names
    body = [
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_LEFT}" y="24" font-family="sans-serif" font-size="16">{title}</text>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" fill="none" stroke="#333333"/>',
    ]
    for i in range(_N_TICKS):
        fx = x0 + (x1 - x0) * i / (_N_TICKS - 1)
        fy = y0 + (y1 - y0) * i / (_N_TICKS - 1)
        x, y = px(fx), py(fy)
        body += [
            f'<line x1="{x}" y1="{_AXIS_Y}" x2="{x}" y2="{_AXIS_Y + 5}" stroke="#333333"/>',
            f'<text x="{x}" y="{_AXIS_Y + 20}" font-family="sans-serif" font-size="11" text-anchor="middle">{fx:.3g}</text>',
            f'<line x1="{_LEFT - 5}" y1="{y}" x2="{_LEFT}" y2="{y}" stroke="#333333"/>',
            f'<text x="{_LEFT - 8}" y="{y + 4}" font-family="sans-serif" font-size="11" text-anchor="end">{fy:.3g}</text>',
        ]
    body.append(
        f'<text x="{_LEFT + _PLOT_W / 2}" y="{_HEIGHT - 10}" font-family="sans-serif" font-size="13" text-anchor="middle">m</text>'
    )

    for k, (n, pts) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        if len(pts) > 1:
            coords = " ".join(f"{px(m):.2f},{py(mean):.2f}" for m, mean, _ in pts)
            body.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for m, mean, std in pts:
            x = px(m)
            if std > 0:
                body.append(
                    f'<line x1="{x}" y1="{py(mean - std)}" x2="{x}" y2="{py(mean + std)}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
            body.append(f'<circle cx="{x}" cy="{py(mean)}" r="3" fill="{color}"/>')
        lx, ly = _WIDTH - _RIGHT + 12, _TOP + 14 + 18 * k
        body.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        body.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="12">N={n}</text>')

    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )


def write_svg(result: SweepResult, path) -> None:
    """Render, then write atomically: an unplottable sweep or a failed write leaves ``path`` as it was."""
    write_atomic(path, [render_sweep_svg(result).encode()])
