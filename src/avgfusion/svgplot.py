"""Minimal standalone SVG line plots for sweep results.

No plotting dependency: the chart is assembled as SVG text directly. One
series per copy count N, x = noise half-width m, y = the chosen metric's
per-cell mean, with +/- one standard deviation error bars. A cell whose
metric is undefined in every trial (mean NaN) has no point; a sweep with no
point at all is rejected with a ``ValueError`` naming the metric.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape, quoteattr

from .sweep import DEFAULT_PLOT_METRIC, METRIC_COLUMNS, SweepResult

_WIDTH, _HEIGHT = 640, 440
_MARGIN = {"left": 64, "right": 150, "top": 40, "bottom": 48}
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _tag(name: str, text: str | None = None, **attrs) -> str:
    parts = [f"<{name}"]
    for key, value in attrs.items():
        parts.append(f" {key.replace('_', '-')}={quoteattr(str(value))}")
    if text is None:
        parts.append("/>")
    else:
        parts.append(f">{escape(text)}</{name}>")
    return "".join(parts)


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if hi - lo < 1e-12:
        pad = max(abs(lo) * 0.05, 0.05)
    else:
        pad = (hi - lo) * 0.08
    return lo - pad, hi + pad


def render_sweep_svg(result: SweepResult, metric: str | None = None) -> str:
    """Render one metric of a sweep as a self-contained SVG document."""
    cfg = result.config
    metric = metric or DEFAULT_PLOT_METRIC[cfg.experiment]
    if metric not in METRIC_COLUMNS[cfg.experiment]:
        raise ValueError(
            f"metric {metric!r} not recorded by {cfg.experiment!r} sweeps; "
            f"choose from {METRIC_COLUMNS[cfg.experiment]}"
        )
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

    plot_w = _WIDTH - _MARGIN["left"] - _MARGIN["right"]
    plot_h = _HEIGHT - _MARGIN["top"] - _MARGIN["bottom"]

    def px(x: float) -> float:
        return _MARGIN["left"] + (x - x0) / (x1 - x0) * plot_w

    def py(y: float) -> float:
        return _MARGIN["top"] + (y1 - y) / (y1 - y0) * plot_h

    body = [
        _tag("rect", x=0, y=0, width=_WIDTH, height=_HEIGHT, fill="white"),
        _tag(
            "text",
            f"{cfg.experiment}: {metric} vs m",
            x=_MARGIN["left"],
            y=24,
            font_family="sans-serif",
            font_size=16,
        ),
        _tag(
            "rect",
            x=_MARGIN["left"],
            y=_MARGIN["top"],
            width=plot_w,
            height=plot_h,
            fill="none",
            stroke="#333333",
        ),
    ]

    n_ticks = 5
    for i in range(n_ticks):
        fx = x0 + (x1 - x0) * i / (n_ticks - 1)
        fy = y0 + (y1 - y0) * i / (n_ticks - 1)
        body.append(
            _tag("line", x1=px(fx), y1=_MARGIN["top"] + plot_h, x2=px(fx),
                 y2=_MARGIN["top"] + plot_h + 5, stroke="#333333")
        )
        body.append(
            _tag("text", f"{fx:.3g}", x=px(fx), y=_MARGIN["top"] + plot_h + 20,
                 font_family="sans-serif", font_size=11, text_anchor="middle")
        )
        body.append(
            _tag("line", x1=_MARGIN["left"] - 5, y1=py(fy), x2=_MARGIN["left"],
                 y2=py(fy), stroke="#333333")
        )
        body.append(
            _tag("text", f"{fy:.3g}", x=_MARGIN["left"] - 8, y=py(fy) + 4,
                 font_family="sans-serif", font_size=11, text_anchor="end")
        )
    body.append(
        _tag("text", "m", x=_MARGIN["left"] + plot_w / 2, y=_HEIGHT - 10,
             font_family="sans-serif", font_size=13, text_anchor="middle")
    )

    for k, (n, pts) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        if len(pts) > 1:
            coords = " ".join(f"{px(m):.2f},{py(mean):.2f}" for m, mean, _ in pts)
            body.append(_tag("polyline", points=coords, fill="none", stroke=color, stroke_width=1.5))
        for m, mean, std in pts:
            if std > 0:
                body.append(
                    _tag("line", x1=px(m), y1=py(mean - std), x2=px(m), y2=py(mean + std),
                         stroke=color, stroke_width=1)
                )
            body.append(_tag("circle", cx=px(m), cy=py(mean), r=3, fill=color))
        ly = _MARGIN["top"] + 14 + 18 * k
        lx = _WIDTH - _MARGIN["right"] + 12
        body.append(_tag("line", x1=lx, y1=ly - 4, x2=lx + 22, y2=ly - 4, stroke=color, stroke_width=2))
        body.append(
            _tag("text", f"N={n}", x=lx + 28, y=ly, font_family="sans-serif", font_size=12)
        )

    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )


def write_svg(result: SweepResult, path, metric: str | None = None) -> None:
    """Render, then write: a sweep that cannot be plotted leaves ``path`` as it was."""
    svg = render_sweep_svg(result, metric)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(svg)
