"""Per-map reference formatters for the heat-map artifacts.

These format every line of a map, grid coordinates included, for each
map, and every ASCII cell on its own: the code the per-grid text and the
level table of ``beamfield.render`` replaced.  The tests require the new
text to equal theirs byte for byte.
"""

import json
from xml.sax.saxutils import escape

import numpy as np

from beamfield.render import (
    _ASCII_LEVELS,
    _BAR_GAP,
    _BAR_WIDTH,
    _CELL,
    _MARGIN_BOTTOM,
    _MARGIN_LEFT,
    _MARGIN_TOP,
    _fills,
)


def _sig9(v):
    return f"{v:.9g}"


def heatmap_csv(heatmap):
    """One formatted line per grid point."""
    lines = ["x_m,y_m,e_vpm"]
    for point, value in zip(heatmap.grid.points, heatmap.values):
        lines.append(f"{_sig9(point[0])},{_sig9(point[1])},{_sig9(value)}")
    return "\n".join(lines) + "\n"


def heatmap_json(heatmap):
    """``json.dumps`` of the map's payload."""
    payload = {
        "scenario": heatmap.scenario_id,
        "x_m": [float(v) for v in heatmap.grid.x_values],
        "y_m": [float(v) for v in heatmap.grid.y_values],
        "e_vpm": [[float(v) for v in row] for row in heatmap.as_grid_rows()],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def heatmap_svg(heatmap, vmax=None, markers=()):
    """The SVG of a heat map, built cell by cell.

    ``markers`` are (x, y) positions drawn as open circles (user
    locations).  ``vmax`` pins the top of the colour scale; default is
    the map maximum.
    """
    xs = np.asarray(heatmap.grid.x_values, dtype=float)
    ys = np.asarray(heatmap.grid.y_values, dtype=float)
    rows = heatmap.as_grid_rows()
    top = float(vmax) if vmax is not None else float(heatmap.values.max())
    if top <= 0:
        top = 1.0

    n_x, n_y = len(xs), len(ys)
    plot_w = n_x * _CELL
    plot_h = n_y * _CELL
    width = _MARGIN_LEFT + plot_w + _BAR_GAP + _BAR_WIDTH + 64
    height = _MARGIN_TOP + plot_h + _MARGIN_BOTTOM

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_MARGIN_LEFT}" y="20" font-family="monospace" font-size="14">'
        f"scenario {escape(heatmap.scenario_id)} &#8212; RMS E-field (V/m), "
        f"scale 0 to {top:.3g}</text>",
    ]

    # Cells: x ascending to the right, y ascending upward (array side at bottom).
    scaled = rows / top
    fills = _fills(scaled)
    x_labels = [f"{x:g}" for x in xs]
    for iy in range(n_y):
        cy = _MARGIN_TOP + (n_y - 1 - iy) * _CELL
        y_label = f"{ys[iy]:g}"
        for ix in range(n_x):
            cx = _MARGIN_LEFT + ix * _CELL
            val = rows[iy, ix]
            out.append(
                f'<rect x="{cx}" y="{cy}" width="{_CELL}" height="{_CELL}" '
                f'fill="{fills[iy * n_x + ix]}"><title>x={x_labels[ix]} y={y_label} '
                f"E={val:.6g} V/m</title></rect>"
            )
            out.append(
                f'<text x="{cx + _CELL / 2:g}" y="{cy + _CELL / 2 + 4:g}" '
                f'font-family="monospace" font-size="10" text-anchor="middle" '
                f'fill="{"black" if scaled[iy, ix] > 0.6 else "white"}">{val:.2g}</text>'
            )

    # Axis labels.
    for ix, x in enumerate(xs):
        out.append(
            f'<text x="{_MARGIN_LEFT + ix * _CELL + _CELL / 2:g}" '
            f'y="{_MARGIN_TOP + plot_h + 16}" font-family="monospace" font-size="11" '
            f'text-anchor="middle">{x:g}</text>'
        )
    for iy, y in enumerate(ys):
        out.append(
            f'<text x="{_MARGIN_LEFT - 8}" '
            f'y="{_MARGIN_TOP + (n_y - 1 - iy) * _CELL + _CELL / 2 + 4:g}" '
            f'font-family="monospace" font-size="11" text-anchor="end">{y:g}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:g}" y="{height - 10}" '
        f'font-family="monospace" font-size="12" text-anchor="middle">x (m)</text>'
    )
    out.append(
        f'<text x="14" y="{_MARGIN_TOP + plot_h / 2:g}" font-family="monospace" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MARGIN_TOP + plot_h / 2:g})">y (m)</text>'
    )

    # User markers.
    x0, x1 = xs[0], xs[-1]
    y0, y1 = ys[0], ys[-1]
    for mx, my in markers:
        if not (x0 - 0.5 <= mx <= x1 + 0.5 and y0 - 0.5 <= my <= y1 + 0.5):
            continue
        px = _MARGIN_LEFT + (mx - x0) / max(x1 - x0, 1e-12) * (plot_w - _CELL) + _CELL / 2
        py = _MARGIN_TOP + (y1 - my) / max(y1 - y0, 1e-12) * (plot_h - _CELL) + _CELL / 2
        out.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="10" fill="none" '
            f'stroke="white" stroke-width="2.5"/>'
        )

    # Colour bar.
    bar_x = _MARGIN_LEFT + plot_w + _BAR_GAP
    steps = 40
    step_h = plot_h / steps
    for i, fill in enumerate(_fills(1.0 - np.arange(steps) / (steps - 1))):
        out.append(
            f'<rect x="{bar_x}" y="{_MARGIN_TOP + i * step_h:.2f}" '
            f'width="{_BAR_WIDTH}" height="{step_h + 0.5:.2f}" fill="{fill}"/>'
        )
    for frac in (0.0, 0.5, 1.0):
        out.append(
            f'<text x="{bar_x + _BAR_WIDTH + 6}" '
            f'y="{_MARGIN_TOP + (1 - frac) * plot_h + 4:.2f}" '
            f'font-family="monospace" font-size="11">{frac * top:.3g}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def heatmap_ascii(heatmap, vmax=None):
    """The ASCII preview, one level character pair per cell."""
    rows = heatmap.as_grid_rows()
    xs = heatmap.grid.x_values
    ys = heatmap.grid.y_values
    top = float(vmax) if vmax is not None else float(heatmap.values.max())
    if top <= 0:
        top = 1.0
    n = len(_ASCII_LEVELS)
    lines = [f"scenario {heatmap.scenario_id}: RMS E-field, "
             f"'{_ASCII_LEVELS[0]}'=0 to '{_ASCII_LEVELS[-1]}'={top:.3g} V/m"]
    for iy in range(len(ys) - 1, -1, -1):
        chars = "".join(_ASCII_LEVELS[min(int(v / top * n), n - 1)] * 2
                        for v in rows[iy].tolist())
        lines.append(f"y={ys[iy]:>4g} |{chars}|")
    lines.append(f"        x: {xs[0]:g} to {xs[-1]:g} step {heatmap.grid.spacing:g} m")
    return "\n".join(lines) + "\n"
