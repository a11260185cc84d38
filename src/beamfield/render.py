"""Deterministic CSV, JSON, SVG and ASCII text of heat maps.

The SVG is assembled by hand (no plotting library) so repeated runs emit
byte-identical files.  Colours follow a fixed linear scale from 0 V/m to
``vmax`` through an 11-anchor perceptual ramp; the ASCII preview
quantises the same scale to 10 character levels.

Most of a map's CSV, JSON and SVG text depends only on the probe grid:
the coordinates, the cell geometry and titles, the axis labels and the
colour bar.  :func:`grid_text` formats those parts once; a run builds it
once and shares it with every map it writes, so per map only the
values, their colours and the title are formatted.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

# Dark-blue to yellow perceptual ramp, sampled at 11 equispaced anchors.
_RAMP = (
    (68, 1, 84), (71, 39, 117), (62, 73, 137), (49, 104, 142),
    (38, 130, 142), (31, 158, 137), (53, 183, 121), (110, 206, 88),
    (181, 222, 43), (253, 231, 37), (255, 255, 110),
)
_RAMP_RGB = np.array(_RAMP, dtype=float)
# Per-channel step from each anchor to the next; small integers, so exact.
_RAMP_STEP = _RAMP_RGB[1:] - _RAMP_RGB[:-1]
# Two hex digits per channel value 0-255, and the " #" that opens a colour,
# each as one 2-byte unit, so a colour's text is four units.
_HEX_PAIRS = np.frombuffer("".join(f"{v:02x}" for v in range(256)).encode("ascii"),
                           dtype=np.uint16)
_COLOUR_OPEN = np.frombuffer(b" #", dtype=np.uint16)[0]

_ASCII_LEVELS = " .:-=+*#%@"
# Byte of each level, drawn twice per cell so that cells are about square.
_ASCII_CODES = np.frombuffer(_ASCII_LEVELS.encode("ascii"), dtype=np.uint8)

# SVG cell-label colour, indexed by whether the cell is brighter than 0.6 of the scale.
_LABEL_COLOURS = np.array(["white", "black"], dtype=object)

_CELL = 64
_MARGIN_LEFT = 56
_MARGIN_BOTTOM = 40
_MARGIN_TOP = 34
_BAR_WIDTH = 18
_BAR_GAP = 24
# Colour-bar label positions, bottom to top, as fractions of the scale.
_BAR_FRACTIONS = (0.0, 0.5, 1.0)


def _fills(t):
    """'#rrggbb' per entry of ``t`` (row-major), linear between ramp anchors.

    ``t`` is clamped to [0, 1].  ``np.rint`` rounds half to even, as
    ``round`` does, and ``astype(int)`` truncates the non-negative
    positions, as ``int`` does.  The text of every colour is looked up
    from a table of hex pairs in one array and split into strings once.
    """
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0).ravel()
    pos = t * (len(_RAMP) - 1)
    i = np.minimum(pos.astype(int), len(_RAMP) - 2)
    frac = (pos - i)[:, None]
    rgb = np.rint(np.take(_RAMP_RGB, i, axis=0) + frac * np.take(_RAMP_STEP, i, axis=0))
    text = np.empty((len(t), 4), dtype=np.uint16)
    text[:, 0] = _COLOUR_OPEN
    text[:, 1:] = np.take(_HEX_PAIRS, rgb.astype(int))
    return text.tobytes().decode("ascii").split()


def scale_top(heatmap, vmax):
    """Top of the colour scale: ``vmax`` if given, else the map maximum.

    A given ``vmax`` must be positive and finite.  An all-zero map has no
    maximum to scale to and gets 1 V/m.
    """
    if vmax is None:
        return float(heatmap.values.max()) or 1.0
    if not 0 < vmax < math.inf:
        raise ValueError(f"vmax must be positive and finite, got {vmax!r}")
    return float(vmax)


def _levels(values, top):
    """ASCII level index 0-9 per entry of ``values`` on the scale 0 to ``top``.

    Values are non-negative, so truncation is the floor of the scaled value.
    Clamping before the division keeps a subnormal ``top`` from overflowing it.
    """
    n = len(_ASCII_LEVELS)
    return np.minimum(np.minimum(values, top) / top * n, n - 1).astype(int)


@dataclass(frozen=True, repr=False)
class GridText:
    """The artifact text of a heat map that depends only on its probe grid.

    ``csv``, ``json`` and ``svg`` are ``%``-templates with one slot per
    grid point (four per SVG cell: fill, value, label colour, label), so
    a map's text is one fill of the template, made without a second copy
    of it; the template of a format not requested is None.  The SVG has
    two slots before its cells (the escaped scenario id and the scale
    top) and four after them (the user markers and the three colour-bar
    labels).  ``%.9g`` formats a float as ``format(v, ".9g")`` does, and
    ``%r`` is the ``float.__repr__`` the JSON encoder writes.  Build it
    with :func:`grid_text`.
    """

    grid: object
    csv: str
    json: str
    svg: str

    def template(self, heatmap, name):
        """The ``name`` template for ``heatmap``; ValueError unless it was
        built and the map lies on this text's grid."""
        if self.grid != heatmap.grid:
            raise ValueError("heat map and grid text come from different grids")
        text = getattr(self, name)
        if text is None:
            raise ValueError(f"grid text was built without the {name} template")
        return text


def _csv_template(xs, ys):
    # Joined from per-column and per-row fragments, so every coordinate is
    # formatted once, not once per grid point.
    csv_x = [f"{x:.9g}" for x in xs.tolist()]
    return "x_m,y_m,e_vpm\n" + "".join(
        tail.join(csv_x) + tail for tail in (f",{y:.9g},%.9g\n" for y in ys.tolist())
    )


def _json_template(xs, ys):
    # json.dumps(..., indent=2, sort_keys=True) layout: e_vpm, scenario, x_m, y_m.
    row = "    [\n" + ",\n".join(["      %r"] * len(xs)) + "\n    ]"
    json_axes = json.dumps({"x_m": xs.tolist(), "y_m": ys.tolist()}, indent=2,
                           sort_keys=True)
    return ('{\n  "e_vpm": [\n' + ",\n".join([row] * len(ys))
            + '\n  ],\n  "scenario": %s,\n' + json_axes.removeprefix("{\n") + "\n")


def _svg_template(xs, ys):
    n_x, n_y = len(xs), len(ys)
    plot_w = n_x * _CELL
    plot_h = n_y * _CELL
    width = _MARGIN_LEFT + plot_w + _BAR_GAP + _BAR_WIDTH + 64
    height = _MARGIN_TOP + plot_h + _MARGIN_BOTTOM

    svg_open = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>'
    )

    # Cells: x ascending to the right, y ascending upward (array side at bottom).
    # A cell alternates column and row fragments: rect x, rect y, title x,
    # title y, label x, label y.
    columns = []
    for ix, x in enumerate(xs):
        cx = _MARGIN_LEFT + ix * _CELL
        columns.append((f'<rect x="{cx}" y="', f"{x:g}", f"{cx + _CELL / 2:g}"))
    cells = []
    for iy, y in enumerate(ys):
        cy = _MARGIN_TOP + (n_y - 1 - iy) * _CELL
        rect_y = (f'{cy}" width="{_CELL}" height="{_CELL}" '
                  f'fill="%s"><title>x=')
        title_y = f' y={y:g} E=%.6g V/m</title></rect>\n<text x="'
        label_y = (f'" y="{cy + _CELL / 2 + 4:g}" '
                   f'font-family="monospace" font-size="10" text-anchor="middle" '
                   f'fill="%s">%.2g</text>')
        cells += [rect_x + rect_y + title_x + title_y + label_x + label_y
                  for rect_x, title_x, label_x in columns]

    axes = [
        f'<text x="{_MARGIN_LEFT + ix * _CELL + _CELL / 2:g}" '
        f'y="{_MARGIN_TOP + plot_h + 16}" font-family="monospace" font-size="11" '
        f'text-anchor="middle">{x:g}</text>'
        for ix, x in enumerate(xs)
    ]
    axes += [
        f'<text x="{_MARGIN_LEFT - 8}" '
        f'y="{_MARGIN_TOP + (n_y - 1 - iy) * _CELL + _CELL / 2 + 4:g}" '
        f'font-family="monospace" font-size="11" text-anchor="end">{y:g}</text>'
        for iy, y in enumerate(ys)
    ]
    axes.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:g}" y="{height - 10}" '
        f'font-family="monospace" font-size="12" text-anchor="middle">x (m)</text>'
    )
    axes.append(
        f'<text x="14" y="{_MARGIN_TOP + plot_h / 2:g}" font-family="monospace" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MARGIN_TOP + plot_h / 2:g})">y (m)</text>'
    )

    # Colour bar; its labels end with the map's scale.
    bar_x = _MARGIN_LEFT + plot_w + _BAR_GAP
    steps = 40
    step_h = plot_h / steps
    bar = [
        f'<rect x="{bar_x}" y="{_MARGIN_TOP + i * step_h:.2f}" '
        f'width="{_BAR_WIDTH}" height="{step_h + 0.5:.2f}" fill="{fill}"/>'
        for i, fill in enumerate(_fills(1.0 - np.arange(steps) / (steps - 1)))
    ]
    bar_labels = tuple(
        f'<text x="{bar_x + _BAR_WIDTH + 6}" '
        f'y="{_MARGIN_TOP + (1 - frac) * plot_h + 4:.2f}" '
        f'font-family="monospace" font-size="11">'
        for frac in _BAR_FRACTIONS
    )

    # One line per part, joined once.  No fixed part holds a "%": they are
    # numbers and constant markup.
    return "\n".join([
        svg_open,
        f'<text x="{_MARGIN_LEFT}" y="20" font-family="monospace" font-size="14">'
        "scenario %s &#8212; RMS E-field (V/m), scale 0 to %s</text>",
        *cells,
        *axes[:-1],
        axes[-1] + "%s",
        *bar,
        *(label + "%s</text>" for label in bar_labels),
        "</svg>\n",
    ])


def grid_text(grid, formats):
    """Format the grid-only parts of the heat-map artifacts of ``grid`` once.

    A run builds this once and shares it with every map it writes: the
    coordinates, the SVG cell geometry, the axis labels and the colour
    bar are the same for each scenario, so only the values and what they
    colour are formatted per map.  Only the CSV, JSON and SVG templates
    named in ``formats`` are built; ASCII needs none.
    """
    xs = np.asarray(grid.x_values, dtype=float)
    ys = np.asarray(grid.y_values, dtype=float)
    return GridText(grid=grid,
                    csv=_csv_template(xs, ys) if "csv" in formats else None,
                    json=_json_template(xs, ys) if "json" in formats else None,
                    svg=_svg_template(xs, ys) if "svg" in formats else None)


def heatmap_csv(heatmap, text):
    """``x_m,y_m,e_vpm`` rows in grid order, 9 significant digits."""
    return text.template(heatmap, "csv") % tuple(heatmap.values.tolist())


def heatmap_json(heatmap, text):
    """The map as ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``.

    ``payload`` holds ``scenario``, the axes ``x_m`` / ``y_m`` and the
    values ``e_vpm`` as rows of constant y.
    """
    template = text.template(heatmap, "json")
    values = heatmap.values.astype(float, copy=False).tolist()
    return template % (*values, json.dumps(heatmap.scenario_id))


def _xml_text(s):
    """``s`` escaped as XML character data.

    The rule of ``xml.sax.saxutils.escape``, whose import loads
    ``urllib.request`` and about 2.5 MiB of modules with it.
    """
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def heatmap_svg(heatmap, text, vmax=None, markers=()):
    """Render a heat map as an SVG colour grid.

    ``text`` is the :func:`grid_text` of the map's grid.  ``markers`` are
    (x, y) positions drawn as open circles (user locations).  ``vmax``
    pins the top of the colour scale; default is the map maximum.
    """
    template = text.template(heatmap, "svg")
    top = scale_top(heatmap, vmax)

    values = heatmap.values.tolist()
    scaled = np.minimum(heatmap.values, top) / top  # clamped first, as in _levels
    cells = 4 * len(values)
    slots = [None] * (2 + cells + 4)
    slots[0] = _xml_text(heatmap.scenario_id)
    slots[1] = f"{top:.3g}"
    slots[2:2 + cells:4] = _fills(scaled)
    slots[3:3 + cells:4] = values
    slots[4:4 + cells:4] = _LABEL_COLOURS[(scaled > 0.6).view(np.int8)].tolist()
    slots[5:5 + cells:4] = values

    # User markers, each on a line of its own after the axes.
    xs = np.asarray(heatmap.grid.x_values, dtype=float)
    ys = np.asarray(heatmap.grid.y_values, dtype=float)
    plot_w = len(xs) * _CELL
    plot_h = len(ys) * _CELL
    x0, x1 = xs[0], xs[-1]
    y0, y1 = ys[0], ys[-1]
    circles = []
    for mx, my in markers:
        if not (x0 - 0.5 <= mx <= x1 + 0.5 and y0 - 0.5 <= my <= y1 + 0.5):
            continue
        px = _MARGIN_LEFT + (mx - x0) / max(x1 - x0, 1e-12) * (plot_w - _CELL) + _CELL / 2
        py = _MARGIN_TOP + (y1 - my) / max(y1 - y0, 1e-12) * (plot_h - _CELL) + _CELL / 2
        circles.append(
            f'\n<circle cx="{px:.2f}" cy="{py:.2f}" r="10" fill="none" '
            f'stroke="white" stroke-width="2.5"/>'
        )
    slots[-4] = "".join(circles)
    slots[-3:] = [f"{frac * top:.3g}" for frac in _BAR_FRACTIONS]
    return template % tuple(slots)


def heatmap_ascii(heatmap, vmax=None):
    """10-level character rendering, far rows on top, array side at the bottom."""
    rows = heatmap.as_grid_rows()
    xs = heatmap.grid.x_values
    ys = heatmap.grid.y_values
    top = scale_top(heatmap, vmax)

    lines = [f"scenario {heatmap.scenario_id}: RMS E-field, "
             f"'{_ASCII_LEVELS[0]}'=0 to '{_ASCII_LEVELS[-1]}'={top:.3g} V/m"]
    cells = np.repeat(_ASCII_CODES[_levels(rows, top)], 2, axis=1)
    for iy in range(len(ys) - 1, -1, -1):
        lines.append(f"y={ys[iy]:>4g} |{cells[iy].tobytes().decode('ascii')}|")
    lines.append(f"        x: {xs[0]:g} to {xs[-1]:g} step {heatmap.grid.spacing:g} m")
    return "\n".join(lines) + "\n"
