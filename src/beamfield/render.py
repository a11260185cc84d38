"""Deterministic CSV, JSON, SVG and ASCII text of heat maps.

The SVG is assembled by hand (no plotting library) so repeated runs emit
byte-identical files.  Colours follow a fixed linear scale from 0 V/m to
``vmax`` through an 11-anchor perceptual ramp; the ASCII preview
quantises the same scale to 10 character levels.

Every artifact is made one block of grid rows at a time, about 64 Ki
characters each, so no text of a whole map is ever held.  Most of a
map's CSV, JSON and SVG text depends only on the probe grid: the
coordinates, the cell geometry and titles, the axis labels and the
colour bar.  :func:`grid_text` formats those parts once, as one
``%``-template per block; a run builds it once and shares it with every
map it writes.  Per map, :func:`csv_blocks`, :func:`json_blocks`,
:func:`svg_blocks` and :func:`ascii_blocks` compute the scale, colours,
label colours and levels of every cell once, as arrays, and return an
iterator that fills one block per call of :func:`heatmap_csv`,
:func:`heatmap_json`, :func:`heatmap_svg` or :func:`heatmap_ascii` from
that block's slice of them.  Joined, the blocks are the artifact.
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

# A block of grid rows closes once its rows' template holds this many
# characters (the ASCII text, which has none, counts its own), so a block's
# text is about 64 Ki characters and at least one grid row.
_BLOCK_CHARS = 1 << 16

_CELL = 64
_MARGIN_LEFT = 56
_MARGIN_BOTTOM = 40
_MARGIN_TOP = 34
_BAR_WIDTH = 18
_BAR_GAP = 24
# Colour-bar label positions, bottom to top, as fractions of the scale.
_BAR_FRACTIONS = (0.0, 0.5, 1.0)


def _fills(t):
    """' #rrggbb' per entry of ``t`` (row-major), linear between ramp anchors.

    One string of 8 characters per entry, so entries ``a:b`` are the
    characters ``8a:8b``; ``split()`` gives the '#rrggbb' list.  ``t`` is
    clamped to [0, 1].  ``np.rint`` rounds half to even, as ``round``
    does, and ``astype(int)`` truncates the non-negative positions, as
    ``int`` does.  The text of every colour is looked up from a table of
    hex pairs in one array and decoded once.  The steps run in place
    where they can, so a map's colours cost about 80 bytes per cell
    while they are made and 8 once made; each step is the same
    operation on the same operands as ``anchor + frac * step``.
    """
    pos = np.clip(np.asarray(t, dtype=float), 0.0, 1.0).ravel()
    pos *= len(_RAMP) - 1
    i = pos.astype(int)
    np.minimum(i, len(_RAMP) - 2, out=i)
    pos -= i
    rgb = np.take(_RAMP_STEP, i, axis=0)
    rgb *= pos[:, None]
    rgb += np.take(_RAMP_RGB, i, axis=0)
    np.rint(rgb, out=rgb)
    text = np.empty((len(pos), 4), dtype=np.uint16)
    text[:, 0] = _COLOUR_OPEN
    text[:, 1:] = np.take(_HEX_PAIRS, rgb.astype(int))
    return text.tobytes().decode("ascii")


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

    ``templates`` maps each format built (a key of ``_TEMPLATES``) to one
    ``(start, stop, template)`` per block of whole grid rows, in grid
    order.  ``start:stop`` are the block's cells, and its
    ``%``-template has one slot per cell (four per SVG cell: fill, value,
    label colour, label), so a block's text is one fill of its template.
    The first block opens the file and the last closes it: the SVG has two
    slots before its first cell (the escaped scenario id and the scale
    top) and four after its last (the user markers and the three
    colour-bar labels); the JSON has one after its last (the scenario).
    ``%.9g`` formats a float as ``format(v, ".9g")`` does, and ``%r`` is
    the ``float.__repr__`` the JSON encoder writes.  Build it with
    :func:`grid_text`.
    """

    grid: object
    templates: dict

    def blocks(self, heatmap, name):
        """The ``name`` blocks for ``heatmap``; ValueError unless they were
        built and the map lies on this text's grid."""
        if self.grid != heatmap.grid:
            raise ValueError("heat map and grid text come from different grids")
        if name not in self.templates:
            raise ValueError(f"grid text was built without the {name} template")
        return self.templates[name]


def _blocks(head, rows, tail, n_x):
    """``(start, stop, template)`` per block of the row templates ``rows``.

    ``rows`` yields one template per grid row, in grid order.  A block
    takes rows until they hold ``_BLOCK_CHARS`` characters, so only one
    block's rows are held apart at a time.  ``head`` opens the first
    block and ``tail`` closes the last.
    """
    blocks, parts, size, start = [], [head], 0, 0
    for iy, row in enumerate(rows):
        if size >= _BLOCK_CHARS:
            blocks.append((start * n_x, iy * n_x, "".join(parts)))
            parts, size, start = [], 0, iy
        parts.append(row)
        size += len(row)
    parts.append(tail)
    blocks.append((start * n_x, (iy + 1) * n_x, "".join(parts)))
    return tuple(blocks)


def _csv_template(xs, ys):
    # Joined from per-column and per-row fragments, so every coordinate is
    # formatted once, not once per grid point.
    csv_x = [f"{x:.9g}" for x in xs.tolist()]
    rows = (tail.join(csv_x) + tail for tail in (f",{y:.9g},%.9g\n" for y in ys.tolist()))
    return _blocks("x_m,y_m,e_vpm\n", rows, "", len(xs))


def _json_template(xs, ys):
    # json.dumps(..., indent=2, sort_keys=True) layout: e_vpm, scenario, x_m, y_m.
    row = "    [\n" + ",\n".join(["      %r"] * len(xs)) + "\n    ]"
    json_axes = json.dumps({"x_m": xs.tolist(), "y_m": ys.tolist()}, indent=2,
                           sort_keys=True)
    return _blocks('{\n  "e_vpm": [\n', [row] + [",\n" + row] * (len(ys) - 1),
                   '\n  ],\n  "scenario": %s,\n' + json_axes.removeprefix("{\n") + "\n",
                   len(xs))


def _svg_template(xs, ys):
    n_x, n_y = len(xs), len(ys)
    plot_w = n_x * _CELL
    plot_h = n_y * _CELL
    width = _MARGIN_LEFT + plot_w + _BAR_GAP + _BAR_WIDTH + 64
    height = _MARGIN_TOP + plot_h + _MARGIN_BOTTOM

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<text x="{_MARGIN_LEFT}" y="20" font-family="monospace" font-size="14">'
        "scenario %s &#8212; RMS E-field (V/m), scale 0 to %s</text>\n"
    )

    # Cells: x ascending to the right, y ascending upward (array side at bottom).
    # A cell alternates column and row fragments: rect x, rect y, title x,
    # title y, label x, label y.
    columns = []
    for ix, x in enumerate(xs):
        cx = _MARGIN_LEFT + ix * _CELL
        columns.append((f'<rect x="{cx}" y="', f"{x:g}", f"{cx + _CELL / 2:g}"))

    def row(iy, y):
        cy = _MARGIN_TOP + (n_y - 1 - iy) * _CELL
        rect_y = (f'{cy}" width="{_CELL}" height="{_CELL}" '
                  f'fill="%s"><title>x=')
        title_y = f' y={y:g} E=%.6g V/m</title></rect>\n<text x="'
        label_y = (f'" y="{cy + _CELL / 2 + 4:g}" '
                   f'font-family="monospace" font-size="10" text-anchor="middle" '
                   f'fill="%s">%.2g</text>\n')
        return "".join([rect_x + rect_y + title_x + title_y + label_x + label_y
                        for rect_x, title_x, label_x in columns])

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
        for i, fill in enumerate(_fills(1.0 - np.arange(steps) / (steps - 1)).split())
    ]
    bar_labels = tuple(
        f'<text x="{bar_x + _BAR_WIDTH + 6}" '
        f'y="{_MARGIN_TOP + (1 - frac) * plot_h + 4:.2f}" '
        f'font-family="monospace" font-size="11">'
        for frac in _BAR_FRACTIONS
    )

    # One line per part.  No fixed part holds a "%": they are numbers and
    # constant markup.
    tail = "\n".join([
        *axes[:-1],
        axes[-1] + "%s",
        *bar,
        *(label + "%s</text>" for label in bar_labels),
        "</svg>\n",
    ])
    return _blocks(head, (row(iy, y) for iy, y in enumerate(ys)), tail, n_x)


# The template builder of each format with grid-only text; ASCII needs none.
_TEMPLATES = {"csv": _csv_template, "json": _json_template, "svg": _svg_template}


def grid_text(grid, formats):
    """Format the grid-only parts of the heat-map artifacts of ``grid`` once.

    A run builds this once and shares it with every map it writes: the
    coordinates, the SVG cell geometry, the axis labels and the colour
    bar are the same for each scenario, so only the values and what they
    colour are formatted per map.  Only the templates of the ``formats``
    that have one are built.
    """
    xs = np.asarray(grid.x_values, dtype=float)
    ys = np.asarray(grid.y_values, dtype=float)
    return GridText(grid=grid, templates={name: build(xs, ys) for name, build in
                                          _TEMPLATES.items() if name in formats})


def heatmap_csv(template, values):
    """One block of a map's CSV: ``template`` filled with ``values``, its cells' values."""
    return template % tuple(values.tolist())


def csv_blocks(heatmap, text):
    """The ``x_m,y_m,e_vpm`` rows of ``heatmap`` in grid order, 9 significant
    digits, as one str per block of ``text``, the :func:`grid_text` of its grid."""
    blocks = text.blocks(heatmap, "csv")
    return (heatmap_csv(template, heatmap.values[start:stop])
            for start, stop, template in blocks)


def heatmap_json(template, values, trail=()):
    """One block of a map's JSON: ``template`` filled with ``values`` and then ``trail``."""
    return template % (*values.tolist(), *trail)


def json_blocks(heatmap, text):
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` of ``heatmap``,
    as one str per block of ``text``, the :func:`grid_text` of its grid.

    ``payload`` holds ``scenario``, the axes ``x_m`` / ``y_m`` and the
    values ``e_vpm`` as rows of constant y.
    """
    blocks = text.blocks(heatmap, "json")
    values = heatmap.values.astype(float, copy=False)
    # The last block's stop is the grid's last cell; the scenario follows it.
    scenario = (json.dumps(heatmap.scenario_id),)
    return (heatmap_json(template, values[start:stop], scenario if stop == values.size else ())
            for start, stop, template in blocks)


def _xml_text(s):
    """``s`` escaped as XML character data.

    The rule of ``xml.sax.saxutils.escape``, whose import loads
    ``urllib.request`` and about 2.5 MiB of modules with it.
    """
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _marker_text(grid, markers):
    """The open circles of the (x, y) ``markers`` that lie near ``grid``, each on
    a line of its own."""
    xs = np.asarray(grid.x_values, dtype=float)
    ys = np.asarray(grid.y_values, dtype=float)
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
    return "".join(circles)


def heatmap_svg(template, values, fills, labels, lead=(), trail=()):
    """One block of a map's SVG: ``template`` filled with ``lead``, then per
    cell its fill, value, label colour and value again, then ``trail``.

    ``values`` and ``labels`` are the block's slices of the map's values
    and label colours, ``fills`` its slice of the map's :func:`_fills` text.
    """
    values = values.tolist()
    first = len(lead)
    end = first + 4 * len(values)
    slots = [None] * (end + len(trail))
    slots[:first] = lead
    slots[first:end:4] = fills.split()
    slots[first + 1:end:4] = values
    slots[first + 2:end:4] = labels.tolist()
    slots[first + 3:end:4] = values
    slots[end:] = trail
    return template % tuple(slots)


def svg_blocks(heatmap, text, vmax=None, markers=()):
    """Render a heat map as an SVG colour grid, one str per block of ``text``.

    ``text`` is the :func:`grid_text` of the map's grid.  ``markers`` are
    (x, y) positions drawn as open circles (user locations).  ``vmax``
    pins the top of the colour scale; default is the map maximum.  The
    scale, the fills and the label colours of every cell are computed
    here, once; each block formats its slice of them.
    """
    blocks = text.blocks(heatmap, "svg")
    top = scale_top(heatmap, vmax)
    scaled = np.minimum(heatmap.values, top) / top  # clamped first, as in _levels
    fills = _fills(scaled)
    labels = _LABEL_COLOURS[(scaled > 0.6).view(np.int8)]
    lead = (_xml_text(heatmap.scenario_id), f"{top:.3g}")
    trail = (_marker_text(heatmap.grid, markers),
             *(f"{frac * top:.3g}" for frac in _BAR_FRACTIONS))
    return (heatmap_svg(template, heatmap.values[start:stop], fills[8 * start:8 * stop],
                        labels[start:stop], lead if start == 0 else (),
                        trail if stop == labels.size else ())
            for start, stop, template in blocks)


def heatmap_ascii(ys, cells, head="", tail=""):
    """One block of a map's ASCII preview: ``head``, a line per grid row
    labelled with its ``ys``, then ``tail``; ``cells`` holds the rows' level
    characters, the same number per row."""
    width = len(cells) // len(ys)
    return head + "".join([f"y={y:>4g} |{cells[i * width:(i + 1) * width]}|\n"
                           for i, y in enumerate(ys)]) + tail


def ascii_blocks(heatmap, vmax=None):
    """10-level character rendering, far rows on top, array side at the bottom,
    one str per block of grid rows.

    The level of every cell is computed here, once, as one string of two
    characters per cell; each block formats its rows of it.
    """
    xs = heatmap.grid.x_values
    ys = heatmap.grid.y_values[::-1]
    top = scale_top(heatmap, vmax)
    levels = _ASCII_CODES[_levels(heatmap.as_grid_rows()[::-1], top)]
    cells = np.repeat(levels, 2, axis=1).tobytes().decode("ascii")
    head = (f"scenario {heatmap.scenario_id}: RMS E-field, "
            f"'{_ASCII_LEVELS[0]}'=0 to '{_ASCII_LEVELS[-1]}'={top:.3g} V/m\n")
    tail = f"        x: {xs[0]:g} to {xs[-1]:g} step {heatmap.grid.spacing:g} m\n"
    width = 2 * len(xs)
    height = max(1, _BLOCK_CHARS // width)
    return (heatmap_ascii(ys[start:start + height],
                          cells[start * width:(start + height) * width],
                          head if start == 0 else "",
                          tail if start + height >= len(ys) else "")
            for start in range(0, len(ys), height))
