"""The vectorised heat-map colour and ASCII-level rules against scalar references."""

import numpy as np

from beamfield import HeatMap, build_grid
from beamfield.render import (
    _ASCII_LEVELS,
    _RAMP,
    _fills,
    _levels,
    heatmap_ascii,
    heatmap_svg,
)


def scalar_fill(t):
    """Reference: clamp, then interpolate each channel and round it on its own."""
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(_RAMP) - 1)
    i = min(int(pos), len(_RAMP) - 2)
    frac = pos - i
    r, g, b = (
        round(_RAMP[i][c] + frac * (_RAMP[i + 1][c] - _RAMP[i][c])) for c in range(3)
    )
    return f"#{r:02x}{g:02x}{b:02x}"


def scalar_level(value, top):
    return min(int(value / top * len(_ASCII_LEVELS)), len(_ASCII_LEVELS) - 1)


def test_fills_match_the_scalar_rule():
    rng = np.random.default_rng(12)
    anchors = np.arange(len(_RAMP)) / (len(_RAMP) - 1)
    # Midpoints and quarter points make channel values land on .5 ties.
    ties = np.arange(0, 41) / 40
    clamps = np.array([-np.inf, -1e300, -1.0, -1e-12, -0.0,
                       1.0 + 1e-12, 2.0, 1e300, np.inf])
    bar = 1.0 - np.arange(40) / 39
    t = np.concatenate([rng.uniform(-0.1, 1.1, 100_000), np.linspace(0, 1, 10_001),
                        anchors, ties, clamps, bar])
    assert _fills(t) == [scalar_fill(v) for v in t.tolist()]
    assert _fills(anchors) == [f"#{r:02x}{g:02x}{b:02x}" for r, g, b in _RAMP]


def test_fills_keep_row_major_order():
    t = np.random.default_rng(13).uniform(0, 1, (7, 9))
    assert _fills(t) == [scalar_fill(v) for v in t.ravel().tolist()]


def test_levels_match_the_scalar_rule():
    rng = np.random.default_rng(14)
    for top in (1.0, 0.37, 12.5, 3e-7):
        edges = np.arange(0, 12) / len(_ASCII_LEVELS) * top
        values = np.concatenate([rng.uniform(0, 1.2 * top, 100_000), edges,
                                 np.nextafter(edges, 0), [0.0, top, 2 * top]])
        got = _levels(values, top).tolist()
        assert got == [scalar_level(v, top) for v in values.tolist()]


def test_renderings_use_the_cell_rules():
    grid = build_grid()
    values = np.random.default_rng(15).uniform(0, 5, grid.n_points)
    heatmap = HeatMap(grid=grid, values=values, scenario_id="r")
    top = 4.0
    svg = heatmap_svg(heatmap, vmax=top)
    for value in values:
        assert f'fill="{scalar_fill(value / top)}"><title>' in svg
    lines = heatmap_ascii(heatmap, vmax=top).splitlines()[1:-1]
    rows = heatmap.as_grid_rows()[::-1]
    for line, row in zip(lines, rows):
        cells = line.split("|")[1]
        assert cells == "".join(_ASCII_LEVELS[scalar_level(v, top)] * 2 for v in row)
