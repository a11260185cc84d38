"""Heat-map text against references: the vectorised colour and ASCII-level
rules against scalar ones, and the joined blocks of the per-grid CSV, JSON
and SVG text and of the table-driven ASCII text, as a run writes them,
against the per-map formatters of ``heatmap_reference``."""

import tracemalloc
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatmap_reference as ref
from beamfield import GridSection, HeatMap, build_grid, render
from beamfield.render import (
    _ASCII_LEVELS,
    _RAMP,
    _fills,
    _levels,
    ascii_blocks,
    csv_blocks,
    grid_text,
    json_blocks,
    svg_blocks,
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
    fills = _fills(t)
    assert len(fills) == 8 * len(t)
    assert fills.split() == [scalar_fill(v) for v in t.tolist()]
    assert _fills(anchors).split() == [f"#{r:02x}{g:02x}{b:02x}" for r, g, b in _RAMP]


def test_fills_keep_row_major_order():
    t = np.random.default_rng(13).uniform(0, 1, (7, 9))
    assert _fills(t).split() == [scalar_fill(v) for v in t.ravel().tolist()]


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
    svg = joined(svg_blocks(heatmap, grid_text(grid, ("svg",)), vmax=top))
    for value in values:
        assert f'fill="{scalar_fill(value / top)}"><title>' in svg
    lines = joined(ascii_blocks(heatmap, vmax=top)).splitlines()[1:-1]
    rows = heatmap.as_grid_rows()[::-1]
    for line, row in zip(lines, rows):
        cells = line.split("|")[1]
        assert cells == "".join(_ASCII_LEVELS[scalar_level(v, top)] * 2 for v in row)


# 1 x 1, 1 x n, n x 1, the 56-point campaign grid and the 4331-point 0.1 m grid;
# one column of 513 rows and one row of 601 columns, a row longer than a block.
GRIDS = {
    "1x1": dict(x_min=0.0, x_max=0.0, y_min=2.0, y_max=2.0),
    "1xn": dict(x_min=0.0, x_max=0.0, y_min=1.0, y_max=8.0),
    "nx1": dict(x_min=-3.0, x_max=3.0, y_min=4.0, y_max=4.0),
    "56": dict(),
    "4331": dict(spacing=0.1),
    "1x513": dict(x_min=0.0, x_max=0.0, y_min=1.0, y_max=9.0, spacing=1 / 64),
    "601x1": dict(x_min=-3.0, x_max=3.0, y_min=4.0, y_max=4.0, spacing=0.01),
}
# The grids whose SVG spans several blocks at the default block size.
SPLIT = {"4331", "1x513"}

# Exact extremes, and binary-exact ties at the rounding digit of .2g, .6g and .9g.
SPECIAL = [0.0, 5e-324, 1e-300, 1e300, 0.125, 0.375, 1.25, 2.5, 12.5, 0.5,
           100000.5, 100001.5, 1000005.0, 1000015.0, 100000000.5, 100000001.5, 1.5,
           99.5]


def joined(blocks):
    """The text a run writes: its blocks, each a non-empty str, joined."""
    blocks = list(blocks)
    assert blocks and all(isinstance(b, str) and b for b in blocks)
    return "".join(blocks)


def assert_texts_match(heatmap, vmax=None, markers=()):
    text = grid_text(heatmap.grid, ("csv", "json", "svg"))
    assert joined(csv_blocks(heatmap, text)) == ref.heatmap_csv(heatmap)
    assert joined(json_blocks(heatmap, text)) == ref.heatmap_json(heatmap)
    assert (joined(svg_blocks(heatmap, text, vmax=vmax, markers=markers))
            == ref.heatmap_svg(heatmap, vmax=vmax, markers=markers))
    assert joined(ascii_blocks(heatmap, vmax=vmax)) == ref.heatmap_ascii(heatmap, vmax=vmax)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_text_matches_the_per_map_formatters(name, monkeypatch):
    grid = build_grid(GridSection(**GRIDS[name]))
    rng = np.random.default_rng(16)
    n = grid.n_points
    special = np.resize(SPECIAL, n)
    # At the default block size, and at one character per block, where
    # every grid row is a block of its own.
    for block_chars in (render._BLOCK_CHARS, 1):
        monkeypatch.setattr(render, "_BLOCK_CHARS", block_chars)
        text = grid_text(grid, ("csv", "json", "svg"))
        assert sorted(text.templates) == ["csv", "json", "svg"]
        for blocks in text.templates.values():
            # The blocks cover the grid's cells once, in order, in whole rows.
            bounds = [0] + [stop for _, stop, _ in blocks]
            assert [(start, stop) for start, stop, _ in blocks] == list(zip(bounds, bounds[1:]))
            assert bounds[-1] == n
            assert all((stop - start) % len(grid.x_values) == 0 for start, stop, _ in blocks)
        if block_chars == 1:
            assert [len(b) for b in text.templates.values()] == [len(grid.y_values)] * 3
        elif name in SPLIT:
            assert len(text.templates["svg"]) > 1
        for values in (rng.uniform(0, 5, n), rng.exponential(1e-3, n), special,
                       np.zeros(n), np.arange(n)):
            heatmap = HeatMap(grid=grid, values=values, scenario_id="7")
            assert_texts_match(heatmap)
            assert_texts_match(heatmap, vmax=2.5,
                               markers=[(0.0, 2.0), (1.0, 5.0), (40.0, 1.0)])


@pytest.mark.parametrize("scenario_id", ['a"b', "back\\slash", "\u00e9t\u00e9", "\u96ea", "average",
                                         '"\\\u00e9\n', "a<b&c>"])
def test_scenario_ids_are_encoded_like_the_reference(scenario_id):
    grid = build_grid()
    values = np.random.default_rng(17).uniform(0, 5, grid.n_points)
    assert_texts_match(HeatMap(grid=grid, values=values, scenario_id=scenario_id))


def test_every_special_value_on_one_grid():
    grid = build_grid(GridSection(x_min=0.0, x_max=5.0, y_min=1.0, y_max=3.0))
    assert grid.n_points == len(SPECIAL)
    heatmap = HeatMap(grid=grid, values=np.array(SPECIAL), scenario_id="s")
    assert_texts_match(heatmap)
    assert_texts_match(heatmap, vmax=1.0)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(min_value=0.0, max_value=1e300, allow_nan=False,
                                 allow_infinity=False), min_size=12, max_size=12),
       scenario_id=st.text(max_size=8),
       vmax=st.none() | st.floats(min_value=1e-3, max_value=1e300))
def test_drawn_values_match_the_reference(values, scenario_id, vmax):
    grid = build_grid(GridSection(x_min=-1.0, x_max=1.0, y_min=1.0, y_max=4.0))
    heatmap = HeatMap(grid=grid, values=np.array(values), scenario_id=scenario_id)
    assert_texts_match(heatmap, vmax=vmax, markers=[(0.0, 2.0)])


def test_grid_text_rejects_a_map_of_another_grid():
    text = grid_text(build_grid(), ("csv", "json", "svg"))
    heatmap = HeatMap(grid=build_grid(GridSection(y_max=7.0)), values=np.ones(49), scenario_id="1")
    for blocks in (csv_blocks, json_blocks, svg_blocks):
        with pytest.raises(ValueError, match="different grids"):
            blocks(heatmap, text)


def test_a_format_whose_template_was_not_built_is_rejected():
    grid = build_grid()
    heatmap = HeatMap(grid=grid, values=np.ones(grid.n_points), scenario_id="1")
    text = grid_text(grid, ("ascii", "csv"))
    assert list(text.templates) == ["csv"]
    assert joined(csv_blocks(heatmap, text)) == ref.heatmap_csv(heatmap)
    for blocks, name in ((json_blocks, "json"), (svg_blocks, "svg")):
        with pytest.raises(ValueError, match=f"without the {name} template"):
            blocks(heatmap, text)


def _grid_text_peak(grid, formats):
    tracemalloc.start()
    try:
        grid_text(grid, formats)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_csv_only_grid_text_does_not_build_the_svg_template():
    # The 0.05 m grid, 17 061 points: its SVG template alone is about 3.6 MB,
    # its CSV template 0.24 MB.
    grid = build_grid(GridSection(spacing=0.05))
    assert grid.n_points == 17_061
    every = _grid_text_peak(grid, ("ascii", "csv", "json", "svg"))
    assert _grid_text_peak(grid, ("csv",)) < every / 4


def test_svg_escapes_the_scenario_id():
    grid = build_grid()
    heatmap = HeatMap(grid=grid, values=np.ones(grid.n_points), scenario_id="a<b&c")
    svg = joined(svg_blocks(heatmap, grid_text(grid, ("svg",)), markers=[(0.0, 2.0)]))
    title = minidom.parseString(svg).getElementsByTagName("text")[0]
    assert title.firstChild.data.startswith("scenario a<b&c \u2014 RMS E-field")


@pytest.mark.parametrize("vmax", [0.0, -1.0, float("nan"), float("inf")])
def test_a_pinned_scale_top_must_be_positive_and_finite(vmax):
    grid = build_grid()
    heatmap = HeatMap(grid=grid, values=np.ones(grid.n_points), scenario_id="1")
    with pytest.raises(ValueError, match="vmax must be positive and finite"):
        svg_blocks(heatmap, grid_text(grid, ("svg",)), vmax=vmax)
    with pytest.raises(ValueError, match="vmax must be positive and finite"):
        ascii_blocks(heatmap, vmax=vmax)

