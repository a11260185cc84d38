"""Heat-map text against references: the vectorised colour and ASCII-level
rules against scalar ones, and the joined blocks of the per-grid CSV, JSON
and SVG text and of the table-driven ASCII text, written block-major over
several maps as a run writes them, against the per-map formatters of
``heatmap_reference``."""

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
    (svg,) = texts(svg_blocks([heatmap], vmax=top))
    for value in values:
        assert f'fill="{scalar_fill(value / top)}"><title>' in svg
    (preview,) = texts(ascii_blocks([heatmap], vmax=top))
    lines = preview.splitlines()[1:-1]
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


def texts(blocks):
    """The text a run writes per map: the map's blocks, each a non-empty str,
    joined in order.  The blocks come block-major: each block of the grid
    goes to every map, in map order, before the next."""
    by_map, order = {}, []
    for i, block in blocks:
        assert isinstance(block, str) and block
        by_map.setdefault(i, []).append(block)
        order.append(i)
    n = len(by_map)
    assert n and order == list(range(n)) * (len(order) // n)
    return ["".join(by_map[i]) for i in range(n)]


def assert_texts_match(maps, vmax=None, markers=None):
    marks = markers or [()] * len(maps)
    assert texts(csv_blocks(maps)) == [ref.heatmap_csv(m) for m in maps]
    assert texts(json_blocks(maps)) == [ref.heatmap_json(m) for m in maps]
    assert (texts(svg_blocks(maps, vmax=vmax, markers=markers))
            == [ref.heatmap_svg(m, vmax=vmax, markers=k) for m, k in zip(maps, marks)])
    assert texts(ascii_blocks(maps, vmax=vmax)) == [ref.heatmap_ascii(m, vmax=vmax) for m in maps]


TEMPLATES = (render._csv_template, render._json_template, render._svg_template)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_text_matches_the_per_map_formatters(name, monkeypatch):
    grid = build_grid(GridSection(**GRIDS[name]))
    rng = np.random.default_rng(16)
    n = grid.n_points
    special = np.resize(SPECIAL, n)
    # Five maps written together, each on its own scale and with its own
    # markers, so every block is filled for several maps in turn.
    maps = [HeatMap(grid=grid, values=values, scenario_id=str(k)) for k, values in enumerate(
        (rng.uniform(0, 5, n), rng.exponential(1e-3, n), special, np.zeros(n), np.arange(n)))]
    markers = [[(0.0, 2.0), (1.0, 5.0), (40.0, 1.0)], [], [(0.0, 2.0)], [], [(1.0, 5.0)]]
    # At the default block size, and at one character per block, where
    # every grid row is a block of its own.
    for block_chars in (render._BLOCK_CHARS, 1):
        monkeypatch.setattr(render, "_BLOCK_CHARS", block_chars)
        for make in TEMPLATES:
            blocks = list(make(*render._axes(grid)))
            # The blocks cover the grid's cells once, in order, in whole rows.
            bounds = [0] + [stop for _, stop, _ in blocks]
            assert [(start, stop) for start, stop, _ in blocks] == list(zip(bounds, bounds[1:]))
            assert bounds[-1] == n
            assert all((stop - start) % len(grid.x_values) == 0 for start, stop, _ in blocks)
            if block_chars == 1:
                assert len(blocks) == len(grid.y_values)
            elif name in SPLIT and make is render._svg_template:
                assert len(blocks) > 1
        assert_texts_match(maps)
        assert_texts_match(maps, vmax=2.5, markers=markers)


@pytest.mark.parametrize("scenario_id", ['a"b', "back\\slash", "\u00e9t\u00e9", "\u96ea", "average",
                                         '"\\\u00e9\n', "a<b&c>"])
def test_scenario_ids_are_encoded_like_the_reference(scenario_id):
    grid = build_grid()
    values = np.random.default_rng(17).uniform(0, 5, grid.n_points)
    assert_texts_match([HeatMap(grid=grid, values=values, scenario_id=scenario_id)])


def test_every_special_value_on_one_grid():
    grid = build_grid(GridSection(x_min=0.0, x_max=5.0, y_min=1.0, y_max=3.0))
    assert grid.n_points == len(SPECIAL)
    heatmap = HeatMap(grid=grid, values=np.array(SPECIAL), scenario_id="s")
    assert_texts_match([heatmap])
    assert_texts_match([heatmap], vmax=1.0)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(min_value=0.0, max_value=1e300, allow_nan=False,
                                 allow_infinity=False), min_size=12, max_size=12),
       scenario_id=st.text(max_size=8),
       vmax=st.none() | st.floats(min_value=1e-3, max_value=1e300))
def test_drawn_values_match_the_reference(values, scenario_id, vmax):
    grid = build_grid(GridSection(x_min=-1.0, x_max=1.0, y_min=1.0, y_max=4.0))
    heatmap = HeatMap(grid=grid, values=np.array(values), scenario_id=scenario_id)
    assert_texts_match([heatmap], vmax=vmax, markers=[[(0.0, 2.0)]])


def test_grid_text_rejects_a_map_of_another_grid():
    grid = build_grid()
    maps = [HeatMap(grid=grid, values=np.ones(grid.n_points), scenario_id="1"),
            HeatMap(grid=build_grid(GridSection(y_max=7.0)), values=np.ones(49), scenario_id="2")]
    for blocks in (csv_blocks, json_blocks, svg_blocks, ascii_blocks):
        with pytest.raises(ValueError, match="different grids"):
            next(blocks(maps))


def test_a_csv_only_grid_text_does_not_build_the_svg_template(monkeypatch):
    # The 0.05 m grid, 17 061 points: its SVG text is about 3.6 MB a map,
    # its CSV text 0.24 MB.  The CSV blocks make only the CSV template.
    grid = build_grid(GridSection(spacing=0.05))
    assert grid.n_points == 17_061
    values = np.random.default_rng(19).uniform(0, 5, grid.n_points)
    heatmap = HeatMap(grid=grid, values=values, scenario_id="1")

    def refused(xs, ys):
        raise AssertionError("a template the CSV does not use was built")

    for name in ("_json_template", "_svg_template"):
        monkeypatch.setattr(render, name, refused)
    assert texts(csv_blocks([heatmap])) == [ref.heatmap_csv(heatmap)]


def test_svg_escapes_the_scenario_id():
    grid = build_grid()
    heatmap = HeatMap(grid=grid, values=np.ones(grid.n_points), scenario_id="a<b&c")
    (svg,) = texts(svg_blocks([heatmap], markers=[[(0.0, 2.0)]]))
    title = minidom.parseString(svg).getElementsByTagName("text")[0]
    assert title.firstChild.data.startswith("scenario a<b&c \u2014 RMS E-field")


@pytest.mark.parametrize("vmax", [0.0, -1.0, float("nan"), float("inf")])
def test_a_pinned_scale_top_must_be_positive_and_finite(vmax):
    grid = build_grid()
    heatmap = HeatMap(grid=grid, values=np.ones(grid.n_points), scenario_id="1")
    for blocks in (svg_blocks, ascii_blocks):
        with pytest.raises(ValueError, match="vmax must be positive and finite"):
            next(blocks([heatmap], vmax=vmax))


# ProbeGrid.spacing: the x step, the y step of a one-column grid, 1 m on a single point.
@pytest.mark.parametrize("keys, step", [
    (dict(spacing=0.5), "0.5"),
    (dict(x_min=0.0, x_max=0.0, spacing=0.25), "0.25"),
    (dict(x_min=0.0, x_max=0.0, y_min=2.0, y_max=2.0, spacing=0.5), "1"),
], ids=["lattice", "one-column", "single-point"])
def test_the_ascii_footer_steps_by_the_grid_spacing(keys, step):
    grid = build_grid(GridSection(**keys))
    heatmap = HeatMap(grid=grid, values=np.ones(grid.n_points), scenario_id="1")
    footer = texts(ascii_blocks([heatmap]))[0].splitlines()[-1]
    assert footer.endswith(f" step {step} m")
