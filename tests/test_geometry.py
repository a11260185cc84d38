import tracemalloc

import numpy as np
import pytest

from beamfield import (
    ArraySection,
    ChannelModelConfig,
    GridSection,
    Room,
    Scenario,
    build_array,
    build_grid,
)
from beamfield.geometry import ProbeGrid, far_field_distance, ue_antenna_positions, wavelength


class TestBuildArray:
    def test_default_counts(self, array):
        assert len(array.element_positions) == 128
        assert array.n_active == 64

    def test_single_element_at_origin(self):
        a = build_array(ArraySection(rows=1, cols=1, spacing=0.057, center=(0, 0, 0),
                                     active="all"))
        assert len(a.element_positions) == 1
        assert np.allclose(a.element_positions[0], (0, 0, 0))

    def test_2x2_neighbor_distances(self):
        d = 0.03
        a = build_array(ArraySection(rows=2, cols=2, spacing=d, center=(0, 0, 0),
                                     active="all"))
        p = np.asarray(a.element_positions)
        # row-major: (0,0),(0,1),(1,0),(1,1); neighbours along x and z.
        assert np.linalg.norm(p[0] - p[1]) == pytest.approx(d)
        assert np.linalg.norm(p[0] - p[2]) == pytest.approx(d)
        assert np.linalg.norm(p[1] - p[3]) == pytest.approx(d)

    def test_elements_in_xz_plane(self, array):
        assert np.all(np.asarray(array.element_positions)[:, 1] == 0.0)

    def test_central_subarray_is_centred(self, array):
        active = np.asarray(array.active_positions())
        assert abs(active[:, 0].mean()) < 1e-12
        assert active[:, 2].mean() == pytest.approx(1.5)

    @pytest.mark.parametrize("rows, cols, spacing, center", [
        (16, 8, 0.057, (0.0, 0.0, 1.5)),
        (3, 5, 0.13, (1, -2, 3)),
    ])
    def test_positions_equal_loop_reference(self, rows, cols, spacing, center):
        positions = build_array(ArraySection(rows, cols, spacing, center,
                                             active="all")).element_positions
        pos = np.asarray(positions)
        xs = (np.arange(cols) - (cols - 1) / 2.0) * spacing + center[0]
        zs = (np.arange(rows) - (rows - 1) / 2.0) * spacing + center[2]
        expect = np.empty((rows * cols, 3))
        for r in range(rows):
            for c in range(cols):
                expect[r * cols + c] = (xs[c], center[1], zs[r])
        assert pos.tobytes() == expect.tobytes()
        assert isinstance(positions, tuple) and all(type(p) is tuple for p in positions)

    def test_central_policy_needs_8x8(self):
        with pytest.raises(ValueError, match="central-8x8"):
            build_array(ArraySection(rows=2, cols=2, spacing=0.05, center=(0, 0, 0),
                                     active="central-8x8"))

    def test_unknown_selection_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown active policy 'corner'"):
            build_array(ArraySection(rows=2, cols=2, spacing=0.05, center=(0, 0, 0),
                                     active="corner"))

    def test_aperture_matches_active_extent(self, array):
        # central 8x8 at 0.057 m pitch: diagonal of a 7-gap square.
        expect = np.sqrt(2) * 7 * 0.057
        assert array.aperture() == pytest.approx(expect, rel=1e-12)

    def test_blocked_aperture_equals_the_full_pairwise_form(self):
        # 425 active elements: blocks of 154 rows split them three ways.
        a = build_array(ArraySection(rows=25, cols=17, spacing=0.031, center=(0.2, 0.0, 1.5),
                                     active="all"))
        pos = np.asarray(a.active_positions())
        full = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)).max()
        assert a.aperture() == float(full)

    def test_aperture_of_a_large_array_stays_small_in_memory(self):
        # All pairwise differences of 4096 elements at once take 384 MiB.
        a = build_array(ArraySection(rows=64, cols=64, spacing=0.02, active="all"))
        tracemalloc.start()
        try:
            aperture = a.aperture()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert aperture == pytest.approx(np.sqrt(2) * 63 * 0.02, rel=1e-12)
        assert peak < 8 << 20


class TestStandardScenarios:
    def test_eight_scenarios(self, scenarios):
        assert [s.id for s in scenarios] == [str(i) for i in range(1, 9)]

    def test_scenario_1_single_user(self, scenarios):
        assert scenarios[0].ue_positions == ((0.0, 8.0),)

    def test_scenario_8_three_users(self, scenarios):
        assert scenarios[7].ue_positions == ((0.0, 8.0), (-3.0, 4.0), (3.0, 2.0))

    def test_all_coordinates(self, scenarios):
        expected = [
            ((0, 8),), ((-3, 4),), ((3, 2),),
            ((-3, 4), (3, 2)), ((0, 8), (0, 4)), ((0, 8), (-3, 4)),
            ((0, 8), (3, 2)), ((0, 8), (-3, 4), (3, 2)),
        ]
        got = [s.ue_positions for s in scenarios]
        assert got == [tuple((float(x), float(y)) for x, y in e) for e in expected]

    def test_four_antennas_each(self, scenarios):
        assert all(s.antennas_per_ue == 4 for s in scenarios)

    def test_positions_inside_room(self, scenarios, room):
        for s in scenarios:
            for x, y in s.ue_positions:
                assert room.contains((x, y, 1.5))

    def test_scenario_rejects_too_many_users(self):
        with pytest.raises(ValueError, match="between 1 and 8"):
            Scenario(id="x", ue_positions=tuple((0.0, float(i + 1)) for i in range(9)))

    @pytest.mark.parametrize("antennas", [0, 65, 10**9])
    def test_scenario_antenna_count_bounded(self, antennas):
        with pytest.raises(ValueError, match="antennas_per_ue"):
            Scenario(id="x", ue_positions=((0.0, 4.0),), antennas_per_ue=antennas)


class TestBuildGrid:
    def test_default_56_points(self, grid):
        assert grid.n_points == 56
        assert len(grid.x_values) == 7
        assert len(grid.y_values) == 8

    def test_x_values(self, grid):
        assert np.allclose(grid.x_values, [-3, -2, -1, 0, 1, 2, 3])

    def test_single_point(self):
        g = build_grid(GridSection(0, 0, 0, 0, 1.0, 1.5))
        assert g.n_points == 1
        assert np.allclose(g.points[0], (0, 0, 1.5))

    def test_row_major_y_then_x(self, grid):
        pts = grid.points
        # y ascending as the outer key, x ascending within each row.
        assert np.all(np.diff(pts[:, 1]) >= 0)
        first_row = pts[pts[:, 1] == 1.0]
        assert np.array_equal(first_row[:, 0], np.sort(first_row[:, 0]))
        assert np.allclose(pts[0][:2], (-3, 1))
        assert np.allclose(pts[-1][:2], (3, 8))

    @pytest.mark.parametrize("args", [
        (-3.0, 3.0, 1.0, 8.0, 1.0, 1.5),
        (-3.0, 3.0, 1.0, 8.0, 0.1, 1.5),
        (-1.3, 2.71, 0.2, 3.3, 0.37, 2),
    ])
    def test_points_equal_loop_reference(self, args):
        g = build_grid(GridSection(*args))
        expect = np.empty((g.n_points, 3))
        k = 0
        for y in g.y_values:
            for x in g.x_values:
                expect[k] = (x, y, args[5])
                k += 1
        assert g.points.tobytes() == expect.tobytes()

    def test_outside_room_rejected(self, room):
        with pytest.raises(ValueError, match="outside the room"):
            build_grid(GridSection(-5, 5, 1, 8, 1.0, 1.5), room=room)

    def test_no_point_on_array_element(self, grid, array):
        diff = grid.points[:, None, :] - np.asarray(array.element_positions)[None, :, :]
        assert not np.any(np.all(diff == 0.0, axis=2))

    @pytest.mark.parametrize("axes", [{}, {"x_values": np.zeros(1)}, {"y_values": np.zeros(1)}])
    def test_axes_are_required(self, axes):
        with pytest.raises(TypeError, match="_values"):
            ProbeGrid(probe_height=1.5, **axes)

    def test_rows_are_a_sub_grid(self, grid):
        block = grid.rows(2, 5)
        assert block.points.tobytes() == grid.points[14:35].tobytes()
        assert list(block.y_values) == [3.0, 4.0, 5.0]
        assert block.x_values is grid.x_values
        assert (block.spacing, block.probe_height) == (grid.spacing, grid.probe_height)

    def test_equality_compares_axes_and_height(self, grid):
        assert grid == build_grid()
        assert grid != build_grid(GridSection(height=1.2))
        ys = grid.y_values[:-1] + (8.5,)
        assert grid != ProbeGrid(grid.x_values, ys, grid.probe_height)

    @pytest.mark.parametrize("args, step", [
        ((-3.0, 3.0, 1.0, 8.0, 0.5), 0.5),
        ((0.0, 0.0, 1.0, 8.0, 0.25), 0.25),  # one column: the y step
        ((0.0, 0.0, 2.0, 2.0, 0.25), 1.0),  # one point: 1 m
    ])
    def test_spacing_follows_the_axes(self, args, step):
        assert build_grid(GridSection(*args)).spacing == step


class TestRoom:
    def test_reflection_range_checked(self):
        with pytest.raises(ValueError, match="outside"):
            Room(wall_reflection=0.5)

    def test_per_wall_coefficients(self):
        r = Room(wall_reflection=(-0.1, -0.2, -0.3, -0.4))
        assert r.wall_reflections() == (-0.1, -0.2, -0.3, -0.4)

    def test_contains(self, room):
        assert room.contains((0, 0, 1.5))
        assert room.contains((3.75, 15, 3))
        assert not room.contains((3.76, 1, 1))
        assert not room.contains((0, -0.1, 1))

    def test_boundary_slack_is_a_nanometre(self, room):
        assert room.contains((3.75 + 5e-10, -5e-10, 3 + 5e-10))
        assert not room.contains((3.75 + 2e-9, 1, 1))
        assert room.contains((-3.75 - 5e-10, 15 + 5e-10, -5e-10))
        assert not room.contains((0, -2e-9, 1))

    def test_grid_height_has_the_same_slack(self, room):
        assert build_grid(GridSection(0, 0, 1, 1, 1.0, 3 + 5e-10), room=room).n_points == 1
        # The rejected height prints with the digits that set it apart from the bound.
        with pytest.raises(ValueError, match=r"grid corner at \(0, 1, 3\.000000002\) lies "
                                             r"outside the room \(\|x\| <= 3\.75, 0 <= y <= 15, "
                                             r"0 <= z <= 3\)"):
            build_grid(GridSection(0, 0, 1, 1, 1.0, 3 + 2e-9), room=room)

    def test_contains_flags_each_row(self, room):
        pts = [(0, 0, 1.5), (3.76, 1, 1), (3.75, 15, 3), (0, 1, 3.1)]
        assert [room.contains(p) for p in pts] == [True, False, True, False]


class TestHelpers:
    def test_wavelength_at_carrier(self):
        assert wavelength(2.63e9) == pytest.approx(0.11399, abs=5e-6)

    def test_ue_antenna_cluster(self):
        s = Scenario(id="t", ue_positions=((1.0, 5.0),))
        pos = np.asarray(
            ue_antenna_positions(s, ChannelModelConfig(carrier_frequency=2.63e9, ue_height=1.5)))
        assert pos.shape == (4, 3)
        lam = wavelength(2.63e9)
        assert np.allclose(np.diff(pos[:, 0]), lam / 2)
        assert np.allclose(pos[:, 0].mean(), 1.0)
        assert np.all(pos[:, 1] == 5.0)
        assert np.all(pos[:, 2] == 1.5)

    def test_ue_antennas_equal_loop_reference(self):
        s = Scenario(id="t", ue_positions=((1, 5), (-0.3, 2.7), (3.0, 4.1)), antennas_per_ue=7)
        pos = np.asarray(
            ue_antenna_positions(s, ChannelModelConfig(carrier_frequency=3.5e9, ue_height=2)))
        offsets = (np.arange(7) - 3.0) * (wavelength(3.5e9) / 2.0)
        expect = np.empty((21, 3))
        for k, (ux, uy) in enumerate(s.ue_positions):
            for i in range(7):
                expect[k * 7 + i] = (ux + offsets[i], uy, 2)
        assert pos.tobytes() == expect.tobytes()

    def test_far_field_distance(self):
        assert far_field_distance(0.456, 0.114) == pytest.approx(2 * 0.456**2 / 0.114)
