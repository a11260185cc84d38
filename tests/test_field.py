import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from beamfield import (
    ChannelModelConfig,
    HeatMap,
    PrecodingMatrix,
    ProbeGrid,
    Room,
    Scenario,
    compute_heatmap,
    far_field_distance,
    probe_gains,
    standard_scenarios,
    wavelength,
)
from beamfield.field import _row_blocks
from beamfield.geometry import ArraySection, GridSection, build_array, build_grid

from conftest import LOS_PERFECT_CSI, perfect_link
from field_oracle import (
    FREE_SPACE_IMPEDANCE,
    element_field,
    field_to_power,
    power_to_field,
    superpose_fields,
)

FREQ = 2.63e9


class TestElementField:
    def test_one_watt_one_metre(self):
        e = element_field((0, 0, 0), 1.0, (0, 1, 0), FREQ)
        assert abs(e) == pytest.approx(math.sqrt(30.0), rel=1e-9)

    def test_zero_weight(self):
        assert element_field((0, 0, 0), 0.0, (0, 1, 0), FREQ) == 0.0

    def test_inverse_distance(self):
        e1 = element_field((0, 0, 0), 1.0, (0, 2, 0), FREQ)
        e2 = element_field((0, 0, 0), 1.0, (0, 4, 0), FREQ)
        assert abs(e2) == pytest.approx(abs(e1) / 2, rel=1e-12)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError, match="coincides"):
            element_field((0, 1, 1), 1.0, (0, 1, 1), FREQ)

    def test_image_mode_zero_coefficients_match_los(self):
        room0 = Room(wall_reflection=0.0, floor_reflection=0.0,
                     ceiling_reflection=0.0)
        los = element_field((0, 0, 1.5), 1.0, (1, 4, 1.5), FREQ)
        img = element_field((0, 0, 1.5), 1.0, (1, 4, 1.5), FREQ,
                            room=room0, mode="image-order-1")
        assert img == los

    def test_image_mode_adds_reflections(self, room):
        los = element_field((0, 0, 1.5), 1.0, (1, 4, 1.5), FREQ)
        img = element_field((0, 0, 1.5), 1.0, (1, 4, 1.5), FREQ,
                            room=room, mode="image-order-1")
        assert img != los


class TestSuperposeFields:
    def test_single_element_single_stream(self, room):
        arr = build_array(ArraySection(rows=1, cols=1, spacing=0.05, center=(0, 0, 1.5),
                                       active="all"))
        w = PrecodingMatrix(w=np.array([[1.0 + 0j]]))
        cfg = LOS_PERFECT_CSI
        probe = (0.0, 3.0, 1.5)
        got = superpose_fields(arr, w, probe, room, cfg)
        want = abs(element_field(arr.element_positions[0], 1.0, probe, FREQ))
        assert got == pytest.approx(want, rel=1e-12)

    def test_two_equal_streams_add_in_power(self, room):
        arr = build_array(ArraySection(rows=1, cols=1, spacing=0.05, center=(0, 0, 1.5),
                                       active="all"))
        w = PrecodingMatrix(w=np.array([[1.0 + 0j, 1.0 + 0j]]))
        single = PrecodingMatrix(w=np.array([[1.0 + 0j]]))
        cfg = LOS_PERFECT_CSI
        probe = (0.0, 3.0, 1.5)
        e1 = superpose_fields(arr, single, probe, room, cfg)
        e2 = superpose_fields(arr, w, probe, room, cfg)
        assert e2 == pytest.approx(e1 * math.sqrt(2), rel=1e-12)

    def test_boresight_array_gain(self):
        # 64 phased elements at equal total power: field gain ~ sqrt(64)
        # over one element, within 5% at a far on-beam point.
        arr = build_array(ArraySection(rows=8, cols=8, spacing=0.057, center=(0, 0, 0),
                                       active="all"))
        cfg = LOS_PERFECT_CSI
        probe = np.array([0.0, 60.0, 0.0])
        lam = wavelength(FREQ)
        d = np.linalg.norm(arr.element_positions - probe, axis=1)
        phased = np.exp(2j * math.pi * d / lam) / 8.0  # conjugate phasing, 1 W
        w = PrecodingMatrix(w=phased[:, None])
        e_array = superpose_fields(arr, w, probe, None, cfg)

        single = build_array(ArraySection(rows=1, cols=1, spacing=0.057, center=(0, 0, 0),
                                          active="all"))
        w1 = PrecodingMatrix(w=np.array([[1.0 + 0j]]))
        e_single = superpose_fields(single, w1, probe, None, cfg)
        assert e_array / e_single == pytest.approx(8.0, rel=0.05)


class TestComputeHeatmap:
    def test_zero_precoder_zero_map(self, grid, scenarios, los_gains):
        w = PrecodingMatrix(w=np.zeros((64, 1), dtype=complex))
        hm = compute_heatmap(scenarios[0], w, grid, los_gains, calibration=1.0)
        assert np.all(hm.values == 0.0)

    def test_scenario1_max_nearest_to_array(self, array, room, grid, scenarios,
                                            los_cfg, los_gains):
        _, _, w = perfect_link(array, scenarios[0], room, los_cfg)
        hm = compute_heatmap(scenarios[0], w, grid, los_gains, calibration=1.0)
        best = hm.grid.points[np.argmax(hm.values)]
        assert np.allclose(best[:2], (0.0, 1.0))

    def test_power_scaling_scales_field(self, array, room, grid, scenarios, los_cfg,
                                        los_gains):
        scn = scenarios[0]
        _, c, w = perfect_link(array, scn, room, los_cfg)
        hm1 = compute_heatmap(scn, w, grid, los_gains, calibration=1.0)
        w2 = dataclasses.replace(w, w=w.w * math.sqrt(2.0))
        hm2 = compute_heatmap(scn, w2, grid, los_gains, calibration=1.0)
        assert np.allclose(hm2.values, hm1.values * math.sqrt(2.0), rtol=1e-12)

    def test_linearity_in_weight_scale(self, array, room, grid, scenarios, los_cfg,
                                       los_gains):
        _, _, w = perfect_link(array, scenarios[3], room, los_cfg)
        hm1 = compute_heatmap(scenarios[3], w, grid, los_gains, calibration=1.0)
        # Power-of-two scale: every float operation stays exact.
        w2 = dataclasses.replace(w, w=w.w * 2.0)
        hm2 = compute_heatmap(scenarios[3], w2, grid, los_gains, calibration=1.0)
        assert np.array_equal(hm2.values, hm1.values * 2.0)
        # Generic scale: exact up to one rounding per operation.
        w3 = dataclasses.replace(w, w=w.w * 3.0)
        hm3 = compute_heatmap(scenarios[3], w3, grid, los_gains, calibration=1.0)
        assert np.allclose(hm3.values, hm1.values * 3.0, rtol=1e-14)

    def test_calibration_scales_map(self, array, room, grid, scenarios, los_cfg,
                                    los_gains):
        _, _, w = perfect_link(array, scenarios[0], room, los_cfg)
        hm1 = compute_heatmap(scenarios[0], w, grid, los_gains, calibration=1.0)
        hm2 = compute_heatmap(scenarios[0], w, grid, los_gains,
                              calibration=0.5)
        assert np.array_equal(hm2.values, hm1.values * 0.5)

    def test_mirror_symmetry(self, array, room, grid, los_cfg, los_gains):
        scn = standard_scenarios()[5]            # users at (0, 8) and (-3, 4)
        mirrored = Scenario(id="m", ue_positions=tuple(
            (-x, y) for x, y in scn.ue_positions
        ))
        _, _, w_a = perfect_link(array, scn, room, los_cfg)
        _, _, w_b = perfect_link(array, mirrored, room, los_cfg)
        hm_a = compute_heatmap(scn, w_a, grid, los_gains, calibration=1.0)
        hm_b = compute_heatmap(mirrored, w_b, grid, los_gains, calibration=1.0)
        a = hm_a.as_grid_rows()
        b = hm_b.as_grid_rows()
        assert np.allclose(a, b[:, ::-1], rtol=1e-9)

    def test_shared_gains_match_per_probe_superposition(self, array, room, grid,
                                                        scenarios):
        # One matrix serves every scenario: each map equals the oracle's
        # element-by-element superposition at every probe, reflections,
        # element pattern and calibration included.
        for pattern in ("isotropic", "cosine"):
            cfg = ChannelModelConfig(mode="image-order-1", element_pattern=pattern)
            gains = probe_gains(array, room, grid, cfg)
            assert gains.shape == (grid.n_points, array.n_active)
            assert not gains.flags.writeable
            for scn in scenarios:
                _, _, w = perfect_link(array, scn, room, cfg)
                hm = compute_heatmap(scn, w, grid, gains, calibration=0.7)
                want = [superpose_fields(array, w, p, room, cfg, calibration=0.7)
                        for p in grid.points]
                assert hm.values.tolist() == pytest.approx(want, rel=1e-12)

    def test_stream_power_additivity(self, array, room, grid, scenarios, los_cfg,
                                     los_gains):
        # All float operations are shared column-wise; only the final
        # correctly-rounded sqrt differs, so squares agree to 2 ulp.
        scn = scenarios[4]
        _, _, w = perfect_link(array, scn, room, los_cfg)
        full = compute_heatmap(scn, w, grid, los_gains, calibration=1.0)
        parts = []
        for s in range(2):
            ws = dataclasses.replace(w, w=w.w[:, s:s + 1].copy())
            parts.append(compute_heatmap(scn, ws, grid, los_gains, calibration=1.0))
        lhs = full.values ** 2
        rhs = parts[0].values ** 2 + parts[1].values ** 2
        assert np.all(np.abs(lhs - rhs) <= 2 * np.spacing(lhs))


@pytest.mark.parametrize("x_values, y_values", [([], [1.0, 2.0]), ([0.0, 1.0], []), ([], [])])
def test_a_map_with_no_points_is_rejected(x_values, y_values):
    # The map owns its validity: summary and check may take its max.
    grid = ProbeGrid(np.array(x_values), np.array(y_values), 1.5)
    with pytest.raises(ValueError, match="heat map has no points"):
        HeatMap(grid=grid, values=np.empty(0), scenario_id="1")


# The blocks of grid rows a run's maps are streamed in.  tests/test_runner.py
# checks that those maps equal compute_heatmap over the whole grid's gains
# byte for byte.
@pytest.mark.parametrize("n_x, n_y, n_active, blocks", [
    (61, 71, 64, [(2 * i, 2 * i + 2) for i in range(35)] + [(70, 71)]),
    (61, 71, 128, [(i, i + 1) for i in range(71)]),
    (7, 8, 64, [(0, 8)]),
    # A one-point remainder joins the block before it ...
    (1, 513, 64, [(0, 128), (128, 256), (256, 384), (384, 513)]),
    (1, 257, 64, [(0, 128), (128, 257)]),
    # ... but a one-row remainder of several points stays a block.
    (2, 129, 64, [(0, 64), (64, 128), (128, 129)]),
    (1, 1, 64, [(0, 1)]),
    # A row wider than a block is a block of its own.
    (300, 3, 64, [(0, 1), (1, 2), (2, 3)]),
])
def test_row_blocks(n_x, n_y, n_active, blocks):
    grid = build_grid(GridSection(x_min=0.0, x_max=n_x - 1.0, y_min=0.0, y_max=n_y - 1.0,
                                  spacing=1.0))
    assert _row_blocks(grid, n_active) == blocks


class TestDecayLaw:
    def test_boresight_profile_far_field_slope(self, array, room, scenarios, los_cfg):
        # Focused boresight beam: beyond twice the Fraunhofer distance the
        # field follows 1/d to within a 2% fit slope.
        _, _, w = perfect_link(array, scenarios[0], room, los_cfg)
        lam = wavelength(los_cfg.carrier_frequency)
        start = 2.0 * far_field_distance(array.aperture(), lam)
        ys = np.arange(start, 14.5, 0.25)
        fields = np.array([
            superpose_fields(array, w, (0.0, y, 1.5), room, los_cfg) for y in ys
        ])
        slope = np.polyfit(np.log(ys), np.log(fields), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.02)


class TestPowerFieldConversion:
    def test_zero_power(self):
        assert power_to_field(0.0, FREQ) == 0.0

    def test_round_trip(self):
        e = 3.7
        p = field_to_power(e, FREQ, probe_antenna_gain=1.6)
        back = power_to_field(p, FREQ, probe_antenna_gain=1.6)
        assert back == pytest.approx(e, rel=1e-12)

    def test_hand_evaluated_microwatt(self):
        # Independent evaluation of E = sqrt(P eta0 4 pi / lambda^2).
        lam = 299792458.0 / FREQ
        expect = math.sqrt(1e-6 * FREE_SPACE_IMPEDANCE * 4 * math.pi / lam**2)
        assert power_to_field(1e-6, FREQ) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.6036, abs=2e-4)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            power_to_field(-1.0, FREQ)


@pytest.mark.parametrize("pattern", ["isotropic", "cosine"])
def test_probe_gains_peak_memory_stays_near_the_result(array, room, pattern):
    # The 0.1 m exposure grid: 4331 probes x 64 elements, a 4.2 MiB matrix.
    grid = build_grid(GridSection(spacing=0.1), room=room)
    cfg = ChannelModelConfig(mode="image-order-1", element_pattern=pattern)
    tracemalloc.start()
    try:
        gains = probe_gains(array, room, grid, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gains.nbytes > 4 << 20
    assert peak < gains.nbytes + (2 << 20)


@pytest.mark.parametrize("mode", ["los-only", "image-order-1"])
def test_probe_on_an_active_element_rejected(room, mode):
    # The package's own check: a zero ray length would divide by zero.
    element = build_array(ArraySection(rows=1, cols=1, center=(0.0, 1.0, 1.5), active="all"))
    grid = build_grid(GridSection(x_min=-1.0, x_max=1.0, y_min=1.0, y_max=2.0, height=1.5),
                      room=room)
    with pytest.raises(ValueError, match="probe/receive point coincides with a transmit"):
        probe_gains(element, room, grid, ChannelModelConfig(mode=mode))
