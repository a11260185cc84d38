import math

import numpy as np
import pytest

from beamfield import (
    DEFAULT_LIMITS_VPM,
    UnknownRegionError,
    check,
    compute_heatmap,
    min_compliant_distance,
)
from beamfield.field import HeatMap
from beamfield.stats import CutProfile

from conftest import perfect_link


def constant_map(grid, value):
    return HeatMap(grid=grid, values=np.full(grid.n_points, float(value)),
                   scenario_id="c")


def profile(distances, fields):
    return CutProfile(distances=np.asarray(distances, dtype=float),
                      fields=np.asarray(fields, dtype=float))


class TestLimitTable:
    def test_builtin_defaults(self):
        assert DEFAULT_LIMITS_VPM == {"ICNIRP": 41.0, "Italy": 6.0, "Poland": 7.0}

    def test_positive_limits_enforced(self):
        # A margin is 20 log10(peak / limit): every limit must be positive.
        assert all(limit > 0 for limit in DEFAULT_LIMITS_VPM.values())

    def test_unknown_region_lists_known(self, grid):
        with pytest.raises(UnknownRegionError, match="ICNIRP, Italy, Poland"):
            check(constant_map(grid, 1.0), "Atlantis")


class TestCheck:
    def test_zero_map_compliant_everywhere(self, grid):
        rep = check(constant_map(grid, 0.0), "Italy")
        assert rep.exceed_count == 0
        assert rep.exceed_fraction == 0.0
        assert rep.worst_margin_db == -math.inf
        assert rep.compliant

    def test_constant_ten_versus_italy(self, grid):
        rep = check(constant_map(grid, 10.0), "Italy")
        assert rep.exceed_fraction == 1.0
        assert rep.exceed_count == grid.n_points
        assert rep.worst_margin_db == pytest.approx(20 * math.log10(10 / 6), rel=1e-12)
        assert rep.worst_margin_db == pytest.approx(4.44, abs=0.005)

    def test_exactly_at_limit_not_exceeding(self, grid):
        rep = check(constant_map(grid, 6.0), "Italy")
        assert rep.exceed_count == 0

    def test_monotone_in_limit(self, grid):
        rng = np.random.default_rng(50)
        m = HeatMap(grid=grid, values=rng.uniform(0, 12, grid.n_points),
                    scenario_id="r")
        counts = [
            check(m, region).exceed_count for region in ("Italy", "Poland", "ICNIRP")
        ]
        assert counts[0] >= counts[1] >= counts[2]

    def test_fraction_is_count_over_size(self, grid):
        rng = np.random.default_rng(51)
        m = HeatMap(grid=grid, values=rng.uniform(0, 12, grid.n_points),
                    scenario_id="r")
        rep = check(m, "Poland")
        assert rep.exceed_fraction == rep.exceed_count / grid.n_points
        assert rep.exceed_count == int(np.count_nonzero(m.values > rep.limit_vpm))

    def test_unknown_region(self, grid):
        with pytest.raises(UnknownRegionError):
            check(constant_map(grid, 1.0), "Mars")

    def test_probe_campaign_scale_compliant(self, array, room, grid, scenarios,
                                            los_cfg, los_gains):
        # Simulated suite calibrated so the hottest point sits at 3.09 V/m:
        # below all three regional limits.
        for scn in scenarios:
            _, _, w = perfect_link(array, scn, room, los_cfg)
            hm = compute_heatmap(scn, w, grid, los_gains, calibration=1.0)
            calibrated = HeatMap(grid=grid, values=hm.values * (3.09 / hm.values.max()),
                                 scenario_id=scn.id)
            for region in ("ICNIRP", "Italy", "Poland"):
                assert check(calibrated, region).exceed_count == 0


class TestMinCompliantDistance:
    def test_all_compliant_zero(self):
        p = profile([1, 2, 3], [1.0, 0.5, 0.2])
        assert min_compliant_distance(p, "Italy") == 0.0

    def test_inverse_distance_crossing(self):
        d = np.arange(1.0, 9.0)
        p = profile(d, 12.0 / d)
        # 12 / d = 6 at d = 2; the d = 1 sample exceeds, d >= 2 comply.
        assert min_compliant_distance(p, "Italy") == 2.0

    def test_stricter_limit_larger_distance(self):
        d = np.arange(1.0, 9.0)
        p = profile(d, 12.0 / d)
        strict = min_compliant_distance(p, "Italy")     # 6 V/m
        loose = min_compliant_distance(p, "Poland")     # 7 V/m
        assert strict >= loose

    def test_never_compliant_is_inf(self):
        p = profile([1, 2, 3], [100.0, 90.0, 80.0])
        assert min_compliant_distance(p, "ICNIRP") == math.inf

    def test_farthest_exceeding_sample_decides(self):
        # A compliant dip between two exceeding samples does not count.
        p = profile([1, 2, 3, 4], [10.0, 1.0, 10.0, 1.0])
        assert min_compliant_distance(p, "Italy") == 4.0

    def test_unknown_region(self):
        p = profile([1, 2, 3], [1, 1, 1])
        with pytest.raises(UnknownRegionError, match="ICNIRP, Italy, Poland"):
            min_compliant_distance(p, "Nowhere")
