import numpy as np
import pytest

from beamfield import (
    GridSection,
    HeatMap,
    average_heatmaps,
    build_grid,
    compute_heatmap,
    extract_cut,
    far_field_distance,
    fit_decay,
    summary,
    wavelength,
)
from beamfield.stats import CutProfile

from conftest import perfect_link


def constant_map(grid, value, scenario_id="c"):
    return HeatMap(grid=grid, values=np.full(grid.n_points, float(value)),
                   scenario_id=scenario_id)


@pytest.fixture()
def scenario_maps(array, room, grid, scenarios, los_cfg, los_gains):
    maps = []
    for scn in scenarios:
        _, _, w = perfect_link(array, scn, room, los_cfg)
        maps.append(compute_heatmap(scn, w, grid, los_gains, calibration=1.0))
    return maps


class TestAverageHeatmaps:
    def test_single_map_identity(self, grid):
        m = constant_map(grid, 2.5)
        avg = average_heatmaps([m])
        assert np.array_equal(avg.values, m.values)

    def test_two_map_mean(self, grid):
        m1 = constant_map(grid, 1.0)
        m3 = constant_map(grid, 3.0)
        avg = average_heatmaps([m1, m3])
        assert np.all(avg.values == 2.0)

    def test_matches_naive_resummation(self, scenario_maps):
        avg = average_heatmaps(scenario_maps)
        naive = np.zeros_like(avg.values)
        for m in scenario_maps:
            naive = naive + m.values
        naive /= len(scenario_maps)
        err = np.abs(avg.values - naive) / np.abs(naive)
        assert err.max() <= 1e-12

    def test_permutation_invariance_exact(self, scenario_maps):
        rng = np.random.default_rng(40)
        base = average_heatmaps(scenario_maps)
        for _ in range(5):
            order = rng.permutation(len(scenario_maps))
            shuffled = [scenario_maps[i] for i in order]
            assert np.array_equal(average_heatmaps(shuffled).values, base.values)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            average_heatmaps([])

    def test_grid_mismatch_rejected(self, grid):
        other = build_grid(GridSection(-3, 3, 1, 7, 1.0, 1.5))
        with pytest.raises(ValueError, match="identical grid"):
            average_heatmaps([constant_map(grid, 1), constant_map(other, 1)])


class TestExtractCut:
    def test_centre_column(self, scenario_maps):
        cut = extract_cut(scenario_maps[0], 0.0)
        assert np.array_equal(cut.distances, np.arange(1.0, 9.0))
        rows = scenario_maps[0].as_grid_rows()
        assert np.array_equal(cut.fields, rows[:, 3])

    def test_leftmost_column(self, scenario_maps):
        cut = extract_cut(scenario_maps[0], -3.0)
        rows = scenario_maps[0].as_grid_rows()
        assert np.array_equal(cut.fields, rows[:, 0])

    def test_off_grid_names_neighbours(self, scenario_maps):
        with pytest.raises(ValueError) as exc:
            extract_cut(scenario_maps[0], 0.5)
        msg = str(exc.value)
        assert "0" in msg and "1" in msg

    def test_cut_of_average_is_average_of_cuts(self, scenario_maps):
        avg_cut = extract_cut(average_heatmaps(scenario_maps), 0.0)
        per_map = np.stack([extract_cut(m, 0.0).fields for m in scenario_maps])
        want = np.sort(per_map, axis=0).sum(axis=0) / per_map.shape[0]
        assert np.array_equal(avg_cut.fields, want)


class TestFitDecay:
    def test_exact_inverse_distance(self):
        d = np.arange(1.0, 9.0)
        p = CutProfile(distances=d, fields=5.0 / d)
        exponent, r2 = fit_decay(p)
        assert exponent == pytest.approx(-1.0, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_inverse_square(self):
        d = np.arange(1.0, 9.0)
        p = CutProfile(distances=d, fields=5.0 / d**2)
        exponent, _ = fit_decay(p)
        assert exponent == pytest.approx(-2.0, abs=1e-9)

    def test_scale_invariance(self):
        d = np.arange(1.0, 9.0)
        f = 5.0 / d
        p1 = CutProfile(distances=d, fields=f)
        p2 = CutProfile(distances=d, fields=1e3 * f)
        assert fit_decay(p1)[0] == pytest.approx(fit_decay(p2)[0], abs=1e-9)

    def test_simulated_boresight_cut(self, array, scenario_maps, los_cfg):
        cut = extract_cut(scenario_maps[0], 0.0)
        lam = wavelength(los_cfg.carrier_frequency)
        min_d = far_field_distance(array.aperture(), lam)
        exponent, _ = fit_decay(cut, min_distance=min_d)
        assert -1.1 <= exponent <= -0.9

    def test_too_few_samples_rejected(self):
        p = CutProfile(distances=np.array([1.0, 2.0]), fields=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="at least 3"):
            fit_decay(p)

    def test_zero_field_rejected(self):
        p = CutProfile(distances=np.arange(1.0, 5.0),
                       fields=np.array([1.0, 0.5, 0.0, 0.25]))
        with pytest.raises(ValueError, match="positive"):
            fit_decay(p)


class TestSummary:
    def test_constant_map(self, grid):
        s = summary(constant_map(grid, 4.2))
        assert s.max_vpm == s.min_vpm == s.mean_vpm == s.p95_vpm == 4.2

    def test_p95_matches_sort_oracle(self, scenario_maps):
        for m in scenario_maps:
            s = summary(m)
            ranked = np.sort(m.values)
            want = ranked[int(np.ceil(0.95 * ranked.size)) - 1]
            assert s.p95_vpm == want

    def test_ordering(self, scenario_maps):
        for m in scenario_maps:
            s = summary(m)
            assert s.max_vpm >= s.p95_vpm >= s.mean_vpm >= s.min_vpm

    def test_max_position(self, scenario_maps):
        s = summary(scenario_maps[0])
        assert s.max_position_m == (0.0, 1.0)
