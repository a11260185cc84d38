"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantity (run with ``pytest -s`` to see them
on a green run).  Tolerances are fixed here, not tuned at runtime.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from beamfield import (
    ArraySection,
    ChannelModelConfig,
    GridSection,
    OfdmConfig,
    PrecodingMatrix,
    RunConfig,
    Scenario,
    build_array,
    build_grid,
    check,
    compute_heatmap,
    effective_channel,
    extract_cut,
    far_field_distance,
    fit_decay,
    heatmaps,
    probe_gains,
    right_pseudo_inverse,
    run,
    transmit_frame,
    wavelength,
)
from beamfield.config import checked
from beamfield.field import HeatMap
from beamfield.runner import run_links
from beamfield.stats import average_heatmaps

from conftest import LOS_PERFECT_CSI, perfect_link, random_complex
from field_oracle import interference_ratio
from qam_oracle import exact_ber_64qam


def _pass(n, message):
    print(f"\n[criterion {n:2d}] PASS - {message}")


def _los_config(**channel_overrides):
    cfg = RunConfig()
    channel = dataclasses.replace(cfg.channel, mode="los-only", **channel_overrides)
    return dataclasses.replace(cfg, channel=channel)


def test_criterion_01_zf_interference_nulled(array, room, scenarios):
    """Perfect CSI: effective channel is diagonal to 1e-9 in every scenario."""
    cfg = ChannelModelConfig(mode="image-order-1")  # calibrated default mode
    t0 = time.perf_counter()
    worst = 0.0
    for scn in scenarios:
        h, combiners, precoder = perfect_link(array, scn, room, cfg)
        eff = effective_channel(h, precoder, combiners)
        worst = max(worst, interference_ratio(eff))
        assert interference_ratio(eff) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(1, f"max off/diag ratio {worst:.2e} over 8 scenarios in {elapsed:.2f} s")


def test_criterion_02_power_conservation(array, room, scenarios):
    cfg = ChannelModelConfig(mode="image-order-1")
    target = RunConfig().tx_power_w
    worst = 0.0
    for scn in scenarios:
        _, _, precoder = perfect_link(array, scn, room, cfg, target)
        power = float(np.sum(np.abs(precoder.w) ** 2))
        rel = abs(power - target) / target
        worst = max(worst, rel)
        assert rel <= 1e-12
    _pass(2, f"worst |power - target| / target = {worst:.2e}")


def test_criterion_03_pseudo_inverse_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(max(m, 8), 65))
        h = random_complex(rng, (m, n))
        residual = np.linalg.norm(h @ right_pseudo_inverse(h) - np.eye(m))
        worst = max(worst, residual)
        assert residual <= 1e-9
    _pass(3, f"worst Frobenius residual {worst:.2e} over 100 matrices")


def test_criterion_04_qam_awgn_ber_matches_oracle(array, room, scenarios):
    """The pipeline's own link, one user with perfect CSI, against exact AWGN BER.

    With one user and perfect CSI the equalised channel eff / gain is 1, so
    the link is 64-QAM over AWGN.  Each axis then carries noise of variance
    sigma^2 / (2 |g|^2) for noise power sigma^2 and own gain g, so
    Eb/N0 = |g|^2 / (6 sigma^2) sets noise_snr_db.
    """
    h, combiners, precoder = perfect_link(array, scenarios[0], room, LOS_PERFECT_CSI)
    eff = effective_channel(h, precoder, combiners)
    assert np.array_equal(eff / np.diag(eff)[:, None], [[1.0]])
    gain = abs(eff[0, 0])
    t0 = time.perf_counter()
    results = []
    for i, ebn0_db in enumerate((10.0, 12.0, 14.0)):
        noise_snr_db = ebn0_db + 10.0 * math.log10(6.0) - 20.0 * math.log10(gain)
        cfg = OfdmConfig(noise_snr_db=noise_snr_db, frames=5)
        rep = transmit_frame(precoder, h, combiners, cfg, 64 + i)
        assert rep.bits_tested >= 1_200_000
        ber = rep.per_ue_ber[0]
        want = exact_ber_64qam(ebn0_db)
        assert abs(ber - want) / want <= 0.20
        results.append(f"{ebn0_db:g} dB: {ber:.3e} vs {want:.3e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(4, "; ".join(results) + f" ({elapsed:.1f} s)")


def test_criterion_05_ber_grows_with_users(array, room, scenarios):
    """Calibrated operating point: more users, worse BER; all under 1e-2."""
    base = RunConfig()  # the calibrated setting
    n_seeds = 20
    means = {}
    for scn in scenarios:
        per_seed = []
        for seed in range(n_seeds):
            ofdm_cfg = dataclasses.replace(base.ofdm, frames=1)
            from beamfield import estimate_csi, generate_channel
            from beamfield.precoding import combining_vectors, zf_precoder

            (h,) = generate_channel(array, [scn], room, base.channel)
            est = estimate_csi(h, base.channel, 10_000 + seed)
            combiners = combining_vectors(est)
            precoder = zf_precoder(est, combiners, base.tx_power_w)
            rep = transmit_frame(precoder, h, combiners, ofdm_cfg, 20_000 + seed)
            per_seed.append(float(np.mean(rep.per_ue_ber)))
        means[scn.id] = float(np.mean(per_seed))

    group_123 = np.mean([means["1"], means["2"], means["3"]])
    group_567 = np.mean([means["5"], means["6"], means["7"]])
    assert means["8"] > group_567 > group_123
    assert all(v <= 1e-2 for v in means.values())
    _pass(5, f"mean BER: scn1-3 {group_123:.2e} < scn5-7 {group_567:.2e} "
             f"< scn8 {means['8']:.2e}; max {max(means.values()):.2e} <= 1e-2")


def test_criterion_06_free_space_field_ground_truth(room):
    # The run's own path: probe gains, then the heat map of a 1 W precoder
    # on one isotropic element, read 1 m in front of it.
    element = build_array(ArraySection(rows=1, cols=1, center=(0.0, 0.0, 1.5), active="all"))
    probe = build_grid(GridSection(x_min=0.0, x_max=0.0, y_min=1.0, y_max=1.0, height=1.5))
    one_watt = PrecodingMatrix(w=np.ones((1, 1), dtype=complex))
    gains = probe_gains(element, room, probe, LOS_PERFECT_CSI)
    heatmap = compute_heatmap(Scenario(id="1w", ue_positions=((0.0, 1.0),)), one_watt,
                              probe, gains, calibration=1.0)
    e = float(heatmap.values[0])
    assert e == pytest.approx(math.sqrt(30.0), rel=1e-12)
    _pass(6, f"1 W isotropic at 1 m: {e:.6f} V/m (sqrt(30) = {math.sqrt(30):.6f})")


def test_criterion_07_inverse_distance_decay(array, room, scenarios):
    cfg = LOS_PERFECT_CSI
    _, _, precoder = perfect_link(array, scenarios[0], room, cfg)
    grid = build_grid(room=room)
    heatmap = compute_heatmap(scenarios[0], precoder, grid,
                              probe_gains(array, room, grid, cfg), calibration=1.0)
    cut = extract_cut(heatmap, 0.0)
    ff = far_field_distance(array.aperture(), wavelength(cfg.carrier_frequency))
    exponent, r_squared = fit_decay(cut, min_distance=ff)
    assert exponent == pytest.approx(-1.0, abs=0.10)
    _pass(7, f"boresight decay exponent {exponent:+.3f} (R^2 {r_squared:.4f}) "
             f"beyond {ff:.2f} m")


def test_criterion_08_maximum_near_array(grid):
    config = _los_config()
    config = dataclasses.replace(
        config, ofdm=dataclasses.replace(config.ofdm, frames=1))
    room = config.room
    plan = checked(config)[0]
    links = run_links(config, plan.scenarios, plan.array)
    maps = heatmaps([(link.scenario, link.precoder) for link in links], plan.array, room, grid,
                    config.channel, calibration=config.calibration)
    near = 0
    positions = []
    for scn, heatmap in zip(plan.scenarios, maps):
        p = heatmap.grid.points[np.argmax(heatmap.values)]
        positions.append((scn.id, float(p[0]), float(p[1])))
        if math.hypot(p[0] - 0.0, p[1] - 1.0) <= 1.5:
            near += 1
    assert near >= 7
    _pass(8, f"{near}/8 scenario maxima within 1.5 m of (0, 1): {positions}")


def test_criterion_09_average_exactness(array, room, grid, scenarios):
    cfg = LOS_PERFECT_CSI
    gains = probe_gains(array, room, grid, cfg)
    maps = []
    for scn in scenarios:
        _, _, precoder = perfect_link(array, scn, room, cfg)
        maps.append(compute_heatmap(scn, precoder, grid, gains, calibration=1.0))
    averaged = average_heatmaps(maps)
    naive = sum(m.values for m in maps) / len(maps)
    rel = np.max(np.abs(averaged.values - naive) / naive)
    assert rel <= 1e-12
    rng = np.random.default_rng(9)
    for _ in range(3):
        shuffled = [maps[i] for i in rng.permutation(8)]
        assert np.array_equal(average_heatmaps(shuffled).values, averaged.values)
    _pass(9, f"re-summation deviation {rel:.2e}; permutations bit-identical")


def test_criterion_10_compliance_logic(array, room, grid, scenarios):
    fixtures = [
        (10.0, {"ICNIRP": 0, "Italy": 56, "Poland": 56}),
        (6.5, {"ICNIRP": 0, "Italy": 56, "Poland": 0}),
        (45.0, {"ICNIRP": 56, "Italy": 56, "Poland": 56}),
        (0.0, {"ICNIRP": 0, "Italy": 0, "Poland": 0}),
    ]
    for value, expected in fixtures:
        m = HeatMap(grid=grid, values=np.full(grid.n_points, value), scenario_id="f")
        for region, count in expected.items():
            assert check(m, region).exceed_count == count

    cfg = LOS_PERFECT_CSI
    gains = probe_gains(array, room, grid, cfg)
    peak = 0.0
    for scn in scenarios:
        _, _, precoder = perfect_link(array, scn, room, cfg)
        hm = compute_heatmap(scn, precoder, grid, gains, calibration=1.0)
        scaled = HeatMap(grid=grid, values=hm.values * (3.09 / hm.values.max()),
                         scenario_id=scn.id)
        peak = max(peak, float(scaled.values.max()))
        for region in ("ICNIRP", "Italy", "Poland"):
            assert check(scaled, region).exceed_count == 0
    _pass(10, f"fixture counts exact; calibrated maps (peak {peak:.2f} V/m) "
              f"compliant in all three regions")


def test_criterion_11_byte_identical_runs(tmp_path):
    config = RunConfig()
    run(config, out_dir=str(tmp_path / "first"))
    run(config, out_dir=str(tmp_path / "second"))
    names = sorted(os.listdir(tmp_path / "first"))
    assert names == sorted(os.listdir(tmp_path / "second"))
    for name in names:
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    _pass(11, f"{len(names)} artifacts byte-identical across two default runs")


def test_criterion_12_full_suite_runtime(tmp_path):
    t0 = time.perf_counter()
    manifest = run(RunConfig(), out_dir=str(tmp_path))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    with open(tmp_path / "ber.csv", "r", encoding="utf-8") as fh:
        rows = fh.read().strip().split("\n")[1:]
    assert len(rows) == 14  # user links: 3 x 1 UE + 4 x 2 UE + 1 x 3 UE
    assert all(int(r.split(",")[3]) >= 1_000_000 for r in rows)
    _pass(12, f"8 scenarios, 56-point grid, >= 1e6 bits per user link, "
              f"{len(manifest.artifacts)} artifacts in {elapsed:.1f} s")
