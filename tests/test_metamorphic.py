"""Metamorphic relations between whole runs, checked through ``run`` and its artifacts.

An oracle built on the package's own code would share an x-order or a
wall-swap error with it; a relation between two runs of the package
does not need one.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from beamfield import RunConfig, Scenario, run

# One, two and three users, none on the x = 0 symmetry axis.
USERS = {
    "one": ((1.3, 5.2),),
    "two": ((-2.1, 3.4), (1.7, 6.8)),
    "three": ((-1.6, 2.9), (0.8, 5.1), (2.4, 7.6)),
}
# Per-wall coefficients (x-low, x-high, y-low, y-high), unequal on the two x walls.
WALLS = (-0.6, -0.2, -0.5, -0.3)
# A 64-point FFT frame of 48 subcarriers: the BER path costs little.
NARROWBAND = dict(sample_rate=960_000.0, fft_size=64, active_subcarriers=48,
                  frame_samples=1024, frames=1)


def _config(mode, pattern, mirror_users, walls):
    """Perfect CSI on a narrowband link over the default 7 x 8 grid, symmetric in x."""
    base = RunConfig()
    sign = -1.0 if mirror_users else 1.0
    scenarios = tuple(Scenario(id=sid, ue_positions=tuple((sign * x, y) for x, y in users))
                      for sid, users in USERS.items())
    return dataclasses.replace(
        base,
        seed=3,
        custom_scenarios=scenarios,
        scenarios=tuple(USERS),
        formats=("json",),
        room=dataclasses.replace(base.room, wall_reflection=walls),
        channel=dataclasses.replace(base.channel, mode=mode, element_pattern=pattern,
                                    csi_snr_db=float("inf")),
        ofdm=dataclasses.replace(base.ofdm, **NARROWBAND),
    )


def _reports(config, out_dir):
    """{file name: parsed JSON} of every JSON artifact a run writes."""
    manifest = run(config, out_dir=str(out_dir))
    reports = {}
    for name in manifest.paths():
        if name.endswith(".json"):
            with open(out_dir / name, encoding="utf-8") as fh:
                reports[name] = json.load(fh)
    return reports


def _maps(config, out_dir):
    """{file name: e_vpm rows} of every heat-map JSON a run writes."""
    return {name: np.array(report["e_vpm"])
            for name, report in _reports(config, out_dir).items()
            if name.startswith("heatmap_")}


def _worst_mirror_mismatch(a, b):
    """Largest relative difference between each map of ``a`` and its x-mirror in ``b``."""
    assert set(a) == set(b) and len(a) == len(USERS) + 1
    return max(float(np.max(np.abs(a[name] - b[name][:, ::-1]) / a[name])) for name in a)


@pytest.mark.parametrize("mode", ["los-only", "image-order-1"])
@pytest.mark.parametrize("pattern", ["isotropic", "cosine"])
def test_mirroring_the_users_and_the_x_walls_mirrors_every_map(tmp_path, mode, pattern):
    swapped = (WALLS[1], WALLS[0], *WALLS[2:])
    a = _maps(_config(mode, pattern, False, WALLS), tmp_path / "a")
    b = _maps(_config(mode, pattern, True, swapped), tmp_path / "b")
    assert _worst_mirror_mismatch(a, b) <= 1e-12
    if mode == "image-order-1":
        # The x walls differ, so mirroring the users alone does not mirror the maps.
        c = _maps(_config(mode, pattern, True, WALLS), tmp_path / "c")
        assert _worst_mirror_mismatch(a, c) > 1e-3


def _campaign(mode, tx_power_w):
    """The eight built-in scenarios at 40 dB CSI on a narrowband link."""
    base = RunConfig()
    return dataclasses.replace(base, seed=3, tx_power_w=tx_power_w, formats=("json",),
                               channel=dataclasses.replace(base.channel, mode=mode),
                               ofdm=dataclasses.replace(base.ofdm, **NARROWBAND))


@pytest.mark.parametrize("mode", ["los-only", "image-order-1"])
def test_scaling_the_power_scales_every_field_by_its_root(tmp_path, mode):
    # The same seeds give the same CSI, so only the precoder's scale changes.
    base = _reports(_campaign(mode, 1.0), tmp_path / "base")
    maps = [name for name in base if name.startswith("heatmap_")]
    regions = [name for name in base if name.startswith("compliance_")]
    assert len(maps) == 9 and len(regions) == 3
    for alpha in (0.3, 4.0, 1000.0):
        scaled = _reports(_campaign(mode, alpha), tmp_path / f"x{alpha:g}")
        for name in maps:
            want = math.sqrt(alpha) * np.array(base[name]["e_vpm"])
            got = np.array(scaled[name]["e_vpm"])
            assert np.max(np.abs(got - want) / want) <= 1e-12, (alpha, name)
        assert abs(scaled["decay_fit.json"]["exponent"]
                   - base["decay_fit.json"]["exponent"]) <= 1e-12, alpha
        for name in regions:
            shift = scaled[name]["worst_margin_db"] - base[name]["worst_margin_db"]
            assert abs(shift - 10.0 * math.log10(alpha)) <= 1e-9, (alpha, name)


@pytest.mark.parametrize("mode", ["los-only", "image-order-1"])
def test_reordering_the_users_leaves_the_map(tmp_path, mode):
    # Perfect CSI: the CSI noise is drawn in row order, so at 40 dB CSI the
    # maps of two orders differ by 1-2 %.
    users = USERS["three"]
    orders = ["".join(map(str, order)) for order in itertools.permutations(range(3))]
    scenarios = tuple(Scenario(id=order, ue_positions=tuple(users[int(i)] for i in order))
                      for order in orders)
    base = RunConfig()
    config = dataclasses.replace(
        base, seed=3, custom_scenarios=scenarios, scenarios=tuple(orders),
        formats=("json",),
        channel=dataclasses.replace(base.channel, mode=mode, csi_snr_db=math.inf),
        ofdm=dataclasses.replace(base.ofdm, **NARROWBAND))
    maps = _maps(config, tmp_path)
    first = maps[f"heatmap_scenario_{orders[0]}.json"]
    for order in orders[1:]:
        other = maps[f"heatmap_scenario_{order}.json"]
        assert np.max(np.abs(other - first) / first) <= 1e-12, order


def _artifacts(config, out_dir):
    """{file name: bytes} of every artifact a run lists in its manifest."""
    manifest = run(config, out_dir=str(out_dir))
    return {name: (out_dir / name).read_bytes() for name in manifest.paths()}


@pytest.mark.parametrize("mode", ["los-only", "image-order-1"])
def test_reversing_the_scenarios_leaves_every_map_and_statistic(tmp_path, mode):
    # Perfect CSI, since CSI noise is drawn from seeds that follow the scenario
    # index. So are the BER seeds, which leaves ber.* out of the relation.
    base = RunConfig()
    ids = tuple(str(i) for i in range(1, 9))

    def config(order):
        return dataclasses.replace(
            base, seed=3, scenarios=order,
            channel=dataclasses.replace(base.channel, mode=mode, csi_snr_db=math.inf),
            ofdm=dataclasses.replace(base.ofdm, **NARROWBAND))

    forward = _artifacts(config(ids), tmp_path / "forward")
    backward = _artifacts(config(ids[::-1]), tmp_path / "backward")
    assert set(forward) == set(backward)
    assert forward["ber.csv"] != backward["ber.csv"]  # its rows follow the order
    kept = sorted(name for name in forward if not name.startswith("ber."))
    # 9 maps in 4 formats, the cut, the decay fit, the summary and 3 regions.
    assert len(kept) == 9 * 4 + 3 + 3
    assert [name for name in kept if forward[name] != backward[name]] == []
