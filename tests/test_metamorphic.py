"""Metamorphic relations between whole runs, checked through ``run`` and its artifacts.

An oracle built on the package's own code would share an x-order or a
wall-swap error with it; a relation between two runs of the package
does not need one.
"""

import dataclasses
import json

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
        scenario_ids=tuple(USERS),
        formats=("json",),
        room=dataclasses.replace(base.room, wall_reflection=walls),
        channel=dataclasses.replace(base.channel, mode=mode, element_pattern=pattern,
                                    csi_snr_db=float("inf")),
        ofdm=dataclasses.replace(base.ofdm, sample_rate=960_000.0, fft_size=64,
                                 active_subcarriers=48, frame_samples=1024, frames=1),
    )


def _maps(config, out_dir):
    """{file name: e_vpm rows} of every heat-map JSON a run writes."""
    manifest = run(config, out_dir=str(out_dir))
    maps = {}
    for name in manifest.paths():
        if name.startswith("heatmap_"):
            with open(out_dir / name, encoding="utf-8") as fh:
                maps[name] = np.array(json.load(fh)["e_vpm"])
    return maps


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
