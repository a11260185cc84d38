"""Regulatory exposure checks against regional field limits.

Compares simulated heat maps with the general-public limits of the
built-in table (ICNIRP 41 V/m, Italy 6 V/m, Poland 7 V/m), both at the
raw 1 W operating point and rescaled to a measurement-campaign-like
peak of ~3 V/m, then derives the exclusion distance along boresight.
"""

import dataclasses

from beamfield import (
    DEFAULT_LIMITS_VPM,
    HeatMap,
    RunConfig,
    average_heatmaps,
    build_array,
    build_grid,
    check,
    extract_cut,
    heatmaps,
    min_compliant_distance,
    standard_scenarios,
)
from beamfield.runner import run_links

config = dataclasses.replace(
    RunConfig(), ofdm=dataclasses.replace(RunConfig().ofdm, frames=1))
room = config.room
array = build_array(config.array)
grid = build_grid(config.grid, room=room)
links = run_links(config, standard_scenarios(), array)
maps = heatmaps([(link.scenario, link.precoder) for link in links], array, room, grid,
                config.channel, calibration=config.calibration)
averaged = average_heatmaps(maps)
print("limit table:", DEFAULT_LIMITS_VPM)


def table(heatmap, label):
    print(f"\n{label} (max {heatmap.values.max():.2f} V/m):")
    for region in sorted(DEFAULT_LIMITS_VPM):
        rep = check(heatmap, region)
        margin = "-inf" if rep.exceed_count == 0 and heatmap.values.max() == 0 \
            else f"{rep.worst_margin_db:+.2f}"
        print(f"  {region:<8} limit {rep.limit_vpm:>5.1f} V/m  exceeded at "
              f"{rep.exceed_count:2d}/56 points  worst margin {margin} dB")


table(averaged, "averaged map at 1 W")

# Rescale so the hottest point matches a field-probe-campaign peak.
scale = 3.09 / averaged.values.max()
calibrated = HeatMap(grid=grid, values=averaged.values * scale,
                     scenario_id="average")
table(calibrated, f"same map calibrated to 3.09 V/m (scale {scale:.3f})")

cut = extract_cut(averaged, 0.0)
print("\nexclusion distance along x = 0 at 1 W:")
for region in sorted(DEFAULT_LIMITS_VPM):
    d = min_compliant_distance(cut, region)
    print(f"  {region:<8} compliant from {d:g} m outward")
