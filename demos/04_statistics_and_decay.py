"""Statistics over the scenario heat maps: averaging, cuts and decay fits.

Reproduces the aggregate view: the mean map over all eight scenarios,
the field profile along the boresight column x = 0, and power-law fits
of field versus distance in both channel modes.
"""

import dataclasses

from beamfield import (
    RunConfig,
    average_heatmaps,
    build_array,
    build_grid,
    extract_cut,
    far_field_distance,
    fit_decay,
    heatmaps,
    standard_scenarios,
    summary,
    wavelength,
)
from beamfield.runner import run_links


def scenario_maps(config):
    room = config.room
    array = build_array(config.array)
    links = run_links(config, standard_scenarios(), array)
    return array, heatmaps([(link.scenario, link.precoder) for link in links], array, room,
                           build_grid(config.grid, room=room), config.channel,
                           calibration=config.calibration)


for mode in ("los-only", "image-order-1"):
    config = RunConfig()
    config = dataclasses.replace(
        config,
        channel=dataclasses.replace(config.channel, mode=mode),
        ofdm=dataclasses.replace(config.ofdm, frames=1),
    )
    array, maps = scenario_maps(config)
    averaged = average_heatmaps(maps)
    s = summary(averaged)
    print(f"== channel mode {mode}")
    print(f"averaged map: max {s.max_vpm:.2f} V/m at {s.max_position_m}, "
          f"mean {s.mean_vpm:.2f}, p95 {s.p95_vpm:.2f}")

    cut = extract_cut(averaged, 0.0)
    print("boresight profile (y in m -> V/m): "
          + ", ".join(f"{d:g}:{f:.2f}" for d, f in cut.samples))

    ff = far_field_distance(array.aperture(),
                            wavelength(config.channel.carrier_frequency))
    exponent, r2 = fit_decay(cut)
    exp_ff, r2_ff = fit_decay(cut, min_distance=ff)
    print(f"decay fit, whole cut:      exponent {exponent:+.2f} (R^2 {r2:.2f})")
    print(f"decay fit beyond {ff:.1f} m: exponent {exp_ff:+.2f} (R^2 {r2_ff:.2f})")
    print()

print("free space follows the 1/distance field law cleanly; with first-order")
print("reflections the standing-wave ripple flattens the fitted slope.")
