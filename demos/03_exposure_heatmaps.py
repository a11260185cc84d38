"""RMS field heat maps over the probe grid, one per beamforming scenario.

For every built-in scenario this script runs the measurement procedure
(pilots, ZF precoding, field superposition over the 56-point grid),
prints an ASCII preview of the map and writes an SVG rendering next to
this script under ``output/``.
"""

import os

from beamfield import RunConfig, build_array, build_grid, heatmaps, standard_scenarios, summary
from beamfield.render import grid_text, heatmap_ascii, heatmap_svg
from beamfield.runner import run_links

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

config = RunConfig()
room = config.room
array = build_array(config.array)
grid = build_grid(config.grid, room=room)
# The grid's SVG cell geometry, axes and colour bar do not depend on the
# scenario: format them once.
text = grid_text(grid, ("svg",))

# The link stages of every scenario, then all their maps from one pass
# over the probe grid's gains.
links = run_links(config, standard_scenarios(), array)
maps = heatmaps([(link.scenario, link.precoder) for link in links], array, room, grid,
                config.channel, calibration=config.calibration)

# A shared colour scale makes the eight maps comparable.
vmax = max(float(hm.values.max()) for hm in maps)

for link, hm in zip(links, maps):
    s = summary(hm)
    print(f"scenario {link.scenario.id}: users {link.scenario.ue_positions}")
    print(f"  field max {s.max_vpm:.2f} V/m at {s.max_position_m}, mean {s.mean_vpm:.2f} V/m")
    print(heatmap_ascii(hm, vmax=vmax))
    path = os.path.join(out_dir, f"heatmap_scenario_{link.scenario.id}.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(heatmap_svg(hm, text, vmax=vmax, markers=link.scenario.ue_positions))
    print(f"  wrote {path}\n")

peaks = [float(hm.values.max()) for hm in maps]
print(f"peak field across scenarios: {min(peaks):.2f} to {max(peaks):.2f} V/m at "
      f"{config.tx_power_w:g} W total transmit power")
print("the hottest grid point sits next to the array in every scenario, even")
print("though each beam points at its users.")
