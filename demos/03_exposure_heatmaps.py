"""RMS field heat maps over the probe grid, one per beamforming scenario.

For every built-in scenario this script runs the measurement procedure
(pilots, ZF precoding, field superposition over the 56-point grid),
prints an ASCII preview of the map and writes an SVG rendering next to
this script under ``output/``.
"""

import os

from beamfield import RunConfig, probe_gains, standard_scenarios, summary
from beamfield.render import grid_text, heatmap_ascii, heatmap_svg
from beamfield.runner import run_scenario

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

config = RunConfig()
room = config.room
array = config.build_array()
grid = config.build_grid()
# The probe x element gains and the grid's SVG cell geometry, axes and colour
# bar do not depend on the scenario: compute them once.
gains = probe_gains(array, room, grid, config.channel)
text = grid_text(grid)

# A shared colour scale makes the eight maps comparable.
results = [
    run_scenario(config, scn, i, array, room, grid, gains)
    for i, scn in enumerate(standard_scenarios(total_tx_power=config.tx_power_w))
]
vmax = max(float(r.heatmap.values.max()) for r in results)

for r in results:
    s = summary(r.heatmap)
    print(f"scenario {r.scenario.id}: users {r.scenario.ue_positions}")
    print(f"  field max {s.max:.2f} V/m at {s.max_position}, mean {s.mean:.2f} V/m")
    print(heatmap_ascii(r.heatmap, vmax=vmax))
    path = os.path.join(out_dir, f"heatmap_scenario_{r.scenario.id}.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(heatmap_svg(r.heatmap, text, vmax=vmax, markers=r.scenario.ue_positions))
    print(f"  wrote {path}\n")

peaks = [float(r.heatmap.values.max()) for r in results]
print(f"peak field across scenarios: {min(peaks):.2f} to {max(peaks):.2f} V/m at "
      f"{config.tx_power_w:g} W total transmit power")
print("the hottest grid point sits next to the array in every scenario, even")
print("though each beam points at its users.")
