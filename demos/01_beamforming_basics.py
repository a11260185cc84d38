"""Zero-forcing beamforming walkthrough.

Builds the default 128-element panel (64 active), generates the indoor
channel for a three-user scenario, estimates CSI from pilots and shows
what the zero-forcing precoder achieves: a diagonal effective channel
with the configured total power split equally across user streams.
"""

import numpy as np

from beamfield import (
    ChannelModelConfig,
    Room,
    build_array,
    combining_vectors,
    effective_channel,
    estimate_csi,
    generate_channel,
    standard_scenarios,
    zf_precoder,
)

room = Room()
array = build_array()
print("room: %.1f m x %.1f m x %.1f m" % (room.width_x, room.length_y, room.height_z))
print("array: %d elements, %d active, aperture %.3f m"
      % (len(array.element_positions), array.n_active, array.aperture()))

print("\nbuilt-in scenarios:")
for s in standard_scenarios():
    print(f"  {s.id}: {s.n_users} user(s) at {s.ue_positions}")

# The three-user case at the run's operating point: image-order-1, 40 dB pilot CSI.
scenario = standard_scenarios()[7]
cfg = ChannelModelConfig()

(h_true,) = generate_channel(array, [scenario], room, cfg)
users, antennas, elements = h_true.h.shape
print(f"\nscenario {scenario.id}: channel is {users} user(s) x {antennas} UE antennas "
      f"x {elements} Tx elements")
print(f"strongest entry |h| = {np.abs(h_true.h).max():.2e} (passive, always < 1)")

h_est = estimate_csi(h_true, cfg, seed=1)
combiners = combining_vectors(h_est)
precoder = zf_precoder(h_est, combiners, total_power=1.0)
stream_power = np.sum(np.abs(precoder.w) ** 2, axis=0)
print(f"precoder: {precoder.w.shape[0]} elements x {precoder.n_streams} streams, "
      f"total {stream_power.sum():.6f} W, {stream_power.mean():.4f} W per stream")

# The whole point of ZF: the effective channel is (near) diagonal.
eff = effective_channel(h_true, precoder, combiners)
print("\neffective channel magnitudes (rows = users, cols = streams):")
for row in np.abs(eff):
    print("  " + "  ".join(f"{v:.3e}" for v in row))
leak = np.abs(eff - np.diag(np.diag(eff))).max() / np.abs(np.diag(eff)).min()
print(f"worst leakage / weakest user gain = {leak:.2e} "
      f"(zero for perfect CSI, small for {cfg.csi_snr_db:g} dB pilots)")
