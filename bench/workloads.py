"""Seeded benchmark workloads, each written as one beamfield YAML config.

Every workload spells out the full config (the keys of ``RunConfig`` as
``load_config`` reads them) instead of leaning on built-in defaults, so
a change to a default does not silently change what is measured.  All
workloads run closed loop: one client, ``workers: 1``, one process.

Usage: python3 bench/workloads.py --seed 7 --out bench/out/configs
"""

import argparse
import copy
import math
import os
import random

import yaml

#: Why each workload exists; copied into BENCHMARK.json.
RATIONALE = {
    "campaign-default": "the paper campaign users run: 8 scenarios, 56-point grid, "
                        "4 frames; the OFDM BER path dominates",
    "exposure-fine-grid": "dense 0.1 m exposure map (4331 probes), 1 frame; heat-map "
                          "gains, rendering and artifact writing dominate",
    "placement-sweep": "96 seeded user placements of 1-8 users on a narrowband link; "
                       "many small channel, precoding and linalg calls",
}

# The paper campaign (configs/paper-defaults.yaml), every key explicit.
_CAMPAIGN = {
    "scenarios": [str(i) for i in range(1, 9)],
    "tx_power_w": 1.0,
    "formats": ["ascii", "csv", "json", "svg"],
    "workers": 1,
    "calibration": 1.0,
    "cut_x": 0.0,
    "fit_exclude_near_field": True,
    "room": {
        "length_y": 15.0, "width_x": 7.5, "height_z": 3.0,
        "wall_reflection": -0.6, "floor_reflection": -0.4, "ceiling_reflection": -0.4,
    },
    "array": {
        "rows": 16, "cols": 8, "spacing": 0.057,
        "center": [0.0, 0.0, 1.5], "active": "central-8x8",
    },
    "channel": {
        "mode": "image-order-1", "carrier_frequency": 2.63e9, "csi_snr_db": 40.0,
        "element_pattern": "isotropic", "ue_height": 1.5,
    },
    "ofdm": {
        "subcarrier_spacing": 15000.0, "sample_rate": 61.44e6, "fft_size": 4096,
        "active_subcarriers": 2664, "frame_samples": 65536, "noise_snr_db": 64.0,
        "frames": 4, "time_domain": False,
    },
    "grid": {
        "x_min": -3.0, "x_max": 3.0, "y_min": 1.0, "y_max": 8.0,
        "spacing": 1.0, "height": 1.5,
    },
}

PLACEMENT_SCENARIOS = 96
MAX_USERS = 8
MIN_USER_SPACING_M = 1.0
# Placement footprint, inside the 7.5 m x 15 m room.
X_HALF_WIDTH_M = 3.5
Y_RANGE_M = (1.0, 14.0)


def _place_users(rng, n_users):
    """n_users positions in the footprint, pairwise at least 1 m apart.

    Only the physical spacing rule is applied: a position closer than
    1 m to an earlier user is redrawn.  Nothing is filtered for ZF
    feasibility or BER.
    """
    placed = []
    while len(placed) < n_users:
        x = round(rng.uniform(-X_HALF_WIDTH_M, X_HALF_WIDTH_M), 3)
        y = round(rng.uniform(*Y_RANGE_M), 3)
        if all(math.dist((x, y), p) >= MIN_USER_SPACING_M for p in placed):
            placed.append((x, y))
    return [[x, y] for x, y in placed]


def generate(seed):
    """All workload configs for one workload seed: {name: config mapping}."""
    campaign = copy.deepcopy(_CAMPAIGN)
    campaign["seed"] = seed

    fine = copy.deepcopy(campaign)
    fine["grid"]["spacing"] = 0.1
    fine["ofdm"]["frames"] = 1

    rng = random.Random(seed)
    custom = [
        {"id": f"p{i + 1:02d}", "ue_positions": _place_users(rng, i % MAX_USERS + 1)}
        for i in range(PLACEMENT_SCENARIOS)
    ]
    sweep = copy.deepcopy(campaign)
    sweep["custom_scenarios"] = custom
    sweep["scenarios"] = [c["id"] for c in custom]
    sweep["ofdm"].update({
        "sample_rate": 960000.0, "fft_size": 64, "active_subcarriers": 48,
        "frame_samples": 1024, "frames": 1,
    })

    return {"campaign-default": campaign, "exposure-fine-grid": fine,
            "placement-sweep": sweep}


def write(seed, out_dir):
    """Write one YAML per workload into out_dir; returns {name: path}."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, config in generate(seed).items():
        path = os.path.join(out_dir, f"{name}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(config, fh, sort_keys=True)
        paths[name] = path
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--out", required=True, help="directory for the YAML files")
    args = parser.parse_args()
    for name, path in write(args.seed, args.out).items():
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
