"""RMS electric field at probe positions and heat-map assembly.

A transmit element driven with complex weight w (in sqrt-watts) radiates
the far-field phasor

    E = sqrt(30) * w * exp(-j 2 pi d / lambda) / d      [V/m]

per the standard isotropic-radiator relation |E| = sqrt(30 P G) / d with
G = 1 (the factor 30 comes from the eta0 ~ 120 pi convention).  Within a
stream the element contributions add coherently; distinct streams carry
independent data and are mutually incoherent over the probe's averaging
time, so stream powers add.  Element-wise spherical-wave summation is
used everywhere (no array-factor shortcut): probe points can sit inside
the array's Fraunhofer distance, where only the exact summation is valid.

A run computes the probe x element gain matrix once (:func:`probe_gains`)
and every scenario's heat map reuses it.  This is exact, not an
approximation: the image-model rays depend only on the array, the probe
grid, the room, the carrier, the channel mode and the element pattern,
never on the precoder or the seed, so each scenario would rebuild the
same matrix bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import propagation_gains
from .geometry import wavelength

#: Radiated-field constant: sqrt(30 P) / d for an isotropic element.
_FIELD_CONSTANT = math.sqrt(30.0)


@dataclass(frozen=True)
class HeatMap:
    """RMS E-field (V/m) per probe-grid point for one scenario."""

    grid: object
    values: np.ndarray
    scenario_id: str

    def __post_init__(self):
        if self.values.shape[0] != self.grid.n_points:
            raise ValueError("heat map has one value per grid point")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("field values must be finite and non-negative")

    def as_grid_rows(self):
        """Values reshaped (n_y, n_x) following the grid's row-major order."""
        return self.values.reshape(len(self.grid.y_values), len(self.grid.x_values))


def probe_gains(array, room, grid, cfg):
    """Field gain matrix (n_points x n_active) of the array over the probe grid.

    ``cfg`` is the run's :class:`~beamfield.channel.ChannelModelConfig`;
    only its carrier, mode and element pattern are read.  A run computes
    this once and passes it to :func:`compute_heatmap` for every scenario,
    so the matrix is read-only.
    """
    gains = propagation_gains(array.active_positions(), grid.points, cfg.carrier_frequency,
                              room=room, mode=cfg.mode, pattern=cfg.element_pattern)
    # propagation_gains returns (lambda / 4 pi d) e^{-j...}; the field formula
    # needs e^{-j...} / d, so rescale by 4 pi / lambda.
    gains *= 4.0 * math.pi / wavelength(cfg.carrier_frequency)
    gains.setflags(write=False)
    return gains


def _per_stream_product(gains, w):
    """gains @ w evaluated one stream column at a time.

    Column-wise products keep a multi-stream map's squared values exactly
    equal to the sum of its single-stream maps (a blocked gemm may round
    differently than the per-column gemv).
    """
    out = np.empty((gains.shape[0], w.shape[1]), dtype=np.complex128)
    for s in range(w.shape[1]):
        out[:, s] = gains @ w[:, s]
    return out


def compute_heatmap(scenario, precoder, grid, gains, calibration=1.0):
    """RMS field at every grid point, in grid order, from the shared gain matrix.

    ``gains`` is :func:`probe_gains` of the run's array, room, grid and
    channel config.  It does not depend on the scenario, so one matrix
    serves every scenario of a run; only the precoder changes the map.
    """
    per_stream = _FIELD_CONSTANT * _per_stream_product(gains, precoder.w)
    values = calibration * np.sqrt(np.sum(np.abs(per_stream) ** 2, axis=1))
    return HeatMap(grid=grid, values=values, scenario_id=scenario.id)
