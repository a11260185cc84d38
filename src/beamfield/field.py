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

A run streams its maps (:func:`heatmaps`): it takes the probe grid one
block of grid rows at a time, about ``channel._GAIN_BLOCK_ENTRIES``
(8 Ki) gains or 128 KiB, computes that block's probe x element gains
once (:func:`probe_gains`), pushes them through every scenario's
precoder (:func:`compute_heatmap`) and drops them, so it never holds the
whole grid's gain matrix.  Each scenario's values land in one array per
map; once the grid is done, each becomes that scenario's
:class:`HeatMap`, which checks the whole map.  Sharing a block's gains
is exact, not an approximation: the image-model rays depend only on the
array, the probe points, the room, the carrier, the channel mode and the
element pattern, never on the precoder or the seed, so each scenario
would rebuild the same gains bit for bit.  Streaming is exact too:
every gain is computed by the same operations whatever the block, and a
block's per-stream product equals the same rows of the whole grid's
product bit for bit, except for a one-point block, which numpy
evaluates as a dot product that may round differently; such a block is
merged into the one before it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import _GAIN_BLOCK_ENTRIES, propagation_gains
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
        if not self.values.size:
            raise ValueError("heat map has no points")
        if not np.isfinite(self.values).all() or (self.values < 0).any():
            raise ValueError("field values must be finite and non-negative")

    def as_grid_rows(self):
        """Values reshaped (n_y, n_x) following the grid's row-major order."""
        return self.values.reshape(len(self.grid.y_values), len(self.grid.x_values))


def probe_gains(array, room, grid, cfg):
    """Field gain matrix (n_points x n_active) of the array over the probe grid.

    ``cfg`` is the run's :class:`~beamfield.channel.ChannelModelConfig`;
    only its carrier, mode and element pattern are read.  The matrix is
    read-only: one serves :func:`compute_heatmap` for every scenario.
    """
    gains = propagation_gains(array.active_positions(), grid.points, cfg.carrier_frequency,
                              room, cfg.mode, cfg.element_pattern)
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


def compute_heatmap(scenario, precoder, grid, gains, calibration):
    """RMS field at every grid point, in grid order, from the shared gain matrix.

    ``gains`` is :func:`probe_gains` of the run's array, room, grid and
    channel config.  It does not depend on the scenario, so one matrix
    serves every scenario; only the precoder changes the map.
    """
    per_stream = _FIELD_CONSTANT * _per_stream_product(gains, precoder.w)
    values = calibration * np.sqrt(np.sum(np.abs(per_stream) ** 2, axis=1))
    return HeatMap(grid=grid, values=values, scenario_id=scenario.id)


def _row_blocks(grid, n_active):
    """(start, stop) grid-row ranges that :func:`heatmaps` takes in turn.

    A block holds as many whole grid rows as fit in ``_GAIN_BLOCK_ENTRIES``
    gains, at least one.  A last block of one point (a one-column grid
    whose row count leaves a remainder of one) joins the block before it.
    """
    n_x, n_y = len(grid.x_values), len(grid.y_values)
    height = max(1, _GAIN_BLOCK_ENTRIES // (n_x * n_active))
    starts = list(range(0, n_y, height))
    if n_x == 1 and len(starts) > 1 and n_y - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n_y]))


def heatmaps(links, array, room, grid, cfg, calibration):
    """The heat map of every (scenario, precoder) pair of ``links`` over ``grid``.

    The grid is taken one block of rows at a time (:func:`_row_blocks`):
    each block's :func:`probe_gains` are computed once, pass through
    every precoder in :func:`compute_heatmap` and are dropped, so the
    maps equal :func:`compute_heatmap` over the whole grid's gains bit
    for bit while at most one block of gains is held.
    """
    links = list(links)
    n_x = len(grid.x_values)
    values = [np.empty(grid.n_points) for _ in links]
    for start, stop in _row_blocks(grid, array.n_active):
        block = grid.rows(start, stop)
        gains = probe_gains(array, room, block, cfg)
        for (scenario, precoder), out in zip(links, values):
            out[start * n_x:stop * n_x] = compute_heatmap(scenario, precoder, block, gains,
                                                          calibration).values
        # This block's gains are dropped before the next block's are computed.
        del gains
    return [HeatMap(grid=grid, values=out, scenario_id=scenario.id)
            for (scenario, _), out in zip(links, values)]
