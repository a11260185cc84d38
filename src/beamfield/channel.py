"""Downlink propagation channel and pilot-based CSI estimation.

The propagation model is free-space line of sight, optionally augmented
with first-order image sources for the six room surfaces (four walls,
floor, ceiling).  Each surface contributes a mirrored transmitter whose
ray is weighted by that surface's amplitude reflection coefficient, which
reproduces the dominant standing-wave structure of an indoor link without
a full ray tracer.  The images of a whole array are built in one numpy
pass: each surface is a reflection of one coordinate across its plane.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import DEFAULT_MOUNT_HEIGHT_M, ue_antenna_positions, wavelength

MODE_LOS = "los-only"
MODE_IMAGE_1 = "image-order-1"

PATTERN_ISOTROPIC = "isotropic"
PATTERN_COSINE = "cosine"

# Peak power gain of the broadside-cosine element pattern: a cos^2(theta)
# power pattern confined to the front half space integrates to 4*pi/6.
_COSINE_PEAK_GAIN = 6.0

# Gains per receiver block of propagation_gains: 16 Ki complex entries are
# 256 KiB, so each elementwise pass over a block runs from the L2 cache.
_GAIN_BLOCK_ENTRIES = 16384


@dataclass(frozen=True)
class ChannelModelConfig:
    """Propagation and CSI-acquisition settings.

    ``csi_snr_db = math.inf`` means perfect channel knowledge.  The seed
    drives only the CSI estimation noise; channel generation itself is a
    pure function of the geometry.
    """

    mode: str = MODE_LOS
    carrier_frequency: float = 2.63e9
    csi_snr_db: float = math.inf
    rng_seed: int = 0
    element_pattern: str = PATTERN_ISOTROPIC
    ue_height: float = DEFAULT_MOUNT_HEIGHT_M

    def __post_init__(self):
        if self.carrier_frequency <= 0:
            raise ValueError("carrier_frequency must be positive")
        _check_model(self.mode, self.element_pattern)


def _check_model(mode, pattern):
    """Raise ValueError for an unknown channel mode or element pattern."""
    if mode not in (MODE_LOS, MODE_IMAGE_1):
        raise ValueError(f"unknown channel mode {mode!r}")
    if pattern not in (PATTERN_ISOTROPIC, PATTERN_COSINE):
        raise ValueError(f"unknown element pattern {pattern!r}")


@dataclass(frozen=True)
class ChannelMatrix:
    """Downlink channel between active transmit elements and UE antennas.

    ``h`` has one row per receive antenna (users in scenario order, each
    user's antennas contiguous) and one column per active transmit
    element.
    """

    h: np.ndarray
    n_users: int
    antennas_per_ue: int

    def ue_block(self, k):
        """Rows of user ``k``: an (antennas_per_ue x n_tx) matrix."""
        m = self.antennas_per_ue
        return self.h[k * m:(k + 1) * m]


def _images(room, points):
    """First-order images of the (T x 3) ``points`` in the six room surfaces.

    Returns a (6, T, 3) array of mirrored points and the six amplitude
    reflection coefficients, both in the fixed order x-low wall, x-high
    wall, y-low wall, y-high wall, floor, ceiling.  Raises if a point lies
    outside the room.
    """
    room.require_inside(points, "transmit point")
    x, y, z = points.T
    wx = room.width_x / 2.0
    images = np.tile(points, (6, 1, 1))
    images[0, :, 0] = -2 * wx - x
    images[1, :, 0] = 2 * wx - x
    images[2, :, 1] = -y
    images[3, :, 1] = 2 * room.length_y - y
    images[4, :, 2] = -z
    images[5, :, 2] = 2 * room.height_z - z
    coeffs = (*room.wall_reflections(), room.floor_reflection, room.ceiling_reflection)
    return images, coeffs


def _distances(rx_points, points):
    """Ray lengths and y offsets (each R x T) from T points to R receivers.

    The per-axis differences are summed as dx*dx + dy*dy + dz*dz, the
    order in which ``np.linalg.norm(rx[:, None] - points[None], axis=2)``
    adds them, so the lengths are bit-identical to it without its
    (R, T, 3) temporary.
    """
    dx = rx_points[:, 0, None] - points[:, 0]
    dy = rx_points[:, 1, None] - points[:, 1]
    dz = rx_points[:, 2, None] - points[:, 2]
    return np.sqrt(dx * dx + dy * dy + dz * dz), dy


def _pattern_amplitude(d, dy):
    """Cosine element amplitude factor per ray of length ``d``; boresight is +y."""
    return math.sqrt(_COSINE_PEAK_GAIN) * np.clip(dy / d, 0.0, None)


def _ray_sources(tx_points, room, mode):
    """The ray model's sources as (points, coefficient) pairs: the direct rays
    first, with coefficient None, then in image mode each surface whose
    coefficient is not 0, in the order of ``_images``.
    """
    rays = [(tx_points, None)]
    if mode == MODE_IMAGE_1:
        if room is None:
            raise ValueError("image-order-1 mode requires a room")
        images, coeffs = _images(room, tx_points)
        rays += [(points, coeff) for points, coeff in zip(images, coeffs) if coeff != 0.0]
    return rays


def lit_above(tx_points, room=None, mode=MODE_LOS, pattern=PATTERN_ISOTROPIC):
    """The y at or below which ``pattern`` lights no ray of :func:`propagation_gains`.

    -inf for the isotropic pattern; for the cosine pattern, which lights a
    receiver only from sources at smaller y, their least y (0.0, never -0.0).
    A mirror maps y to y or c - y, so only the images of the transmit points
    of least and greatest y are built.
    """
    _check_model(mode, pattern)
    if pattern == PATTERN_ISOTROPIC:
        return -math.inf
    tx_points = np.atleast_2d(np.asarray(tx_points, dtype=float))
    ends = tx_points[[np.argmin(tx_points[:, 1]), np.argmax(tx_points[:, 1])]]
    return min(float(points[:, 1].min()) for points, _ in _ray_sources(ends, room, mode)) + 0.0


def propagation_gains(tx_points, rx_points, frequency, room=None,
                      mode=MODE_LOS, pattern=PATTERN_ISOTROPIC):
    """Complex gain matrix (n_rx x n_tx) of the configured ray model.

    Each source of :func:`_ray_sources` adds its rays scaled by its
    coefficient, in that order.  Receivers are taken in blocks of about
    ``_GAIN_BLOCK_ENTRIES`` gains, written into one result; every entry
    is computed by the same operations in the same order whatever the
    block, so the block size never changes a bit of the result.
    """
    tx_points = np.atleast_2d(np.asarray(tx_points, dtype=float))
    rx_points = np.atleast_2d(np.asarray(rx_points, dtype=float))
    lam = wavelength(frequency)
    _check_model(mode, pattern)
    rays = _ray_sources(tx_points, room, mode)

    def ray(rx, points, coeff):
        # Surface coefficient first, then the pattern: the order of the
        # products fixes the rounding, and so the bytes of every artifact.
        d, dy = _distances(rx, points)
        if np.any(d == 0.0):
            raise ValueError("a probe/receive point coincides with a transmit element")
        g = (lam / (4.0 * math.pi * d)) * np.exp(-2j * math.pi * d / lam)
        if coeff is not None:
            g *= coeff
        if pattern == PATTERN_COSINE:
            g *= _pattern_amplitude(d, dy)
        return g

    n_tx = len(tx_points)
    g = np.empty((len(rx_points), n_tx), dtype=np.complex128)
    rows = max(1, _GAIN_BLOCK_ENTRIES // max(n_tx, 1))
    for start in range(0, len(rx_points), rows):
        rx = rx_points[start:start + rows]
        block = ray(rx, *rays[0])
        for points, coeff in rays[1:]:
            block += ray(rx, points, coeff)
        g[start:start + rows] = block
    return g


def generate_channel(array, scenario, room, cfg):
    """Ground-truth downlink channel for one scenario at the carrier frequency.

    Rows are UE antennas (4 per user, users in scenario order), columns
    the active transmit elements in array order.  Deterministic in the
    geometry.  Raises if a UE antenna lies outside the room.
    """
    rx = ue_antenna_positions(scenario, cfg.carrier_frequency, height=cfg.ue_height)
    room.require_inside(rx, "UE antenna")
    tx = array.active_positions()
    h = propagation_gains(tx, rx, cfg.carrier_frequency, room=room, mode=cfg.mode,
                          pattern=cfg.element_pattern)
    if np.any(np.abs(h) >= 1.0):
        raise ValueError(
            "passive propagation produced a gain >= 1; a receive antenna is "
            "implausibly close to the array"
        )
    return ChannelMatrix(
        h=h,
        n_users=scenario.n_users,
        antennas_per_ue=scenario.antennas_per_ue,
    )


def estimate_csi(true_channel, cfg):
    """Pilot-based channel estimate: the true channel plus Gaussian error.

    The per-entry error variance is mean(|H|^2) / 10^(csi_snr_db / 10);
    an infinite SNR returns an exact copy.  Reproducible via
    ``cfg.rng_seed``.
    """
    if not math.isfinite(cfg.csi_snr_db) and cfg.csi_snr_db > 0:
        return replace(true_channel, h=true_channel.h.copy())
    h = true_channel.h
    noise_var = float(np.mean(np.abs(h) ** 2)) / 10.0 ** (cfg.csi_snr_db / 10.0)
    rng = np.random.default_rng(cfg.rng_seed)
    scale = math.sqrt(noise_var / 2.0)
    noise = rng.normal(scale=scale, size=h.shape) + 1j * rng.normal(scale=scale, size=h.shape)
    return replace(true_channel, h=h + noise)
