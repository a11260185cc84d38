"""Downlink propagation channel and pilot-based CSI estimation.

The propagation model is free-space line of sight (``los-only``) or, by
default, line of sight plus first-order image sources for the six room
surfaces (``image-order-1``: four walls, floor, ceiling).  Each surface
contributes a mirrored transmitter whose ray is weighted by that
surface's amplitude reflection coefficient, which reproduces the dominant
standing-wave structure of an indoor link without a full ray tracer.  Each
surface mirrors one coordinate, so an array's image is one column mirrored.

:func:`generate_channel` takes a sequence of scenarios, so a run's link
block gets every scenario's channel from one gain evaluation.
:class:`ChannelModelConfig` owns the ray model: its defaults, image-order-1
with 40 dB pilot CSI, are a run's calibrated operating point, and the stage
functions read mode, pattern, carrier and UE height from it, never a default.
The screens :func:`lit_above` and :func:`may_reach_unit_gain` take the
(x, y, z) rows the geometry builders make and run on plain floats, so
validation loads no numpy; they read the same mirror rule (:func:`_mirror`)
as the gains do.  :func:`propagation_gains` makes the arrays it computes on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import _numpy_on_first_use
from .geometry import DEFAULT_MOUNT_HEIGHT_M, _box, ue_antenna_positions, wavelength

np = _numpy_on_first_use(globals())

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

    ``csi_snr_db = math.inf`` means perfect channel knowledge.  Channel
    generation is a pure function of the geometry; only the CSI estimate
    draws noise, from the seed given to :func:`estimate_csi`.
    """

    # Calibrated link operating point: first-order reflections decorrelate
    # users that share a bearing (two users on the boresight axis are nearly
    # colinear in pure LoS), and this CSI quality, with OfdmConfig's noise
    # level, puts every built-in scenario at an uncoded BER of 1e-2 or better
    # with the more-users-worse ordering clearly resolved.
    mode: str = MODE_IMAGE_1
    carrier_frequency: float = 2.63e9
    csi_snr_db: float = 40.0
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

    ``h`` is (users x antennas per user x active elements): users in
    scenario order, ``h[k]`` the block of user ``k``, one column per
    active transmit element.
    """

    h: np.ndarray

    @property
    def n_users(self):
        return self.h.shape[0]

    @property
    def antennas_per_ue(self):
        return self.h.shape[1]


def _coefficients(room):
    """The six surfaces' amplitude reflection coefficients, in the fixed order
    x-low wall, x-high wall, y-low wall, y-high wall, floor, ceiling."""
    return (*room.wall_reflections(), room.floor_reflection, room.ceiling_reflection)


def _mirror(room, surface, v):
    """Coordinate ``v`` on axis ``surface // 2`` mirrored in ``surface`` (numbered as
    in :func:`_coefficients`); ``v`` is a float or an array.  The planes y = 0 and
    z = 0 negate it, so a coordinate of 0 mirrors to -0.0.
    """
    if surface in (2, 4):
        return -v
    wx = room.width_x / 2.0
    return (-2 * wx, 2 * wx, None, 2 * room.length_y, None, 2 * room.height_z)[surface] - v


def _reflecting(room, mode, points, what):
    """The surfaces, numbered as in :func:`_coefficients`, whose images the ray model
    ``mode`` adds to the direct rays: none in LoS, in image mode each whose
    coefficient is not 0.  In image mode the (x, y, z) rows ``points`` must
    lie inside the room (:meth:`~beamfield.geometry.Room.require_inside`),
    which names them ``what``.
    """
    if mode != MODE_IMAGE_1:
        return []
    if room is None:
        raise ValueError("image-order-1 mode requires a room")
    room.require_inside(points, what)
    return [s for s, coeff in enumerate(_coefficients(room)) if coeff != 0.0]


def _lengths(squares, out):
    """Ray lengths (R x T) from the three squared axis offsets, into ``out``.

    They are summed as (x*x + y*y) + z*z, the order in which
    ``np.linalg.norm(rx[:, None] - points[None], axis=2)`` adds them, so
    the lengths are bit-identical to it without its (R, T, 3) temporary.
    """
    np.add(squares[0], squares[1], out=out)
    np.add(out, squares[2], out=out)
    return np.sqrt(out, out=out)


def _free_space(d, lam, out, scratch):
    """``(lam / (4 pi d)) * exp(-2j pi d / lam)`` per ray length, into ``out``.

    The operations and their order are those of the expression, so the
    gains are bit-identical to it; ``scratch`` is a real array like ``d``.
    One is rewritten: numpy divides a complex by a real ``lam`` (Smith's
    method with a zero imaginary part) by multiplying with ``1.0 / lam``,
    so that product gives the same bits without a division per entry.
    """
    if np.any(d == 0.0):
        raise ValueError("a probe/receive point coincides with a transmit element")
    np.multiply(-2j * math.pi, d, out=out)
    np.multiply(out, 1.0 / lam, out=out)
    np.exp(out, out=out)
    np.multiply(4.0 * math.pi, d, out=scratch)
    np.divide(lam, scratch, out=scratch)
    return np.multiply(scratch, out, out=out)


def _pattern_amplitude(d, dy, out):
    """Cosine element amplitude factor per ray of length ``d``, into ``out``;
    boresight is +y."""
    np.divide(dy, d, out=out)
    np.clip(out, 0.0, None, out=out)
    return np.multiply(math.sqrt(_COSINE_PEAK_GAIN), out, out=out)


def lit_above(tx_points, room, cfg):
    """The y at or below which ``cfg``'s pattern lights no ray of :func:`propagation_gains`.

    ``tx_points`` is a sequence of (x, y, z) rows.  -inf for the isotropic
    pattern; for the cosine pattern, which lights a receiver only from
    sources at smaller y, their least y (0.0, never -0.0).  A mirror maps
    y to y or c - y, so only the transmit points of least and greatest y
    are mirrored.  In image mode those two must lie inside the room, or
    :class:`ValueError` names the one outside a transmit point.
    """
    if cfg.element_pattern == PATTERN_ISOTROPIC:
        return -math.inf
    ends = [min(tx_points, key=lambda p: p[1]), max(tx_points, key=lambda p: p[1])]
    surfaces = _reflecting(room, cfg.mode, ends, "transmit point")
    ys = [y for _, y, _ in ends]
    ys += [_mirror(room, s, y) for s in surfaces if s // 2 == 1 for y in ys]
    return min(ys) + 0.0


def may_reach_unit_gain(tx_points, rx_points, room, cfg):
    """False when no entry of :func:`propagation_gains` can reach a magnitude of 1.

    ``tx_points`` and ``rx_points`` are sequences of (x, y, z) rows.  A ray
    from a source at distance d has a gain of at most lam / (4 pi d) times
    the pattern's peak amplitude, and an entry sums one ray per source.
    Mirroring is an isometry, so the distance from an image source to a
    receiver is the distance from the transmit point to the receiver's
    image in the same surface.  With d the least distance from a receiver
    or one of its images to the transmit points' bounding box, every entry
    is therefore below 1 (and every ray longer than 0) when d exceeds
    ``sources x peak x lam / (4 pi)``.

    A distance to the box is the hypot of the three per-axis gaps
    max(low - c, c - high, 0), and a hypot is at least each of them, so a
    pair with a gap beyond the limit on one axis is cleared without one.
    A whole source is cleared when its receivers' coordinates on one axis
    all lie beyond the box by more than the limit: the gap to their least
    or greatest value bounds every other, since rounding keeps subtraction
    monotone.  Only the pairs within the limit on every axis get a hypot,
    numpy's as over every pair, so the answer is exactly that of every pair.
    In image mode a receive point outside the room, where the bound fails,
    raises :class:`ValueError`; validation has checked its own, but any
    caller may pass points.
    """
    surfaces = _reflecting(room, cfg.mode, rx_points, "receive point")
    peak = math.sqrt(_COSINE_PEAK_GAIN) if cfg.element_pattern == PATTERN_COSINE else 1.0
    limit = (1 + len(surfaces)) * peak * wavelength(cfg.carrier_frequency) / (4.0 * math.pi)
    box = _box(tx_points)
    spans = _box(rx_points)
    near = []
    for surface in (None, *surfaces):
        axis = None if surface is None else surface // 2
        # The mirror reverses the order of the coordinates it maps.
        ranges = [(_mirror(room, surface, high), _mirror(room, surface, low)) if a == axis
                  else (low, high) for a, (low, high) in enumerate(spans)]
        if any(low - top > limit or bottom - high > limit
               for (bottom, top), (low, high) in zip(ranges, box)):
            continue
        for point in rx_points:
            coords = [_mirror(room, surface, c) if a == axis else c for a, c in enumerate(point)]
            gaps = [max(max(low - c, c - high), 0.0) for c, (low, high) in zip(coords, box)]
            if max(gaps) <= limit:
                near.append(gaps)
    if not near:
        return False
    x, y, z = np.array(near).T
    return float(np.hypot(np.hypot(x, y), z).min()) <= limit


def propagation_gains(tx_points, rx_points, frequency, room, mode, pattern):
    """Complex gain matrix (n_rx x n_tx) of the ray model ``mode`` and element ``pattern``.

    The sources are the transmit points, then their images in the surfaces
    of :func:`_reflecting`, in the order of :func:`_coefficients`.  Each adds its
    rays scaled by its coefficient and then by the element pattern, in
    that order.
    Receivers are taken in blocks of about ``_GAIN_BLOCK_ENTRIES`` gains,
    written into one result; every entry is computed by the same
    operations in the same order whatever the block, so the block size
    never changes a bit of the result.

    Each distinct ray is evaluated once per block.  An image mirrors one
    axis, so it shares the direct rays' squared offsets along the other
    two and only its own axis term is recomputed; the terms are still
    added in the order of :func:`_lengths`.  An image whose mirrored
    coordinates equal those of the transmit points (the y = 0 wall image
    of an array mounted on that wall) has the direct rays' lengths, so it
    reuses their free-space gains.
    """
    lam = wavelength(frequency)
    _check_model(mode, pattern)
    # The room check reads the caller's (x, y, z) rows, before they become arrays.
    surfaces = _reflecting(room, mode, tx_points, "transmit point")
    tx_points = np.atleast_2d(np.asarray(tx_points, dtype=float))
    rx_points = np.atleast_2d(np.asarray(rx_points, dtype=float))
    cosine = pattern == PATTERN_COSINE
    # Per image: the one axis its mirror changes (image s mirrors axis
    # s // 2), the transmit points' mirrored coordinates on it, its
    # coefficient and whether it coincides with the transmit points.
    images = []
    for s in surfaces:
        mirrored = _mirror(room, s, tx_points[:, s // 2])
        images.append((s // 2, mirrored, _coefficients(room)[s],
                       np.array_equal(mirrored, tx_points[:, s // 2])))

    n_rx, n_tx = len(rx_points), len(tx_points)
    g = np.empty((n_rx, n_tx), dtype=np.complex128)
    rows = max(1, _GAIN_BLOCK_ENTRIES // max(n_tx, 1))
    # One set of block buffers, no larger than the receivers need: three
    # squared offsets, two working arrays and, for the cosine pattern, a
    # scratch array and the direct rays' y offsets and lengths; two complex
    # gain arrays.
    shape = (min(rows, n_rx), n_tx)
    real = np.empty((8 if cosine else 5, *shape))
    gains = np.empty((2, *shape), dtype=np.complex128)
    for start in range(0, n_rx, rows):
        rx = rx_points[start:start + rows]
        n = len(rx)
        _block_gains(rx, tx_points, images, lam, cosine, g[start:start + n],
                     real[:, :n], gains[:, :n])
    return g


def _block_gains(rx, tx_points, images, lam, cosine, out, real, gains):
    """The gains of one block of receivers ``rx`` into ``out``; see
    :func:`propagation_gains`.  ``real`` and ``gains`` are its buffers.
    """
    squares, diff, d = real[:3], real[3], real[4]
    # Only the cosine pattern reads an image's y offsets after its squared
    # offsets are summed, and the direct rays' y offsets and lengths after
    # their gains are computed; otherwise those arrays are shared.
    scratch, dy, d_direct = real[5:8] if cosine else (diff, None, d)
    direct, ray = gains

    for axis, square in enumerate(squares):
        np.subtract(rx[:, axis, None], tx_points[:, axis], out=square)
        if cosine and axis == 1:
            dy[...] = square
        np.multiply(square, square, out=square)
    _lengths(squares, d_direct)
    _free_space(d_direct, lam, direct, scratch)
    if cosine:
        np.multiply(direct, _pattern_amplitude(d_direct, dy, scratch), out=out)
    else:
        out[...] = direct

    for axis, mirrored, coeff, coincident in images:
        if not coincident or (cosine and axis == 1):
            np.subtract(rx[:, axis, None], mirrored, out=diff)
        if coincident:
            ray_d = d_direct
            np.multiply(direct, coeff, out=ray)
        else:
            # The mirrored axis's term replaces the direct rays' one.
            terms = list(squares)
            terms[axis] = np.multiply(diff, diff, out=scratch)
            ray_d = _lengths(terms, d)
            _free_space(ray_d, lam, ray, scratch)
            np.multiply(ray, coeff, out=ray)
        if cosine:
            ray_dy = diff if axis == 1 else dy
            np.multiply(ray, _pattern_amplitude(ray_d, ray_dy, scratch), out=ray)
        out += ray


def generate_channel(array, scenarios, room, cfg):
    """Ground-truth downlink channels of ``scenarios`` at the carrier frequency.

    Returns one :class:`ChannelMatrix` per scenario, in order: users in
    scenario order, each user's antennas, then the active transmit
    elements in array order.  The scenarios' antennas are the receivers
    of one :func:`propagation_gains` call, one room check and one gain
    check, and each matrix is a view of its rows of the joint result.  A gain
    is computed by the same operations whatever the other receivers, so
    each matrix equals that scenario's own call bit for bit.
    Deterministic in the geometry.  Raises if a UE antenna lies outside
    the room or a gain reaches 1.
    """
    rx = [ue_antenna_positions(s, cfg) for s in scenarios]
    points = [p for antennas in rx for p in antennas]
    room.require_inside(points, "UE antenna")
    h = propagation_gains(array.active_positions(), points, cfg.carrier_frequency, room,
                          cfg.mode, cfg.element_pattern)
    if np.any(np.abs(h) >= 1.0):
        raise ValueError(
            "passive propagation produced a gain >= 1; a receive antenna is "
            "implausibly close to the array"
        )
    channels, start = [], 0
    for scenario, antennas in zip(scenarios, rx):
        rows = h[start:start + len(antennas)]
        channels.append(ChannelMatrix(
            h=rows.reshape(scenario.n_users, scenario.antennas_per_ue, h.shape[1])))
        start += len(antennas)
    return channels


def estimate_csi(true_channel, cfg, seed):
    """Pilot-based channel estimate: the true channel plus Gaussian error.

    The per-entry error variance is mean(|H|^2) / 10^(csi_snr_db / 10);
    an infinite SNR returns an exact copy.  The error is drawn from ``seed``.
    """
    if not math.isfinite(cfg.csi_snr_db) and cfg.csi_snr_db > 0:
        return replace(true_channel, h=true_channel.h.copy())
    h = true_channel.h
    noise_var = float(np.mean(np.abs(h) ** 2)) / 10.0 ** (cfg.csi_snr_db / 10.0)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(noise_var / 2.0)
    noise = rng.normal(scale=scale, size=h.shape) + 1j * rng.normal(scale=scale, size=h.shape)
    return replace(true_channel, h=h + noise)
