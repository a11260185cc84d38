"""Per-element reference for the image-mode gain matrix.

Mirrors one transmit element at a time into the six room surfaces and
sums that element's column ray by ray: the direct ray, then the images
in the order x-low wall, x-high wall, y-low wall, y-high wall, floor,
ceiling, skipping a surface whose coefficient is 0.  This is the loop
that ``beamfield.channel.propagation_gains`` replaced with one mirror of
the whole array; the tests require its gains to equal these byte for
byte.
"""

import math

import numpy as np

from beamfield.geometry import wavelength


def element_images(room, tx):
    """(position, coefficient) of the six first-order images of one point."""
    x, y, z = (float(v) for v in tx)
    wx = room.width_x / 2.0
    w_lo, w_hi, w_near, w_far = room.wall_reflections()
    return [
        ((-2 * wx - x, y, z), w_lo),
        ((2 * wx - x, y, z), w_hi),
        ((x, -y, z), w_near),
        ((x, 2 * room.length_y - y, z), w_far),
        ((x, y, -z), room.floor_reflection),
        ((x, y, 2 * room.height_z - z), room.ceiling_reflection),
    ]


def image_gains(tx_points, rx_points, frequency, room, pattern="isotropic"):
    """Image-mode gains (n_rx x n_tx), one transmit column at a time."""
    lam = wavelength(frequency)
    rx = np.atleast_2d(np.asarray(rx_points, dtype=float))

    def ray(src, coeff=None):
        dx = rx[:, 0] - src[0]
        dy = rx[:, 1] - src[1]
        dz = rx[:, 2] - src[2]
        d = np.sqrt(dx * dx + dy * dy + dz * dz)
        g = (lam / (4.0 * math.pi * d)) * np.exp(-2j * math.pi * d / lam)
        if coeff is not None:
            g = g * coeff
        if pattern == "cosine":
            # cos^2 power pattern over the front half space: peak gain 6.
            g = g * (math.sqrt(6.0) * np.clip(dy / d, 0.0, None))
        return g

    out = np.empty((len(rx), len(tx_points)), dtype=complex)
    for t, src in enumerate(tx_points):
        column = ray(src)
        for image, coeff in element_images(room, src):
            if coeff != 0.0:
                column = column + ray(image, coeff)
        out[:, t] = column
    return out
