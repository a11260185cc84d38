"""First-principles oracle for the radiated field and the link quantities.

An element driven with weight w (sqrt-watts) radiates, along each ray of
length d, the phasor sqrt(30) * w * exp(-j 2 pi d / lambda) / d V/m.  The
rays of one element are the direct ray and, in image mode, one ray from
each of its six mirror images in the room surfaces, scaled by that
surface's reflection coefficient.  A probe's RMS field sums the element
phasors of each stream and adds the stream powers.

Everything here is scalar ``math`` / ``cmath`` arithmetic, one element
and one image at a time, written from those relations alone: it imports
nothing from ``beamfield.channel`` or ``beamfield.field``, so the tests
that compare the package against it do not compare the code with itself.
"""

import cmath
import math

SPEED_OF_LIGHT = 299_792_458.0

#: Impedance of free space (ohms).
FREE_SPACE_IMPEDANCE = 376.730313668


def _wavelength(frequency):
    return SPEED_OF_LIGHT / frequency


def _point(p):
    return tuple(float(v) for v in p)


def _images(room, src):
    """(position, coefficient) of the six first-order images of one point."""
    x, y, z = src
    half = room.width_x / 2.0
    w_lo, w_hi, w_near, w_far = room.wall_reflections()
    return [
        ((-2 * half - x, y, z), w_lo),                     # wall x = -width / 2
        ((2 * half - x, y, z), w_hi),                      # wall x = +width / 2
        ((x, -y, z), w_near),                              # wall y = 0
        ((x, 2 * room.length_y - y, z), w_far),            # wall y = length
        ((x, y, -z), room.floor_reflection),               # floor z = 0
        ((x, y, 2 * room.height_z - z), room.ceiling_reflection),
    ]


def _ray(src, dst, lam, pattern):
    """exp(-j 2 pi d / lambda) / d from ``src`` to ``dst``, times the element pattern."""
    d = math.dist(src, dst)
    if d == 0.0:
        raise ValueError("probe point coincides with a transmit element")
    g = cmath.exp(-2j * math.pi * d / lam) / d
    if pattern == "cosine":
        # cos^2(theta) power over the front half space (+y): peak gain 6.
        g *= math.sqrt(6.0) * max((dst[1] - src[1]) / d, 0.0)
    return g


def _rays(tx, probe, frequency, room, mode, pattern):
    """Sum over the rays of one element of exp(-j k d) / d, coefficients included."""
    tx, probe = _point(tx), _point(probe)
    lam = _wavelength(frequency)
    total = _ray(tx, probe, lam, pattern)
    if mode == "image-order-1":
        for image, coeff in _images(room, tx):
            total += coeff * _ray(image, probe, lam, pattern)
    return total


def los_gain(tx, rx, frequency):
    """Free-space channel gain (lambda / 4 pi d) * exp(-j 2 pi d / lambda)."""
    d = math.dist(_point(tx), _point(rx))
    if d == 0.0:
        raise ValueError("transmit and receive points coincide")
    lam = _wavelength(frequency)
    return lam / (4.0 * math.pi * d) * cmath.exp(-2j * math.pi * d / lam)


def element_field(tx, weight, probe, frequency, room=None, mode="los-only",
                  pattern="isotropic"):
    """Complex field phasor (V/m) of one element at one probe point."""
    return math.sqrt(30.0) * weight * _rays(tx, probe, frequency, room, mode, pattern)


def superpose_fields(array, precoder, probe, room, cfg, calibration=1.0):
    """RMS field (V/m) of a precoded transmission at one probe point.

    The elements of a stream add as phasors; the streams add in power.
    """
    rays = [_rays(tx, probe, cfg.carrier_frequency, room, cfg.mode, cfg.element_pattern)
            for tx in array.active_positions()]
    power = 0.0
    for column in precoder.w.T.tolist():
        stream = math.sqrt(30.0) * sum(w * g for w, g in zip(column, rays))
        power += abs(stream) ** 2
    return calibration * math.sqrt(power)


def power_to_field(received_power, frequency, probe_antenna_gain=1.0):
    """Field strength (V/m) from probe-received power (W).

    The probe's effective aperture is A = lambda^2 G / 4 pi, so the power
    density is S = P / A and the field E = sqrt(S * eta0).
    """
    if received_power < 0:
        raise ValueError("received power must be non-negative")
    aperture = _wavelength(frequency) ** 2 * probe_antenna_gain / (4.0 * math.pi)
    return math.sqrt(received_power / aperture * FREE_SPACE_IMPEDANCE)


def field_to_power(field_vpm, frequency, probe_antenna_gain=1.0):
    """Inverse of :func:`power_to_field`: the power the same aperture receives."""
    if field_vpm < 0:
        raise ValueError("field must be non-negative")
    aperture = _wavelength(frequency) ** 2 * probe_antenna_gain / (4.0 * math.pi)
    return field_vpm ** 2 / FREE_SPACE_IMPEDANCE * aperture


def interference_ratio(eff):
    """Largest |off-diagonal| over smallest |diagonal| of an effective channel."""
    k = len(eff)
    off = max((abs(eff[i][j]) for i in range(k) for j in range(k) if i != j), default=0.0)
    return off / min(abs(eff[i][i]) for i in range(k))
