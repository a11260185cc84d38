"""Per-slot reference simulator for the bit-error counts of ``transmit_frame``.

It simulates every symbol slot of every frame in full: uniform symbol
indices for all users, the equalised samples (G W / diag) s, one
CN(0, sigma^2) noise draw per user and slot divided by the own gain, a
nearest-level decision on each axis and the bit errors of that decision.
The Gray tables, the demapper (a search among the midpoints between
levels), the bit count and the noise are its own; from ``beamfield`` it
takes only the public effective channel, so it shares no sampling code
with the package.
"""

import math

import numpy as np

from beamfield import effective_channel

# Axis level of each 3-bit Gray value, MSB first (000 -> -7 ... 100 -> +7).
GRAY_LEVEL = np.array([-7, -5, -1, -3, 7, 5, 1, 3]) / math.sqrt(42.0)
_LEVELS = np.sort(GRAY_LEVEL)
_MIDPOINTS = (_LEVELS[1:] + _LEVELS[:-1]) / 2
_VALUE_OF_LEVEL = np.argsort(GRAY_LEVEL)
# Set bits of every 6-bit value.
_BITS = np.array([sum((v >> b) & 1 for b in range(6)) for v in range(64)])


def constellation(indices):
    """The 64-QAM point of each 6-bit index: I from bits 5..3, Q from bits 2..0."""
    return GRAY_LEVEL[indices >> 3] + 1j * GRAY_LEVEL[indices & 7]


def decide(samples):
    """The 6-bit index of the nearest constellation point of each sample."""
    def axis(values):
        return _VALUE_OF_LEVEL[np.searchsorted(_MIDPOINTS, values)]
    return (axis(samples.real) << 3) | axis(samples.imag)


def frame_errors(precoder, h_true, combiners, cfg, rng):
    """Bit errors per user over ``cfg.frames`` frames, every slot simulated."""
    k = h_true.n_users
    eff = effective_channel(h_true, precoder, combiners)
    gain = np.diag(eff)[:, None]
    noise_sd = 0.0 if math.isinf(cfg.noise_snr_db) else \
        math.sqrt(10.0 ** (-cfg.noise_snr_db / 10.0) / 2.0)
    slots = cfg.active_subcarriers * cfg.symbols_per_frame
    errors = np.zeros(k, dtype=np.int64)
    for _ in range(cfg.frames):
        sent = rng.integers(0, 64, size=(k, slots))
        noise = noise_sd * (rng.standard_normal((k, slots))
                            + 1j * rng.standard_normal((k, slots)))
        received = (eff / gain) @ constellation(sent) + noise / gain
        errors += _BITS[decide(received) ^ sent].sum(axis=1)
    return errors
