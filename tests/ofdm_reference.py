"""Reference simulators for the bit-error counts of ``transmit_frame``.

``frame_errors`` simulates every symbol slot of every frame in full on
the k x k post-combining channel: uniform symbol indices for all users,
the equalised samples (G W / diag) s, one CN(0, sigma^2) noise draw per
user and slot divided by the own gain, a nearest-level decision on each
axis and the bit errors of that decision.  ``time_domain_errors`` runs
the full array instead: IFFT, every transmit element, every UE antenna
with its own noise, combining and FFT.  The Gray tables, the demapper (a
search among the midpoints between levels), the bit count and the noise
are their own; from ``beamfield`` they take only the public effective
channel, so they share no sampling code with the package.
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


def _noise_sd(cfg):
    """Standard deviation of each of a CN(0, sigma^2) draw's two parts."""
    return 0.0 if math.isinf(cfg.noise_snr_db) else \
        math.sqrt(10.0 ** (-cfg.noise_snr_db / 10.0) / 2.0)


def frame_errors(precoder, h_true, combiners, cfg, rng):
    """Bit errors per user over ``cfg.frames`` frames, every slot simulated."""
    k = h_true.n_users
    eff = effective_channel(h_true, precoder, combiners)
    gain = np.diag(eff)[:, None]
    noise_sd = _noise_sd(cfg)
    slots = cfg.active_subcarriers * cfg.symbols_per_frame
    errors = np.zeros(k, dtype=np.int64)
    for _ in range(cfg.frames):
        sent = rng.integers(0, 64, size=(k, slots))
        noise = noise_sd * (rng.standard_normal((k, slots))
                            + 1j * rng.standard_normal((k, slots)))
        received = (eff / gain) @ constellation(sent) + noise / gain
        errors += _BITS[decide(received) ^ sent].sum(axis=1)
    return errors


def time_domain_errors(precoder, h_true, combiners, cfg, rng):
    """Bit errors per user over ``cfg.frames`` frames sent through the full array.

    Per frame every user's symbols fill the active subcarriers, bins
    -A/2..-1 and +1..+A/2 around an empty DC, of every OFDM symbol.  An
    orthonormal IFFT takes them to time, the precoder W onto every
    transmit element and H_u to each of user u's antennas, which adds its
    own CN(0, sigma^2) noise; c_u^H combines them and an orthonormal FFT
    takes the result back to the subcarriers.  Orthonormal transforms keep
    each subcarrier's noise power at sigma^2, as on the flat path.  The
    samples are equalised by the own gain (G W)[u, u] and decided.
    """
    k = h_true.n_users
    gain = np.diag(effective_channel(h_true, precoder, combiners))
    noise_sd = _noise_sd(cfg)
    n_sym, a, n_fft = cfg.symbols_per_frame, cfg.active_subcarriers, cfg.fft_size
    bins = np.mod(np.concatenate([np.arange(-a // 2, 0), np.arange(1, a // 2 + 1)]), n_fft)
    errors = np.zeros(k, dtype=np.int64)
    for _ in range(cfg.frames):
        sent = rng.integers(0, 64, size=(k, n_sym, a))
        grid = np.zeros((k, n_sym, n_fft), dtype=np.complex128)
        grid[:, :, bins] = constellation(sent)
        x = np.tensordot(precoder.w, np.fft.ifft(grid, axis=2, norm="ortho"), axes=1)
        for u, h_u in enumerate(h_true.h):
            y = np.tensordot(h_u, x, axes=1)
            y += noise_sd * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
            combined = np.tensordot(combiners[u].conj(), y, axes=1)
            received = np.fft.fft(combined, axis=1, norm="ortho")[:, bins] / gain[u]
            errors[u] += _BITS[decide(received) ^ sent[u]].sum()
    return errors
