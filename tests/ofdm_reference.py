"""Whole-frame reference for the bit-error counts of ``transmit_frame``.

Each frame draws its symbol indices in one call, forms every user's
equalised samples over the whole frame, adds one (k, slots) noise draw
divided by the own gains, and demaps and counts all k x slots decisions at
once.  This is the frame loop that ``beamfield.ofdm.transmit_frame`` ran
before it took the flat path's noise, demap and count in blocks; the
tests require its error counts to equal these exactly.
"""

import numpy as np

from beamfield.ofdm import (
    _CONSTELLATION,
    _POPCOUNT,
    _complex_noise,
    _demap_indices,
    _noise_power,
    _propagate_time_domain,
)
from beamfield.precoding import effective_channel


def frame_errors(precoder, h_true, combiners, cfg):
    """Bit errors per user, summed over ``cfg.frames`` whole frames."""
    k = h_true.n_users
    eff = effective_channel(h_true, precoder, combiners)
    gain = np.diag(eff)[:, None]
    equalised = eff / gain
    rng = np.random.default_rng(cfg.rng_seed)
    noise_power = _noise_power(cfg.noise_snr_db)
    slots = cfg.active_subcarriers * cfg.symbols_per_frame
    errors = np.zeros(k, dtype=np.int64)
    for _ in range(cfg.frames):
        sent = rng.integers(0, 64, size=(k, slots), dtype=np.uint8)
        symbols = _CONSTELLATION[sent]
        if cfg.time_domain:
            received = _propagate_time_domain(symbols, h_true, precoder, combiners,
                                              cfg, rng, noise_power) / gain
        else:
            received = equalised @ symbols
            received += _complex_noise(rng, received.shape, noise_power) / gain
        errors += _POPCOUNT[_demap_indices(received) ^ sent].sum(axis=1, dtype=np.int64)
    return errors
