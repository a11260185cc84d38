"""OFDM frame transmission with Gray-mapped 64-QAM and per-user uncoded BER.

Constellation: square 64-QAM built from two independent Gray-coded 8-PAM
axes with levels {-7,-5,-3,-1,+1,+3,+5,+7} / sqrt(42), giving unit average
symbol energy.  Each 6-bit group maps MSB-first: bits 0..2 select the I
level, bits 3..5 the Q level, via the 3-bit Gray table

    000 -> -7   001 -> -5   011 -> -3   010 -> -1
    110 -> +1   111 -> +3   101 -> +5   100 -> +7

so adjacent levels differ in exactly one bit and ``000000`` maps to
(-7 - 7j) / sqrt(42).

The link simulation is frequency domain: the channel is flat across the
band (~1.5% fractional bandwidth), so each subcarrier sees the same
effective matrix and subcarriers only multiply the number of independent
symbol slots.  An optional time-domain mode runs the same frame through
an IFFT/FFT pair as a cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .precoding import effective_channel

_QAM_SCALE = 1.0 / math.sqrt(42.0)

# level = _LEVEL_BY_VALUE[3-bit value], MSB first; inverse below.
_LEVEL_BY_VALUE = np.array([-7, -5, -1, -3, 7, 5, 1, 3], dtype=np.int64)
# 3-bit value = _VALUE_BY_LEVEL_INDEX[(level + 7) // 2]
_VALUE_BY_LEVEL_INDEX = np.array([0, 1, 3, 2, 6, 7, 5, 4], dtype=np.int64)

_BIT_WEIGHTS = np.array([4, 2, 1], dtype=np.int64)


@dataclass(frozen=True)
class OfdmConfig:
    """Waveform numerology plus receiver noise and seeding.

    The defaults describe a 40 MHz channel at 61.44 Msps: 4096-point FFT
    at 15 kHz subcarrier spacing with 2664 active subcarriers (222
    resource blocks of 12; 40 MHz / 15 kHz = 2666.7 is not an integer so
    the nearest 12-divisible count is used).  A frame is 65536 samples =
    16 OFDM symbols without cyclic prefix.  ``noise_snr_db`` sets the
    per-antenna receiver noise power relative to the unit-power
    constellation; ``frames`` repeats the frame to accumulate bits.
    """

    subcarrier_spacing: float = 15_000.0
    sample_rate: float = 61_440_000.0
    fft_size: int = 4096
    active_subcarriers: int = 2664
    frame_samples: int = 65_536
    noise_snr_db: float = 60.0
    rng_seed: int = 0
    frames: int = 1
    time_domain: bool = False

    def __post_init__(self):
        if self.fft_size < 1:
            raise ValueError("fft_size must be >= 1")
        if self.sample_rate / self.fft_size != self.subcarrier_spacing:
            raise ValueError(
                f"sample_rate / fft_size = {self.sample_rate / self.fft_size} Hz "
                f"does not equal the subcarrier spacing {self.subcarrier_spacing} Hz"
            )
        if self.active_subcarriers * self.subcarrier_spacing > 40e6:
            raise ValueError("active subcarriers exceed the 40 MHz bandwidth")
        if self.active_subcarriers >= self.fft_size:
            raise ValueError("active subcarriers must fit inside the FFT grid")
        if self.frame_samples % self.fft_size != 0:
            raise ValueError("frame_samples must be a whole number of OFDM symbols")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")

    @property
    def symbols_per_frame(self):
        return self.frame_samples // self.fft_size

    @property
    def bits_per_frame(self):
        """Payload bits per stream in one frame."""
        return self.active_subcarriers * self.symbols_per_frame * 6


@dataclass(frozen=True)
class BerReport:
    """Uncoded bit error rate per user for one scenario."""

    scenario_id: str
    per_ue_ber: tuple
    bits_tested: int

    def __post_init__(self):
        if self.bits_tested <= 0:
            raise ValueError("bits_tested must be positive")
        if any(not 0.0 <= b <= 1.0 for b in self.per_ue_ber):
            raise ValueError("BER values must lie in [0, 1]")


def map_64qam(bits):
    """Map a bit sequence (length divisible by 6) to unit-energy 64-QAM symbols."""
    bits = np.asarray(bits, dtype=np.int64).reshape(-1)
    if bits.size % 6 != 0:
        raise ValueError(f"bit count {bits.size} is not divisible by 6")
    groups = bits.reshape(-1, 6)
    i_val = groups[:, :3] @ _BIT_WEIGHTS
    q_val = groups[:, 3:] @ _BIT_WEIGHTS
    return (_LEVEL_BY_VALUE[i_val] + 1j * _LEVEL_BY_VALUE[q_val]) * _QAM_SCALE


def demap_64qam(symbols):
    """Hard-decision nearest-point demapping back to bits (Gray inverse).

    Values beyond the outermost level saturate, so any finite input is
    demapped.
    """
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    bits = np.empty((symbols.size, 6), dtype=np.int64)
    for offset, axis in ((0, symbols.real), (3, symbols.imag)):
        level = np.clip(np.round((axis / _QAM_SCALE + 7.0) / 2.0), 0, 7).astype(np.int64)
        value = _VALUE_BY_LEVEL_INDEX[level]
        bits[:, offset] = (value >> 2) & 1
        bits[:, offset + 1] = (value >> 1) & 1
        bits[:, offset + 2] = value & 1
    return bits.reshape(-1)


def _noise_power(noise_snr_db):
    if math.isinf(noise_snr_db) and noise_snr_db > 0:
        return 0.0
    return 10.0 ** (-noise_snr_db / 10.0)


def _complex_noise(rng, shape, power):
    if power == 0.0:
        return 0.0
    s = math.sqrt(power / 2.0)
    return rng.normal(scale=s, size=shape) + 1j * rng.normal(scale=s, size=shape)


def transmit_frame(precoder, h_true, combiners, cfg, scenario_id=""):
    """Send ZF-precoded frames over the true channel and count bit errors.

    Every stream carries independent random 64-QAM symbols on each active
    subcarrier of each OFDM symbol.  Receiver noise is added per UE
    antenna before combining; the combined sample is equalised by the
    known effective diagonal gain and hard-demapped.  Deterministic in
    ``cfg.rng_seed``.
    """
    k = h_true.n_users
    if precoder.n_streams != k:
        raise ValueError(
            f"precoder has {precoder.n_streams} streams for {k} users"
        )
    eff = effective_channel(h_true, precoder, combiners)
    diag = np.diag(eff)
    if np.any(np.abs(diag) == 0.0):
        raise ValueError("effective channel has a zero diagonal gain")

    rng = np.random.default_rng(cfg.rng_seed)
    noise_power = _noise_power(cfg.noise_snr_db)
    slots = cfg.active_subcarriers * cfg.symbols_per_frame
    errors = np.zeros(k, dtype=np.int64)

    for _ in range(cfg.frames):
        bits = rng.integers(0, 2, size=(k, slots * 6))
        symbols = np.vstack([map_64qam(bits[u]) for u in range(k)])
        if cfg.time_domain:
            received = _propagate_time_domain(symbols, h_true, precoder, combiners,
                                              cfg, rng, noise_power)
        else:
            received = _propagate_flat(symbols, h_true, precoder, combiners,
                                       rng, noise_power)
        for u in range(k):
            est_bits = demap_64qam(received[u] / diag[u])
            errors[u] += int(np.count_nonzero(est_bits != bits[u]))

    bits_tested = cfg.frames * slots * 6
    ber = tuple(float(e) / bits_tested for e in errors)
    return BerReport(scenario_id=scenario_id, per_ue_ber=ber, bits_tested=bits_tested)


def _propagate_flat(symbols, h_true, precoder, combiners, rng, noise_power):
    """Frequency-domain propagation: one matrix multiply per UE antenna set."""
    x = precoder.w @ symbols
    k = h_true.n_users
    received = np.empty_like(symbols)
    for u in range(k):
        y = h_true.ue_block(u) @ x
        y += _complex_noise(rng, y.shape, noise_power)
        received[u] = combiners[u].conj() @ y
    return received


def _propagate_time_domain(symbols, h_true, precoder, combiners, cfg, rng, noise_power):
    """IFFT -> flat channel -> FFT cross-check path (no delay spread).

    Active subcarriers occupy bins -A/2..-1 and +1..+A/2 around DC (DC
    itself is left empty).  Orthonormal FFTs keep per-subcarrier noise
    power identical to the frequency-domain path.
    """
    k = h_true.n_users
    n_sym = cfg.symbols_per_frame
    a = cfg.active_subcarriers
    bins = np.concatenate([np.arange(-a // 2, 0), np.arange(1, a // 2 + 1)])
    bins = np.mod(bins, cfg.fft_size)

    grid = np.zeros((k, n_sym, cfg.fft_size), dtype=np.complex128)
    grid[:, :, bins] = symbols.reshape(k, n_sym, a)
    tx_time = np.fft.ifft(grid, axis=2, norm="ortho")

    received = np.empty((k, n_sym, a), dtype=np.complex128)
    x = np.tensordot(precoder.w, tx_time, axes=([1], [0]))
    for u in range(k):
        y = np.tensordot(h_true.ue_block(u), x, axes=([1], [0]))
        y += _complex_noise(rng, y.shape, noise_power)
        combined = np.tensordot(combiners[u].conj(), y, axes=([0], [0]))
        spectrum = np.fft.fft(combined, axis=1, norm="ortho")
        received[u] = spectrum[:, bins]
    return received.reshape(k, n_sym * a)
