"""OFDM frame transmission with Gray-mapped 64-QAM and per-user uncoded BER.

Constellation: square 64-QAM built from two independent Gray-coded 8-PAM
axes with levels {-7,-5,-3,-1,+1,+3,+5,+7} / sqrt(42), giving unit average
symbol energy.  Each 6-bit group maps MSB-first: bits 0..2 select the I
level, bits 3..5 the Q level, via the 3-bit Gray table

    000 -> -7   001 -> -5   011 -> -3   010 -> -1
    110 -> +1   111 -> +3   101 -> +5   100 -> +7

so adjacent levels differ in exactly one bit and ``000000`` maps to
(-7 - 7j) / sqrt(42).  A symbol travels as its 6-bit index, the value of
its bit group; the receiver decides an index, and the bit errors of a
decision are the popcount of sent XOR decided, so bits are never unpacked.

The link is simulated on the k x k post-combining channel.  The channel
is flat across the band (~1.5% fractional bandwidth), so every active
subcarrier of every OFDM symbol is an independent symbol slot seeing the
same matrices.  User u combines its antennas as c_u^H (H_u W s + n_u),
with n_u ~ CN(0, sigma^2 I) white receiver noise.  The signal part is
row u of the effective channel G W times s.  The combiner is fixed by the
channel estimate and has unit norm, so c_u^H n_u is CN(0, sigma^2), and
users own disjoint antennas, so these draws are independent across users
and slots.  Sampling (G W) s plus one CN(0, sigma^2) draw per user and
slot therefore gives exactly the distribution of the combined samples,
without forming the n_tx x slots transmit block or per-antenna noise.
An optional time-domain mode runs the full array instead, as a
cross-check: IFFT, every UE antenna with its own noise, combining, FFT.

Random stream order, per frame: one draw of all k x slots symbol indices
(uint8 draws are buffered inside a call, so the call is never split), then
the noise, user-major, as the interleaved real pairs of one (k, 2 x slots)
normal draw.  The flat path forms the whole frame's k x k product in one
BLAS call (blocks of it round differently) and then adds the noise,
demaps and counts errors in blocks of ``_SLOT_BLOCK`` slots: whole users
while a user fits in a block, else one user's slots in order.  Consecutive
draws continue one stream, so each block draws exactly the normals that
one whole-frame draw would give its slots, and the block size never
changes an error count.
"""

import math
from dataclasses import dataclass

import numpy as np

from .precoding import effective_channel

_QAM_SCALE = 1.0 / math.sqrt(42.0)

# level = _LEVEL_BY_VALUE[3-bit value], MSB first; inverse below.
_LEVEL_BY_VALUE = np.array([-7, -5, -1, -3, 7, 5, 1, 3], dtype=np.int64)
# 3-bit value = _VALUE_BY_LEVEL_INDEX[(level + 7) // 2]
_VALUE_BY_LEVEL_INDEX = np.array([0, 1, 3, 2, 6, 7, 5, 4], dtype=np.uint8)

_BIT_WEIGHTS = np.array([4, 2, 1], dtype=np.int64)
# Shifts that take a 6-bit symbol index apart into its bits, MSB first.
_BIT_SHIFTS = np.arange(5, -1, -1)

#: Most samples one stream is simulated over in a run: frames x OFDM symbols x
#: active subcarriers (x FFT bins on the time-domain path).  It bounds both the
#: per-frame arrays and the run time; the default run uses 1.7e5.
MAX_SAMPLES_PER_STREAM = 10 ** 7

# Symbol slots per block of the flat path after its full-frame product: 8 Ki
# complex slots are 128 KiB, so the noise, equalisation, demap and error-count
# passes over a block run from the L2 cache.
_SLOT_BLOCK = 8192


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
        for name in ("subcarrier_spacing", "sample_rate", "fft_size",
                     "active_subcarriers", "frame_samples", "frames"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
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


def _index_bits(indices):
    """The 6 bits of each symbol index, MSB first: shape (n, 6)."""
    return (indices[:, None] >> _BIT_SHIFTS) & 1


# Constellation point of every 6-bit symbol index.
_CONSTELLATION = map_64qam(_index_bits(np.arange(64)))
# Set bits of every 6-bit value: a decision's bit errors are _POPCOUNT[sent ^ decided].
_POPCOUNT = np.array([bin(v).count("1") for v in range(64)], dtype=np.uint8)


def _demap_indices(symbols):
    """Hard-decision nearest-point symbol indices (uint8), elementwise.

    Values beyond the outermost level saturate, so any finite input is
    demapped.
    """
    indices = np.zeros(symbols.shape, dtype=np.uint8)
    for shift, axis in ((3, symbols.real), (0, symbols.imag)):
        level = np.clip(np.round((axis / _QAM_SCALE + 7.0) / 2.0), 0, 7).astype(np.uint8)
        indices |= _VALUE_BY_LEVEL_INDEX[level] << shift
    return indices


def demap_64qam(symbols):
    """Hard-decision nearest-point demapping back to bits (Gray inverse).

    Values beyond the outermost level saturate, so any finite input is
    demapped.
    """
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    return _index_bits(_demap_indices(symbols)).reshape(-1)


def _noise_power(noise_snr_db):
    if math.isinf(noise_snr_db) and noise_snr_db > 0:
        return 0.0
    return 10.0 ** (-noise_snr_db / 10.0)


def _complex_noise(rng, shape, power):
    """CN(0, power) samples of ``shape``, or 0.0 for a noiseless receiver."""
    if power == 0.0:
        return 0.0
    pairs = rng.normal(scale=math.sqrt(power / 2.0), size=(*shape[:-1], 2 * shape[-1]))
    return pairs.view(np.complex128)


def transmit_frame(precoder, h_true, combiners, cfg, scenario_id=""):
    """Send ZF-precoded frames over the true channel and count bit errors.

    Every stream carries independent uniform 64-QAM symbol indices on each
    active subcarrier of each OFDM symbol.  User u receives row u of the
    k x k effective channel (G W) times the symbols plus one CN(0, sigma^2)
    noise draw, which is its combined sample c_u^H (H_u W s + n_u) in
    distribution (see the module docstring).  The sample is equalised by
    the known own gain (G W)[u, u], demapped to an index and compared with
    the sent one.  Deterministic in ``cfg.rng_seed``.
    """
    k = h_true.n_users
    if precoder.n_streams != k:
        raise ValueError(
            f"precoder has {precoder.n_streams} streams for {k} users"
        )
    eff = effective_channel(h_true, precoder, combiners)
    gain = np.diag(eff)[:, None]
    if np.any(np.abs(gain) == 0.0):
        raise ValueError("effective channel has a zero diagonal gain")
    equalised = eff / gain

    rng = np.random.default_rng(cfg.rng_seed)
    noise_power = _noise_power(cfg.noise_snr_db)
    slots = cfg.active_subcarriers * cfg.symbols_per_frame
    errors = np.zeros(k, dtype=np.int64)

    # Blocks of whole users while a user fits in one, else one user at a time.
    rows = max(1, _SLOT_BLOCK // slots)
    cols = min(slots, _SLOT_BLOCK)

    for _ in range(cfg.frames):
        # One integers call per frame: its bounded uint8 draws are buffered,
        # so splitting the call would change the stream.
        sent = rng.integers(0, 64, size=(k, slots), dtype=np.uint8)
        if cfg.time_domain:
            received = _propagate_time_domain(_CONSTELLATION[sent], h_true, precoder,
                                              combiners, cfg, rng, noise_power) / gain
            errors += _POPCOUNT[_demap_indices(received) ^ sent].sum(axis=1, dtype=np.int64)
        else:
            # One BLAS product per frame: split into column blocks, it rounds
            # some entries differently.
            received = equalised @ _CONSTELLATION[sent]
            for u in range(0, k, rows):
                users = slice(u, u + rows)
                for c in range(0, slots, cols):
                    block = received[users, c:c + cols]
                    block = block + _complex_noise(rng, block.shape, noise_power) / gain[users]
                    wrong = _POPCOUNT[_demap_indices(block) ^ sent[users, c:c + cols]]
                    errors[users] += wrong.sum(axis=1, dtype=np.int64)
        # Free the frame before the next one is drawn, so the peak does not
        # hold two frames.
        del sent, received

    bits_tested = cfg.frames * cfg.bits_per_frame
    ber = tuple(float(e) / bits_tested for e in errors)
    return BerReport(scenario_id=scenario_id, per_ue_ber=ber, bits_tested=bits_tested)


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
