"""OFDM frame transmission with Gray-mapped 64-QAM and per-user uncoded BER.

Constellation: square 64-QAM built from two independent Gray-coded 8-PAM
axes with levels {-7,-5,-3,-1,+1,+3,+5,+7} / sqrt(42), giving unit average
symbol energy.  A symbol is a 6-bit index: its high three bits
(index >> 3) select the I level and its low three bits (index & 7) the Q
level, via the 3-bit Gray table

    000 -> -7   001 -> -5   011 -> -3   010 -> -1
    110 -> +1   111 -> +3   101 -> +5   100 -> +7

so adjacent levels differ in exactly one bit and index 0 maps to
(-7 - 7j) / sqrt(42).  The receiver decides an index, and the bit errors
of a decision are the popcount of sent XOR decided, so bits are never
unpacked.

The link is simulated on the k x k post-combining channel, evaluated at
the carrier only, so every active subcarrier of every OFDM symbol is an
independent symbol slot seeing the same matrices.  The band's ~1.5%
fractional bandwidth bounds beam squint, not multipath, so how close
that is depends on the channel mode.  In ``los-only`` each element and
antenna share one ray, and over the default grid the direct rays to one
receiver differ by at most 0.38 m (1.3 ns): the channel is near-flat
over the 40 MHz band.  In ``image-order-1`` an image ray is up to 28 m
(93 ns) longer than the direct ray in the default 15 m room (the
back-wall image at the y = 1 m probe row; 24.8 m at the built-in UE
antennas), so the channel decorrelates over about 10 MHz, inside the
band, and the carrier-only evaluation is an approximation.

User u combines its antennas as c_u^H (H_u W s + n_u), with
n_u ~ CN(0, sigma^2 I) white receiver noise.  The signal part is
row u of the effective channel G W times s.  The combiner is fixed by the
channel estimate and has unit norm, so c_u^H n_u is CN(0, sigma^2), and
users own disjoint antennas, so these draws are independent across users
and slots.  Sampling (G W) s plus one CN(0, sigma^2) draw per user and
slot therefore gives exactly the distribution of the combined samples,
without forming the n_tx x slots transmit block or per-antenna noise.

The sampler draws noise only where it can flip a decision.  User u's
equalised sample is s_u + d_u + n_u / g_u, with own gain g_u = (G W)[u, u],
interference d_u = (e_uu - 1) s_u + sum_{j != u} e_uj s_j from its row e_u
of (G W) / g_u, and noise whose I and Q parts are N(0, sigma^2 / 2 / |g_u|^2).
No point is farther than 7 sqrt(2) S from the origin, with S = 1/sqrt(42)
half the level spacing, so each axis of d_u is at most

    reach_u = 7 sqrt(2) S (|e_uu - 1| + sum_{j != u} |e_uj|).

An axis decides its own level while it stays less than S from it (the
outer levels saturate, which only helps), so whenever that axis's noise
has |n| <= tau_u = S - reach_u - 1e-9 S, the decision is the sent one,
whatever the symbols.  The 1e-9 S margin is far above the rounding of the
demapper's arithmetic.  A slot can therefore err only where one of its 2k
user-axis noises exceeds its tau, which happens independently per
component with p_c = erfc(tau / (sd sqrt 2)), and in a slot with prob.
P(any) = 1 - prod (1 - p_c).  Per frame the path draws

1. K ~ Binomial(slots, P(any)), the number of slots with an exceedance;
2. for each of the K slots, which components exceed, from their joint law
   given that one does: the first one with P(first = c) =
   prod_{c' < c} (1 - p_c') p_c / P(any), then every later one as its own
   Bernoulli(p).  Together these give the exact joint law of the 2k
   independent indicators given "at least one", so errors of different
   users in a slot stay as correlated as the full simulation makes them;
3. fresh symbol indices for the K slots.  Symbols are iid and independent
   of the noise, so which slots of the frame exceeded never matters;
4. for each exceeding component, its noise from the normal law given
   |n| > tau; a component that does not exceed cannot flip its axis, so
   its noise is left at 0;
5. the K slots' samples, their decisions and their bit errors.

A user whose reach is at least S (tau <= 0) gets p = 1 and an untruncated
draw, so an interference-limited link sends every slot through the same
code; a noiseless receiver gives p = 0 while tau > 0.  The error counts
of all users are thus exactly distributed as in the per-slot simulation.

Random stream order, per frame: one binomial draw of K; K uniforms for
the first exceeding component; 2k x K uniforms for the later ones,
component by component; one draw of all k x K uint8 symbol indices;
then the tail noise of the exceeding components, component by
component: first those with threshold below one standard deviation, one
normal each and then rounds of normals for the rejected (each keeps its
own sign), then the rest by Marsaglia's tail method, in rounds of two
uniforms per open draw, and one uniform each for the sign.  No block
size enters the stream.

Validation reads only :class:`OfdmConfig` and ``MAX_SAMPLES_PER_STREAM``,
so importing this module loads no numpy (see ``beamfield``): the symbol
tables are built by :func:`_tables` when a frame is first sent or demapped,
and numpy loads then, if the runner has not loaded it already.
"""

import functools
import math
from dataclasses import dataclass

from . import _numpy_on_first_use

np = _numpy_on_first_use(globals())

_QAM_SCALE = 1.0 / math.sqrt(42.0)

# level = _LEVEL_BY_VALUE[3-bit value], MSB first; _tables derives the inverse.
_LEVEL_BY_VALUE = (-7, -5, -1, -3, 7, 5, 1, 3)

#: Most samples one stream is simulated over in a run: frames x OFDM symbols x
#: active subcarriers.  It bounds both the per-frame arrays and the run time;
#: the default run uses 1.7e5.
MAX_SAMPLES_PER_STREAM = 10 ** 7

# Farthest any constellation point lies from the origin: the corner 7 + 7j.
_PEAK_AMPLITUDE = 7.0 * math.sqrt(2.0) * _QAM_SCALE
# Absolute margin by which the noise threshold stays inside the decision
# boundary; the demapper's rounding is ~1e-15 S.
_THRESHOLD_MARGIN = 1e-9 * _QAM_SCALE


@dataclass(frozen=True)
class OfdmConfig:
    """Waveform numerology plus receiver noise.

    The defaults describe a 40 MHz channel at 61.44 Msps: 4096-point FFT
    at 15 kHz subcarrier spacing with 2664 active subcarriers (222
    resource blocks of 12; 40 MHz / 15 kHz = 2666.7 is not an integer so
    the nearest 12-divisible count is used).  A frame is 65536 samples =
    16 OFDM symbols without cyclic prefix.  ``noise_snr_db`` sets the
    per-antenna receiver noise power relative to the unit-power
    constellation; ``frames`` repeats the frame to accumulate bits.  The
    default 64 dB over 4 frames is a run's calibrated operating point, with
    :class:`~beamfield.channel.ChannelModelConfig`'s CSI quality.
    """

    subcarrier_spacing: float = 15_000.0
    sample_rate: float = 61_440_000.0
    fft_size: int = 4096
    active_subcarriers: int = 2664
    frame_samples: int = 65_536
    # Calibrated with ChannelModelConfig's 40 dB CSI (see the comment there);
    # four frames send 1 022 976 bits per user.
    noise_snr_db: float = 64.0
    frames: int = 4

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
    def slots_per_frame(self):
        """Data symbols per stream in one frame: one per active subcarrier per OFDM symbol."""
        return self.active_subcarriers * self.symbols_per_frame

    @property
    def bits_per_frame(self):
        """Payload bits per stream in one frame."""
        return self.slots_per_frame * 6


@dataclass(frozen=True)
class BerReport:
    """Uncoded bit error rate per user for one scenario."""

    per_ue_ber: tuple
    bits_tested: int

    def __post_init__(self):
        if self.bits_tested <= 0:
            raise ValueError("bits_tested must be positive")
        if any(not 0.0 <= b <= 1.0 for b in self.per_ue_ber):
            raise ValueError("BER values must lie in [0, 1]")


@functools.cache
def _tables():
    """The symbol tables as arrays, built on first use, so that importing this
    module loads no numpy: the constellation point of every 6-bit symbol
    index, the set bits of every 6-bit value (a decision's bit errors are
    ``popcount[sent ^ decided]``) and the inverse of ``_LEVEL_BY_VALUE``:
    the 3-bit value of each level index ``(level + 7) // 2``.
    """
    symbols = np.arange(64)
    levels = np.array(_LEVEL_BY_VALUE, dtype=np.int64)
    constellation = (levels[symbols >> 3] + 1j * levels[symbols & 7]) * _QAM_SCALE
    popcount = np.array([bin(v).count("1") for v in range(64)], dtype=np.uint8)
    value_by_level_index = np.empty(len(levels), dtype=np.uint8)
    value_by_level_index[(levels + 7) // 2] = np.arange(len(levels))
    return constellation, popcount, value_by_level_index


def _demap_indices(symbols):
    """Hard-decision nearest-point symbol indices (uint8), elementwise.

    Values beyond the outermost level saturate, so any finite input is
    demapped.
    """
    value_by_level_index = _tables()[2]
    indices = np.zeros(symbols.shape, dtype=np.uint8)
    for shift, axis in ((3, symbols.real), (0, symbols.imag)):
        level = np.clip(np.round((axis / _QAM_SCALE + 7.0) / 2.0), 0, 7).astype(np.uint8)
        indices |= value_by_level_index[level] << shift
    return indices


def _exceedance(equalised, gain, noise_power):
    """Per user-axis component 2u (I) and 2u + 1 (Q): the noise standard
    deviation, the threshold t in those deviations that the noise must
    exceed to flip the decision, and the probability that it does.

    A user whose interference can reach the decision boundary on its own
    gets t = 0 and probability 1 (see the module docstring).
    """
    # |e_uu - 1| on the diagonal and |e_uj| off it.
    reach = _PEAK_AMPLITUDE * np.abs(equalised - np.eye(gain.size)).sum(axis=1)
    tau = _QAM_SCALE - _THRESHOLD_MARGIN - reach
    sd = math.sqrt(noise_power / 2.0) / np.abs(gain)
    # A noiseless receiver never exceeds a positive threshold.
    t = [0.0 if a <= 0.0 else a / s if s > 0.0 else math.inf
         for a, s in zip(tau.tolist(), sd.tolist())]
    p = [math.erfc(x / math.sqrt(2.0)) for x in t]
    return np.repeat([sd, t, p], 2, axis=1)


def _first_exceedance_cdf(p):
    """c[i] = P(some component <= i exceeds), for independent components
    exceeding with probabilities ``p``; c[-1] is P(any).

    Summing log1p(-p) keeps p ~ 1e-20 to rounding, where 1 - prod(1 - p)
    would give 0; a p of 1 makes c exactly 1 from there on.
    """
    log_none = np.full(p.shape, -math.inf)
    np.log1p(-p, out=log_none, where=p < 1.0)
    return 0.0 - np.expm1(np.cumsum(log_none))


def _exceedance_patterns(rng, n, p, cdf):
    """Which components exceed in ``n`` slots, given that at least one does
    in each: a (components, n) bool array.

    The first exceeding component is c with probability
    (cdf[c] - cdf[c - 1]) / cdf[-1]; every later one then exceeds on its
    own with its p, and every earlier one does not.
    """
    first = np.searchsorted(cdf / cdf[-1], rng.random(n), side="right")
    index = np.arange(p.size)[:, None]
    return (index == first) | ((index > first) & (rng.random((p.size, n)) < p[:, None]))


def _normal_tail(rng, t):
    """Standard normal draws conditioned on |x| > t, elementwise (t >= 0).

    Thresholds below 1 take plain normals, redrawn until they exceed;
    the rest take Marsaglia's tail method and a random sign.
    """
    x = np.empty(t.shape)
    near = t < 1.0
    x[near] = _plain_tail(rng, t[near])
    x[~near] = _marsaglia_tail(rng, t[~near])
    return x


def _plain_tail(rng, t):
    """Normals redrawn where |x| <= t; below t = 1 each is kept at least 31 % of the time."""
    x = rng.standard_normal(t.size)
    redo = np.flatnonzero(np.abs(x) <= t)
    while redo.size:
        x[redo] = rng.standard_normal(redo.size)
        redo = redo[np.abs(x[redo]) <= t[redo]]
    return x


def _marsaglia_tail(rng, t):
    """Marsaglia's method for the normal tail beyond t >= 1, with a random sign.

    y = sqrt(t^2 - 2 ln u) has density y exp(-(y^2 - t^2) / 2) on y > t;
    accepting it with probability t / y leaves the normal tail.  Each u
    lies in (0, 1], so its log is finite.
    """
    y = np.empty(t.size)
    redo = np.arange(t.size)
    while redo.size:
        tr = t[redo]
        u = 1.0 - rng.random((2, redo.size))
        y[redo] = np.sqrt(tr * tr - 2.0 * np.log(u[0]))
        redo = redo[(u[1] * y[redo] >= tr) | (y[redo] <= tr)]
    return np.where(rng.random(t.size) < 0.5, -y, y)


def transmit_frame(precoder, h_true, combiners, cfg, seed):
    """Send ZF-precoded frames over the true channel and count bit errors.

    Every stream carries independent uniform 64-QAM symbol indices on each
    active subcarrier of each OFDM symbol.  User u receives row u of the
    k x k effective channel (G W) times the symbols plus one CN(0, sigma^2)
    noise draw, which is its combined sample c_u^H (H_u W s + n_u) in
    distribution.  The sample is equalised by the known own gain
    (G W)[u, u], demapped to an index and compared with the sent one.

    It simulates only the slots in which some user's noise exceeds the
    threshold that keeps its decision: |n| <= tau leaves the own symbol
    whatever the interference does, the slots are iid so their positions
    never matter, and the exceeding components are drawn from their joint
    law given that one exceeds, which keeps the users' error counts
    jointly as distributed as in the per-slot simulation.  The module
    docstring gives the argument and the random-number order.
    Deterministic in ``seed``.
    """
    k = h_true.n_users
    if precoder.n_streams != k:
        raise ValueError(
            f"precoder has {precoder.n_streams} streams for {k} users"
        )
    # Imported here, so validation, which reads OfdmConfig only, loads no precoding.
    from .precoding import effective_channel

    eff = effective_channel(h_true, precoder, combiners)
    gain = np.diag(eff)
    if np.any(np.abs(gain) == 0.0):
        raise ValueError("effective channel has a zero diagonal gain")
    equalised = eff / gain[:, None]

    rng = np.random.default_rng(seed)
    # +inf dB gives 0.0: a noiseless receiver.
    noise_power = 10.0 ** (-cfg.noise_snr_db / 10.0)
    slots = cfg.slots_per_frame
    errors = np.zeros(k, dtype=np.int64)
    constellation, popcount, _ = _tables()
    sd, t, p = _exceedance(equalised, gain, noise_power)
    cdf = _first_exceedance_cdf(p)

    for _ in range(cfg.frames):
        n = int(rng.binomial(slots, cdf[-1]))
        if n == 0:
            continue
        hit = _exceedance_patterns(rng, n, p, cdf)
        sent = rng.integers(0, 64, size=(k, n), dtype=np.uint8)
        # Tail noise for the exceeding components, component by component.
        tail = _normal_tail(rng, np.repeat(t, np.count_nonzero(hit, axis=1)))
        noise = np.zeros(hit.shape)
        noise[hit] = tail
        noise *= sd[:, None]
        del hit, tail
        received = equalised @ constellation[sent]
        received.real += noise[0::2]
        received.imag += noise[1::2]
        del noise
        errors += popcount[_demap_indices(received) ^ sent].sum(axis=1, dtype=np.int64)
        # Free the frame before the next one is drawn, so the peak does not
        # hold two frames.
        del sent, received

    bits_tested = cfg.frames * cfg.bits_per_frame
    ber = tuple(float(e) / bits_tested for e in errors)
    return BerReport(per_ue_ber=ber, bits_tested=bits_tested)
