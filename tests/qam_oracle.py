"""Independent closed-form BER oracle for Gray-mapped square 64-QAM.

The constellation is two Gray-coded 8-PAM axes with levels
{-7,-5,-3,-1,1,3,5,7} / sqrt(42) (unit average symbol energy) and the
3-bit Gray labelling 000,001,011,010,110,111,101,100 from the lowest to
the highest level.  The exact uncoded BER under AWGN is obtained by
integrating the Gaussian over every decision region and counting the
Hamming distance of the mis-decided labels; no demapper code from the
package is involved.

``residual_error_pmf_64qam`` extends this to one user of a zero-forcing
downlink whose precoder was built from an imperfect channel estimate:
after equalisation by its own gain, the user's sample is its symbol plus
a discrete interference term from the other streams plus Gaussian noise.
Averaging over every interferer symbol tuple gives the exact error
distribution, and ``count_log_tail`` turns it into a test of a measured
error count.
"""

import math

import numpy as np

_GRAY_SEQUENCE = (0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100)
_SCALE = 1.0 / math.sqrt(42.0)


def _phi(z):
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def exact_ber_64qam(ebn0_db):
    """Exact bit error rate of Gray 64-QAM at the given Eb/N0 (dB)."""
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    n0 = 1.0 / (6.0 * ebn0)          # Es = 1, 6 bits per symbol
    sigma = math.sqrt(n0 / 2.0)      # per real axis

    levels = [(2 * i - 7) * _SCALE for i in range(8)]
    thresholds = [(2 * i - 6) * _SCALE for i in range(7)]

    bit_error_sum = 0.0
    for m in range(8):
        for i in range(8):
            lo = -math.inf if i == 0 else thresholds[i - 1]
            hi = math.inf if i == 7 else thresholds[i]
            p = _phi((hi - levels[m]) / sigma) - _phi((lo - levels[m]) / sigma)
            flipped = _GRAY_SEQUENCE[m] ^ _GRAY_SEQUENCE[i]
            bit_error_sum += p * bin(flipped).count("1")
    # Average over 8 equiprobable levels, 3 bits per axis; both axes identical.
    return bit_error_sum / (8.0 * 3.0)


def approx_ber_64qam(ebn0_db):
    """Standard nearest-neighbour approximation (7/24) erfc(sqrt(Eb/N0 / 7))."""
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return (7.0 / 24.0) * math.erfc(math.sqrt(ebn0 / 7.0))


_LEVELS = np.array([(2 * i - 7) * _SCALE for i in range(8)])
# Every constellation point; each is sent with probability 1/64.
_POINTS = (_LEVELS[:, None] + 1j * _LEVELS[None, :]).reshape(-1)
_HAMMING = [[bin(a ^ b).count("1") for b in _GRAY_SEQUENCE] for a in _GRAY_SEQUENCE]
_ERFC = np.frompyfunc(math.erfc, 1, 1)
# Interferer tuples enumerated by the residual oracle: 64^(k-1) for k <= 3 users.
MAX_INTERFERER_TUPLES = 64 ** 2


def _axis_error_pmf(offsets, sigma):
    """P(h of one axis' 3 bits are wrong), h = 0..3, per interference offset.

    ``offsets`` shifts the sample on this axis; the own level is one of
    the 8 equiprobable levels and the noise is N(0, sigma^2).  Returns a
    (4, len(offsets)) array.  Every error probability is a difference of
    two Gaussian tails on the same side, so tiny values keep full
    relative precision.
    """
    c = (2 * np.arange(7) + 1)[:, None] * _SCALE
    scale = 1.0 / (sigma * math.sqrt(2.0))
    # up[c] = P(noise + offset > (2c+1) * scale), down[c] = P(noise + offset < -(2c+1) * scale):
    # the mass beyond the c-th decision threshold above / below the own level.
    up = 0.5 * _ERFC((c - offsets) * scale).astype(float)
    down = 0.5 * _ERFC((c + offsets) * scale).astype(float)
    pmf = np.zeros((4, offsets.size))
    for m in range(8):
        for i in range(8):
            if i > m:
                p = up[i - 1 - m] - (up[i - m] if i < 7 else 0.0)
            elif i < m:
                p = down[m - 1 - i] - (down[m - i] if i > 0 else 0.0)
            else:
                continue
            pmf[_HAMMING[m][i]] += p / 8.0
    pmf[0] = 1.0 - pmf[1:].sum(axis=0)
    return pmf


def residual_error_pmf_64qam(residual, noise_var):
    """Exact distribution of the bit errors in one equalised 64-QAM symbol.

    The equalised sample is ``s + sum_j residual[j] * s_j + n``: unit own
    gain, complex residual coefficients ``residual[j]`` = (G W)[u, j] /
    (G W)[u, u] of the other streams, and n ~ CN(0, noise_var) with
    noise_var = sigma^2 / |(G W)[u, u]|^2.  All symbols are independent
    and uniform.  Given an interferer tuple, the I and Q decisions are
    independent (own level and noise are independent per axis), so their
    error counts convolve; the result is averaged over all 64^(k-1)
    tuples.  Returns P(0..6 bit errors) as a length-7 array.
    """
    if noise_var <= 0:
        raise ValueError("the oracle needs a positive noise variance")
    offsets = np.zeros(1, dtype=complex)
    for a in residual:
        offsets = (offsets[:, None] + a * _POINTS[None, :]).reshape(-1)
        if offsets.size > MAX_INTERFERER_TUPLES:
            raise ValueError("too many interferers to enumerate")
    sigma = math.sqrt(noise_var / 2.0)
    pmf_i = _axis_error_pmf(offsets.real, sigma)
    pmf_q = _axis_error_pmf(offsets.imag, sigma)
    pmf = np.zeros(7)
    for hi in range(4):
        for hq in range(4):
            pmf[hi + hq] += float(np.mean(pmf_i[hi] * pmf_q[hq]))
    return pmf


def residual_ber_64qam(residual, noise_var):
    """Exact BER of one user under residual interference (see above)."""
    pmf = residual_error_pmf_64qam(residual, noise_var)
    return float(np.dot(np.arange(7), pmf)) / 6.0


def count_log_tail(pmf, n, count):
    """Log of a Chernoff bound on the tail of a bit-error count beyond ``count``.

    The count is a sum of ``n`` independent symbols whose error counts
    follow ``pmf``.  Above the mean this bounds log P(X >= count), below it
    log P(X <= count); at the mean it is 0.  The bound is never below the
    true tail probability, so rejecting when it falls under alpha / 2
    keeps a two-sided test at level alpha.  When every symbol error flips
    one bit this is the binomial Chernoff bound.
    """
    support = [(h, math.log(p)) for h, p in enumerate(pmf) if p > 0.0]
    x = count / n
    lo, hi = support[0][0], support[-1][0]
    if x < lo or x > hi:
        return -math.inf
    if x in (lo, hi):
        return n * dict(support)[x]

    def log_mgf(t):
        top = max(lq + t * h for h, lq in support)
        return top + math.log(sum(math.exp(lq + t * h - top) for h, lq in support))

    def tilted_mean(t):
        top = max(lq + t * h for h, lq in support)
        w = [(h, math.exp(lq + t * h - top)) for h, lq in support]
        return sum(h * v for h, v in w) / sum(v for _, v in w)

    # The tilted mean rises from lo to hi; bracket and bisect tilted_mean(t) = x.
    t_lo, t_hi = -1.0, 1.0
    while tilted_mean(t_lo) > x:
        t_lo *= 2.0
    while tilted_mean(t_hi) < x:
        t_hi *= 2.0
    for _ in range(200):
        t = 0.5 * (t_lo + t_hi)
        if tilted_mean(t) < x:
            t_lo = t
        else:
            t_hi = t
    t = 0.5 * (t_lo + t_hi)
    return min(0.0, -t * count + n * log_mgf(t))
