import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from beamfield import (
    BerReport,
    ChannelModelConfig,
    OfdmConfig,
    Scenario,
    combining_vectors,
    demap_64qam,
    effective_channel,
    estimate_csi,
    generate_channel,
    map_64qam,
    transmit_frame,
    zf_precoder,
)
from beamfield import ofdm

from conftest import perfect_link
from ofdm_reference import frame_errors
from qam_oracle import exact_ber_64qam

_SCALE = 1.0 / math.sqrt(42.0)


class TestOfdmConfig:
    def test_default_numerology(self):
        cfg = OfdmConfig()
        assert cfg.sample_rate / cfg.fft_size == cfg.subcarrier_spacing
        assert cfg.symbols_per_frame == 16
        assert cfg.bits_per_frame == 2664 * 16 * 6

    def test_spacing_mismatch_rejected(self):
        with pytest.raises(ValueError, match="spacing"):
            OfdmConfig(fft_size=2048)

    def test_bandwidth_bound(self):
        with pytest.raises(ValueError, match="40 MHz"):
            OfdmConfig(active_subcarriers=2700)

    @pytest.mark.parametrize("field,value", [
        ("sample_rate", -61_440_000.0), ("subcarrier_spacing", -15_000.0),
        ("active_subcarriers", 0), ("frame_samples", 0), ("frames", 0),
    ])
    def test_nonpositive_numerology_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            OfdmConfig(**{field: value})

    def test_partial_symbol_frame_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            OfdmConfig(frame_samples=65_000)


class TestQamMapping:
    def test_all_zero_bits(self):
        s = map_64qam([0, 0, 0, 0, 0, 0])
        assert s[0] == pytest.approx((-7 - 7j) * _SCALE, rel=1e-15)

    def test_unit_average_energy(self):
        # Mean |s|^2 over all 64 points is exactly 2 * 168 * 8 / 42 / 64 = 1.
        bits = np.array(
            [[(v >> b) & 1 for b in range(5, -1, -1)] for v in range(64)]
        ).reshape(-1)
        symbols = map_64qam(bits)
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_gray_table_documented_order(self):
        # Lowest-to-highest level must follow the Gray sequence on each axis.
        levels = {}
        for v in range(8):
            bits = [(v >> 2) & 1, (v >> 1) & 1, v & 1] + [0, 0, 0]
            levels[v] = map_64qam(bits)[0].real / _SCALE
        order = sorted(levels, key=lambda v: levels[v])
        assert order == [0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100]

    def test_round_trip(self):
        rng = np.random.default_rng(30)
        bits = rng.integers(0, 2, size=6 * 1000)
        assert np.array_equal(demap_64qam(map_64qam(bits)), bits)

    def test_length_checked(self):
        with pytest.raises(ValueError, match="divisible by 6"):
            map_64qam([0, 1, 0, 1])

    def test_demap_saturates_outside(self):
        far = np.array([100.0 + 100.0j])
        assert np.array_equal(demap_64qam(far), demap_64qam(np.array([(7 + 7j) * _SCALE])))

    def test_small_perturbation_survives(self):
        rng = np.random.default_rng(31)
        bits = rng.integers(0, 2, size=6 * 500)
        symbols = map_64qam(bits)
        # Half the minimum distance is _SCALE; stay safely inside.
        offset = 0.4 * _SCALE * (1 + 1j) / np.sqrt(2)
        assert np.array_equal(demap_64qam(symbols + offset), bits)

    def test_awgn_ber_matches_oracle(self):
        rng = np.random.default_rng(32)
        ebn0_db = 12.0
        n_bits = 1_200_000
        bits = rng.integers(0, 2, size=n_bits)
        symbols = map_64qam(bits)
        n0 = 1.0 / (6.0 * 10 ** (ebn0_db / 10))
        sigma = math.sqrt(n0 / 2)
        noisy = symbols + rng.normal(scale=sigma, size=symbols.shape) \
            + 1j * rng.normal(scale=sigma, size=symbols.shape)
        ber = np.count_nonzero(demap_64qam(noisy) != bits) / n_bits
        assert ber == pytest.approx(exact_ber_64qam(ebn0_db), rel=0.2)


def _link(array, room, scenario, cfg, ofdm_cfg):
    h, c, w = perfect_link(array, scenario, room, cfg)
    return transmit_frame(w, h, c, ofdm_cfg, scenario_id=scenario.id)


class TestTransmitFrame:
    def test_noiseless_perfect_csi_zero_ber(self, array, room, scenarios, los_cfg):
        ofdm_cfg = OfdmConfig(noise_snr_db=math.inf, rng_seed=1)
        for scn in scenarios:
            rep = _link(array, room, scn, los_cfg, ofdm_cfg)
            assert rep.per_ue_ber == (0.0,) * scn.n_users
            assert rep.bits_tested == ofdm_cfg.bits_per_frame

    def test_deterministic_given_seed(self, array, room, scenarios, los_cfg):
        ofdm_cfg = OfdmConfig(noise_snr_db=55.0, rng_seed=99)
        r1 = _link(array, room, scenarios[4], los_cfg, ofdm_cfg)
        r2 = _link(array, room, scenarios[4], los_cfg, ofdm_cfg)
        assert r1 == r2

    def test_ber_monotone_in_snr(self, array, room, scenarios, los_cfg):
        # 5-point sweep, > 1e6 bits per point via 5 frames.
        bers = []
        for snr in (52.0, 54.0, 56.0, 58.0, 60.0):
            cfg = OfdmConfig(noise_snr_db=snr, rng_seed=5, frames=5)
            rep = _link(array, room, scenarios[0], los_cfg, cfg)
            bers.append(rep.per_ue_ber[0])
        assert all(a >= b for a, b in zip(bers, bers[1:]))
        assert bers[0] > 0

    def test_time_domain_mode_noiseless(self, array, room, scenarios, los_cfg):
        ofdm_cfg = OfdmConfig(noise_snr_db=math.inf, rng_seed=1, time_domain=True)
        rep = _link(array, room, scenarios[4], los_cfg, ofdm_cfg)
        assert rep.per_ue_ber == (0.0, 0.0)

    def test_time_domain_matches_flat_statistics(self, array, room, scenarios, los_cfg):
        # Same noise level, independent draws: BERs agree within Monte-Carlo
        # slack.
        flat = _link(array, room, scenarios[0], los_cfg,
                     OfdmConfig(noise_snr_db=53.0, rng_seed=2, frames=2))
        td = _link(array, room, scenarios[0], los_cfg,
                   OfdmConfig(noise_snr_db=53.0, rng_seed=3, frames=2,
                              time_domain=True))
        assert flat.per_ue_ber[0] == pytest.approx(td.per_ue_ber[0], rel=0.25)

    def test_stream_count_checked(self, array, room, scenarios, los_cfg):
        h, c, w = perfect_link(array, scenarios[4], room, los_cfg)
        h1, c1, w1 = perfect_link(array, scenarios[0], room, los_cfg)
        with pytest.raises(ValueError, match="streams"):
            transmit_frame(w1, h, c, OfdmConfig())

    def test_report_validation(self):
        with pytest.raises(ValueError, match="bits_tested"):
            BerReport(scenario_id="x", per_ue_ber=(0.0,), bits_tested=0)
        with pytest.raises(ValueError, match="BER"):
            BerReport(scenario_id="x", per_ue_ber=(1.5,), bits_tested=10)


# A 64-point FFT frame of 33 OFDM symbols on 47 subcarriers: 1551 slots per
# user, so hundreds of frames take a second.
_SHORT_FRAME = dict(fft_size=64, sample_rate=960_000.0, active_subcarriers=47,
                    frame_samples=64 * 33)
_EIGHT_USERS = Scenario(id="eight", ue_positions=(
    (-3.0, 2.0), (-1.5, 3.5), (0.0, 5.0), (1.5, 6.5), (3.0, 8.0), (-2.0, 9.5),
    (2.0, 11.0), (0.0, 13.0)))
# Frames per user count compared with the per-slot reference, and the factor
# within which the two sample variances of a user's count must agree: five
# standard deviations of the log variance ratio, sqrt(2 / 299) each, for
# near-normal counts.
_FRAMES_COMPARED = 300
_VARIANCE_RATIO = 1.8


def _noisy_csi_link(array, room, scenario):
    """True channel, combiners and ZF precoder from a 10 dB CSI estimate."""
    cfg = ChannelModelConfig(mode="image-order-1", csi_snr_db=10.0, rng_seed=3)
    h = generate_channel(array, scenario, room, cfg)
    h_est = estimate_csi(h, cfg)
    c = combining_vectors(h_est, scenario)
    return h, c, zf_precoder(h_est, scenario, combiners=c)


def _exceedance_of(h, c, w, noise_snr_db):
    """The sampler's per-axis noise deviations, thresholds and probabilities."""
    eff = effective_channel(h, w, c)
    gain = np.diag(eff)
    return ofdm._exceedance(eff / gain[:, None], gain, ofdm._noise_power(noise_snr_db))


class TestFrameSampler:
    """The flat path's error counts against the per-slot reference simulator."""

    @pytest.mark.parametrize("k,noise_snr_db", [(1, 58.0), (3, 58.0), (8, 58.0),
                                                (8, math.inf)])
    def test_counts_match_the_per_slot_reference(self, array, room, scenarios,
                                                 k, noise_snr_db):
        # At 10 dB CSI the one-user link errs only in rare slots, while the
        # three- and eight-user links have users whose interference alone can
        # reach a boundary, so every slot is drawn.
        scenario = {1: scenarios[0], 3: scenarios[7], 8: _EIGHT_USERS}[k]
        h, c, w = _noisy_csi_link(array, room, scenario)
        _, _, p = _exceedance_of(h, c, w, noise_snr_db)
        p_any = ofdm._first_exceedance_cdf(p)[-1]
        assert (p_any < 0.1) if k == 1 else (p_any == 1.0)

        cfg = OfdmConfig(noise_snr_db=noise_snr_db, **_SHORT_FRAME)
        bits = cfg.bits_per_frame
        sampled = np.array([
            [round(b * bits) for b in transmit_frame(
                w, h, c, dataclasses.replace(cfg, rng_seed=s)).per_ue_ber]
            for s in range(_FRAMES_COMPARED)])
        reference = np.array([
            frame_errors(w, h, c, cfg, np.random.default_rng([1, s]))
            for s in range(_FRAMES_COMPARED)])
        assert sampled.sum() > 0
        n = _FRAMES_COMPARED
        for u in range(k):
            a, b = sampled[:, u], reference[:, u]
            va, vb = a.var(ddof=1), b.var(ddof=1)
            assert abs(a.mean() - b.mean()) <= 5.0 * math.sqrt((va + vb) / n), u
            if va + vb == 0.0:
                assert a.mean() == b.mean()
            else:
                assert 1.0 / _VARIANCE_RATIO <= va / vb <= _VARIANCE_RATIO, u

    def test_peak_memory_does_not_grow_with_frames(self, array, room, scenarios, los_cfg):
        h, c, w = perfect_link(array, scenarios[7], room, los_cfg)
        ofdm_cfg = OfdmConfig(noise_snr_db=64.0, rng_seed=4)
        k, slots = 3, ofdm_cfg.bits_per_frame // 6
        # A frame holds at most its (k, slots) complex input and output and
        # the uint8 indices.
        bound = k * slots * (2 * 16 + 1) + (1 << 20)
        for frames in (1, 3):
            tracemalloc.start()
            try:
                transmit_frame(w, h, c, dataclasses.replace(ofdm_cfg, frames=frames))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, frames

    def test_peak_memory_of_a_frame_that_draws_every_slot(self, array, room):
        h, c, w = _noisy_csi_link(array, room, _EIGHT_USERS)
        ofdm_cfg = OfdmConfig(noise_snr_db=58.0, rng_seed=4)
        _, _, p = _exceedance_of(h, c, w, ofdm_cfg.noise_snr_db)
        assert ofdm._first_exceedance_cdf(p)[-1] == 1.0
        k, slots = 8, ofdm_cfg.bits_per_frame // 6
        # Per user and slot: the symbol index, its point, the product, the
        # two noise axes, and the tail draw's thresholds, proposals and
        # masks (measured: 85 bytes).
        bound = k * slots * 96 + (1 << 20)
        for frames in (1, 2):
            tracemalloc.start()
            try:
                transmit_frame(w, h, c, dataclasses.replace(ofdm_cfg, frames=frames))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, frames


def _equalised_rows(rng, k, fraction, aligned):
    """A k x k equalised channel whose every row reaches ``fraction`` of S.

    The coefficient magnitudes |e_uu - 1| and |e_uj| sum to fraction / (7
    sqrt 2).  Aligned rows turn every coefficient by -pi/4, so each one
    moves the corner 7 + 7j straight along the I axis.
    """
    mags = rng.random((k, k)) + 0.1
    mags *= fraction / (7.0 * math.sqrt(2.0)) / mags.sum(axis=1, keepdims=True)
    phase = -math.pi / 4 if aligned else rng.uniform(-math.pi, math.pi, (k, k))
    eq = mags * np.exp(1j * phase)
    eq[np.diag_indices(k)] += 1.0
    return eq


def _chi2_sf(x, df):
    """P(chi-square with ``df`` degrees of freedom > x), by the gamma series."""
    a, y = df / 2.0, x / 2.0
    term = total = 1.0 / a
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= y / (a + n)
        total += term
    return 1.0 - math.exp(a * math.log(y) - y - math.lgamma(a)) * total


class TestSamplerParts:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("fraction", [0.5, 0.99, 1.0 - 1e-7, 1.001])
    @pytest.mark.parametrize("aligned", [False, True], ids=["random", "aligned"])
    def test_reach_bounds_every_noiseless_sample(self, k, fraction, aligned):
        rng = np.random.default_rng(41)
        eq = _equalised_rows(rng, k, fraction, aligned)
        # Unit gain and noise power 2 give unit noise per axis: t is tau.
        _, t, p = ofdm._exceedance(eq, np.ones(k), 2.0)
        tau, p = t[::2], p[::2]
        reach = _SCALE * 7.0 * math.sqrt(2.0) * (
            np.abs(np.diag(eq) - 1.0) + np.abs(eq).sum(axis=1) - np.abs(np.diag(eq)))
        assert reach == pytest.approx(np.full(k, fraction * _SCALE), rel=1e-12)
        if fraction > 1.0:
            assert np.all(tau == 0.0) and np.all(p == 1.0)
            return
        assert tau == pytest.approx(_SCALE - reach - 1e-9 * _SCALE, rel=0, abs=1e-15)
        assert np.all(tau > 0.0)

        if k <= 2:
            sent = np.indices((64,) * k).reshape(k, -1).astype(np.uint8)
        else:
            sent = rng.integers(0, 64, size=(k, 20_000), dtype=np.uint8)
        points = ofdm._CONSTELLATION[sent]
        noiseless = eq @ points
        assert np.all(np.abs(noiseless - points) <= reach[:, None] * (1.0 + 1e-12))
        for si, sq in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            noisy = noiseless + (tau * (si + 1j * sq))[:, None]
            assert np.array_equal(ofdm._demap_indices(noisy), sent), (si, sq)

    def test_noiseless_receiver_never_exceeds_a_positive_threshold(self):
        eq = _equalised_rows(np.random.default_rng(42), 2, 0.5, False)
        _, t, p = ofdm._exceedance(eq, np.ones(2), 0.0)
        assert np.all(t == math.inf) and np.all(p == 0.0)
        assert ofdm._first_exceedance_cdf(p)[-1] == 0.0

    @pytest.mark.parametrize("p", [[0.3, 0.0, 1.0, 0.05], [0.0, 0.2, 0.05, 0.4],
                                   [2e-3, 0.0, 1e-3, 0.0]])
    def test_exceedance_patterns_follow_the_conditional_law(self, p):
        p = np.array(p)
        cdf = ofdm._first_exceedance_cdf(p)
        n = 20_000
        hit = ofdm._exceedance_patterns(np.random.default_rng(43), n, p, cdf)
        assert hit.shape == (4, n) and np.all(hit.any(axis=0))
        observed = np.bincount(np.dot([8, 4, 2, 1], hit), minlength=16)
        expected = np.zeros(16)
        for code in range(1, 16):
            bits = np.array([(code >> (3 - c)) & 1 for c in range(4)])
            expected[code] = np.prod(np.where(bits == 1, p, 1.0 - p))
        expected *= n / expected.sum()
        support = expected > 0.0
        assert np.all(observed[~support] == 0)
        stat = np.sum((observed[support] - expected[support]) ** 2 / expected[support])
        assert _chi2_sf(stat, np.count_nonzero(support) - 1) > 1e-6

    def test_chi2_sf_matches_closed_forms(self):
        # df 2: exp(-x/2); df 1: erfc(sqrt(x/2)).
        for x in (0.1, 3.0, 30.0):
            assert _chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-9)
            assert _chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-6)

    def test_tail_draws_exceed_and_follow_the_normal_tail(self):
        thresholds = np.array([0.0, 0.5, 1.0, 3.0, 8.0])
        n = 20_000
        t = np.tile(thresholds, n)
        x = ofdm._normal_tail(np.random.default_rng(44), t)
        # Dvoretzky-Kiefer-Wolfowitz: P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2).
        eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
        for threshold in thresholds:
            draws = x[t == threshold]
            assert np.all(np.abs(draws) > threshold), threshold
            assert abs(np.count_nonzero(draws < 0) - n / 2) <= 5.0 * math.sqrt(n) / 2
            y = np.sort(np.abs(draws))
            tail = math.erfc(threshold / math.sqrt(2.0))
            cdf = 1.0 - np.array([math.erfc(v / math.sqrt(2.0)) for v in y]) / tail
            ranks = np.arange(1, n + 1) / n
            distance = max(np.max(ranks - cdf), np.max(cdf - (ranks - 1.0 / n)))
            assert distance < eps, threshold

    def test_any_exceedance_keeps_tiny_probabilities(self):
        cdf = ofdm._first_exceedance_cdf(np.full(4, 1e-20))
        assert cdf == pytest.approx([1e-20, 2e-20, 3e-20, 4e-20], rel=1e-12)
        p = np.array([0.1, 0.35, 0.02])
        assert ofdm._first_exceedance_cdf(p)[-1] == pytest.approx(1.0 - np.prod(1.0 - p),
                                                                  rel=1e-12)
        assert list(ofdm._first_exceedance_cdf(np.array([0.1, 1.0, 0.2]))) == [0.1, 1.0, 1.0]
        zero = ofdm._first_exceedance_cdf(np.zeros(3))
        assert np.all(zero == 0.0) and not np.any(np.signbit(zero))
