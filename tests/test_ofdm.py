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
# user, so three users fit in one block and eight end in a partial one.  The
# count is odd: uint8 indices come four to a 32-bit draw, so splitting the
# frame's index draw at a user boundary would shift the stream.
_SHORT_FRAME = dict(fft_size=64, sample_rate=960_000.0, active_subcarriers=47,
                    frame_samples=64 * 33)
_EIGHT_USERS = Scenario(id="eight", ue_positions=(
    (-3.0, 2.0), (-1.5, 3.5), (0.0, 5.0), (1.5, 6.5), (3.0, 8.0), (-2.0, 9.5),
    (2.0, 11.0), (0.0, 13.0)))


class TestBlockedFrame:
    """Error counts against the whole-frame loop in ``ofdm_reference``."""

    @pytest.mark.parametrize("k", [1, 3, 8])
    @pytest.mark.parametrize("name,ofdm_cfg", [
        ("noisy", OfdmConfig(frames=2, noise_snr_db=58.0, rng_seed=11)),
        ("noiseless", OfdmConfig(frames=2, noise_snr_db=math.inf, rng_seed=12)),
        ("noisy-short-frame", OfdmConfig(frames=2, noise_snr_db=58.0, rng_seed=13,
                                         **_SHORT_FRAME)),
        ("time-domain", OfdmConfig(frames=2, noise_snr_db=58.0, rng_seed=14,
                                   time_domain=True, **_SHORT_FRAME)),
    ])
    def test_error_counts_match_the_whole_frame_loop(self, array, room, scenarios,
                                                      k, name, ofdm_cfg):
        scenario = {1: scenarios[0], 3: scenarios[7], 8: _EIGHT_USERS}[k]
        assert scenario.n_users == k
        cfg = ChannelModelConfig(mode="image-order-1", csi_snr_db=10.0, rng_seed=3)
        h = generate_channel(array, scenario, room, cfg)
        h_est = estimate_csi(h, cfg)
        c = combining_vectors(h_est, scenario)
        w = zf_precoder(h_est, scenario, combiners=c)
        rep = transmit_frame(w, h, c, ofdm_cfg)
        errors = frame_errors(w, h, c, ofdm_cfg)
        assert rep.bits_tested == 2 * ofdm_cfg.bits_per_frame
        assert rep.per_ue_ber == tuple(float(e) / rep.bits_tested for e in errors)
        # Without noise only residual interference errs, which the 10 dB CSI
        # leaves on the eight-user link alone.
        assert errors.sum() > 0 or (name == "noiseless" and k < 8)

    def test_frames_straddle_the_block(self):
        block = ofdm._SLOT_BLOCK
        slots = OfdmConfig().bits_per_frame // 6
        assert slots > block and slots % block != 0
        short = OfdmConfig(**_SHORT_FRAME).bits_per_frame // 6
        assert 3 * short <= block < 8 * short and 8 % (block // short) != 0
        assert short % 4 != 0

    def test_small_frame_takes_one_pass(self, array, room, scenarios, los_cfg, monkeypatch):
        shapes = []
        demap = ofdm._demap_indices
        monkeypatch.setattr(ofdm, "_demap_indices", lambda s: shapes.append(s.shape) or demap(s))
        h, c, w = perfect_link(array, scenarios[7], room, los_cfg)
        ofdm_cfg = OfdmConfig(frames=2, noise_snr_db=58.0, **_SHORT_FRAME)
        transmit_frame(w, h, c, ofdm_cfg)
        assert shapes == [(3, ofdm_cfg.bits_per_frame // 6)] * 2

    def test_peak_memory_does_not_grow_with_frames(self, array, room, scenarios, los_cfg):
        h, c, w = perfect_link(array, scenarios[7], room, los_cfg)
        ofdm_cfg = OfdmConfig(noise_snr_db=64.0, rng_seed=4)
        k, slots = 3, ofdm_cfg.bits_per_frame // 6
        # A frame's full product holds its (k, slots) complex input and output
        # and the uint8 indices; noise, demap and counts run in blocks.
        bound = k * slots * (2 * 16 + 1) + (1 << 20)
        for frames in (1, 3):
            tracemalloc.start()
            try:
                transmit_frame(w, h, c, dataclasses.replace(ofdm_cfg, frames=frames))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, frames
