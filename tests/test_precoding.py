import dataclasses

import numpy as np
import pytest

from beamfield import (
    ChannelMatrix,
    ChannelModelConfig,
    DegenerateChannelError,
    Scenario,
    ZfInfeasibleError,
    combining_vectors,
    effective_channel,
    estimate_csi,
    generate_channel,
    zf_precoder,
)
from conftest import LOS_PERFECT_CSI, perfect_link, random_complex
from field_oracle import interference_ratio


def make_channel(rows, n_users):
    """The channel of ``n_users`` users whose antenna rows are stacked in ``rows``."""
    rows = np.asarray(rows, dtype=complex)
    return ChannelMatrix(h=rows.reshape(n_users, -1, rows.shape[1]))


class TestCombiningVectors:
    def test_identical_rows_symmetry(self):
        rng = np.random.default_rng(20)
        row = random_complex(rng, (1, 16))
        h = make_channel(np.repeat(row, 4, axis=0), n_users=1)
        (c,) = combining_vectors(h)
        assert np.allclose(c, np.full(4, 0.5), rtol=1e-10)

    def test_rank_one_block_recovers_left_vector(self):
        rng = np.random.default_rng(21)
        u = random_complex(rng, 4)
        u /= np.linalg.norm(u)
        v = random_complex(rng, 16)
        h = make_channel(np.outer(u, v.conj()), n_users=1)
        (c,) = combining_vectors(h)
        # parallel up to the canonical phase: |<c, u>| = 1.
        assert abs(np.vdot(c, u)) == pytest.approx(1.0, abs=1e-9)

    def test_unit_norm(self, array, room, scenarios, los_cfg):
        for scn in scenarios:
            (h,) = generate_channel(array, [scn], room, los_cfg)
            for c in combining_vectors(h):
                assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s2", [0.9, 0.99, 0.999])
    def test_near_degenerate_block_gives_dominant_vector(self, s2):
        # sigma_2 / sigma_1 close to 1: the combiner must still be u_1.
        rng = np.random.default_rng(26)
        u, _ = np.linalg.qr(random_complex(rng, (4, 4)))
        v, _ = np.linalg.qr(random_complex(rng, (64, 4)))
        block = u @ np.diag([1.0, s2, 0.3, 0.1]) @ v.conj().T
        h = make_channel(block, n_users=1)
        (c,) = combining_vectors(h)
        assert abs(np.vdot(c, u[:, 0])) >= 1 - 1e-12

    def test_a_stacked_channel_gives_each_scenario_its_own_combiners(self, array, room):
        # 36 users of 1-8 user scenarios, as a run stacks a link block's estimates.
        cfg = ChannelModelConfig(mode="image-order-1", csi_snr_db=40.0)
        rng = np.random.default_rng(29)
        block = [Scenario(id=f"s{n}", ue_positions=tuple(
            (float(x), float(y)) for x, y in zip(rng.uniform(-3, 3, n), rng.uniform(2, 12, n))))
            for n in range(1, 9)]
        estimates = [estimate_csi(h, cfg, seed)
                     for seed, h in enumerate(generate_channel(array, block, room, cfg))]
        stacked = ChannelMatrix(h=np.concatenate([e.h for e in estimates]))
        per_scenario = [c for e in estimates for c in combining_vectors(e)]
        # The per-user reference: a 2-D SVD and one scalar phase division per user.
        reference = []
        for k in range(36):
            v = np.linalg.svd(stacked.h[k], full_matrices=False)[0][:, 0]
            pivot = int(np.argmax(np.abs(v)))
            reference.append(v * (abs(v[pivot]) / v[pivot]))
        combiners = combining_vectors(stacked)
        assert len(combiners) == 36
        for c, own, ref in zip(combiners, per_scenario, reference):
            assert c.tobytes() == own.tobytes() == ref.tobytes()

    def test_zero_block_rejected(self):
        h = make_channel(np.zeros((4, 8)), n_users=1)
        with pytest.raises(DegenerateChannelError):
            combining_vectors(h)


class TestZfPrecoder:
    def test_single_user_is_matched_direction(self):
        rng = np.random.default_rng(22)
        h = make_channel(random_complex(rng, (4, 32)), n_users=1)
        c = combining_vectors(h)
        g = (c[0].conj() @ h.h[0]).reshape(1, -1)
        w = zf_precoder(h, c, 2.0)
        expect = np.sqrt(2.0) * g.conj().T / np.linalg.norm(g)
        assert np.allclose(w.w, expect, rtol=1e-10)

    def test_orthogonal_users_give_scaled_identity_columns(self):
        # Effective channel I_3 after combining: each block has one unit row.
        blocks = []
        for k in range(3):
            b = np.zeros((4, 3), dtype=complex)
            b[:, k] = 1.0  # identical rows -> combiner (1,1,1,1)/2
            blocks.append(b)
        h = make_channel(np.vstack(blocks), n_users=3)
        w = zf_precoder(h, combining_vectors(h), 3.0)
        # G = 2 I (combiner sum of 4 half entries), so W is diagonal, each
        # column carrying 1 W.
        assert np.allclose(np.abs(w.w), np.eye(3), rtol=1e-10)

    def test_three_user_interference_nulled(self):
        rng = np.random.default_rng(23)
        h = make_channel(random_complex(rng, (12, 64)), n_users=3)
        c = combining_vectors(h)
        w = zf_precoder(h, c, 1.0)
        eff = effective_channel(h, w, c)
        assert interference_ratio(eff) <= 1e-9

    def test_power_conservation_all_scenarios(self, array, room, scenarios, los_cfg):
        for scn in scenarios:
            _, _, precoder = perfect_link(array, scn, room, los_cfg, 2.5)
            assert np.sum(np.abs(precoder.w) ** 2) == pytest.approx(2.5, rel=1e-12)

    def test_equal_per_stream_power(self, array, room, scenarios, los_cfg):
        _, _, precoder = perfect_link(array, scenarios[7], room, los_cfg, 2.5)
        col_power = np.sum(np.abs(precoder.w) ** 2, axis=0)
        assert np.allclose(col_power, 2.5 / 3, rtol=1e-12)

    @pytest.mark.parametrize("power", [0.0, -1.0, float("nan")])
    def test_power_must_be_positive(self, power):
        h = make_channel(random_complex(np.random.default_rng(28), (4, 16)), n_users=1)
        with pytest.raises(ValueError, match="total_power must be positive"):
            zf_precoder(h, combining_vectors(h), power)

    def test_direction_invariant_to_channel_scale(self):
        rng = np.random.default_rng(24)
        h_raw = random_complex(rng, (8, 32))
        h1, h2 = make_channel(h_raw, 2), make_channel(7.25 * h_raw, 2)
        w1 = zf_precoder(h1, combining_vectors(h1), 1.0)
        w2 = zf_precoder(h2, combining_vectors(h2), 1.0)
        d1 = w1.w / np.linalg.norm(w1.w)
        d2 = w2.w / np.linalg.norm(w2.w)
        assert np.max(np.abs(d1 - d2)) <= 1e-10

    def test_colinear_users_infeasible(self):
        rng = np.random.default_rng(25)
        block = random_complex(rng, (4, 16))
        h = make_channel(np.vstack([block, block]), n_users=2)
        with pytest.raises(ZfInfeasibleError, match="not separable"):
            zf_precoder(h, combining_vectors(h), 1.0)

    def test_duplicate_user_named(self):
        rng = np.random.default_rng(27)
        b0, b1 = random_complex(rng, (2, 4, 16))
        h = make_channel(np.vstack([b0, b1, b0]), n_users=3)
        with pytest.raises(ZfInfeasibleError, match="user 2 is not separable"):
            zf_precoder(h, combining_vectors(h), 1.0)

    def test_fewer_users_get_more_gain(self, array, room, scenarios, los_cfg):
        # UE at (0, 8) appears in scenarios 1 and 8; with power split three
        # ways its diagonal gain can only drop.
        for seed in range(5):
            cfg = dataclasses.replace(LOS_PERFECT_CSI, csi_snr_db=25.0)
            (h8,) = generate_channel(array, [scenarios[7]], room, cfg)
            est8 = estimate_csi(h8, cfg, seed)
            c8 = combining_vectors(est8)
            w8 = zf_precoder(est8, c8, 1.0)
            gain8 = abs(effective_channel(h8, w8, c8)[0, 0])

            h1 = ChannelMatrix(h=h8.h[:1])
            est1 = ChannelMatrix(h=est8.h[:1])
            c1 = combining_vectors(est1)
            w1 = zf_precoder(est1, c1, 1.0)
            gain1 = abs(effective_channel(h1, w1, c1)[0, 0])
            assert gain1 >= gain8


class TestEffectiveChannel:
    def test_perfect_csi_all_scenarios(self, array, room, scenarios, los_cfg):
        for scn in scenarios:
            h, c, w = perfect_link(array, scn, room, los_cfg)
            eff = effective_channel(h, w, c)
            assert eff.shape == (scn.n_users, scn.n_users)
            assert interference_ratio(eff) <= 1e-9

    def test_single_user_positive_diagonal(self, array, room, scenarios, los_cfg):
        h, c, w = perfect_link(array, scenarios[0], room, los_cfg)
        eff = effective_channel(h, w, c)
        assert eff.shape == (1, 1)
        assert eff[0, 0].real > 0
        assert abs(eff[0, 0].imag) <= 1e-12 * eff[0, 0].real

    def test_interference_decreases_with_csi_quality(self, array, room, scenarios):
        # Monte-Carlo trend: mean interference power drops as CSI SNR rises.
        scn = scenarios[7]
        means = []
        for snr in (10.0, 20.0, 30.0):
            powers = []
            for seed in range(10):
                cfg = dataclasses.replace(LOS_PERFECT_CSI, csi_snr_db=snr)
                (h,) = generate_channel(array, [scn], room, cfg)
                est = estimate_csi(h, cfg, seed)
                c = combining_vectors(est)
                w = zf_precoder(est, c, 1.0)
                eff = effective_channel(h, w, c)
                off = eff - np.diag(np.diag(eff))
                powers.append(np.sum(np.abs(off) ** 2))
            means.append(np.mean(powers))
        assert means[0] > means[1] > means[2]
        assert means[2] > 0

    def test_more_users_raise_interference_floor(self, array, room, scenarios):
        # Noise-free residual interference, averaged over 20 CSI draws.
        # Compared along the user-set inclusion chains 1 < 6 < 8, 1 < 7 < 8
        # and 2 < 4 < 8 (a single user has no interference at all).
        def mean_off_power(scn):
            vals = []
            for seed in range(20):
                cfg = dataclasses.replace(LOS_PERFECT_CSI, csi_snr_db=20.0)
                (h,) = generate_channel(array, [scn], room, cfg)
                est = estimate_csi(h, cfg, seed)
                c = combining_vectors(est)
                w = zf_precoder(est, c, 1.0)
                eff = effective_channel(h, w, c)
                off = eff - np.diag(np.diag(eff))
                k = scn.n_users
                vals.append(np.sum(np.abs(off) ** 2) / k)
            return np.mean(vals)

        floors = {s.id: mean_off_power(s) for s in scenarios}
        for chain in (("1", "6", "8"), ("1", "7", "8"), ("2", "4", "8")):
            for smaller, larger in zip(chain, chain[1:]):
                assert floors[smaller] <= floors[larger]
        assert floors["8"] > 0
