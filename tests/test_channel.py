import dataclasses
import math
import re

import numpy as np
import pytest

from beamfield import (
    ArraySection,
    ChannelModelConfig,
    GridSection,
    Room,
    Scenario,
    estimate_csi,
    build_array,
    build_grid,
    generate_channel,
)
from beamfield.channel import (
    _GAIN_BLOCK_ENTRIES,
    _coefficients,
    _lengths,
    _mirror,
    lit_above,
    may_reach_unit_gain,
    propagation_gains,
)
from beamfield.geometry import ue_antenna_positions, wavelength

import gains_reference as ref
from conftest import LOS_PERFECT_CSI, random_complex
from field_oracle import los_gain


class TestLosGain:
    def test_one_wavelength(self):
        lam = wavelength(2.63e9)
        g = los_gain((0, 0, 0), (0, lam, 0), 2.63e9)
        assert abs(g) == pytest.approx(1 / (4 * math.pi), rel=1e-12)
        assert np.angle(g) == pytest.approx(0.0, abs=1e-9)

    def test_wavelength_value(self):
        assert wavelength(2.63e9) == pytest.approx(299792458.0 / 2.63e9, rel=0)

    def test_inverse_distance(self):
        g1 = los_gain((0, 0, 0), (0, 2, 0), 2.63e9)
        g2 = los_gain((0, 0, 0), (0, 4, 0), 2.63e9)
        assert abs(g2) == pytest.approx(abs(g1) / 2, rel=1e-12)

    def test_reciprocity_exact(self):
        a, b = (0.3, 1.7, 0.2), (-1.1, 6.0, 2.4)
        assert los_gain(a, b, 2.63e9) == los_gain(b, a, 2.63e9)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            los_gain((1, 1, 1), (1, 1, 1), 2.63e9)


class TestImages:
    """The mirror rule against image positions written out by hand."""

    @staticmethod
    def images(room, points):
        """Every point mirrored in each of the six surfaces: (6, T, 3)."""
        images = np.tile(points, (6, 1, 1))
        for surface in range(6):
            images[surface, :, surface // 2] = _mirror(room, surface, points[:, surface // 2])
        return images

    def test_floor_mirror(self, room):
        images = self.images(room, np.array([(0.0, 0.0, 1.5)]))
        assert np.array_equal(images[4, 0], (0.0, 0.0, -1.5))
        assert _coefficients(room)[4] == room.floor_reflection

    def test_wall_mirrors(self, room):
        # Room: |x| <= 3.75, 0 <= y <= 15, 0 <= z <= 3.
        images = self.images(room, np.array([(1.0, 2.0, 1.0)]))
        want = [
            (-8.5, 2.0, 1.0),   # x = -3.75 wall
            (6.5, 2.0, 1.0),    # x = +3.75 wall
            (1.0, -2.0, 1.0),   # y = 0 wall
            (1.0, 28.0, 1.0),   # y = 15 wall
            (1.0, 2.0, -1.0),   # floor z = 0
            (1.0, 2.0, 5.0),    # ceiling z = 3
        ]
        assert np.array_equal(images[:, 0], want)
        assert _coefficients(room) == (-0.6, -0.6, -0.6, -0.6, -0.4, -0.4)

    def test_every_point_is_mirrored(self, room):
        pts = np.array([(1.0, 2.0, 1.0), (-3.0, 14.0, 0.5), (0.0, 0.0, 3.0)])
        images = self.images(room, pts)
        assert np.array_equal(images[:, 1], [
            (-4.5, 14.0, 0.5), (10.5, 14.0, 0.5), (-3.0, -14.0, 0.5),
            (-3.0, 16.0, 0.5), (-3.0, 14.0, -0.5), (-3.0, 14.0, 5.5)])
        assert np.array_equal(images[:, 2], [
            (-7.5, 0.0, 3.0), (7.5, 0.0, 3.0), (0.0, 0.0, 3.0),
            (0.0, 30.0, 3.0), (0.0, 0.0, -3.0), (0.0, 0.0, 3.0)])
        assert np.array_equal(pts[0], (1.0, 2.0, 1.0))
        # The scalar screens and the gains read one rule.
        assert [_mirror(room, s, float(pts[1, s // 2])) for s in range(6)] == \
            [images[s, 1, s // 2] for s in range(6)]

    def test_per_wall_reflections(self):
        room = Room(wall_reflection=(-0.1, -0.2, -0.3, -0.4), floor_reflection=-0.5,
                    ceiling_reflection=0.0)
        assert _coefficients(room) == (-0.1, -0.2, -0.3, -0.4, -0.5, 0.0)

    def test_outside_room_rejected(self, room):
        tx = [(0.0, 0.0, 1.5), (10.0, 1.0, 1.0), (0.0, -1.0, 1.0)]
        message = ("transmit point at (10, 1, 1) lies outside the room "
                   "(|x| <= 3.75, 0 <= y <= 15, 0 <= z <= 3)")
        with pytest.raises(ValueError, match=re.escape(message)):
            propagation_gains(tx, [(0.0, 5.0, 1.5)], 2.63e9, room, "image-order-1",
                              "isotropic")


class TestImageModeReference:
    """Image-mode gains byte for byte against the per-element loop."""

    F = 2.63e9

    def check(self, tx, rx, room, pattern="isotropic"):
        got = propagation_gains(tx, rx, self.F, room, "image-order-1", pattern)
        assert got.tobytes() == ref.image_gains(tx, rx, self.F, room, pattern).tobytes()

    def test_default_array_over_the_grid(self, array, room):
        rx = build_grid(GridSection(spacing=0.5), room=room).points
        for pattern in ("isotropic", "cosine"):
            self.check(array.active_positions(), rx, room, pattern)

    def test_zero_surface_coefficients(self, array, scenarios):
        room = Room(wall_reflection=(-0.6, 0.0, -0.3, -1.0), floor_reflection=0.0,
                    ceiling_reflection=-0.2)
        rx = ue_antenna_positions(scenarios[7], ChannelModelConfig(carrier_frequency=self.F))
        for pattern in ("isotropic", "cosine"):
            self.check(array.active_positions(), rx, room, pattern)

    def test_array_off_the_wall(self, room):
        arr = build_array(ArraySection(rows=4, cols=4, center=(1.0, 2.5, 1.2), active="all"))
        rx = [(0.3, 6.0, 1.5), (-2.0, 1.0, 0.4), (3.0, 2.5, 2.9), (0.0, 14.0, 1.5)]
        for pattern in ("isotropic", "cosine"):
            self.check(arr.active_positions(), rx, room, pattern)

    def test_single_element(self, room):
        for pattern in ("isotropic", "cosine"):
            self.check([(0.2, 0.0, 1.5)], [(0.2, 4.0, 1.5), (-1.0, 7.5, 0.3)], room, pattern)

    def test_receivers_over_several_blocks(self, array, room):
        # 64 elements: 256 receivers per block, so 725 probes end in a partial block.
        rx = build_grid(GridSection(spacing=0.25), room=room).points
        rows = _GAIN_BLOCK_ENTRIES // array.n_active
        assert len(rx) > 2 * rows and len(rx) % rows != 0
        for pattern in ("isotropic", "cosine"):
            self.check(array.active_positions(), rx, room, pattern)

    def test_array_partly_off_the_wall(self, array, room):
        # Only some transmit points lie on y = 0, so no image has the direct rays.
        tx = np.array(array.active_positions())
        tx[::3, 1] = 0.25
        rx = build_grid(GridSection(spacing=0.5), room=room).points
        for pattern in ("isotropic", "cosine"):
            self.check(tx, rx, room, pattern)

    def test_array_flush_on_an_x_wall(self, room):
        # Every element at x = -3.75: the x-low image coincides with the array.
        tx = [(-3.75, y, z) for y in (1.0, 1.057, 1.114) for z in (1.4, 1.6)]
        rx = build_grid(GridSection(spacing=0.5), room=room).points
        for pattern in ("isotropic", "cosine"):
            self.check(tx, rx, room, pattern)

    def test_on_wall_array_without_a_y_low_image(self, array):
        room = Room(wall_reflection=(-0.6, -0.5, 0.0, -0.3))
        rx = build_grid(GridSection(spacing=0.5), room=room).points
        for pattern in ("isotropic", "cosine"):
            self.check(array.active_positions(), rx, room, pattern)

    def test_signed_zeros_in_the_y_column(self, array, room):
        # -0.0 == 0.0, so the y-low image still coincides with the array; the
        # receivers on the wall give rays with y offsets of either sign of zero.
        tx = np.array(array.active_positions())
        tx[::2, 1] = -0.0
        rx = np.vstack([build_grid(GridSection(spacing=0.5), room=room).points,
                        [(1.0, 0.0, 1.0), (1.0, -0.0, 2.0), (-2.0, -0.0, 0.5)]])
        assert np.signbit(tx[:, 1]).any() and not np.signbit(tx[:, 1]).all()
        for pattern in ("isotropic", "cosine"):
            self.check(tx, rx, room, pattern)

    def test_large_array_takes_few_receivers_per_block(self, room):
        # 32 x 32 active elements: 16 receivers per block, so 56 probes are 4 blocks.
        arr = build_array(ArraySection(rows=32, cols=32, active="all"))
        rx = build_grid(GridSection(spacing=1.0), room=room).points
        rows = _GAIN_BLOCK_ENTRIES // arr.n_active
        assert rows == 16 and len(rx) % rows != 0
        for pattern in ("isotropic", "cosine"):
            self.check(arr.active_positions(), rx, room, pattern)


class TestRayDistances:
    def test_bit_identical_to_the_norm_of_the_difference(self):
        rng = np.random.default_rng(21)
        for scale in (1e-3, 1.0, 15.0, 1e6):
            rx = rng.normal(scale=scale, size=(500, 3))
            pts = rng.normal(scale=scale, size=(37, 3))
            delta = rx[:, None, :] - pts[None, :, :]
            squares = [delta[:, :, axis] * delta[:, :, axis] for axis in range(3)]
            d = _lengths(squares, np.empty(delta.shape[:2]))
            assert d.tobytes() == np.linalg.norm(delta, axis=2).tobytes()


class TestCosinePattern:
    """The broadside-cosine element against closed forms; boresight is +y."""

    F = 2.63e9

    def test_boresight_amplitude(self):
        lam = wavelength(self.F)
        tx = [(0.2, 0.0, 1.5)]
        for d in (0.5, 2.0, 7.25):
            g = propagation_gains(tx, [(0.2, d, 1.5)], self.F, None, "los-only", "cosine")[0, 0]
            assert abs(g) == pytest.approx(math.sqrt(6) * lam / (4 * math.pi * d), rel=1e-12)
            iso = propagation_gains(tx, [(0.2, d, 1.5)], self.F, None, "los-only",
                                    "isotropic")[0, 0]
            assert g == pytest.approx(math.sqrt(6) * iso, rel=1e-12)

    def test_no_gain_in_or_behind_the_array_plane(self):
        tx = [(0.0, 0.0, 1.5), (0.057, 0.0, 1.5)]
        rx = [(1.0, 0.0, 1.5), (0.0, 0.0, 0.2), (0.0, -2.0, 1.5), (2.0, -0.5, 0.3)]
        g = propagation_gains(tx, rx, self.F, None, "los-only", "cosine")
        assert np.all(g == 0.0)

    def test_image_mode_is_the_per_ray_sum(self, room):
        lam = wavelength(self.F)
        tx = [(0.0, 0.0, 1.5), (0.057, 0.0, 1.5), (-0.2, 0.0, 1.3)]
        rx = [(0.5, 3.0, 1.5), (-2.0, 9.0, 0.4), (3.0, 0.7, 2.9)]

        def ray(src, dst):
            delta = np.subtract(dst, src)
            d = math.sqrt(float(delta @ delta))
            cos_theta = max(delta[1] / d, 0.0)
            return (math.sqrt(6) * cos_theta * lam / (4 * math.pi * d)
                    * np.exp(-2j * math.pi * d / lam))

        def images(src):
            # Room: |x| <= 3.75, 0 <= y <= 15, 0 <= z <= 3; walls -0.6, floor and ceiling -0.4.
            x, y, z = src
            return [((-7.5 - x, y, z), -0.6), ((7.5 - x, y, z), -0.6),
                    ((x, -y, z), -0.6), ((x, 30.0 - y, z), -0.6),
                    ((x, y, -z), -0.4), ((x, y, 6.0 - z), -0.4)]

        want = np.zeros((len(rx), len(tx)), dtype=complex)
        for r, dst in enumerate(rx):
            for t, src in enumerate(tx):
                want[r, t] = ray(src, dst) + sum(
                    coeff * ray(image, dst) for image, coeff in images(src))
        got = propagation_gains(tx, rx, self.F, room, "image-order-1", "cosine")
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        assert not np.allclose(got, propagation_gains(tx, rx, self.F, None, "los-only",
                                                      "cosine"))

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="element pattern"):
            propagation_gains([(0, 0, 1.5)], [(0, 2, 1.5)], self.F, None, "los-only", "dipole")


class TestUnitGainScreen:
    @pytest.mark.parametrize("mode", ["los-only", "image-order-1"])
    @pytest.mark.parametrize("pattern", ["isotropic", "cosine"])
    def test_a_cleared_receiver_has_every_gain_below_one(self, array, room, mode, pattern):
        # Receivers in a 0.6 x 0.3 x 0.6 m box in front of the array, one at a time.
        tx = array.active_positions()
        cfg = ChannelModelConfig(mode=mode, element_pattern=pattern)
        rng = np.random.default_rng(4)
        cleared = []
        for rx in rng.uniform((-0.3, 0.0, 1.2), (0.3, 0.3, 1.8), (200, 3)):
            if not may_reach_unit_gain(tx, [rx], room, cfg):
                cleared.append(np.abs(propagation_gains(tx, rx, 2.63e9, room, mode,
                                                        pattern)).max())
        assert 0 < len(cleared) < 200
        assert max(cleared) < 1.0

    def test_each_screen_names_the_points_it_checks(self, array, room):
        # lit_above checks its transmit points, may_reach_unit_gain its receivers.
        where = "at (0, 20, 1.5) lies outside the room (|x| <= 3.75, 0 <= y <= 15, 0 <= z <= 3)"
        cfg = ChannelModelConfig(element_pattern="cosine")
        with pytest.raises(ValueError, match=re.escape(f"transmit point {where}")):
            lit_above([(0.0, 20.0, 1.5)], room, cfg)
        with pytest.raises(ValueError, match=re.escape(f"receive point {where}")):
            may_reach_unit_gain(array.active_positions(), [(0.0, 20.0, 1.5)], room, cfg)

    def test_the_built_in_scenarios_are_cleared(self, array, room, scenarios):
        cfg = ChannelModelConfig(element_pattern="cosine")
        rx = np.concatenate([ue_antenna_positions(s, cfg) for s in scenarios])
        assert not may_reach_unit_gain(array.active_positions(), rx, room, cfg)


class TestGenerateChannel:
    def test_single_element_single_antenna(self, room):
        from beamfield import build_array

        arr = build_array(ArraySection(rows=1, cols=1, spacing=0.057, center=(0, 0, 1.5),
                                       active="all"))
        scn = Scenario(id="t", ue_positions=((0.0, 5.0),), antennas_per_ue=1)
        cfg = LOS_PERFECT_CSI
        (cm,) = generate_channel(arr, [scn], room, cfg)
        expect = los_gain((0, 0, 1.5), (0, 5, 1.5), cfg.carrier_frequency)
        assert cm.h.shape == (1, 1, 1)
        assert cm.h[0, 0, 0] == pytest.approx(expect, rel=1e-12)

    def test_matches_per_element_evaluation(self, array, room, scenarios, los_cfg):
        (cm,) = generate_channel(array, [scenarios[0]], room, los_cfg)
        rx = ue_antenna_positions(scenarios[0], los_cfg)
        tx = array.active_positions()
        for r in (0, 3):
            for t in (0, 17, 63):
                want = los_gain(tx[t], rx[r], los_cfg.carrier_frequency)
                assert cm.h[0, r, t] == pytest.approx(want, rel=1e-12)

    def test_zero_reflection_collapses_to_los(self, array, scenarios):
        room0 = Room(wall_reflection=0.0, floor_reflection=0.0, ceiling_reflection=0.0)
        (los,) = generate_channel(array, [scenarios[3]], room0, LOS_PERFECT_CSI)
        (img,) = generate_channel(array, [scenarios[3]], room0,
                                  ChannelModelConfig(mode="image-order-1"))
        assert np.array_equal(los.h, img.h)

    def test_image_mode_differs_with_reflections(self, array, room, scenarios):
        (los,) = generate_channel(array, [scenarios[0]], room, LOS_PERFECT_CSI)
        (img,) = generate_channel(array, [scenarios[0]], room,
                                  ChannelModelConfig(mode="image-order-1"))
        assert not np.allclose(los.h, img.h)

    def test_passive_gain_below_unity(self, array, room, scenarios):
        for mode in ("los-only", "image-order-1"):
            for scn in scenarios:
                (cm,) = generate_channel(array, [scn], room, ChannelModelConfig(mode=mode))
                assert np.all(np.abs(cm.h) < 1.0)

    def test_norm_decreases_with_distance(self, array, room, los_cfg):
        norms = []
        for y in (4.0, 6.0, 8.0, 10.0):
            scn = Scenario(id="t", ue_positions=((0.0, y),))
            (cm,) = generate_channel(array, [scn], room, los_cfg)
            norms.append(np.linalg.norm(cm.h))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_ue_outside_room_rejected(self, array, room, los_cfg):
        scn = Scenario(id="bad", ue_positions=((10.0, 4.0),))
        with pytest.raises(ValueError, match="outside"):
            generate_channel(array, [scn], room, los_cfg)

    def test_a_block_equals_its_scenarios_one_at_a_time(self, array, room, scenarios):
        cfg = ChannelModelConfig(mode="image-order-1", element_pattern="cosine")
        block = generate_channel(array, scenarios, room, cfg)
        assert [cm.n_users for cm in block] == [scn.n_users for scn in scenarios]
        for cm, scn in zip(block, scenarios):
            (alone,) = generate_channel(array, [scn], room, cfg)
            assert cm.h.tobytes() == alone.h.tobytes()

    def test_shape_matches_scenario(self, array, room, scenarios, los_cfg):
        for scn in scenarios:
            (cm,) = generate_channel(array, [scn], room, los_cfg)
            assert cm.h.shape == (scn.n_users, 4, 64)
            assert (cm.n_users, cm.antennas_per_ue) == (scn.n_users, 4)


class TestEstimateCsi:
    def test_perfect_csi_exact_copy(self, array, room, scenarios, los_cfg):
        (cm,) = generate_channel(array, [scenarios[0]], room, los_cfg)
        est = estimate_csi(cm, los_cfg, 0)
        assert np.array_equal(est.h, cm.h)
        assert est.h is not cm.h

    def test_zero_db_error_power(self):
        # 0 dB: error power equals signal power, within 5% at 1e5 entries.
        from beamfield import ChannelMatrix

        rng = np.random.default_rng(11)
        h = random_complex(rng, (1, 250, 400))
        cm = ChannelMatrix(h=h)
        est = estimate_csi(cm, ChannelModelConfig(csi_snr_db=0.0), 42)
        ratio = np.mean(np.abs(est.h - h) ** 2) / np.mean(np.abs(h) ** 2)
        assert ratio == pytest.approx(1.0, rel=0.05)

    def test_snr_scaling(self):
        from beamfield import ChannelMatrix

        rng = np.random.default_rng(12)
        h = random_complex(rng, (1, 100, 100))
        cm = ChannelMatrix(h=h)
        e20 = estimate_csi(cm, ChannelModelConfig(csi_snr_db=20.0), 1)
        ratio = np.mean(np.abs(e20.h - h) ** 2) / np.mean(np.abs(h) ** 2)
        assert ratio == pytest.approx(0.01, rel=0.1)

    def test_seeded_reproducibility(self, array, room, scenarios):
        cfg = dataclasses.replace(LOS_PERFECT_CSI, csi_snr_db=10.0)
        (cm,) = generate_channel(array, [scenarios[2]], room, cfg)
        assert np.array_equal(estimate_csi(cm, cfg, 7).h, estimate_csi(cm, cfg, 7).h)
