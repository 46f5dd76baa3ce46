import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sfma.channel import (
    ChannelRealization,
    Topology,
    draw_channel,
    path_loss_db,
    place_users,
)


class TestPlaceUsers:
    def test_points_inside_area(self):
        topo = place_users(10, 500.0, seed=7)
        assert topo.users.shape == (10, 2)
        assert np.all(np.abs(topo.users) <= 250.0)

    def test_degenerate_area_rejected(self):
        with pytest.raises(ValueError):
            place_users(2, 0.0, seed=1)

    def test_odd_or_zero_count_rejected(self):
        with pytest.raises(ValueError):
            place_users(5, 500.0, seed=1)
        with pytest.raises(ValueError):
            place_users(0, 500.0, seed=1)

    def test_deterministic_per_seed(self):
        a = place_users(8, 500.0, seed=42)
        b = place_users(8, 500.0, seed=42)
        assert np.array_equal(a.users, b.users)
        c = place_users(8, 500.0, seed=43)
        assert not np.array_equal(a.users, c.users)


class TestPathLoss:
    def test_one_meter(self):
        assert path_loss_db(1.0) == 37.0

    def test_hundred_meters(self):
        assert path_loss_db(100.0) == pytest.approx(97.0, abs=1e-12)

    def test_250_meters_against_independent_calculation(self):
        expected = 37.0 + 30.0 * math.log10(250.0)
        assert path_loss_db(250.0) == pytest.approx(expected, abs=1e-12)

    def test_clamped_below_one_meter(self):
        assert path_loss_db(0.01) == 37.0

    @given(st.floats(min_value=1.0, max_value=1e4), st.floats(min_value=0.0, max_value=1e4))
    def test_monotone_nondecreasing(self, d, extra):
        assert path_loss_db(d + extra) >= path_loss_db(d)

    def test_vectorized(self):
        out = path_loss_db(np.array([1.0, 100.0]))
        assert np.allclose(out, [37.0, 97.0])


def _two_user_topology(d1=100.0, d2=200.0):
    return Topology(bs_position=np.zeros(2), users=np.array([[d1, 0.0], [0.0, d2]]), area_side=500.0)


class TestDrawChannel:
    def test_no_shadowing_gain_is_pure_path_loss(self):
        topo = _two_user_topology()
        ch = draw_channel(topo, shadow_sigma_db=0.0, noise_dbw=-104.0, seed=3)
        assert ch.gains[0] == pytest.approx(10.0 ** (-9.7), rel=1e-12)

    def test_noise_conversion(self):
        topo = _two_user_topology()
        ch = draw_channel(topo, shadow_sigma_db=0.0, noise_dbw=-104.0, seed=3)
        assert np.all(ch.noise_powers == 10.0 ** (-10.4))
        assert ch.noise_powers[0] == pytest.approx(3.981e-11, rel=1e-3)

    def test_seed_changes_shadowing_not_path_loss(self):
        topo = _two_user_topology()
        a = draw_channel(topo, 4.0, -104.0, seed=5)
        b = draw_channel(topo, 4.0, -104.0, seed=6)
        assert not np.array_equal(a.gains, b.gains)
        # without shadowing the gains depend on distance only
        c = draw_channel(topo, 0.0, -104.0, seed=5)
        d = draw_channel(topo, 0.0, -104.0, seed=6)
        assert np.array_equal(c.gains, d.gains)

    def test_deterministic_per_seed(self):
        topo = _two_user_topology()
        a = draw_channel(topo, 4.0, -104.0, seed=5)
        b = draw_channel(topo, 4.0, -104.0, seed=5)
        assert np.array_equal(a.gains, b.gains)

    def test_shadowing_statistics(self):
        n = 100_000
        topo = place_users(n, 500.0, seed=9)
        ch = draw_channel(topo, shadow_sigma_db=4.0, noise_dbw=-104.0, seed=10)
        shadow = -10.0 * np.log10(ch.gains) - path_loss_db(topo.distances())
        assert abs(shadow.mean()) < 0.05
        assert abs(shadow.std() - 4.0) / 4.0 < 0.02

    def test_fading_flag_unit_mean(self):
        n = 200_000
        topo = place_users(n, 500.0, seed=9)
        base = draw_channel(topo, 0.0, -104.0, seed=11, fading=False)
        faded = draw_channel(topo, 0.0, -104.0, seed=11, fading=True)
        ratio = faded.gains / base.gains
        assert abs(ratio.mean() - 1.0) < 0.02

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            draw_channel(_two_user_topology(), -1.0, -104.0, seed=1)


class TestTypes:
    def test_topology_rejects_outside_users(self):
        with pytest.raises(ValueError):
            Topology(bs_position=np.zeros(2), users=np.array([[400.0, 0.0], [0.0, 0.0]]), area_side=500.0)

    def test_topology_rejects_odd_count(self):
        with pytest.raises(ValueError):
            Topology(bs_position=np.zeros(2), users=np.zeros((3, 2)), area_side=500.0)

    def test_channel_realization_requires_positive_values(self):
        with pytest.raises(ValueError):
            ChannelRealization(gains=np.array([0.0, 1.0]), noise_powers=np.ones(2))
        with pytest.raises(ValueError):
            ChannelRealization(gains=np.ones(2), noise_powers=np.array([1.0, -1.0]))
