import itertools
import math

import numpy as np
import pytest

from sfma.baselines import (
    fnoma_sum_rate,
    ofdma_sum_rate,
    ojscc_sum_rate,
    pair_distinctive,
)
from sfma.pairing import UserTerminal
from sfma.semantic_rate import Link
from sfma.verify import perfect_matchings, random_users

from conftest import make_link


def users_with_gains(gains, noise=1.0):
    return [
        UserTerminal(id=i, link=Link(gain=float(g), noise=noise), frame_time=i)
        for i, g in enumerate(gains)
    ]


class TestPairDistinctive:
    def test_sort_and_fold(self):
        users = users_with_gains([4.0, 3.0, 2.0, 1.0])
        out = pair_distinctive(users)
        assert out.pairs == ((0, 3), (1, 2))

    def test_equal_gains_pair_in_id_order(self):
        users = users_with_gains([1.0, 1.0, 1.0, 1.0])
        out = pair_distinctive(users)
        assert out.pairs == ((0, 3), (1, 2))

    def test_maximizes_total_gain_spread_exhaustively(self, rng):
        # distinctive pairing maximizes the summed in-pair gain spread;
        # confirmed against every perfect matching of an 8-user instance
        gains = rng.uniform(0.1, 5.0, size=8)
        users = users_with_gains(gains)
        out = pair_distinctive(users)
        spread = {frozenset((a, b)): abs(gains[a] - gains[b]) for a, b in itertools.combinations(range(8), 2)}

        def total(matching):
            return sum(spread[frozenset(p)] for p in matching)

        ours = total(out.pairs)
        best = max(total(m) for m in perfect_matchings(list(range(8))))
        assert ours == pytest.approx(best, rel=1e-12)

    def test_pair_spreads_dominate_adjacent_rank_minimum(self):
        # frozen instance: every folded pair's spread beats the smallest
        # spread of the adjacent-rank pairing
        gains = np.random.default_rng(3).uniform(0.1, 5.0, size=8)
        users = users_with_gains(gains)
        out = pair_distinctive(users)
        ranked = sorted(gains)
        adjacent_min = min(ranked[2 * i + 1] - ranked[2 * i] for i in range(4))
        for a, b in out.pairs:
            assert abs(gains[a] - gains[b]) >= adjacent_min

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            pair_distinctive(users_with_gains([1.0, 2.0, 3.0]))


class TestFnoma:
    def test_degenerate_eta_silences_strong_user(self):
        users = users_with_gains([10.0, 1.0])
        total = fnoma_sum_rate([(users[0], users[1])], p_max=2.0, fnoma_eta=1.0)
        # strong user is silent; the weak user enjoys a clean channel
        assert total == pytest.approx(math.log2(1 + 2.0 * 1.0 / 1.0), rel=1e-12)

    def test_symmetric_gains_equal_rates(self):
        users = users_with_gains([2.0, 2.0])
        total = fnoma_sum_rate([(users[0], users[1])], p_max=2.0, fnoma_eta=0.5)
        strong = math.log2(1 + 0.5 * 2.0 * 2.0)
        weak = math.log2(1 + 1.0 * 2.0 / (1.0 * 2.0 + 1.0))
        assert total == pytest.approx(strong + weak, rel=1e-12)

    def test_single_pair_sic_arithmetic(self):
        # gains (10, 1), noise 1, p_k = 2, eta = 0.8
        users = users_with_gains([10.0, 1.0])
        total = fnoma_sum_rate([(users[0], users[1])], p_max=2.0, fnoma_eta=0.8)
        expected = math.log2(1 + 0.4 * 10.0 / 1.0) + math.log2(1 + 1.6 * 1.0 / (0.4 * 1.0 + 1.0))
        assert total == pytest.approx(expected, rel=1e-12)

    def test_strong_weak_detected_regardless_of_order(self):
        users = users_with_gains([1.0, 10.0])
        a = fnoma_sum_rate([(users[0], users[1])], p_max=2.0, fnoma_eta=0.8)
        b = fnoma_sum_rate([(users[1], users[0])], p_max=2.0, fnoma_eta=0.8)
        assert a == b

    def test_eta_out_of_range_rejected(self):
        users = users_with_gains([1.0, 2.0])
        with pytest.raises(ValueError):
            fnoma_sum_rate([(users[0], users[1])], 1.0, fnoma_eta=0.0)

    def test_reoptimized_eta_dominates_fixed(self, rng):
        users = random_users(rng, 8, min_rate=0.0)
        pairs = pair_distinctive(users)
        by_id = {u.id: u for u in users}
        terms = [(by_id[a], by_id[b]) for a, b in pairs.pairs]
        fixed = fnoma_sum_rate(terms, p_max=100.0, fnoma_eta=0.8)
        # per-group reoptimization with the same per-group budget
        per_group = 100.0 / len(terms)
        best = sum(
            max(fnoma_sum_rate([pair], p_max=per_group, fnoma_eta=e) for e in np.linspace(0.01, 0.99, 99))
            for pair in terms
        )
        assert best >= fixed - 1e-12


class TestOjscc:
    def test_zero_power(self):
        users = users_with_gains([1.0, 2.0])
        assert ojscc_sum_rate([(users[0], users[1])], p_max=0.0) == 0.0

    def test_half_band_arithmetic(self):
        # per-user SINR (p_k/2) g / (sigma^2/2) = 3 gives rate 1.0
        users = users_with_gains([3.0 / 2.0, 3.0 / 2.0])
        total = ojscc_sum_rate([(users[0], users[1])], p_max=2.0)
        assert total == pytest.approx(2.0, rel=1e-12)

    def test_doubling_power_increases_rates(self, rng):
        users = random_users(rng, 4, min_rate=0.0)
        pairs = [(users[0], users[1]), (users[2], users[3])]
        assert ojscc_sum_rate(pairs, 20.0) > ojscc_sum_rate(pairs, 10.0)


class TestOfdma:
    def test_single_user_full_band(self):
        users = users_with_gains([5.0])
        assert ofdma_sum_rate(users, p_max=3.0) == pytest.approx(math.log2(1 + 15.0), rel=1e-12)

    def test_equal_gains_equal_rates(self):
        users = users_with_gains([2.0] * 4)
        total = ofdma_sum_rate(users, p_max=8.0)
        per_user = (1.0 / 4.0) * math.log2(1 + 8.0 * 2.0 / 1.0)
        assert total == pytest.approx(4 * per_user, rel=1e-12)

    def test_ten_user_spreadsheet_oracle(self, rng):
        users = random_users(rng, 10, min_rate=0.0)
        p_max = 31.6
        got = ofdma_sum_rate(users, p_max)
        expected = 0.0
        for u in users:
            expected += (1.0 / 10.0) * math.log2(1.0 + (p_max / 10.0) * u.link.gain / (u.link.noise / 10.0))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ofdma_sum_rate([], 1.0)


class TestPowerAccounting:
    def test_fnoma_consumes_exactly_p_max(self, rng):
        users = random_users(rng, 6, min_rate=0.0)
        pairs = [(users[0], users[1]), (users[2], users[3]), (users[4], users[5])]
        p_max = 12.0
        k = len(pairs)
        eta = 0.8
        total_power = k * ((1 - eta) * p_max / k + eta * p_max / k)
        assert total_power == pytest.approx(p_max, rel=1e-12)

    def test_rates_nonnegative(self, rng):
        users = random_users(rng, 6, min_rate=0.0)
        pairs = [(users[0], users[1]), (users[2], users[3]), (users[4], users[5])]
        assert fnoma_sum_rate(pairs, 5.0, 0.8) >= 0.0
        assert ojscc_sum_rate(pairs, 5.0) >= 0.0
        assert ofdma_sum_rate(users, 5.0) >= 0.0
