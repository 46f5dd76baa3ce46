import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sfma.bench import ScenarioConfig, drop_inputs
from sfma.pairing import (
    PairingAssignment,
    UserTerminal,
    _ranked_pairs,
    pair_users,
    preference_matrix,
    temporal_gap,
)
from sfma.semantic_rate import InterferenceProfile, Link, LogisticRhoParams, pair_sum_rate
from sfma.verify import find_blocking_pair, matching_total_value, perfect_matchings, random_users

from conftest import make_link

ZERO_RHO = InterferenceProfile.constant(0.0)


def user(uid, snr_db=10.0, frame=0, min_rate=0.0):
    return UserTerminal(id=uid, link=make_link(snr_db), min_rate=min_rate, frame_time=frame)


class TestTemporalGap:
    def test_same_frame(self):
        assert temporal_gap(user(0, frame=5), user(1, frame=5)) == 0

    def test_medium_setting(self):
        assert temporal_gap(user(0, frame=1), user(1, frame=5)) == 4

    def test_extreme_setting(self):
        assert temporal_gap(user(0, frame=0), user(1, frame=16)) == 16


class TestPreferenceValue:
    """Pair values as ``preference_matrix`` assembles them from per-user rates."""

    @staticmethod
    def value(u, v, power, profile, alpha):
        return preference_matrix([u, v], power, profile, alpha)[0, 1]

    def test_zero_alpha_equals_sum_rate(self):
        u, v = user(0, 8.0, frame=0), user(1, 15.0, frame=7)
        expected = pair_sum_rate(0.5, 0.5, ZERO_RHO, u.link, v.link)
        assert self.value(u, v, 0.5, ZERO_RHO, alpha=0.0) == pytest.approx(expected, rel=1e-14)

    def test_zero_gap_equals_sum_rate_for_any_alpha(self):
        u, v = user(0, 8.0, frame=3), user(1, 15.0, frame=3)
        expected = pair_sum_rate(0.5, 0.5, ZERO_RHO, u.link, v.link)
        assert self.value(u, v, 0.5, ZERO_RHO, alpha=7.0) == pytest.approx(expected, rel=1e-14)

    def test_three_minus_quarter_times_four(self):
        # each user's interference-free rate is exactly 1.5 at unit power
        link = Link(gain=2.0 ** 1.5 - 1.0, noise=1.0)
        u = UserTerminal(id=0, link=link, frame_time=1)
        v = UserTerminal(id=1, link=link, frame_time=5)
        assert pair_sum_rate(1.0, 1.0, ZERO_RHO, link, link) == pytest.approx(3.0, abs=1e-12)
        got = self.value(u, v, 1.0, ZERO_RHO, alpha=0.25)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_matrix_matches_pair_sum_rate_minus_gap(self, rng, default_profile):
        users = random_users(rng, 6, min_rate=0.0)
        power, alpha = 2.0, 0.3
        values = preference_matrix(users, power, default_profile, alpha)
        for i, j in itertools.permutations(range(len(users)), 2):
            u, v = users[i], users[j]
            expected = (pair_sum_rate(power, power, default_profile, u.link, v.link)
                        - alpha * temporal_gap(u, v))
            assert values[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert np.all(np.isneginf(np.diag(values)))


class TestPairUsers:
    def test_two_users_feasible_gap(self):
        users = [user(0, frame=0), user(1, frame=3)]
        out = pair_users(users, 0.5, ZERO_RHO, alpha=0.1, delta_max=4)
        assert out.feasible
        assert out.pairs == ((0, 1),)
        assert out.gaps == (3,)

    def test_two_users_infeasible_gap_reports_both(self):
        users = [user(0, frame=0), user(1, frame=9)]
        out = pair_users(users, 0.5, ZERO_RHO, alpha=0.1, delta_max=4)
        assert not out.feasible
        assert out.unmatched == (0, 1)
        assert out.pairs == ()

    def test_four_user_instance_matches_enumeration_optimum(self, rng):
        # strongest pair (1,2) and the leftovers (3,4): enumeration confirms
        users = [
            user(0, 25.0, frame=0),
            user(1, 24.0, frame=1),
            user(2, 5.0, frame=2),
            user(3, 4.0, frame=3),
        ]
        out = pair_users(users, 0.5, ZERO_RHO, alpha=0.1, delta_max=10)
        values = preference_matrix(users, 0.5, ZERO_RHO, 0.1)
        index_of = {u.id: i for i, u in enumerate(users)}
        totals = {
            m: matching_total_value(m, values, index_of)
            for m in perfect_matchings([u.id for u in users])
        }
        best = max(totals.values())
        assert out.feasible
        assert totals[out.pairs] == pytest.approx(best)
        assert out.pairs == ((0, 1), (2, 3))

    def test_no_blocking_pair_on_random_instances(self, rng):
        for _ in range(30):
            m = int(rng.choice([4, 6, 8]))
            users = random_users(rng, m, min_rate=0.0)
            delta = 5
            out = pair_users(users, 0.5, ZERO_RHO, alpha=0.2, delta_max=delta)
            values = preference_matrix(users, 0.5, ZERO_RHO, 0.2)
            frames = np.array([u.frame_time for u in users])
            gaps = np.abs(frames[:, None] - frames[None, :])
            ids = [u.id for u in users]
            assert find_blocking_pair(out.pairs, values, gaps, delta, ids) is None
            assert all(g <= delta for g in out.gaps)

    def test_total_value_within_stable_set(self, rng):
        # enumeration oracle: the returned matching's total preference value
        # coincides with some fully stable perfect matching
        for _ in range(10):
            users = random_users(rng, 6, min_rate=0.0, frame_window=4)
            delta = 6  # window 4 keeps every pair gap-feasible
            out = pair_users(users, 0.5, ZERO_RHO, alpha=0.15, delta_max=delta)
            assert out.feasible
            values = preference_matrix(users, 0.5, ZERO_RHO, 0.15)
            frames = np.array([u.frame_time for u in users])
            gaps = np.abs(frames[:, None] - frames[None, :])
            ids = [u.id for u in users]
            index_of = {u: i for i, u in enumerate(ids)}
            stable_totals = [
                matching_total_value(m, values, index_of)
                for m in perfect_matchings(ids)
                if find_blocking_pair(m, values, gaps, delta, ids) is None
                and all(gaps[index_of[a], index_of[b]] <= delta for a, b in m)
            ]
            assert stable_totals, "symmetric instances always admit a stable matching"
            got = matching_total_value(out.pairs, values, index_of)
            assert any(got == pytest.approx(s) for s in stable_totals)

    def test_total_value_within_stable_set_up_to_m12(self, rng):
        # the large-M variant of the enumeration oracle (945 and 10395 matchings)
        for m in (10, 12):
            users = random_users(rng, m, min_rate=0.0, frame_window=4)
            delta = 6
            out = pair_users(users, 0.5, ZERO_RHO, alpha=0.15, delta_max=delta)
            assert out.feasible
            values = preference_matrix(users, 0.5, ZERO_RHO, 0.15)
            frames = np.array([u.frame_time for u in users])
            gaps = np.abs(frames[:, None] - frames[None, :])
            ids = [u.id for u in users]
            index_of = {u: i for i, u in enumerate(ids)}
            got = matching_total_value(out.pairs, values, index_of)
            found = False
            for m_alt in perfect_matchings(ids):
                if find_blocking_pair(m_alt, values, gaps, delta, ids) is None:
                    if got == pytest.approx(matching_total_value(m_alt, values, index_of)):
                        found = True
                        break
            assert found

    def test_deterministic(self, rng):
        users = random_users(rng, 8, min_rate=0.0)
        a = pair_users(users, 0.5, ZERO_RHO, alpha=0.1, delta_max=5)
        b = pair_users(users, 0.5, ZERO_RHO, alpha=0.1, delta_max=5)
        assert a.pairs == b.pairs and a.gaps == b.gaps

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            pair_users([user(0)], 0.5, ZERO_RHO, alpha=0.1, delta_max=4)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            pair_users([user(0), user(0)], 0.5, ZERO_RHO, alpha=0.1, delta_max=4)

    def test_perfect_matching_covers_all_users(self, rng):
        users = random_users(rng, 10, min_rate=0.0, frame_window=4)
        out = pair_users(users, 0.5, ZERO_RHO, alpha=0.1, delta_max=8)
        seen = sorted(uid for pair in out.pairs for uid in pair)
        assert seen == [u.id for u in sorted(users, key=lambda u: u.id)]


# The proposal dynamic that pair_users replaced, kept verbatim as the
# reference of the differential tests below.

def proposal_pair_users(
    users,
    powers: float,
    profile: InterferenceProfile,
    alpha: float,
    delta_max: float,
) -> PairingAssignment:
    """Match users into pairs by iterated proposals under the gap cap.

    Users propose down their preference lists; a proposal to a matched user
    succeeds only when it strictly improves that user's preference value and
    respects the gap cap. Users dumped in the process restart their lists,
    and a matched user keeps proposing while better candidates remain, so
    the dynamic cannot settle on a matching that leaves two users mutually
    better off. Accepted proposals strictly raise the sorted vector of
    matched preference values, which bounds the number of re-matchings.
    """
    m = len(users)
    if m < 2 or m % 2 != 0:
        raise ValueError(f"user count must be even and >= 2, got {m}")
    if len({u.id for u in users}) != m:
        raise ValueError("user ids must be unique")
    by_index = sorted(range(m), key=lambda i: users[i].id)
    users = [users[i] for i in by_index]
    values = preference_matrix(users, powers, profile, alpha)
    frames = np.array([u.frame_time for u in users])
    gaps = np.abs(frames[:, None] - frames[None, :])

    prefs = [
        sorted((j for j in range(m) if j != i), key=lambda j: (-values[i, j], users[j].id))
        for i in range(m)
    ]
    partner = [None] * m
    pointer = [0] * m

    def val(i):
        return values[i, partner[i]] if partner[i] is not None else -np.inf

    queue = deque(range(m))
    in_queue = [True] * m
    budget = 16 * m * m * m + 64  # termination guard; the dynamic stops far earlier
    proposals = 0
    while queue:
        u = queue.popleft()
        in_queue[u] = False
        while pointer[u] < m - 1:
            v = prefs[u][pointer[u]]
            if values[u, v] <= val(u):
                break  # everything further down is no better than the current match
            proposals += 1
            if proposals > budget:
                raise RuntimeError("pairing proposal budget exhausted")
            if gaps[u, v] > delta_max:
                pointer[u] += 1
                continue
            if partner[v] is None or values[u, v] > val(v):
                dumped = [w for w in (partner[u], partner[v]) if w is not None]
                if partner[u] is not None:
                    partner[partner[u]] = None
                if partner[v] is not None:
                    partner[partner[v]] = None
                partner[u], partner[v] = v, u
                for w in dumped:
                    pointer[w] = 0  # restart so newly worse-off users can be re-courted
                    if not in_queue[w]:
                        queue.append(w)
                        in_queue[w] = True
                if not in_queue[v]:  # the acceptor may still prefer someone above its new match
                    queue.append(v)
                    in_queue[v] = True
                break
            pointer[u] += 1

    pairs, gaps_out, seen = [], [], set()
    for i in range(m):
        if partner[i] is not None and i not in seen:
            j = partner[i]
            seen.update((i, j))
            a, b = sorted((users[i].id, users[j].id))
            pairs.append((a, b))
            gaps_out.append(int(gaps[i, j]))
    order = np.argsort([p[0] for p in pairs]) if pairs else []
    pairs = tuple(pairs[k] for k in order)
    gaps_out = tuple(gaps_out[k] for k in order)
    unmatched = tuple(sorted(users[i].id for i in range(m) if partner[i] is None))
    return PairingAssignment(
        pairs=pairs, gaps=gaps_out, unmatched=unmatched, feasible=not unmatched
    )


PROFILES = {
    "constant": InterferenceProfile.constant(0.3),
    "table": InterferenceProfile.default_table(),
    "parametric": InterferenceProfile.parametric(LogisticRhoParams()),
}


def instance(rng, source):
    """Users, per-user power, alpha and gap cap of one seeded differential instance."""
    m = 2 * int(rng.integers(1, 31))
    window = int(rng.integers(1, 12))
    alpha = float(rng.choice([0.0, 0.1, 0.5, 2.0]))
    delta = float(rng.choice([0, 1, 2, 4, 8, 100]))
    if source == "bench":
        config = ScenarioConfig(user_counts=(m,), frame_window=window, min_rate=0.0,
                                root_seed=int(rng.integers(1 << 30)))
        users, _ = drop_inputs(config, m, 0, 0)
        power = 1000.0 / m
    else:
        users = random_users(rng, m, min_rate=0.0, frame_window=window)
        power = float(rng.uniform(0.1, 10.0))
    return users, power, alpha, delta


class TestGreedyAgainstProposals:
    @pytest.mark.parametrize("kind", sorted(PROFILES))
    @pytest.mark.parametrize("source", ["bench", "random"])
    def test_identical_on_strict_instances(self, source, kind):
        rng = np.random.default_rng([17, len(source), len(kind)])
        profile = PROFILES[kind]
        for _ in range(25):
            users, power, alpha, delta = instance(rng, source)
            values = preference_matrix(users, power, profile, alpha)
            upper = values[np.triu_indices(len(users), k=1)]
            assert np.unique(upper).size == upper.size, "instance values must be strict"
            got = pair_users(users, power, profile, alpha, delta)
            want = proposal_pair_users(users, power, profile, alpha, delta)
            assert got.pairs == want.pairs
            assert got.gaps == want.gaps
            assert got.unmatched == want.unmatched
            assert got.feasible == want.feasible

    def test_stable_with_unpairable_leftovers_on_tied_instances(self, rng):
        link = make_link(10.0)
        for _ in range(40):
            m = 2 * int(rng.integers(1, 16))
            delta = float(rng.choice([0, 1, 2, 4]))
            alpha = float(rng.choice([0.0, 0.1]))
            frames = rng.integers(0, int(rng.integers(1, 12)), size=m)
            users = [UserTerminal(id=i, link=link, frame_time=int(f)) for i, f in enumerate(frames)]
            out = pair_users(users, 0.5, ZERO_RHO, alpha, delta)
            values = preference_matrix(users, 0.5, ZERO_RHO, alpha)
            gaps = np.abs(frames[:, None] - frames[None, :])
            ids = [u.id for u in users]
            assert find_blocking_pair(out.pairs, values, gaps, delta, ids) is None
            assert all(g <= delta for g in out.gaps)
            for a, b in itertools.combinations(out.unmatched, 2):
                assert gaps[a, b] > delta
            assert out.feasible == (not out.unmatched)


class TestRanking:
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 40), levels=st.integers(1, 5),
           delta=st.sampled_from([0, 1, 2, 4, 100]))
    def test_matches_the_lexsort_ranking_under_ties(self, seed, m, levels, delta):
        # the three-key lexsort over triu_indices that the one mask and one
        # stable sort replaced, on values drawn from a few levels (zeros of
        # either sign among them) so that most pairs tie
        rng = np.random.default_rng(seed)
        values = rng.integers(-levels, levels + 1, (m, m)) * 0.5
        values[rng.random((m, m)) < 0.1] = -0.0
        np.fill_diagonal(values, -np.inf)
        frames = rng.integers(0, 6, m)
        gaps = np.abs(frames[:, None] - frames[None, :])
        lower, higher = np.triu_indices(m, k=1)
        keep = gaps[lower, higher] <= delta
        lower, higher = lower[keep], higher[keep]
        ranked = np.lexsort((higher, lower, -values[lower, higher]))
        assert _ranked_pairs(values, gaps, delta) == (lower[ranked].tolist(), higher[ranked].tolist())


class TestAssignmentType:
    def test_duplicate_user_rejected(self):
        with pytest.raises(ValueError):
            PairingAssignment(pairs=((0, 1), (1, 2)), gaps=(0, 0))
