import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfma.pairing import UserTerminal
from sfma.power import (
    ConvergenceError,
    Group,
    MinRateInfeasible,
    PowerAllocation,
    SolverConfig,
    extreme_point_min_rate,
    extreme_point_stationary,
    inter_group_allocate,
    intra_group_allocate,
    kkt_residuals,
    solve,
)
from sfma.semantic_rate import (
    InterferenceProfile,
    Link,
    LogisticRhoParams,
    pair_sum_rate,
    rho_eval,
    sinr_conventional,
)
from sfma.verify import (
    equal_split_rate_curve,
    inter_group_grid_oracle,
    intra_grid_argmax,
    min_rate_floor_constant_rho,
    random_groups,
    random_users,
)

from conftest import make_link


def simple_group(rho_c=0.0, r1=1.0, r2=1.0, g1=1.0, g2=1.0, n1=1.0, n2=1.0):
    u1 = UserTerminal(id=0, link=Link(gain=g1, noise=n1), min_rate=r1)
    u2 = UserTerminal(id=1, link=Link(gain=g2, noise=n2), min_rate=r2)
    return Group(users=(u1, u2), profile=InterferenceProfile.constant(rho_c))


class TestExtremePointMinRate:
    def test_closed_form_interference_free(self):
        # rho = 0, eta 1/2, R = 1, unit link: p = (2 - 1)/(1/2)
        group = simple_group(rho_c=0.0, r1=1.0)
        assert extreme_point_min_rate(group, 1, p_guess=1.0) == pytest.approx(2.0, rel=1e-12)

    def test_zero_rate_needs_zero_power(self):
        group = simple_group(rho_c=0.5, r1=0.0)
        assert extreme_point_min_rate(group, 1, p_guess=1.0) == 0.0

    def test_full_interference_high_rate_infeasible(self):
        # rho = 1, R = 2: denominator 1/2 + 1/2 * (1 - 4) < 0
        group = simple_group(rho_c=1.0, r1=2.0)
        with pytest.raises(MinRateInfeasible):
            extreme_point_min_rate(group, 1, p_guess=1.0)

    def test_matches_constant_rho_closed_form(self, rng):
        for _ in range(25):
            rho_c = float(rng.uniform(0.0, 0.6))
            group = simple_group(
                rho_c=rho_c,
                r1=float(rng.uniform(0.2, 1.5)),
                r2=float(rng.uniform(0.2, 1.5)),
                g1=float(rng.uniform(0.5, 3.0)),
                g2=float(rng.uniform(0.5, 3.0)),
            )
            for which in (1, 2):
                user = group.users[which - 1]
                t = 2.0 ** user.min_rate - 1.0
                denom = 0.5 + 0.5 * rho_c * (1.0 - 2.0 ** user.min_rate)
                if denom <= 0:
                    with pytest.raises(MinRateInfeasible):
                        extreme_point_min_rate(group, which, p_guess=1.0)
                    continue
                expected = user.link.noise * t / (user.link.gain * denom)
                got = extreme_point_min_rate(group, which, p_guess=1.0)
                assert got == pytest.approx(expected, rel=1e-8)

    def test_table_profile_fixed_point_consistency(self, default_profile):
        u1 = UserTerminal(id=0, link=make_link(0.0), min_rate=1.0)
        u2 = UserTerminal(id=1, link=make_link(6.0), min_rate=1.0)
        group = Group(users=(u1, u2), profile=default_profile)
        p_star = extreme_point_min_rate(group, 1, p_guess=1.0)
        # oracle: the equal-split rate of user 1 at the fixed point equals the demand
        rho_c = rho_eval(default_profile, p_star, u1.link.gain, u1.link.noise)
        sinr = (p_star / 2) * u1.link.gain / (rho_c * (p_star / 2) * u1.link.gain + u1.link.noise)
        assert math.log2(1 + sinr) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_arguments(self):
        group = simple_group()
        with pytest.raises(ValueError):
            extreme_point_min_rate(group, 3, p_guess=1.0)
        with pytest.raises(ValueError):
            extreme_point_min_rate(group, 1, p_guess=0.0)


class TestExtremePointStationary:
    def test_water_level_above_channel_gives_none(self):
        group = simple_group(rho_c=0.0)
        assert extreme_point_stationary(group, mu=1e9, bracket=(1e-6, 10.0)) is None

    def test_zero_mu_increasing_rate_gives_none(self):
        group = simple_group(rho_c=0.0)
        assert extreme_point_stationary(group, mu=0.0, bracket=(1e-6, 10.0)) is None

    def test_matches_grid_argmax(self, rng):
        for _ in range(10):
            g = float(rng.uniform(0.5, 4.0))
            group = simple_group(rho_c=float(rng.uniform(0.0, 0.5)), g1=g, g2=g)
            mu = float(rng.uniform(0.05, 1.0))
            root = extreme_point_stationary(group, mu, bracket=(1e-6, 50.0))
            grid = np.linspace(1e-6, 50.0, 200_001)
            vals = equal_split_rate_curve(group, grid) - mu * math.log(2.0) * grid
            best = grid[int(np.argmax(vals))]
            if root is None:
                # argmax at an endpoint means no interior stationary point
                assert best == pytest.approx(grid[0]) or best == pytest.approx(grid[-1])
            else:
                assert root == pytest.approx(best, abs=2 * (grid[1] - grid[0]))

    def test_invalid_bracket_rejected(self):
        group = simple_group()
        with pytest.raises(ValueError):
            extreme_point_stationary(group, 0.1, bracket=(0.0, 1.0))
        with pytest.raises(ValueError):
            extreme_point_stationary(group, 0.1, bracket=(2.0, 1.0))


class TestInterGroupAllocate:
    def test_single_group_gets_full_budget(self):
        group = simple_group(rho_c=0.0, r1=0.5, r2=0.5)
        alloc = inter_group_allocate([group], p_max=10.0)
        assert alloc.feasible
        assert alloc.group_totals[0] == pytest.approx(10.0, rel=1e-6)
        assert alloc.budget_exhausted

    def test_identical_groups_split_evenly(self):
        groups = [simple_group(rho_c=0.2, r1=0.5, r2=0.5) for _ in range(2)]
        alloc = inter_group_allocate(groups, p_max=8.0, tol=1e-8)
        assert alloc.feasible
        assert alloc.group_totals[0] == pytest.approx(alloc.group_totals[1], rel=1e-5)
        assert alloc.group_totals.sum() == pytest.approx(8.0, abs=1e-6)

    def test_matches_simplex_grid_oracle(self, rng):
        for _ in range(12):
            k = int(rng.choice([1, 2, 3]))
            groups = random_groups(rng, k)
            p_max = float(rng.uniform(2.0, 8.0))
            oracle_val, _ = inter_group_grid_oracle(groups, p_max, n=2000)
            alloc = inter_group_allocate(groups, p_max)
            if oracle_val == float("-inf"):
                assert not alloc.feasible
                continue
            assert alloc.feasible
            got = sum(
                float(equal_split_rate_curve(g, np.array([p]))[0])
                for g, p in zip(groups, alloc.group_totals)
            )
            assert got >= oracle_val - 1e-3

    def test_three_group_allocation_near_oracle_coordinates(self):
        # frozen seeds, pre-checked: solver totals sit within 2 grid steps of
        # the simplex-grid argmax and meet or beat its sum rate
        for seed in (0, 3, 5):
            rng = np.random.default_rng([201, seed])
            groups = random_groups(rng, 3)
            floors = sum(min_rate_floor_constant_rho(g) for g in groups)
            p_max = floors * 1.8 + 2.0
            oracle_val, oracle_alloc = inter_group_grid_oracle(groups, p_max, n=2000)
            alloc = inter_group_allocate(groups, p_max)
            assert alloc.feasible
            step = p_max / 2000
            assert np.all(np.abs(alloc.group_totals - oracle_alloc) <= 2 * step)
            achieved = sum(
                float(equal_split_rate_curve(g, np.array([p]))[0])
                for g, p in zip(groups, alloc.group_totals)
            )
            assert achieved >= oracle_val - 1e-3

    def test_min_rate_demand_above_budget_is_infeasible(self):
        group = simple_group(rho_c=0.0, r1=3.0, r2=3.0, g1=0.1, g2=0.1)
        # binding power is (2^3 - 1)/(0.1 * 0.5) = 140 watts
        alloc = inter_group_allocate([group], p_max=10.0)
        assert not alloc.feasible
        assert "exceeds budget" in alloc.status

    def test_unreachable_min_rate_is_infeasible(self):
        group = simple_group(rho_c=1.0, r1=2.0)
        alloc = inter_group_allocate([group], p_max=10.0)
        assert not alloc.feasible
        assert "min-rate infeasible" in alloc.status

    def test_budget_and_duals(self, rng):
        for _ in range(6):
            groups = random_groups(rng, int(rng.choice([2, 3])))
            alloc = inter_group_allocate(groups, p_max=6.0)
            if not alloc.feasible:
                continue
            assert alloc.group_totals.sum() <= 6.0 + 1e-6
            assert alloc.mu >= 0.0
            assert np.all(alloc.lambdas >= 0.0)
            assert np.allclose(alloc.splits.sum(axis=1), alloc.group_totals, rtol=1e-12)
            # equal split at this stage
            assert np.allclose(alloc.splits[:, 0], alloc.splits[:, 1], rtol=1e-12)

    @settings(max_examples=20)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=4),
        p_max=st.floats(min_value=5.0, max_value=50.0),
    )
    # the secant stop once left this one 2.7e-7 W (7e-9 relative) over budget
    @example(seed=3898, k=2, p_max=38.118)
    def test_allocation_invariants_property(self, seed, k, p_max):
        rng = np.random.default_rng(seed)
        groups = random_groups(rng, k, min_rate_range=(0.2, 1.0))
        alloc = inter_group_allocate(groups, p_max)
        if not alloc.feasible:
            return
        assert alloc.group_totals.sum() <= p_max * (1 + 1e-9)
        assert alloc.mu >= 0.0
        assert np.all(alloc.lambdas >= 0.0)
        assert np.all(alloc.group_totals >= 0.0)
        if alloc.budget_exhausted and alloc.mu > 0:
            assert abs(alloc.group_totals.sum() - p_max) <= 1e-4 * p_max

    def test_saturating_rates_leave_budget_slack(self):
        # interference grows with power fast enough that the pair rate peaks
        prof = InterferenceProfile.parametric(
            LogisticRhoParams(limit=0.95, snr_slope=0.1, snr_mid_db=30.0,
                              power_coeff=-0.9, power_ref_w=0.05)
        )
        u1 = UserTerminal(id=0, link=Link(gain=1.0, noise=1e-3), min_rate=0.1)
        u2 = UserTerminal(id=1, link=Link(gain=1.0, noise=1e-3), min_rate=0.1)
        group = Group(users=(u1, u2), profile=prof)
        curve = equal_split_rate_curve(group, np.linspace(1e-4, 100.0, 2000))
        assert np.argmax(curve) < 1999, "instance must have an interior rate peak"
        alloc = inter_group_allocate([group], p_max=100.0)
        assert alloc.feasible
        if not alloc.budget_exhausted:
            assert alloc.mu == 0.0
            assert alloc.group_totals.sum() < 100.0


class TestIntraGroupAllocate:
    def test_symmetric_group_splits_evenly(self):
        # interference-free symmetric objective is strictly concave with the
        # even split at its peak
        group = simple_group(rho_c=0.0, g1=2.0, g2=2.0)
        p1, p2 = intra_group_allocate(group, p_k=4.0, tol=1e-9)
        assert p1 == pytest.approx(2.0, abs=1e-6)
        assert p1 + p2 == pytest.approx(4.0, rel=1e-12)

    def test_matches_grid_argmax(self, rng):
        for _ in range(20):
            group = random_groups(rng, 1)[0]
            p_k = float(rng.uniform(0.5, 5.0))
            tol = 1e-5 * p_k
            p1, _ = intra_group_allocate(group, p_k, tol)
            grid_p1, grid_val, grid, vals = intra_grid_argmax(group, p_k, n=100_001)
            near_optimal = grid[vals >= grid_val - 1e-9]
            assert np.min(np.abs(near_optimal - p1)) <= 2 * tol + (grid[1] - grid[0])

    def test_interference_free_boundary_optimum(self):
        # rho = 0 on both sides with a budget below the water-filling
        # threshold (p_k <= n2/g2 - n1/g1): all power goes to the stronger user
        group = simple_group(rho_c=0.0, r1=0.0, r2=0.0, g1=5.0, g2=0.2)
        p1, p2 = intra_group_allocate(group, p_k=3.0, tol=1e-9)
        grid_p1, _, _, _ = intra_grid_argmax(group, 3.0, n=100_001)
        assert grid_p1 == pytest.approx(3.0, abs=1e-3)
        assert p1 == pytest.approx(3.0, abs=1e-9)
        assert p2 == pytest.approx(0.0, abs=1e-9)

    def test_interval_restriction(self):
        group = simple_group(rho_c=0.0, g1=5.0, g2=1.0)
        p1, p2 = intra_group_allocate(group, p_k=3.0, tol=1e-9, interval=(0.5, 2.0))
        assert 0.5 - 1e-9 <= p1 <= 2.0 + 1e-9

    def test_non_concave_instance_still_matches_grid(self):
        # full interference with symmetric strong links is bimodal in the split
        group = simple_group(rho_c=1.0, r1=0.0, r2=0.0, g1=50.0, g2=50.0)
        p_k = 2.0
        tol = 1e-6 * p_k
        p1, _ = intra_group_allocate(group, p_k, tol)
        grid_p1, grid_val, grid, vals = intra_grid_argmax(group, p_k, n=100_001)
        mine = float(
            np.log2(1 + p1 * 50 / (1.0 * (p_k - p1) * 50 + 1))
            + np.log2(1 + (p_k - p1) * 50 / (1.0 * p1 * 50 + 1))
        )
        assert mine >= grid_val - 1e-6
        near_optimal = grid[vals >= grid_val - 1e-9]
        assert np.min(np.abs(near_optimal - p1)) <= 2 * tol + (grid[1] - grid[0])

    def test_rejects_bad_inputs(self):
        group = simple_group()
        with pytest.raises(ValueError):
            intra_group_allocate(group, p_k=0.0, tol=1e-6)
        with pytest.raises(ValueError):
            intra_group_allocate(group, p_k=1.0, tol=0.0)
        with pytest.raises(ValueError):
            intra_group_allocate(group, p_k=1.0, tol=1e-6, interval=(0.5, 2.0))

    def test_concavity_probe_logs_violations(self, caplog):
        import logging

        bimodal = simple_group(rho_c=1.0, r1=0.0, r2=0.0, g1=50.0, g2=50.0)
        with caplog.at_level(logging.DEBUG, logger="sfma.power"):
            intra_group_allocate(bimodal, p_k=2.0, tol=1e-8)
        assert any("not midpoint-concave" in r.message for r in caplog.records)

        caplog.clear()
        concave = simple_group(rho_c=0.0, g1=2.0, g2=2.0)
        with caplog.at_level(logging.DEBUG, logger="sfma.power"):
            intra_group_allocate(concave, p_k=4.0, tol=1e-8)
        assert not any("not midpoint-concave" in r.message for r in caplog.records)


class TestKKTResiduals:
    def test_over_budget_excess_reported_exactly(self):
        group = simple_group(rho_c=0.2, r1=0.5, r2=0.5)
        alloc = PowerAllocation(
            group_totals=np.array([12.0]),
            splits=np.array([[6.0, 6.0]]),
            mu=0.1,
            lambdas=np.zeros((1, 2)),
        )
        report = kkt_residuals([group], alloc, p_max=10.0)
        assert report.power_excess == 2.0

    def test_solver_allocation_has_small_residuals(self, rng):
        worst = 0.0
        for _ in range(8):
            groups = random_groups(rng, int(rng.choice([1, 2, 3])))
            alloc = inter_group_allocate(groups, p_max=6.0)
            if not alloc.feasible:
                continue
            report = kkt_residuals(groups, alloc, p_max=6.0)
            worst = max(worst, report.max_normalized)
        assert worst < 1e-4

    def test_zero_lambda_strict_slack_gives_zero_comp(self):
        group = simple_group(rho_c=0.0, r1=0.1, r2=0.1)
        alloc = PowerAllocation(
            group_totals=np.array([8.0]),
            splits=np.array([[4.0, 4.0]]),
            mu=0.0,
            lambdas=np.zeros((1, 2)),
        )
        report = kkt_residuals([group], alloc, p_max=10.0)
        assert np.all(report.rate_comp == 0.0)
        assert np.all(report.rate_comp_norm == 0.0)

    def test_negative_dual_reported(self):
        group = simple_group(rho_c=0.0, r1=0.1, r2=0.1)
        alloc = PowerAllocation(
            group_totals=np.array([8.0]),
            splits=np.array([[4.0, 4.0]]),
            mu=-0.5,
            lambdas=np.zeros((1, 2)),
        )
        report = kkt_residuals([group], alloc, p_max=10.0)
        assert report.dual_negative == 0.5


def solver_config(profile, p_max=10.0, alpha=0.1, delta=8.0):
    return SolverConfig(p_max_w=p_max, alpha=alpha, delta_max=delta, profile=profile)


class TestSolve:
    def test_two_user_composition(self):
        users = [
            UserTerminal(id=0, link=make_link(12.0), min_rate=0.5, frame_time=0),
            UserTerminal(id=1, link=make_link(8.0), min_rate=0.5, frame_time=2),
        ]
        prof = InterferenceProfile.constant(0.2)
        res = solve(users, solver_config(prof, p_max=5.0))
        assert res.feasible
        assert res.pairing.pairs == ((0, 1),)
        alloc = res.allocation
        assert alloc.group_totals.sum() == pytest.approx(5.0, rel=1e-6)
        expected = pair_sum_rate(
            float(alloc.splits[0, 0]), float(alloc.splits[0, 1]), prof,
            users[0].link, users[1].link,
        )
        assert res.sum_rate == pytest.approx(expected, rel=1e-9)

    def test_beats_fixed_equal_split_on_same_pairing(self, rng, default_profile):
        users = random_users(rng, 10, min_rate=1.0, frame_window=4)
        res = solve(users, solver_config(default_profile, p_max=200.0))
        assert res.feasible
        by_id = {u.id: u for u in users}
        k = len(res.pairing.pairs)
        p_each = 200.0 / (2 * k)
        fixed = sum(
            pair_sum_rate(p_each, p_each, default_profile, by_id[a].link, by_id[b].link)
            for a, b in res.pairing.pairs
        )
        assert res.sum_rate > fixed

    def test_sum_rate_nondecreasing_in_budget(self, rng, default_profile):
        users = random_users(rng, 6, min_rate=1.0, frame_window=4)
        r1 = solve(users, solver_config(default_profile, p_max=50.0))
        r2 = solve(users, solver_config(default_profile, p_max=100.0))
        assert r1.feasible and r2.feasible
        assert r2.sum_rate >= r1.sum_rate - 1e-9

    def test_min_rates_honored(self, rng, default_profile):
        feasible_seen = 0
        for _ in range(10):
            users = random_users(rng, 8, min_rate=1.0, frame_window=4)
            res = solve(users, solver_config(default_profile, p_max=300.0))
            if not res.feasible:
                continue
            feasible_seen += 1
            for uid, rate in res.user_rates.items():
                assert rate >= 1.0 - 1e-6
        assert feasible_seen > 0

    def test_pairing_infeasibility_attributed(self):
        users = [
            UserTerminal(id=0, link=make_link(10.0), min_rate=0.5, frame_time=0),
            UserTerminal(id=1, link=make_link(10.0), min_rate=0.5, frame_time=9),
        ]
        res = solve(users, solver_config(InterferenceProfile.constant(0.1), delta=4.0))
        assert not res.feasible
        assert res.stage == "pairing"
        assert res.pairing.unmatched == (0, 1)

    def test_power_infeasibility_attributed(self):
        users = [
            UserTerminal(id=0, link=Link(gain=1e-14, noise=1e-10), min_rate=2.0, frame_time=0),
            UserTerminal(id=1, link=Link(gain=1e-14, noise=1e-10), min_rate=2.0, frame_time=0),
        ]
        res = solve(users, solver_config(InterferenceProfile.constant(0.0), p_max=1.0))
        assert not res.feasible
        assert res.stage == "power"

    def test_full_interference_reduction_matches_conventional(self):
        # rho = 1 everywhere: the pipeline is a classic two-user allocator
        prof = InterferenceProfile.constant(1.0)
        users = [
            UserTerminal(id=0, link=make_link(14.0), min_rate=0.5, frame_time=0),
            UserTerminal(id=1, link=make_link(6.0), min_rate=0.5, frame_time=1),
            UserTerminal(id=2, link=make_link(11.0), min_rate=0.5, frame_time=0),
            UserTerminal(id=3, link=make_link(9.0), min_rate=0.5, frame_time=1),
        ]
        res = solve(users, solver_config(prof, p_max=20.0))
        assert res.feasible
        by_id = {u.id: u for u in users}
        total = 0.0
        for (a, b), split in zip(res.pairing.pairs, res.allocation.splits):
            ua, ub = by_id[a], by_id[b]
            total += math.log2(1 + sinr_conventional(split[0], split[1], ua.link))
            total += math.log2(1 + sinr_conventional(split[1], split[0], ub.link))
        assert res.sum_rate == pytest.approx(total, rel=1e-9)
        # extreme points reduce to the closed form without interference factors
        group = Group(users=(by_id[res.pairing.pairs[0][0]], by_id[res.pairing.pairs[0][1]]), profile=prof)
        u = group.users[0]
        t = 2.0 ** u.min_rate - 1.0
        denom = 0.5 + 0.5 * 1.0 * (1.0 - 2.0 ** u.min_rate)
        expected = u.link.noise * t / (u.link.gain * denom)
        assert extreme_point_min_rate(group, 1, 1.0) == pytest.approx(expected, rel=1e-9)

    def test_odd_user_count_rejected(self, default_profile):
        with pytest.raises(ValueError):
            solve([UserTerminal(id=0, link=make_link(10.0))], solver_config(default_profile))
