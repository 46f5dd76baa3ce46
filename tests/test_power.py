import cProfile
import itertools
import logging
import math
import os
import pstats
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sfma.power
from sfma.bench import ScenarioConfig, drop_inputs
from sfma.pairing import UserTerminal, pair_users
from sfma.power import (
    _CAP,
    _GRID_N,
    _LN2,
    _ROOT,
    _SUB_LEVELS,
    _SUB_N,
    _ZERO,
    ConvergenceError,
    Group,
    MinRateInfeasible,
    PowerAllocation,
    SolverConfig,
    _GroupArrays,
    _WaterFiller,
    _intra_objective,
    _intra_split_vec,
    _min_rate_split_interval,
    _pair_rate_slope,
    _rate_floors,
    _recover_lambdas,
    _sub_bracket,
    inter_group_allocate,
    intra_group_allocate,
    kkt_residuals,
    solve,
    split_residuals,
)
from sfma.semantic_rate import (
    InterferenceProfile,
    Link,
    LogisticRhoParams,
    _LN10,
    _bilinear,
    _equal_split_snr_db,
    _rho_kernel,
    rho_derivative_eval,
    rho_eval,
    sinr_conventional,
    sinr_semantic,
)
from sfma.verify import (
    equal_split_rate_curve,
    inter_group_grid_oracle,
    intra_grid_argmax,
    min_rate_floor_constant_rho,
    random_groups,
    random_users,
)

from conftest import make_link, pair_sum_rate


def simple_group(rho_c=0.0, r1=1.0, r2=1.0, g1=1.0, g2=1.0, n1=1.0, n2=1.0):
    u1 = UserTerminal(id=0, link=Link(gain=g1, noise=n1), min_rate=r1)
    u2 = UserTerminal(id=1, link=Link(gain=g2, noise=n2), min_rate=r2)
    return Group(users=(u1, u2), profile=InterferenceProfile.constant(rho_c))


def min_rate_point(group, which, p_max=1e6):
    """User ``which``'s rate floor within ``p_max``, its partner's minimum rate set to 0."""
    users = list(group.users)
    other = users[2 - which]
    users[2 - which] = UserTerminal(id=other.id, link=other.link, min_rate=0.0,
                                    frame_time=other.frame_time)
    arrs = _GroupArrays([Group(users=tuple(users), profile=group.profile)])
    return float(_rate_floors(arrs, p_max)[0, which - 1])


def dense_grid_floors(arrs, p_max, n=1001):
    """(K, 2) least power of a dense geometric grid from p0 = 2 n t / g to p_max
    at which each user's equal-split rate meets its minimum, nan where none
    does, and the grid's ratio of neighbouring powers.

    A grid starting above p_max holds p0 alone. Rows without a minimum rate
    have floor 0.
    """
    t = (arrs.pow2r - 1.0)[..., None]
    gain, noise = arrs.gain[..., None], arrs.noise[..., None]
    p0 = np.where(t > 0, 2.0 * noise * t / gain, 1.0)[..., 0]
    p = np.geomspace(p0, np.maximum(p0, p_max), n, axis=-1)          # (K, 2, n)
    rho = np.stack([rho_eval(g.profile, p[i], gain[i], noise[i]) for i, g in enumerate(arrs.groups)])
    met = 0.5 * p * gain * (1.0 - t * rho) >= noise * t
    first = met.argmax(axis=-1)
    least = np.where(met.any(axis=-1), np.take_along_axis(p, first[..., None], axis=-1)[..., 0], np.nan)
    return np.where(t[..., 0] > 0, least, 0.0), float(np.max(p[..., 1] / p[..., 0], initial=1.0, where=t[..., 0] > 0))


class TestExtremePointMinRate:
    def test_closed_form_interference_free(self):
        # rho = 0, eta 1/2, R = 1, unit link: p = (2 - 1)/(1/2)
        group = simple_group(rho_c=0.0, r1=1.0)
        assert min_rate_point(group, 1) == pytest.approx(2.0, rel=1e-12)

    def test_zero_rate_needs_zero_power(self):
        group = simple_group(rho_c=0.5, r1=0.0)
        assert min_rate_point(group, 1) == 0.0

    def test_full_interference_high_rate_infeasible(self):
        # rho = 1, R = 2: denominator 1/2 + 1/2 * (1 - 4) < 0
        group = simple_group(rho_c=1.0, r1=2.0)
        with pytest.raises(MinRateInfeasible):
            min_rate_point(group, 1)

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
                        min_rate_point(group, which)
                    continue
                expected = user.link.noise * t / (user.link.gain * denom)
                got = min_rate_point(group, which)
                assert got == pytest.approx(expected, rel=1e-8)

    def test_table_profile_fixed_point_consistency(self, default_profile):
        u1 = UserTerminal(id=0, link=make_link(0.0), min_rate=1.0)
        u2 = UserTerminal(id=1, link=make_link(6.0), min_rate=1.0)
        group = Group(users=(u1, u2), profile=default_profile)
        p_star = min_rate_point(group, 1)
        # oracle: the equal-split rate of user 1 at the fixed point equals the demand
        rho_c = rho_eval(default_profile, p_star, u1.link.gain, u1.link.noise)
        sinr = (p_star / 2) * u1.link.gain / (rho_c * (p_star / 2) * u1.link.gain + u1.link.noise)
        assert math.log2(1 + sinr) == pytest.approx(1.0, abs=1e-6)


class TestMinRateNewton:
    """The Newton floors against the rate-binding map T and a dense grid, evaluated on their own."""

    @staticmethod
    def check(arrs, p_max):
        """Floors are fixed points of T to 1e-13 relative and the least powers
        that meet the rate to one step of a dense grid up to p_max, and
        infeasible exactly where that grid never meets it."""
        least, ratio = dense_grid_floors(arrs, p_max)
        if np.any(np.isnan(least)):
            with pytest.raises(MinRateInfeasible, match=r"group \d+, user [12]: minimum rate not met "
                                                       r"by any power within the budget"):
                _rate_floors(arrs, p_max)
            return False
        floors = _rate_floors(arrs, p_max)
        t = arrs.pow2r - 1.0
        rho = np.stack([rho_eval(g.profile, floors[i], arrs.gain[i], arrs.noise[i])
                        for i, g in enumerate(arrs.groups)])
        want = arrs.noise * t / (arrs.gain * (0.5 + 0.5 * rho * (1.0 - arrs.pow2r)))
        assert np.all(np.abs(floors - want) <= 1e-13 * want)
        assert np.all((least >= floors * (1.0 - 1e-12)) & (least <= floors * ratio * (1.0 + 1e-12)))
        return True

    def test_record_drops(self):
        # record drops spend 1000 W
        assert sum(self.check(arrs, 1000.0) for arrs in record_group_arrays()) >= 40

    @pytest.mark.parametrize("kind", ["constant", "table", "parametric"])
    def test_random_groups(self, kind):
        results = [self.check(_GroupArrays(groups), p_max) for groups, p_max in random_group_cases(kind)]
        assert any(results)

    def test_profile_rising_with_power(self):
        # rho rises with power, so den falls: the rate may be met only on a
        # window of powers, or on none up to the budget although den > 0 at p0
        rng = np.random.default_rng(5)
        seen = {"floors": 0, "unmet": 0, "bounded above": 0}
        for _ in range(60):
            arrs = _GroupArrays(random_groups(rng, int(rng.integers(1, 6)), RISING, min_rate_range=(0.2, 2.5)))
            p_max = float(rng.uniform(1.0, 100.0))
            if not self.check(arrs, p_max):
                seen["unmet"] += 1
                continue
            seen["floors"] += 1
            # some user meets its rate at its floor but no longer at the budget
            t = arrs.pow2r - 1.0
            rho = np.array([[rho_eval(RISING, p_max, u.link.gain, u.link.noise) for u in g.users]
                            for g in arrs.groups])
            seen["bounded above"] += bool(np.any(0.5 * p_max * arrs.gain * (1.0 - t * rho) < arrs.noise * t))
        assert all(seen.values()), seen

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rising_profile_decided_early(self, seed):
        # a rate that no power up to the budget meets is MinRateInfeasible
        # after a few lookups, never ConvergenceError, as a dense grid decides
        rng = np.random.default_rng(seed)
        lookups, decided = [], {True: 0, False: 0}
        for _ in range(300):
            arrs = _GroupArrays(random_groups(rng, 1, RISING, min_rate_range=(0.2, 2.5)))
            calls = []
            lookup = arrs.rho_and_slope
            arrs.rho_and_slope = lambda p, work=None, rows=None: calls.append(p) or lookup(p, work, rows)
            decided[self.check(arrs, float(rng.uniform(1.0, 100.0)))] += 1
            lookups.append(len(calls))
        assert min(decided.values()) > 0, decided
        assert max(lookups) <= 20

    def test_constant_rho_floor_past_the_budget(self):
        # no power up to the budget meets the rate: infeasible, naming the budget
        group = simple_group(rho_c=0.1, r1=3.0, r2=3.0, g1=0.1, g2=0.1)
        with pytest.raises(MinRateInfeasible, match=r"group 0, user 1: .* within the budget 10 W"):
            _rate_floors(_GroupArrays([group]), 10.0)
        # the budget that holds the closed-form floor finds it
        floor = min_rate_floor_constant_rho(group)
        assert min_rate_point(group, 1, p_max=floor * 1.001) == pytest.approx(floor, rel=1e-13)


def stationary_point(group, mu, p_max):
    """exact_totals of one group with zero minimum rates: (power, status) at water level mu."""
    wf = _WaterFiller(_GroupArrays([group]), p_max, np.zeros(1))
    p, status, _ = wf.exact_totals(mu)
    return float(p[0]), int(status[0]), wf.grid


class TestExtremePointStationary:
    def test_water_level_above_channel_gives_none(self):
        group = simple_group(rho_c=0.0, r1=0.0, r2=0.0)
        p, status, _ = stationary_point(group, mu=1e9, p_max=10.0)
        assert status == _ZERO and p == 0.0

    def test_zero_mu_increasing_rate_gives_none(self):
        # the slope stays above a zero water level: no root, the group is capped
        group = simple_group(rho_c=0.0, r1=0.0, r2=0.0)
        p, status, grid = stationary_point(group, mu=0.0, p_max=10.0)
        assert status == _CAP and p == grid[-1]

    def test_matches_grid_argmax(self, rng):
        for _ in range(10):
            g = float(rng.uniform(0.5, 4.0))
            group = simple_group(rho_c=float(rng.uniform(0.0, 0.5)), r1=0.0, r2=0.0, g1=g, g2=g)
            mu = float(rng.uniform(0.05, 1.0))
            root, status, samples = stationary_point(group, mu, p_max=50.0)
            grid = np.linspace(samples[0], samples[-1], 200_001)
            vals = equal_split_rate_curve(group, grid) - mu * math.log(2.0) * grid
            best = grid[int(np.argmax(vals))]
            if status != _ROOT:
                # argmax at an endpoint means no interior stationary point
                assert best == pytest.approx(grid[0]) or best == pytest.approx(grid[-1])
            else:
                assert root == pytest.approx(best, abs=2 * (grid[1] - grid[0]))

    @pytest.mark.parametrize("kind", ["constant", "table", "parametric"])
    def test_top_level_gives_the_floors(self, kind):
        # the water-level search takes these totals without evaluating them
        tested = 0
        for groups, p_max in random_group_cases(kind):
            arrs = _GroupArrays(groups)
            try:
                p_req = _rate_floors(arrs, p_max).max(axis=1)
            except MinRateInfeasible:
                continue
            wf = _WaterFiller(arrs, p_max, p_req)
            assert not np.any(wf.f_grid >= wf.top)
            p, status, _ = wf.exact_totals(wf.top)
            np.testing.assert_array_equal(p, p_req)
            assert np.all(status == _ZERO)
            tested += 1
        assert tested >= 20


class TestInterGroupAllocate:
    def test_single_group_gets_full_budget(self):
        group = simple_group(rho_c=0.0, r1=0.5, r2=0.5)
        alloc = inter_group_allocate([group], p_max=10.0)
        assert alloc.feasible
        assert alloc.group_totals[0] == pytest.approx(10.0, rel=1e-6)
        assert alloc.budget_exhausted

    def test_identical_groups_split_evenly(self):
        groups = [simple_group(rho_c=0.2, r1=0.5, r2=0.5) for _ in range(2)]
        alloc = inter_group_allocate(groups, p_max=8.0)
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
        assert alloc.exit == "floors_over_budget"
        assert alloc.detail == "the rate floors need 140 W, above the budget 10 W"

    def test_unreachable_min_rate_is_infeasible(self):
        group = simple_group(rho_c=1.0, r1=2.0)
        alloc = inter_group_allocate([group], p_max=10.0)
        assert not alloc.feasible
        assert alloc.exit == "rate_unreachable"
        assert alloc.detail.startswith("group 0, user 1: minimum rate not met")

    def test_floors_just_past_the_budget_fail_at_once(self):
        # floors summing to within 1e-12 above the budget once ran 200
        # doublings of the water level's upper bracket, then ended "could not
        # bracket the water level"; a budget just above them ends at the floors
        groups = random_groups(np.random.default_rng(3), 5, InterferenceProfile.default_table(),
                               min_rate_range=(0.5, 1.0))
        floors = _rate_floors(_GroupArrays(groups), 100.0).max(axis=1).sum()
        alloc = inter_group_allocate(groups, floors / (1.0 + 5e-13))
        assert alloc.exit == "floors_over_budget"
        assert alloc.sampled_steps == 0
        alloc = inter_group_allocate(groups, floors * (1.0 + 5e-13))
        assert alloc.exit == "ok"
        assert alloc.group_totals.sum() <= floors * (1.0 + 5e-13)

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
        assert alloc.feasible and not alloc.budget_exhausted
        assert alloc.exit == "budget_slack"
        assert alloc.mu == 0.0
        assert alloc.group_totals.sum() < 100.0


class TestIntraGroupAllocate:
    def test_symmetric_group_splits_evenly(self):
        # interference-free symmetric objective is strictly concave with the
        # even split at its peak
        group = simple_group(rho_c=0.0, g1=2.0, g2=2.0)
        p1, p2 = intra_group_allocate(group, p_k=4.0)
        assert p1 == pytest.approx(2.0, abs=1e-6)
        assert p1 + p2 == pytest.approx(4.0, rel=1e-12)

    def test_matches_grid_argmax(self, rng):
        for _ in range(20):
            group = random_groups(rng, 1)[0]
            p_k = float(rng.uniform(0.5, 5.0))
            tol = 1e-5 * p_k            # the bound's slack
            p1, _ = intra_group_allocate(group, p_k)
            grid_p1, grid_val, grid, vals = intra_grid_argmax(group, p_k, n=100_001)
            near_optimal = grid[vals >= grid_val - 1e-9]
            assert np.min(np.abs(near_optimal - p1)) <= 2 * tol + (grid[1] - grid[0])

    def test_interference_free_boundary_optimum(self):
        # rho = 0 on both sides with a budget below the water-filling
        # threshold (p_k <= n2/g2 - n1/g1): all power goes to the stronger user
        group = simple_group(rho_c=0.0, r1=0.0, r2=0.0, g1=5.0, g2=0.2)
        p1, p2 = intra_group_allocate(group, p_k=3.0)
        grid_p1, _, _, _ = intra_grid_argmax(group, 3.0, n=100_001)
        assert grid_p1 == pytest.approx(3.0, abs=1e-3)
        assert p1 == pytest.approx(3.0, abs=1e-9)
        assert p2 == pytest.approx(0.0, abs=1e-9)

    def test_non_concave_instance_still_matches_grid(self):
        # full interference with symmetric strong links is bimodal in the split
        group = simple_group(rho_c=1.0, r1=0.0, r2=0.0, g1=50.0, g2=50.0)
        p_k = 2.0
        tol = 1e-6 * p_k                # the bound's slack
        p1, _ = intra_group_allocate(group, p_k)
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
            intra_group_allocate(group, p_k=0.0)


class TestSplitResiduals:
    def test_only_slopes_into_the_interval_count(self):
        # no interference and a weak second link: all power goes to user 1,
        # and the slope at the upper end still points up
        group = simple_group(rho_c=0.0, r1=0.0, r2=0.0, g1=5.0, g2=0.2)

        def residual(p1):
            alloc = PowerAllocation(group_totals=np.array([3.0]), splits=np.array([[p1, 3.0 - p1]]),
                                    mu=0.0, lambdas=np.zeros((1, 2)))
            return float(split_residuals([group], alloc)[0])

        assert residual(3.0) == 0.0
        assert residual(0.0) > 0.1
        assert residual(1.5) > 0.1

    def test_zero_power_group(self):
        alloc = PowerAllocation(group_totals=np.array([0.0, 2.0]), splits=np.array([[0.0, 0.0], [1.0, 1.0]]),
                                mu=0.0, lambdas=np.zeros((2, 2)))
        res = split_residuals([simple_group(r1=0.0, r2=0.0)] * 2, alloc)
        # a symmetric interference-free pair peaks at the even split
        assert res[0] == 0.0 and res[1] <= 1e-15


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
        assert np.all(report.rate_comp_norm == 0.0)

    def test_table_group_at_a_cut(self, default_profile):
        # user 1 sits 20 dB above the table's SNR axis, so its 5 dB node is
        # the cut x = -15 dBW, where the table slope and the stationarity
        # curve with it jump by about half
        arrs = arrays_at(default_profile, [(20.0, 25.0)])
        p = 10.0 ** -1.5
        while 10.0 * np.log10(p) < -15.0:
            p = np.nextafter(p, np.inf)
        left, right = (float(_pair_rate_slope(arrs, np.array([q]))[0]) / _LN2 for q in (p * (1 - 1e-12), p))
        lo, hi = sorted((left, right))
        assert hi - lo > 0.4 * hi

        def residual(mu):
            alloc = PowerAllocation(group_totals=np.array([p]), splits=np.array([[p / 2, p / 2]]),
                                    mu=mu, lambdas=np.zeros((1, 2)))
            return float(kkt_residuals(arrs.groups, alloc, p).stationarity_norm[0])

        # mu between the two one-sided slopes is a subgradient; outside them it is not
        for mu in (lo + 0.01 * (hi - lo), 0.5 * (lo + hi), hi - 0.01 * (hi - lo)):
            assert residual(mu) < 1e-4
        for mu in (lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)):
            assert residual(mu) > 1e-2

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
        assert (res.stage, res.exit) == ("pairing", "pairing")
        assert res.pairing.unmatched == (0, 1)

    def test_rate_missed_after_the_pair_split(self):
        # rho rises with power here, so a user may meet its minimum rate only below
        # some power; the group stage ends at a zero water level, and the pair
        # split then leaves user 1 below its minimum
        rising = InterferenceProfile.parametric(LogisticRhoParams(snr_slope=0.1, snr_mid_db=10.0,
                                                                  power_coeff=-0.5))
        rng = np.random.default_rng(0)
        for _ in range(28):      # the 28th draw
            k = rng.integers(1, 6)
            groups = random_groups(rng, k, rising, min_rate_range=(0.2, 2.5))
            p_max = float(rng.uniform(1, 100))
        assert (k, round(p_max, 2)) == (1, 82.30)
        res = solve(groups[0].users, SolverConfig(p_max_w=p_max, profile=rising))
        assert (res.exit, res.stage, res.feasible) == ("rate_missed", "power", False)
        assert res.allocation.exit == "budget_slack"
        assert res.user_rates[1] == pytest.approx(1.42, abs=5e-3)
        assert groups[0].users[1].min_rate == pytest.approx(1.98, abs=5e-3)

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
        assert min_rate_point(group, 1) == pytest.approx(expected, rel=1e-9)

    def test_odd_user_count_rejected(self, default_profile):
        with pytest.raises(ValueError):
            solve([UserTerminal(id=0, link=make_link(10.0))], solver_config(default_profile))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["constant", "table", "parametric"])
    def test_zero_power_group(self, kind):
        # without minimum rates the water level stays above the weak pair's
        # whole curve, so its group gets no power and goes through the pair
        # stage at p = 0
        profile = {"constant": InterferenceProfile.constant(0.3), "table": InterferenceProfile.default_table(),
                   "parametric": InterferenceProfile.parametric()}[kind]
        links = [Link(gain=1.0, noise=1e-3), Link(gain=0.8, noise=1e-3),
                 Link(gain=1e-6, noise=1.0), Link(gain=2e-6, noise=1.0)]
        users = [UserTerminal(id=i, link=link, min_rate=0.0) for i, link in enumerate(links)]
        res = solve(users, solver_config(profile, p_max=1.0))
        assert res.feasible
        assert res.pairing.pairs == ((0, 1), (2, 3))
        alloc = res.allocation
        assert alloc.group_totals[1] == 0.0 and alloc.group_totals[0] > 0.0
        assert alloc.splits[1].tolist() == [0.0, 0.0]
        groups = [Group(users=(users[a], users[b]), profile=profile) for a, b in res.pairing.pairs]
        assert split_residuals(groups, alloc)[1] == 0.0


class TestSolverConfig:
    @pytest.mark.parametrize("field", ["p_max_w", "alpha", "delta_max"])
    def test_non_finite_rejected(self, field):
        users = random_users(np.random.default_rng(0), 6, min_rate=0.5)
        for bad in (float("nan"), float("inf")):
            kwargs = {"p_max_w": 10.0, field: bad}
            with pytest.raises(ValueError, match=field):
                solve(users, SolverConfig(**kwargs))


def bench_drop(root_seed, m, drop, kind="table", p_max_dbw=30.0, min_rate=1.0):
    """Users and solver settings of one drop of a one-cell bench sweep."""
    config = ScenarioConfig(user_counts=(m,), p_max_dbw=(p_max_dbw,), root_seed=root_seed,
                            rho_kind=kind, min_rate=min_rate)
    return drop_inputs(config, m, 0, drop)


class TestBudgetJump:
    def test_jump_across_the_budget_stops_below_it(self):
        # the summed group power jumps by tens of watts at one water level;
        # bisecting that jump once took 41 refinements and ended at 1007.57 W
        users, cfg = bench_drop(2026, 30, 6)
        alloc = solve(users, cfg).allocation
        assert alloc.feasible
        assert alloc.group_totals.sum() <= cfg.p_max_w * (1 + 1e-9)
        assert not alloc.budget_exhausted
        assert alloc.exit == "jump"
        assert alloc.steps <= 8

    def test_jump_inside_a_cell_ends_in_few_steps(self):
        # the totals jump by about 3 W inside a grid cell; a secant polish
        # crept up on it from below for 41 refinements and stopped at 999.917 W
        users, cfg = bench_drop(2026, 60, 19)
        alloc = solve(users, cfg).allocation
        assert alloc.exit == "jump"
        assert alloc.steps <= 8
        assert 999.99 <= alloc.group_totals.sum() <= cfg.p_max_w

    def test_ulp_of_the_curves_moves_no_jump_exit(self, monkeypatch):
        # a jump exit ends at the float just above a jump level, so moving
        # every curve sample by one ulp moves its sum rate by roundoff alone
        jumps = []
        for kind, m, drop in itertools.product(("table", "parametric"), (10, 30, 60), range(60)):
            users, cfg = bench_drop(2026, m, drop, kind)
            result = solve(users, cfg)
            if result.allocation is not None and result.allocation.exit == "jump":
                jumps.append((users, cfg, result.sum_rate, (kind, m, drop)))
        init = _WaterFiller.__init__

        def nudged(self, *args):
            init(self, *args)
            self.f_grid = self.f_grid * (1.0 + 2.0 ** -52)

        monkeypatch.setattr(_WaterFiller, "__init__", nudged)
        for users, cfg, rate, where in jumps:
            assert solve(users, cfg).sum_rate == pytest.approx(rate, rel=1e-12, abs=0), where
        assert len(jumps) >= 20

    def test_jump_exit_leaves_budget_unspent(self):
        # the search ends on the float just above a jump of the totals with
        # 59.5 W left, which the jumping group could still use
        alloc = solve(*bench_drop(2026, 10, 14)).allocation
        assert (alloc.exit, alloc.feasible, alloc.budget_exhausted) == ("jump", True, False)
        assert alloc.detail == "940.462 of 1000 W spent"

    def test_step_cap_ends_at_the_bracket_top(self):
        # a total above the budget whose Newton steps each climb 1e-4 relative
        # neither meets the stop nor narrows the bracket to neighbouring floats
        levels = []

        def evaluate(mu):
            levels.append(mu)
            return 2.0, -1e4 / mu, "at mu"

        search = SimpleNamespace(p_max=1.0, top=1.0, jump_level=lambda lo, hi: None)
        assert _WaterFiller.search(search, evaluate, 0.5, 1e-8, "at top") == (1.0, "at top", "step_cap")
        assert len(levels) == 80 and levels[-1] < 0.55

    def test_step_cap_allocation_sits_at_its_floors(self, monkeypatch):
        # an exact search that stops at its cap ends the allocation on the
        # bracket's top, where every group is at its floor
        search = _WaterFiller.search

        def capped(self, evaluate, mu, stop, state):
            if state is None:
                return search(self, evaluate, mu, stop, state)
            return self.top, state, "step_cap"

        monkeypatch.setattr(_WaterFiller, "search", capped)
        groups = random_groups(np.random.default_rng(5), 4, InterferenceProfile.default_table(),
                               min_rate_range=(0.2, 1.0))
        alloc = inter_group_allocate(groups, 50.0)
        assert (alloc.exit, alloc.feasible, alloc.budget_exhausted) == ("step_cap", True, False)
        np.testing.assert_array_equal(alloc.group_totals, _rate_floors(_GroupArrays(groups), 50.0).max(axis=1))

    def test_converged_allocation_counts_its_steps(self):
        users, cfg = bench_drop(2026, 30, 0)
        alloc = solve(users, cfg).allocation
        assert alloc.exit == "ok"
        assert 1 <= alloc.steps <= 10

    def test_phase_one_stops_at_neighbouring_floats(self):
        # the jump leaves the phase-1 bracket two neighbouring floats wide;
        # a relative width test never fired there and ran out all 80 steps,
        # and halving down to those floats took 57; probing the jump level
        # reaches them at once
        users, cfg = bench_drop(2026, 30, 6)
        assert solve(users, cfg).allocation.sampled_steps <= 20


def edge_tables():
    return {
        "one power row": InterferenceProfile.from_table([0.0], [-10.0, 0.0, 10.0, 20.0],
                                                        [[0.9, 0.6, 0.2, 0.05]]),
        "one snr column": InterferenceProfile.from_table([-10.0, 0.0, 10.0, 20.0], [5.0],
                                                         [[0.1], [0.5], [0.7], [0.95]]),
        "one point": InterferenceProfile.from_table([0.0], [5.0], [[0.4]]),
        "bundled": InterferenceProfile.default_table(),
        # at a 10 dB offset SNR nodes 10 and 17.5 dB land on power nodes 0 and
        # 7.5 dBW; with no offset, 10 and 40 land on 10 and 40
        "non-uniform": InterferenceProfile.from_table(
            [-12.0, 0.0, 7.5, 10.0, 25.0, 40.0], [-8.0, 1.0, 10.0, 17.5, 40.0],
            [[0.95, 0.9, 0.6, 0.2, 0.01],
             [0.94, 0.85, 0.5, 0.15, 0.01],
             [0.94, 0.8, 0.45, 0.3, 0.0],
             [0.93, 0.82, 0.4, 0.1, 0.0],
             [1.0, 0.7, 0.3, 0.05, 0.0],
             [0.9, 0.6, 0.2, 0.02, 0.0]]),
    }


def lookup_profiles():
    """The edge tables, the logistic profile, and a logistic profile flat along
    the power axis (snr_slope + power_coeff = 0)."""
    return {**edge_tables(), "logistic": InterferenceProfile.parametric(),
            "logistic, flat in power": InterferenceProfile.parametric(LogisticRhoParams(power_coeff=-0.42))}


# d(rho)/dp of the logistic kind before its axis form, kept verbatim as the
# reference slope of the lookup tests below; the value is still _rho_kernel's.

def reference_logistic_derivative(profile: InterferenceProfile, p, gain, noise):
    prm = profile.params
    snr = _equal_split_snr_db(p, gain, noise)
    with np.errstate(divide="ignore"):
        power_db = 10.0 * np.log10(p / prm.power_ref_w)
    expo = np.clip(prm.snr_slope * (snr - prm.snr_mid_db) + prm.power_coeff * power_db, -60.0, 60.0)
    sig = 1.0 / (1.0 + np.exp(expo))
    # d(expo)/dp: both the SNR and power terms move by 10/(p ln10) per watt
    dexpo = 10.0 * (prm.snr_slope + prm.power_coeff) / (p * _LN10)
    return -prm.limit * sig * (1.0 - sig) * dexpo


def logistic_tolerance(params, p, gain, noise, value):
    """Bounds on the value and slope gaps between the verbatim logistic
    kernels and the axis form, from rounding alone.

    The two forms sum different terms into the exponent, ss*(snr - mid) +
    pc*10*log10(p / ref) against a + b*x, and round each term: the exponents
    agree to 4 eps times the terms' magnitudes, which moves rho by
    limit*sig*(1 - sig) per unit and the slope by that much relatively. Near
    the plateau each form rounds sig to within eps of 1, so 1 - sig, and the
    slope with it, agrees only to 2 eps absolute.
    """
    eps = np.finfo(float).eps
    ss, pc, b = params.snr_slope, params.power_coeff, params.snr_slope + params.power_coeff
    x = 10.0 * np.log10(p)
    offset = 10.0 * np.log10(gain / (2.0 * noise))
    ref_db = 10.0 * np.log10(params.power_ref_w)
    terms = (abs(ss) * (np.abs(x + offset) + np.abs(offset) + 2.0 * abs(params.snr_mid_db))
             + abs(pc) * (2.0 * np.abs(x) + 2.0 * abs(ref_db)) + np.abs(b * x))
    shift = 4.0 * eps * terms
    sig = value / params.limit
    slope_unit = params.limit * np.abs(10.0 * b / (p * _LN10))
    return 1e-15 + value * (1.0 - sig) * shift, slope_unit * sig * ((1.0 - sig) * shift + 2.0 * eps)


def arrays_at(profile, offsets_db):
    """One group per (user 1, user 2) pair of equal-split SNR offsets in dB."""
    groups = []
    for i, pair in enumerate(offsets_db):
        users = tuple(UserTerminal(id=2 * i + j, link=Link(gain=2.0 * 10.0 ** (off / 10.0), noise=1.0))
                      for j, off in enumerate(pair))
        groups.append(Group(users=users, profile=profile))
    return _GroupArrays(groups)


def pair_lookup(arrs, p):
    """rho_and_slope with both receivers of each group at its power: (rho1, rho2, s1, s2),
    s the slope in ln p."""
    rho, slope = arrs.rho_and_slope(np.asarray(p, dtype=float)[None])
    return (*rho, *slope)


def rho_and_prime(arrs, p, work=None):
    """rho and d(rho)/dp, zero at p <= 0, from the lookup's slope in ln p: what
    ``_GroupArrays.rho_and_prime`` returned before the lookup gave the slope in ln p."""
    rho, slope = arrs.rho_and_slope(p, work)
    return rho, np.divide(slope, p, out=np.zeros_like(slope), where=np.asarray(p) > 0)


_X_PER_LN_P = 10.0 / _LN10        # x = 10*log10(p) is this times ln(p)
_EPS = np.finfo(float).eps


def table_bounds(profile):
    """Bounds on |q'| and |q''| of a table's rho q(x) along x = 10*log10(p).

    Both coordinates move at unit rate along x. So q' is the sum of two
    partials, each at most the largest step between neighbouring values
    over the narrowest cell. q'' is twice the cross term, at most twice the
    largest |v11 - v10 - v01 + v00| over the narrowest cells.
    """
    v, dp, ds = profile.values, np.diff(profile.power_axis_dbw), np.diff(profile.snr_axis_db)
    q1 = sum(np.max(np.abs(np.diff(v, axis=ax))) / d.min() for ax, d in ((0, dp), (1, ds)) if d.size)
    q2 = 0.0
    if dp.size and ds.size:
        q2 = 2.0 * np.max(np.abs(np.diff(np.diff(v, axis=0), axis=1))) / (dp.min() * ds.min())
    return q1, q2


def row_cuts(arrs):
    """Each (user, group) row's cuts in x = 10*log10(p), sorted: (2, K, C)."""
    profile = arrs.groups[0].profile
    off = arrs.rho_axis().offset
    p_ax = np.broadcast_to(profile.power_axis_dbw, off.shape[:2] + profile.power_axis_dbw.shape)
    return np.sort(np.concatenate([p_ax, profile.snr_axis_db - off], axis=2), axis=2)


def cut_distance(arrs, x):
    """For x of shape (G,): each row's distance to its nearest cut, (2, K, G)."""
    cuts = row_cuts(arrs)[..., None]
    below = np.where(cuts <= x, cuts, -np.inf).max(axis=2)
    above = np.where(cuts > x, cuts, np.inf).min(axis=2)
    return np.minimum(x - below, above - x)


def assert_lookup_matches_kernels(arrs, p):
    """The table lookup at powers p of shape (1, G), point by point.

    - rho is ``_bilinear`` at the lookup's coordinates x and x + offset, to
      1e-15.
    - Where p +- 2h stays inside one piece, the slope is the central
      difference of ``_rho_kernel`` with h = 1e-4 p, up to its truncation
      error. ``assert_right_slope_at_cuts`` covers the cuts.
    """
    profile = arrs.groups[0].profile
    rho, slope = rho_and_prime(arrs, p[None])
    x = 10.0 * np.log10(p)
    off = arrs.rho_axis().offset
    np.testing.assert_allclose(rho, np.clip(_bilinear(profile, x, x + off), 0.0, 1.0), rtol=0, atol=1e-15)
    gain, noise = arrs.gain.T[..., None], arrs.noise.T[..., None]
    q1, q2 = table_bounds(profile)
    dist = cut_distance(arrs, x[0])
    # rho = q(x) has a zero third derivative in x, so with k = 10 / ln10 its
    # third derivative in p is at most (3 q'' k^2 + 2 q' k) / p^3, and the
    # central difference is off by that times h^2 / 6 at most. Each value
    # rounds to a few eps, and its coordinates to eps |x|.
    h = 1e-4 * p
    inside = dist > -10.0 * np.log10(1.0 - 2e-4)
    assert np.any(inside)
    centred = (_rho_kernel(profile, p + h, gain, noise) - _rho_kernel(profile, p - h, gain, noise)) / (2.0 * h)
    k = _X_PER_LN_P
    truncation = (3.0 * q2 * k * k + 2.0 * q1 * k) * h * h / (6.0 * (p - h) ** 3)
    rounding = 8.0 * _EPS * (1.0 + q1 * np.abs(x)) / (2.0 * h)
    assert np.all((np.abs(slope - centred) <= truncation + rounding)[inside])


def assert_right_slope_at_cuts(arrs):
    """At every cut of every row, the slope is the right-hand one-sided
    difference of ``_rho_kernel``.

    p is the least power whose x = 10*log10(p) lies on or past the cut. On
    the piece to the right rho is a quadratic in x, so a forward difference
    over dx is the slope plus c dx, with |c| <= q''/2, plus rounding. Cuts
    with another cut of their row within the step are skipped. Where the
    table varies, some cut must tell the right-hand slope from the
    left-hand one, or the check would show nothing.
    """
    profile = arrs.groups[0].profile
    cuts = row_cuts(arrs)
    p = 10.0 ** (cuts / 10.0)
    while np.any(early := 10.0 * np.log10(p) < cuts):
        p = np.where(early, np.nextafter(p, np.inf), p)
    _, slope = arrs.rho_and_slope(p)
    gain, noise = arrs.gain.T[..., None], arrs.noise.T[..., None]
    x = 10.0 * np.log10(p)
    q1, q2 = table_bounds(profile)
    gaps = []
    for rel in (1e-6, -1e-6):
        step = p * (1.0 + rel)
        dx = 10.0 * np.log10(step) - x
        diff = (_rho_kernel(profile, step, gain, noise) - _rho_kernel(profile, p, gain, noise)) / dx
        gaps.append(np.abs(slope / _X_PER_LN_P - diff))
    dx = np.abs(dx)
    alone = ((np.diff(cuts, axis=2, prepend=-np.inf) > 2.0 * dx)
             & (np.diff(cuts, axis=2, append=np.inf) > 2.0 * dx))
    bound = 0.5 * q2 * dx + 8.0 * _EPS * (1.0 + q1 * np.abs(x)) / dx
    assert np.all((gaps[0] <= bound)[alone])
    if q1 > 0:
        assert np.any((gaps[1] > 10.0 * bound)[alone])


class TestPairLookup:
    """The pair lookup against the single-link kernels it stands in for."""

    @staticmethod
    def arrays(profile, seed=0, k=4):
        rng = np.random.default_rng(seed)
        groups = random_groups(rng, k, profile=profile, min_rate_range=(0.0, 0.0))
        if profile.kind == "parametric":
            # receivers at +300 and -300 dB, whose exponents clip at +60 and -60
            groups += arrays_at(profile, [(300.0, -300.0)]).groups
        return _GroupArrays(groups)

    @pytest.mark.parametrize("name", sorted(lookup_profiles()))
    def test_matches_kernels(self, name):
        profile = lookup_profiles()[name]
        arrs = self.arrays(profile)
        p = np.geomspace(1e-8, 1e3, 301)[None, :]
        if profile.kind == "table":
            assert_lookup_matches_kernels(arrs, p)
            return
        r1, r2, d1, d2 = pair_lookup(arrs, p)
        full = np.broadcast_to(p, (arrs.k, p.shape[1]))
        for col, (r, d) in enumerate(((r1, d1), (r2, d2))):
            gain, noise = arrs.gain[:, col][:, None], arrs.noise[:, col][:, None]
            value = _rho_kernel(profile, full, gain, noise)
            want = reference_logistic_derivative(profile, full, gain, noise)
            value_atol, slope_atol = logistic_tolerance(profile.params, full, gain, noise, value)
            assert np.all(np.abs(r - value) <= value_atol)
            # the single-link derivative reads the same lookup
            for slope in (d / full, rho_derivative_eval(profile, full, gain, noise)):
                assert np.all(np.abs(slope - want) <= 1e-12 * np.abs(want) + slope_atol)
        if name == "logistic":
            # the clipped rows sit at the floor (+300 dB) and on the plateau (-300 dB)
            assert r1[-1, 0] == r1[-1, -1] == profile.params.limit / (1.0 + np.exp(60.0))
            assert r2[-1, 0] == r2[-1, -1] == profile.params.limit / (1.0 + np.exp(-60.0))
        if name == "logistic, flat in power":
            assert np.all(d1 == 0.0) and np.all(d2 == 0.0)

    @pytest.mark.parametrize("name", sorted(lookup_profiles()))
    def test_nonpositive_power(self, name):
        profile = lookup_profiles()[name]
        arrs = self.arrays(profile)
        p = np.array([0.0, -1.0, 0.0] + [2.0] * (arrs.k - 3))
        r1, r2, d1, d2 = pair_lookup(arrs, p)
        for col, r in enumerate((r1, r2)):
            with np.errstate(invalid="ignore"):
                want = _rho_kernel(profile, p, arrs.gain[:, col], arrs.noise[:, col])
            np.testing.assert_array_equal(r[:3], want[:3])
            np.testing.assert_allclose(r[3:], want[3:], rtol=0, atol=1e-15)
        assert np.all(d1[:3] == 0.0) and np.all(d2[:3] == 0.0)

    @pytest.mark.parametrize("name", sorted(edge_tables()))
    def test_flat_gather_stays_in_its_row(self, name):
        # the 2-D indexing the flat gather replaced, with the upper neighbour
        # clamped to the last point of a one-point axis
        profile = edge_tables()[name]
        p_ax, s_ax, vals = profile.power_axis_dbw, profile.snr_axis_db, profile.values
        p_dbw, snr = np.meshgrid(np.linspace(p_ax[0] - 5, p_ax[-1] + 5, 41),
                                 np.linspace(s_ax[0] - 5, s_ax[-1] + 5, 43))
        ip = np.clip(np.searchsorted(p_ax, np.clip(p_dbw, p_ax[0], p_ax[-1]), "right") - 1,
                     0, max(p_ax.size - 2, 0))
        js = np.clip(np.searchsorted(s_ax, np.clip(snr, s_ax[0], s_ax[-1]), "right") - 1,
                     0, max(s_ax.size - 2, 0))
        ip1, js1 = np.minimum(ip + 1, p_ax.size - 1), np.minimum(js + 1, s_ax.size - 1)
        tp = np.zeros_like(p_dbw) if p_ax.size == 1 else \
            (np.clip(p_dbw, p_ax[0], p_ax[-1]) - p_ax[ip]) / (p_ax[ip1] - p_ax[ip])
        ts = np.zeros_like(snr) if s_ax.size == 1 else \
            (np.clip(snr, s_ax[0], s_ax[-1]) - s_ax[js]) / (s_ax[js1] - s_ax[js])
        want = ((1 - tp) * ((1 - ts) * vals[ip, js] + ts * vals[ip, js1])
                + tp * ((1 - ts) * vals[ip1, js] + ts * vals[ip1, js1]))
        np.testing.assert_array_equal(_bilinear(profile, p_dbw, snr), want)

    def test_row_subset_keeps_offsets(self, default_profile):
        for profile in (default_profile, InterferenceProfile.parametric()):
            arrs = self.arrays(profile, k=5)
            rows = np.array([3, 0])
            p = np.array([0.7, 40.0])
            rho, slope = arrs.rho_and_slope(p[None], rows=rows)
            got = (*rho, *slope)
            whole = pair_lookup(arrs, np.array([40.0, 1.0, 1.0, 0.7] + [1.0] * (arrs.k - 4)))
            for g, w in zip(got, whole):
                np.testing.assert_array_equal(g, w[rows])

    def test_users_at_their_own_powers(self, default_profile):
        # the (user, group) layout of the rate floors: each row at its own power
        for profile in (default_profile, InterferenceProfile.parametric(), InterferenceProfile.constant(0.3)):
            arrs = self.arrays(profile, k=5)
            p = np.random.default_rng(3).uniform(0.1, 50.0, (2, arrs.k))
            rho, slope = arrs.rho_and_slope(p)
            for user in range(2):
                one, one_slope = arrs.rho_and_slope(np.broadcast_to(p[user], (2, arrs.k)))
                np.testing.assert_array_equal(rho[user], one[user])
                np.testing.assert_array_equal(slope[user], one_slope[user])

    @pytest.mark.parametrize("offsets", [(10.0, 0.0), (0.0, 10.0)])
    def test_snr_node_on_a_power_node(self, offsets):
        profile = edge_tables()["non-uniform"]
        arrs = arrays_at(profile, [offsets])
        assert tuple(arrs.rho_axis().offset[:, 0, 0]) == offsets
        pieces = arrs.rho_axis().pieces
        # rows are user 1 then user 2; a repeated cut makes a zero-width piece
        cuts = row_cuts(arrs)[:, 0]
        n_pieces = cuts.shape[1] + 1
        zero_width = [r * n_pieces + j for r in range(2) for j in range(1, cuts.shape[1])
                      if cuts[r, j - 1] == cuts[r, j]]
        assert len(zero_width) == 4
        assert not np.isin(pieces.lookup, zero_width).any()
        assert_right_slope_at_cuts(arrs)
        # powers on the repeated cuts 0, 7.5 and 10 dBW, one ulp either side, and between them
        p = 10.0 ** (np.array([0.0, 7.5, 10.0]) / 10.0)
        between = 10.0 ** (np.array([3.0, 8.7]) / 10.0)
        assert_lookup_matches_kernels(arrs, np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, 1e9), between])[None, :])

    def test_powers_on_every_cut(self, default_profile):
        arrs = self.arrays(default_profile)
        assert_right_slope_at_cuts(arrs)
        edges = arrs.rho_axis().pieces.edges
        assert_lookup_matches_kernels(arrs, np.concatenate([10.0 ** (edges / 10.0), [0.1, 1.0, 10.0, 1000.0]])[None, :])

    @pytest.mark.parametrize("name", sorted(edge_tables()))
    def test_edges_are_the_unique_cuts(self, name):
        # repeated cuts, within a row and across rows, appear once, as np.unique gives them
        arrs = arrays_at(edge_tables()[name], [(10.0, 0.0), (0.0, 10.0), (7.5, 25.0), (10.0, 0.0)])
        np.testing.assert_array_equal(arrs.rho_axis().pieces.edges, np.unique(row_cuts(arrs)))

    def test_table_drop_leaves_numpy_ma_unloaded(self):
        # np.unique and np.median import numpy.ma, about 1 MB, on first use;
        # a fresh process solves a table drop without them
        code = ("import sys\n"
                "from sfma.bench import ScenarioConfig, drop_inputs\n"
                "from sfma.power import solve\n"
                "config = ScenarioConfig(user_counts=(30,), p_max_dbw=(30.0,), root_seed=2026)\n"
                "result = solve(*drop_inputs(config, 30, 0, 0))\n"
                "print(config.rho_kind, result.allocation.exit, 'numpy.ma' in sys.modules)\n")
        src = Path(sfma.power.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.split() == ["table", "ok", "False"]

    def test_small_powers(self):
        # cuts from -108 to -60 dBW
        arrs = arrays_at(edge_tables()["non-uniform"], [(100.0, 90.0), (80.0, 110.0)])
        assert_lookup_matches_kernels(arrs, np.geomspace(1e-13, 1e-5, 801)[None, :])
        assert_right_slope_at_cuts(arrs)

    @pytest.mark.parametrize("name", sorted(edge_tables()))
    @pytest.mark.parametrize("offset", [-80.0, 80.0])
    def test_snr_nodes_outside_the_power_range(self, name, offset):
        arrs = arrays_at(edge_tables()[name], [(offset, offset), (offset, 0.5 * offset)])
        assert_lookup_matches_kernels(arrs, np.geomspace(1e-13, 1e13, 1201)[None, :])
        assert_right_slope_at_cuts(arrs)

    def test_extreme_offsets(self, default_profile):
        # rows whose cuts lie hundreds of dB apart share one search without mixing
        arrs = arrays_at(default_profile, [(300.0, -300.0), (0.0, 41.0), (-290.0, 290.0)])
        assert_lookup_matches_kernels(arrs, np.geomspace(1e-38, 1e38, 2001)[None, :])
        assert_right_slope_at_cuts(arrs)


# _WaterFiller.exact_totals before the sampled refinement, kept verbatim as
# the reference of TestSampledRefinement: twelve lockstep bisections per call.

def _stationarity_lhs(arrs: _GroupArrays, p, mu: float, rows=None):
    """The stationarity expression it bisects, zero at a candidate (once a power.py helper)."""
    return _pair_rate_slope(arrs, p, rows=rows) / _LN2 - mu


def reference_exact_totals(self, mu, n_bisect=12):
    """Group powers with roots refined inside their sampled cells.

    A short lockstep bisection shrinks the cell, then one secant step on
    the tracked endpoint values pins the root far below the bisection
    width (the curve is smooth inside a cell). The total's mu slope is the
    sum of the final brackets' chord slopes over the rows strictly inside
    theirs and above their floors.
    """
    self.steps += 1
    status, first = self._locate(mu)
    p3 = np.where(status == _CAP, self.grid[-1], 0.0)
    rows = np.flatnonzero(status == _ROOT)
    slope = 0.0
    if rows.size:
        a = self.grid[first[rows]].copy()
        b = self.grid[first[rows] + 1].copy()
        fa = self.f_grid[rows, first[rows]] - mu
        fb = self.f_grid[rows, first[rows] + 1] - mu
        for _ in range(n_bisect):
            mid = 0.5 * (a + b)
            fm = _stationarity_lhs(self.arrs, mid, mu, rows)
            go_left = fm < 0
            b = np.where(go_left, mid, b)
            fb = np.where(go_left, fm, fb)
            a = np.where(go_left, a, mid)
            fa = np.where(go_left, fa, fm)
        spread = fa - fb
        t = np.where(spread > 0, fa / np.maximum(spread, np.finfo(float).tiny), 0.5)
        p3[rows] = a + (b - a) * np.minimum(np.maximum(t, 0.0), 1.0)
        moving = (spread > 0) & (0.0 < t) & (t < 1.0) & (p3[rows] > self.p_req[rows])
        slope = float(((a - b) / np.maximum(spread, np.finfo(float).tiny))[moving].sum())
    return np.maximum(self.p_req, p3), status, slope


# The group stage before the budget-jump exit and the seeded first secant
# step, kept verbatim as the reference of the differential tests below. It
# runs on the current _GroupArrays and rate terms; its exact_totals is the
# bisection above, which it had unchanged apart from the step count.

class ReferenceWaterFiller:
    """Shared state of one group-level allocation: dense stationarity curves."""

    steps = 0
    exact_totals = reference_exact_totals

    def __init__(self, arrs: _GroupArrays, p_max: float, p_req: np.ndarray):
        self.arrs = arrs
        self.p_max = p_max
        self.p_req = p_req
        self.grid = np.geomspace(1e-6 * p_max, p_max, _GRID_N)
        deriv = _pair_rate_slope(arrs, self.grid[None, :])
        self.f_grid = deriv / _LN2          # (K, N) stationarity curve samples

    def _locate(self, mu):
        """First high-to-low crossing cell of each group's sampled curve."""
        pos = self.f_grid >= mu
        trans = pos[:, :-1] & ~pos[:, 1:]
        has_root = trans.any(axis=1)
        first = np.argmax(trans, axis=1)
        status = np.where(has_root, _ROOT, np.where(pos[:, -1], _CAP, _ZERO))
        return status, first

    def interp_totals(self, mu):
        """Group powers with roots linearly interpolated on the sampled curve."""
        status, first = self._locate(mu)
        p3 = np.where(status == _CAP, self.grid[-1], 0.0)
        rows = np.flatnonzero(status == _ROOT)
        if rows.size:
            f0 = self.f_grid[rows, first[rows]]
            f1 = self.f_grid[rows, first[rows] + 1]
            t = (f0 - mu) / np.maximum(f0 - f1, np.finfo(float).tiny)
            p3[rows] = self.grid[first[rows]] * (1.0 - t) + self.grid[first[rows] + 1] * t
        return np.maximum(self.p_req, p3), status


def reference_inter_group_allocate(groups, p_max: float, tol: float | None = None) -> PowerAllocation:
    """Split the budget across groups by bisection on the water level.

    Every group power is the largest of its two rate-binding fixed points
    and the stationary point at the current multiplier, all under an equal
    intra-pair split. Infeasibility (minimum rates unreachable, or their
    power demand exceeding the budget) is reported on the returned
    allocation rather than raised.
    """
    groups = list(groups)
    if not groups:
        raise ValueError("need at least one group")
    if p_max <= 0:
        raise ValueError(f"p_max must be positive, got {p_max}")
    tol = 1e-8 * p_max if tol is None else float(tol)
    arrs = _GroupArrays(groups)
    k = arrs.k

    def failure(exit: str, detail: str) -> PowerAllocation:
        return PowerAllocation(
            group_totals=np.zeros(k),
            splits=np.zeros((k, 2)),
            mu=float("nan"),
            lambdas=np.zeros((k, 2)),
            exit=exit,
            detail=detail,
        )

    try:
        binding = reference_min_rate_fixed_points(arrs)
    except MinRateInfeasible as exc:
        return failure("rate_unreachable", str(exc))
    p_req = binding.max(axis=1)
    if p_req.sum() > p_max * (1.0 + 1e-12):
        return failure("floors_over_budget", f"the rate floors need {p_req.sum():.6g} W")

    wf = ReferenceWaterFiller(arrs, p_max, p_req)

    p_k0, status0 = wf.interp_totals(0.0)
    if p_k0.sum() <= p_max - tol:
        p_k0, status0, _ = wf.exact_totals(0.0)
        if p_k0.sum() <= p_max - tol:
            # even a zero water level cannot spend the budget: rates saturate
            lam = _recover_lambdas(arrs, p_k0, p_req, 0.0, binding)
            return PowerAllocation(
                group_totals=p_k0,
                splits=np.column_stack([p_k0 / 2.0, p_k0 / 2.0]),
                mu=0.0,
                lambdas=lam,
                exit="budget_slack",
            )

    # upper bracket from the derivative at a vanishing power, doubled to hold
    d_small = _pair_rate_slope(arrs, np.full(k, p_max / k * 1e-3))
    mu_hi = max(float(np.max(d_small / _LN2)), 1e-12)
    for _ in range(200):
        if wf.interp_totals(mu_hi)[0].sum() <= p_max:
            break
        mu_hi *= 2.0
    else:
        raise ConvergenceError("could not bracket the water level")

    # phase 1: bisection on the interpolated curves
    mu_lo = 0.0
    mu = mu_hi
    for _ in range(80):
        mu = 0.5 * (mu_lo + mu_hi)
        total = wf.interp_totals(mu)[0].sum()
        if abs(total - p_max) < 0.5 * tol:
            break
        if total > p_max:
            mu_lo = mu
        else:
            mu_hi = mu
        if (mu_hi - mu_lo) <= 1e-16 * max(mu_hi, 1e-300):
            break

    # phase 2: secant polish with exactly-refined roots, bisection-guarded
    b_lo, b_hi = 0.0, None  # totals(b_lo) > p_max >= totals(b_hi)
    prev = None
    p_k, status, _ = wf.exact_totals(mu)
    for _ in range(40):
        total = p_k.sum()
        if abs(total - p_max) < tol:
            break
        if total > p_max:
            b_lo = mu
        else:
            b_hi = mu
        if prev is not None and abs(total - prev[1]) > 0:
            mu_next = mu - (total - p_max) * (mu - prev[0]) / (total - prev[1])
        else:
            mu_next = None
        in_bracket = (
            mu_next is not None
            and mu_next > b_lo
            and (b_hi is None or mu_next < b_hi)
        )
        prev = (mu, total)
        if in_bracket:
            mu = mu_next
        elif b_hi is None:
            mu = max(2.0 * mu, 1e-12)
        else:
            mu = 0.5 * (b_lo + b_hi)
        p_k, status, _ = wf.exact_totals(mu)
    exhausted = abs(p_k.sum() - p_max) < max(tol, 1e-9 * p_max)
    # the stop test accepts totals up to tol above the budget; take that
    # excess from the power above the rate floors so "ok" never overspends
    above = p_k - p_req
    excess = p_k.sum() - p_max
    if exhausted and 0 < excess < above.sum():
        p_k = p_req + above * (1.0 - excess / above.sum())

    # groups capped at the bracket top pin the multiplier to their own
    # derivative (single-group full-budget case)
    stationary_active = p_k > p_req * (1.0 + 1e-12)
    capped = stationary_active & (status == _CAP)
    if np.any(capped) and not np.any(stationary_active & (status == _ROOT)):
        d_cap = _pair_rate_slope(arrs, p_k)
        mu = float(np.min((d_cap / _LN2)[capped]))

    lam = _recover_lambdas(arrs, p_k, p_req, mu, binding)
    return PowerAllocation(
        group_totals=p_k,
        splits=np.column_stack([p_k / 2.0, p_k / 2.0]),
        mu=float(mu),
        lambdas=lam,
        # its polish breaks only within tol, so otherwise it ran all 40 steps
        exit="ok" if exhausted else "step_cap",
    )


def assert_matches_reference(got, want, p_max, where):
    """One allocation against the reference; returns True where the reference overspends."""
    assert got.feasible == want.feasible, where
    if not got.feasible:
        return False
    tol = 1e-8 * p_max
    assert got.group_totals.sum() <= p_max * (1 + 1e-9), where
    if want.exit == "ok":
        assert got.exit == "ok", where
        assert np.max(np.abs(got.group_totals - want.group_totals)) <= tol, where
    overspent = want.group_totals.sum() > p_max * (1 + 1e-9)
    if overspent:
        assert got.group_totals.sum() <= p_max, where
        assert got.exit == "jump", where
    return overspent


def random_group_cases(kind):
    """(groups, p_max) of the random group-stage instances of one rho kind."""
    profile = {"constant": None, "table": InterferenceProfile.default_table(),
               "parametric": InterferenceProfile.parametric()}[kind]
    rng = np.random.default_rng([29, len(kind)])
    for _ in range(40):
        groups = random_groups(rng, int(rng.integers(1, 7)), profile, min_rate_range=(0.2, 1.0))
        yield groups, float(rng.uniform(2.0, 50.0))


class TestGroupStageAgainstReference:
    def test_bench_drops(self, monkeypatch):
        overspent = 0
        for kind in ("table", "parametric"):
            for m in (10, 30, 60):
                for drop in range(25):
                    users, cfg = bench_drop(2026, m, drop, kind)
                    got = solve(users, cfg)
                    with monkeypatch.context() as patch:
                        patch.setattr(sfma.power, "inter_group_allocate", reference_inter_group_allocate)
                        want = solve(users, cfg)
                    where = (kind, m, drop)
                    assert (got.feasible, got.stage) == (want.feasible, want.stage), where
                    if got.allocation is None:
                        continue
                    overspent += assert_matches_reference(got.allocation, want.allocation,
                                                          cfg.p_max_w, where)
                    if want.allocation.exit == "ok":
                        assert got.sum_rate == pytest.approx(want.sum_rate, rel=1e-8), where
        # root seed 2026 holds budget jumps at M = 10, 30 and 60 on the table
        assert overspent >= 3

    @pytest.mark.parametrize("kind", ["constant", "table", "parametric"])
    def test_random_groups(self, kind):
        for i, (groups, p_max) in enumerate(random_group_cases(kind)):
            got = inter_group_allocate(groups, p_max)
            want = reference_inter_group_allocate(groups, p_max, tol=1e-12 * p_max)
            assert_matches_reference(got, want, p_max, (kind, i))


class TestSampledRefinement:
    """exact_totals against the twelve-bisection refinement it replaced."""

    @staticmethod
    def check_each_call(monkeypatch):
        """Compare every exact_totals call with the reference on the same filler and mu.

        Returns a count of the refined rows whose grid cell crosses mu more
        than once, where the bisection's pick can differ from the first
        sign change.
        """
        seen = {"multi": 0}
        sampled = _WaterFiller.exact_totals

        def checked(self, mu):
            got, status, slope = sampled(self, mu)
            steps = self.steps
            want, want_status, _ = reference_exact_totals(self, mu)
            self.steps = steps
            np.testing.assert_array_equal(status, want_status)
            _, first = self._locate(mu)
            root = status == _ROOT
            # the same final sub-cell, and its secant step to a thousandth of it
            sub_cell = (self.grid[first + 1] - self.grid[first]) / _SUB_N ** _SUB_LEVELS
            assert np.all(np.abs(got - want) <= 1e-3 * np.where(root, sub_cell, 0.0))
            # rows whose cell lies at or below the rate floor are not refined
            for row in np.flatnonzero(root & (self.grid[first + 1] > self.p_req)):
                cell = int(first[row])
                # the row's first-level samples are those of the cell just refined
                assert self._sub_tag[0, row] == cell
                f = np.concatenate([self.f_grid[row, cell : cell + 1], self._sub_f[0, row],
                                    self.f_grid[row, cell + 1 : cell + 2]])
                seen["multi"] += np.count_nonzero(np.diff(f >= mu)) > 1
            return got, status, slope

        monkeypatch.setattr(_WaterFiller, "exact_totals", checked)
        return seen

    def test_bench_drops(self, monkeypatch):
        multi = 0
        for kind in ("table", "parametric"):
            for m in (10, 30, 60):
                for drop in range(25):
                    users, cfg = bench_drop(2026, m, drop, kind)
                    with monkeypatch.context() as patch:
                        seen = self.check_each_call(patch)
                        got = solve(users, cfg)
                    multi += seen["multi"]
                    with monkeypatch.context() as patch:
                        patch.setattr(_WaterFiller, "exact_totals", reference_exact_totals)
                        want = solve(users, cfg)
                    where = (kind, m, drop)
                    assert (got.feasible, got.stage) == (want.feasible, want.stage), where
                    if got.allocation is None:
                        continue
                    assert got.allocation.steps == want.allocation.steps, where
                    assert got.allocation.exit == want.allocation.exit, where
                    if got.feasible and got.allocation.exit == "ok":
                        assert got.sum_rate == pytest.approx(want.sum_rate, rel=1e-12, abs=0), where
                    elif got.feasible:
                        assert got.sum_rate == pytest.approx(want.sum_rate, rel=1e-9, abs=0), where
        # a table row of M = 30 whose cell crosses mu three times
        assert multi > 0

    @pytest.mark.parametrize("kind", ["constant", "table", "parametric"])
    def test_random_groups(self, kind, monkeypatch):
        self.check_each_call(monkeypatch)
        for groups, p_max in random_group_cases(kind):
            inter_group_allocate(groups, p_max)

    def test_samples_are_reused(self, monkeypatch, default_profile):
        rng = np.random.default_rng(7)
        arrs = _GroupArrays(random_groups(rng, 8, default_profile, min_rate_range=(0.2, 1.0)))
        wf = _WaterFiller(arrs, 40.0, _rate_floors(arrs, 40.0).max(axis=1))
        mu = float(np.median(wf.f_grid[:, _GRID_N // 2]))
        first = wf.exact_totals(mu)
        assert np.any(first[1] == _ROOT)
        # every refined row holds a tagged bracket at both levels
        refined = (first[1] == _ROOT) & (first[0] > wf.p_req)
        assert np.any(refined) and np.all(wf._sub_tag[:, refined] >= 0)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _pair_rate_slope(*args, **kwargs)

        monkeypatch.setattr(sfma.power, "_pair_rate_slope", counted)
        again = wf.exact_totals(mu)
        assert calls == []
        for g, w in zip(again, first):
            np.testing.assert_array_equal(g, w)
        assert wf.steps == 2
        # a row whose tag matches is served from the cache, whatever its bracket's
        # ends; a row whose tag changed is evaluated at its own bracket's points alone
        rows = refined.nonzero()[0]
        tag = wf._sub_tag[0, rows].copy()
        cached = wf._sub_f[0, rows].copy()
        ends = np.full(rows.size, np.nan)
        np.testing.assert_array_equal(wf._samples(0, rows, tag, ends, ends), cached)
        assert calls == []
        a, b = wf.grid[tag[:1]], wf.grid[tag[:1] + 1]
        tag[0] = -2
        got = wf._samples(0, rows, tag, np.concatenate([a, ends[1:]]), np.concatenate([b, ends[1:]]))
        assert len(calls) == 1 and calls[0][1].shape == (1, _SUB_N - 1)
        pts = a[:, None] + (b - a)[:, None] * (np.arange(1, _SUB_N) / _SUB_N)
        np.testing.assert_array_equal(got[0], _pair_rate_slope(arrs, pts, rows=rows[:1])[0] / _LN2)
        np.testing.assert_array_equal(got[1:], cached[1:])

    def test_budget_jump_probe_keeps_its_steps(self):
        # the exact search probes the jump level as the sampled one does and
        # ends at the float just above it
        users, cfg = bench_drop(2026, 30, 6)
        alloc = solve(users, cfg).allocation
        assert alloc.exit == "jump"
        assert alloc.steps == 4

    def test_flat_bisection_replay(self):
        # the 2-D fancy indexing that the interior replay replaced, on random
        # blocks and on blocks that switch once, either way, or never; the
        # new bracket is read, bit for bit, off the (R, _SUB_N + 1) block of
        # points and values that the replay no longer assembles
        rng = np.random.default_rng(67)
        picks = set()
        for rows in (1, 2, 7, 40):
            blocks = [rng.random((rows, _SUB_N + 1)) < 0.5,
                      np.arange(_SUB_N + 1) < rng.integers(0, _SUB_N + 2, (rows, 1)),
                      np.arange(_SUB_N + 1) >= rng.integers(0, _SUB_N + 2, (rows, 1))]
            for right in blocks:
                at = np.arange(rows)
                lo = np.zeros(rows, dtype=int)
                step = _SUB_N // 2
                while step:
                    lo += step * right[at, lo + step]
                    step //= 2
                a = rng.uniform(1e-3, 1e3, rows)
                b = a * (1.0 + rng.uniform(1e-6, 1e-2, rows))
                pts = np.empty((rows, _SUB_N + 1))
                pts[:, 0], pts[:, -1] = a, b
                pts[:, 1:-1] = a[:, None] + (b - a)[:, None] * (np.arange(1, _SUB_N) / _SUB_N)
                # not below mu = 0 exactly where right is set, zero included
                f = np.where(right, rng.choice([0.0, 0.5, 2.0], right.shape), -rng.uniform(0.5, 2.0, right.shape))
                k, a_new, b_new, fa_new, fb_new = _sub_bracket(f[:, 1:-1].copy(), 0.0, a, b, f[:, 0], f[:, -1])
                np.testing.assert_array_equal(k, lo)
                for got, want in ((a_new, pts[at, lo]), (b_new, pts[at, lo + 1]),
                                  (fa_new, f[at, lo]), (fb_new, f[at, lo + 1])):
                    assert got.tobytes() == want.tobytes()
                picks.update(lo.tolist())
        # both outer sub-cells, whose outer ends are the old bracket's
        assert {0, _SUB_N - 1} <= picks


class TestCallBudget:
    """The solve path's Python-level calls, read off cProfile: a count, so no timing noise.

    A drop's arrays hold 15 to 60 rows, so numpy's per-call overhead sets
    solve's time, and a Python-level numpy wrapper brought back onto the
    path shows here as extra calls.
    """

    # pstats total_calls of one warm solve when this bound was set
    CALLS = {("table", 30): 1002, ("parametric", 60): 1033}

    @pytest.mark.parametrize("kind, m", sorted(CALLS))
    def test_solve_calls(self, kind, m):
        users, cfg = bench_drop(2026, m, 0, kind)
        solve(users, cfg)       # warm: the budget's grid and the bundled table are built once
        profile = cProfile.Profile()
        profile.runcall(solve, users, cfg)
        calls = pstats.Stats(profile).total_calls
        assert calls <= int(1.1 * self.CALLS[kind, m]), calls


class TestWorkspace:
    """The scratch of the stationarity curves changes no number and outlives no allocation."""

    @pytest.mark.parametrize("kind", ["table", "parametric"])
    def test_no_state_across_solves(self, kind):
        small, large = bench_drop(2026, 10, 0, kind), bench_drop(2026, 60, 0, kind)
        first = solve(*small)
        assert solve(*large).allocation.group_totals.size > first.allocation.group_totals.size
        again = solve(*small)
        assert again.sum_rate == first.sum_rate
        for name, value in vars(first.allocation).items():
            np.testing.assert_array_equal(getattr(again.allocation, name), value, err_msg=name)

    @pytest.mark.parametrize("kind", ["constant", "table", "parametric"])
    def test_slope_with_and_without_workspace(self, kind):
        rng = np.random.default_rng([41, len(kind)])
        k = 5
        profile = {"constant": None, "table": InterferenceProfile.default_table(),
                   "parametric": InterferenceProfile.parametric()}[kind]
        arrs = _GroupArrays(random_groups(rng, k, profile))
        for p in (rng.uniform(0.01, 50.0, k), rng.uniform(0.01, 50.0, (k, 7)),
                  np.geomspace(1e-5, 100.0, 64)[None, :]):
            want = _pair_rate_slope(arrs, p)
            points = k * p.shape[-1] if p.ndim == 2 else k
            # filled with nan, so that no value may come from the block's old contents
            work = np.full(arrs.work_size(points), np.nan)
            for _ in range(2):
                np.testing.assert_array_equal(_pair_rate_slope(arrs, p, work=work), want)

    @pytest.mark.parametrize("kind", ["constant", "table", "parametric"])
    def test_rows_match_the_full_evaluation(self, kind):
        # evaluating some groups by index gives the full evaluation's rows bit
        # for bit, for group powers per row or shared
        rng = np.random.default_rng([71, len(kind)])
        k = 7
        profile = {"constant": None, "table": InterferenceProfile.default_table(),
                   "parametric": InterferenceProfile.parametric()}[kind]
        arrs = _GroupArrays(random_groups(rng, k, profile))
        for rows in (np.array([4]), np.array([6, 0, 3]), np.arange(k)[::-1]):
            for p in (rng.uniform(0.01, 50.0, k), rng.uniform(0.01, 50.0, (k, 63))):
                want = _pair_rate_slope(arrs, p)[rows]
                points = rows.size * (p.shape[1] if p.ndim == 2 else 1)
                work = np.full(arrs.work_size(points), np.nan)
                np.testing.assert_array_equal(_pair_rate_slope(arrs, p[rows], rows=rows), want)
                np.testing.assert_array_equal(_pair_rate_slope(arrs, p[rows], work=work, rows=rows), want)
            shared = np.geomspace(1e-5, 100.0, 64)[None, :]
            np.testing.assert_array_equal(_pair_rate_slope(arrs, shared, rows=rows),
                                          _pair_rate_slope(arrs, shared)[rows])


# _pair_rate_slope before it was cut to fewer numpy calls, and
# _WaterFiller._locate before its one crossing rule, kept as the references
# of TestKernelsAgainstParent: the rate slope took one receiver at a time,
# and _locate took each row's first high-to-low transition anywhere on its
# curve, on rows that start below mu too. The rate floors before the
# bracket on the budget's power axis, a fixed-point iteration from p0 with
# special exits where den <= 0, are kept as the differential reference of
# the floors, and as the floors of the reference allocators above.

def reference_pair_rate_slope(arrs: _GroupArrays, p, work=None):
    """Per-group d(r1 + r2)/dp in bits/s/Hz per watt, at the equal split.

    ``p`` may be (K,), (K, G) or (1, G). With ``work``, a flat float array
    of at least ``arrs.work_size`` floats for the result's size, every
    temporary is a view of it, and so is the result, which the next call
    overwrites.
    """
    p = np.asarray(p, dtype=float)
    col = (slice(None), None) if p.ndim == 2 else slice(None)
    e1 = e2 = 0.5
    g1, g2 = arrs.gain[:, 0][col], arrs.gain[:, 1][col]
    n1, n2 = arrs.noise[:, 0][col], arrs.noise[:, 1][col]
    shape = (2, arrs.k) + p.shape[1:]
    if work is None:
        s1, s2 = np.empty(shape)
    else:
        s1, s2 = work[: math.prod(shape)].reshape(shape)
        work = work[s1.size + s2.size :]
    (rho1, rho2), (rp1, rp2) = rho_and_prime(arrs, p[None], work)
    # in place, as on the stationarity grid temporaries cost more than the
    # arithmetic, and in the operand order of d_i = rho_i e_j p g_i + n_i,
    # s_i = e_i p g_i / d_i, ds_i = e_i g_i (n_i - rp_i e_j g_i p p) / (d_i d_i)
    # and (ds1 / (1 + s1) + ds2 / (1 + s2)) / ln2, so that results round alike
    for rho, rp, s, e_i, e_j, g, n in ((rho1, rp1, s1, e1, e2, g1, n1),
                                        (rho2, rp2, s2, e2, e1, g2, n2)):
        d = np.multiply(rho, e_j, out=rho)
        d *= p
        d *= g
        d += n
        np.multiply(e_i * p, g, out=s)
        s /= d
        ds = np.multiply(rp, e_j, out=rp)
        ds *= g
        ds *= p
        ds *= p
        np.subtract(n, ds, out=ds)
        np.multiply(e_i * g, ds, out=ds)
        ds /= np.multiply(d, d, out=d)
        s += 1.0
        ds /= s
    rp1 += rp2
    rp1 /= _LN2
    return rp1


def reference_locate(self, mu):
    """First high-to-low crossing cell of each group's sampled curve."""
    pos = self.f_grid >= mu
    trans = pos[:, :-1] > pos[:, 1:]
    first = np.argmax(trans, axis=1)
    status = np.where(trans[np.arange(first.size), first], _ROOT, np.where(pos[:, -1], _CAP, _ZERO))
    return status, first


def reference_min_rate_fixed_points(arrs: _GroupArrays):
    """Both users' rate-binding group powers at the equal split, by Newton steps.

    A user's rate meets its minimum R where p = T(p) = c / den(p), with
    c = n t / g, t = 2^R - 1 and den = (1 - t rho(p)) / 2. Newton steps on
    F(p) = p - T(p) start at p0 = T at rho = 0, below which no floor lies;
    where F' <= 0 they take the plain step T(p), and none goes below p0. A
    step into den <= 0, where the rate misses R at any split, is retried as
    the plain step if that is shorter, else halved. Once a step would move
    less than 1e-14 relative, T(p) polishes. Returns a (K, 2) array.
    Raises MinRateInfeasible when den <= 0 at p0, before any step, or when
    the row is pinned below a power where den reaches zero: a step no
    longer than the plain one lands there from a p at which rho does not
    fall. While rho keeps rising up to that step, every power x below it
    has x den(x) <= x den(p) < c, short of the rate. ConvergenceError when
    100 steps do not converge.
    """
    # the lookup's (user, group) layout
    t = arrs.pow2r.T - 1.0
    active = t > 0
    c = arrs.noise.T * t / arrs.gain.T
    k = -0.5 * t

    def at(p):
        """den and den' at the (2, K) powers p."""
        den, d_den = rho_and_prime(arrs, p)
        den *= k
        den += 0.5
        d_den *= k
        return den, d_den

    def newton(p, den, d_den):
        f_slope = den * den + c * d_den          # den^2 F'
        ok = f_slope > 0
        step = np.where(ok, c * (den + p * d_den) / np.where(ok, f_slope, 1.0), c / den)
        return np.maximum(step, p0, out=step)

    def unreachable(bad, den):
        k_bad, col_bad = np.argwhere(bad.T)[0]
        return MinRateInfeasible(
            f"group {k_bad}, user {col_bad + 1}: minimum rate unreachable "
            f"(rate-binding denominator {den[col_bad, k_bad]:.3e} <= 0)"
        )

    # a row without a minimum rate has den = 1/2 and its floor at zero; any
    # positive power keeps it off the lookup's zero-power path
    p0 = np.where(active, 2.0 * c, 1.0)
    den, d_den = at(p0)
    if np.any(active & (den <= 0)):
        raise unreachable(active & (den <= 0), den)
    p, live, back = p0, active.copy(), np.zeros_like(active)
    q = newton(p, den, d_den)
    for _ in range(100):
        live &= back | (np.abs(q - p) >= 1e-14 * q)
        if not np.any(live):
            return np.where(active, c / den, 0.0).T
        den_q, d_den_q = at(q)
        back = live & (den_q <= 0)
        pinned = back & (q <= c / den) & (d_den <= 0)
        if np.any(pinned):
            raise unreachable(pinned, den_q)
        take = live & ~back
        p, den, d_den = np.where(take, q, p), np.where(take, den_q, den), np.where(take, d_den_q, d_den)
        plain = c / den
        q = np.where(back, np.where((p < plain) & (plain < q), plain, 0.5 * (p + q)), newton(p, den, d_den))
    bad_rows = sorted({int(r) for r in np.flatnonzero(live.any(axis=0))})
    raise ConvergenceError(f"rate-binding fixed point stalled in groups {bad_rows}")


RISING = InterferenceProfile.parametric(LogisticRhoParams(snr_slope=0.1, snr_mid_db=10.0, power_coeff=-0.5))


def record_group_arrays():
    """The _GroupArrays of every record drop that pairs its users."""
    for kind in ("table", "parametric"):
        for m in (10, 30, 60):
            for drop in range(10):
                users, cfg = bench_drop(2026, m, drop, kind)
                pairing = pair_users(users, cfg.p_max_w / m, cfg.profile, cfg.alpha, cfg.delta_max)
                if pairing.feasible:
                    by_id = {u.id: u for u in users}
                    yield _GroupArrays(Group(users=(by_id[a], by_id[b]), profile=cfg.profile)
                                       for a, b in pairing.pairs)


def floors_or_error(fn, arrs):
    """The floors, or the type and text of what ``fn`` raised."""
    try:
        return fn(arrs)
    except (MinRateInfeasible, ConvergenceError) as exc:
        return type(exc), str(exc)


class TestKernelsAgainstParent:
    """The one-formula rate slope gives the parent's numbers to 1e-13 of each row's
    largest value; the bracketed rate floors give the fixed-point iteration's to
    1e-13 relative."""

    @pytest.mark.parametrize("kind", ["constant", "table", "parametric"])
    def test_pair_rate_slope(self, kind):
        # the formula and the lookup's slope in ln p round differently from
        # the parent's 22 passes: 7.7e-16 of the row's largest value at worst
        # over 600 random instances of each kind
        rng = np.random.default_rng([53, len(kind)])
        k = 6
        profile = {"constant": None, "table": InterferenceProfile.default_table(),
                   "parametric": InterferenceProfile.parametric()}[kind]
        arrs = _GroupArrays(random_groups(rng, k, profile))
        for p in (rng.uniform(0.01, 50.0, k), rng.uniform(0.01, 50.0, (k, 7)),
                  np.geomspace(1e-5, 100.0, 64)[None, :]):
            want = reference_pair_rate_slope(arrs, p)
            scale = np.max(np.abs(want), axis=-1, keepdims=True) if want.ndim == 2 else np.abs(want)
            points = k * p.shape[-1] if p.ndim == 2 else k
            work = np.full(arrs.work_size(points), np.nan)
            for got in (_pair_rate_slope(arrs, p), _pair_rate_slope(arrs, p, work=work)):
                assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_locate(self):
        # rows that start at or above mu keep the reference's status and
        # cell; rows that start below it have no root under the running
        # minimum, where the reference may take a later crossing or a cap
        rng = np.random.default_rng(59)
        arrs = _GroupArrays(random_groups(rng, 6, None, min_rate_range=(0.2, 1.0)))
        wf = _WaterFiller(arrs, 40.0, _rate_floors(arrs, 40.0).max(axis=1))
        moved = 0
        for _ in range(200):
            # falling curves with bumps, some samples nan, some rows shifted
            # to start below the water level or to stay above it throughout
            f = 10.0 - np.cumsum(rng.exponential(1.0, (6, _GRID_N)), axis=1) / 100.0
            f += rng.normal(0.0, 0.05, f.shape) * (rng.random(f.shape) < 0.2)
            f[rng.random(f.shape) < 0.002] = np.nan
            rows = rng.random(6)
            f[rows < 0.1, : _GRID_N // 4] -= 20.0
            f[rows > 0.9] += 20.0
            wf.f_grid = f
            for mu in rng.uniform(-2.0, 12.0, 8):
                (status, cell), (want, want_cell) = wf._locate(mu), reference_locate(wf, mu)
                starts_above = f[:, 0] >= mu
                np.testing.assert_array_equal(status[starts_above], want[starts_above])
                root = status == _ROOT
                np.testing.assert_array_equal(cell[root], want_cell[root])
                assert np.all(status[~starts_above] == _ZERO)
                moved += np.count_nonzero(want[~starts_above] != _ZERO)
        # 601 of the 9,600 row-levels
        assert moved > 100

    def test_floors_on_record_drops(self):
        # record drops spend 1000 W; the bracketed floors agree with the
        # reference's fixed points to rounding
        tested = 0
        for arrs in record_group_arrays():
            want = reference_min_rate_fixed_points(arrs)
            assert np.all(want <= 1000.0)
            np.testing.assert_allclose(_rate_floors(arrs, 1000.0), want, rtol=1e-13, atol=0)
            tested += 1
        assert tested >= 40

    def test_floors_where_steps_reach_den_zero(self):
        # where the reference returns floors within the budget the bracketed
        # ones agree; where it raises, at p0 or on a step into den <= 0, or
        # its floor lies past the budget, a dense grid decides
        rng = np.random.default_rng(61)
        seen = {"stepped": 0, "raised": 0, "agreed": 0}
        for _ in range(120):
            arrs = _GroupArrays(random_groups(rng, int(rng.integers(1, 6)), RISING, min_rate_range=(0.2, 2.5)))
            p_max = float(rng.uniform(1.0, 100.0))
            t = arrs.pow2r.T - 1.0
            dens = []
            lookup = arrs.rho_and_slope

            def watched(p, work=None, rows=None):
                rho, slope = lookup(p, work, rows)
                dens.append(np.any((t > 0) & (0.5 - 0.5 * t * rho <= 0)))
                return rho, slope

            arrs.rho_and_slope = watched
            want = floors_or_error(reference_min_rate_fixed_points, arrs)
            del arrs.rho_and_slope
            seen["stepped"] += any(dens[1:])
            if isinstance(want, tuple) or np.any(want > p_max):
                seen["raised"] += isinstance(want, tuple)
                TestMinRateNewton.check(arrs, p_max)
            else:
                np.testing.assert_allclose(_rate_floors(arrs, p_max), want, rtol=1e-13, atol=0)
                seen["agreed"] += 1
        # the reference's den <= 0 branches ran
        assert min(seen.values()) >= 10, seen


class TestOneProfile:
    """The groups of one allocation share one rho profile; constant profiles may differ."""

    def test_mixed_kinds_rejected(self):
        rng = np.random.default_rng(41)
        table, logistic = InterferenceProfile.default_table(), InterferenceProfile.parametric()
        mixes = [random_groups(rng, 2, table) + random_groups(rng, 2, logistic),
                 random_groups(rng, 2, logistic) + random_groups(rng, 1),
                 random_groups(rng, 1, logistic)
                 + random_groups(rng, 1, InterferenceProfile.parametric(LogisticRhoParams(limit=0.9)))]
        for groups in mixes:
            with pytest.raises(ValueError, match="share one rho profile"):
                inter_group_allocate(groups, 10.0)
            with pytest.raises(ValueError, match="share one rho profile"):
                kkt_residuals(groups, PowerAllocation(np.ones(len(groups)), np.full((len(groups), 2), 0.5),
                                                      0.0, np.zeros((len(groups), 2))), 10.0)

    def test_constants_per_group(self):
        # each group keeps its own constant: every row is the group's on its own
        rng = np.random.default_rng(43)
        groups = random_groups(rng, 6, min_rate_range=(0.2, 1.0))
        assert len({g.profile.constant_value for g in groups}) == 6
        arrs = _GroupArrays(groups)
        alone = [_GroupArrays([g]) for g in groups]
        p = rng.uniform(0.01, 50.0, (6, 7))
        np.testing.assert_array_equal(_pair_rate_slope(arrs, p),
                                      np.vstack([_pair_rate_slope(a, p[i:i + 1]) for i, a in enumerate(alone)]))
        np.testing.assert_array_equal(_rate_floors(arrs, 50.0),
                                      np.vstack([_rate_floors(a, 50.0) for a in alone]))
        rho, slope = arrs.rho_and_slope(np.concatenate([[0.0], p[1:, 0]])[None])
        np.testing.assert_array_equal(rho, np.broadcast_to([g.profile.constant_value for g in groups], (2, 6)))
        assert np.all(slope == 0.0)

    @pytest.mark.parametrize("kind", ["table", "parametric"])
    def test_equal_profiles_are_one(self, kind):
        # two equal but distinct profile objects solve as one shared object does
        def make():
            if kind == "parametric":
                return InterferenceProfile.parametric(LogisticRhoParams())
            table = InterferenceProfile.default_table()
            return InterferenceProfile.from_table(table.power_axis_dbw, table.snr_axis_db, table.values)

        shared = random_groups(np.random.default_rng(47), 6, make(), min_rate_range=(0.2, 1.0))
        twins = [Group(users=g.users, profile=make()) for g in shared]
        want, got = inter_group_allocate(shared, 30.0), inter_group_allocate(twins, 30.0)
        assert want.exit == "ok"
        for name, value in vars(want).items():
            np.testing.assert_array_equal(getattr(got, name), value, err_msg=name)
        np.testing.assert_array_equal(split_residuals(twins, got), split_residuals(shared, want))


# _intra_split_vec before the closed form, kept verbatim as the reference of
# the pair-split tests below: a 33-point scan, then golden-section steps to
# width ``tol``, with rho looked up at the group total.

_PHI = (np.sqrt(5.0) - 1.0) / 2.0  # golden-section step
logger = logging.getLogger(__name__)


def reference_intra_split_vec(arrs: _GroupArrays, p_k, lo, hi, tol, n_scan: int = 33):
    rho1, rho2 = arrs.rho_and_slope(p_k[None])[0]

    def j(p1):
        return _intra_objective(arrs, p_k, rho1, rho2, p1)

    width = hi - lo
    degenerate = width <= tol
    mid = 0.5 * (lo + hi)
    # the pair objective can lose concavity in interference-limited regimes;
    # the coarse scan below keeps the golden section on the global basin
    j_lo, j_mid, j_hi = j(lo), j(mid), j(hi)
    non_concave = j_mid < 0.5 * (j_lo + j_hi) - 1e-12 * np.maximum(1.0, np.abs(j_mid))
    if np.any(non_concave):
        logger.debug(
            "intra-group objective not midpoint-concave for %d group(s)",
            int(np.sum(non_concave)),
        )

    ts = np.linspace(0.0, 1.0, n_scan)
    best = np.argmax(j(lo[:, None] + width[:, None] * ts[None, :]), axis=1)
    a = lo + width * ts[np.maximum(best - 1, 0)]
    b = lo + width * ts[np.minimum(best + 1, n_scan - 1)]

    span = float(np.max((b - a) / np.maximum(tol, np.finfo(float).tiny), initial=1.0))
    n_iter = int(np.ceil(np.log(max(span, 1.0)) / -np.log(_PHI))) + 1
    x1 = b - _PHI * (b - a)
    x2 = a + _PHI * (b - a)
    f1, f2 = j(x1), j(x2)
    for _ in range(max(n_iter, 1)):
        pick_left = f1 >= f2
        b = np.where(pick_left, x2, b)
        a = np.where(pick_left, a, x1)
        # only the interior point that moved needs a new evaluation
        x_new = np.where(pick_left, b - _PHI * (b - a), a + _PHI * (b - a))
        f_new = j(x_new)
        x1, x2 = np.where(pick_left, x_new, x2), np.where(pick_left, x1, x_new)
        f1, f2 = np.where(pick_left, f_new, f2), np.where(pick_left, f1, f_new)
    out = 0.5 * (a + b)
    out = np.where(degenerate, np.minimum(np.maximum(mid, lo), hi), out)
    out = np.minimum(np.maximum(out, lo), hi)
    # boundary optima are returned exactly: golden section can only approach
    # an endpoint to within its width, which a steep objective turns into a
    # visible rate gap
    j_out = j(out)
    out = np.where(j_hi > j_out, hi, out)
    out = np.where(j_lo > np.maximum(j_out, j_hi), lo, out)
    return out


def reference_split(arrs, p_k, lo, hi, rho1, rho2):
    """The reference at the split tolerance ``solve`` gave it, 1e-9 of p_k."""
    return reference_intra_split_vec(arrs, p_k, lo, hi, np.maximum(1e-9 * p_k, 1e-18))


class SplitCheck:
    """Closed-form splits against the reference, one call at a time."""

    EPS = np.finfo(float).eps

    def __init__(self):
        self.groups = 0
        self.non_concave = 0

    def __call__(self, arrs, p_k, lo, hi, rho1, rho2):
        got = _intra_split_vec(arrs, p_k, lo, hi, rho1, rho2)
        want = reference_split(arrs, p_k, lo, hi, rho1, rho2)
        assert np.all((lo <= got) & (got <= hi))
        j_got, j_want = (_intra_objective(arrs, p_k, rho1, rho2, p) for p in (got, want))
        assert np.all(j_got >= j_want - 4 * self.EPS * np.abs(j_want))
        j_lo, j_hi = (_intra_objective(arrs, p_k, rho1, rho2, p) for p in (lo, hi))
        j_mid = _intra_objective(arrs, p_k, rho1, rho2, 0.5 * (lo + hi))
        non_concave = j_mid < 0.5 * (j_lo + j_hi) - 1e-12 * np.maximum(1.0, np.abs(j_mid))
        self.groups += p_k.size
        self.non_concave += int(np.sum(non_concave))
        return got


def split_cases(kind):
    """(arrays, p_k, lo, hi) of random pair-split instances of one rho kind.

    Each set of groups is split over the full range, over its min-rate
    interval and over a random sub-interval, some of them a single point.
    """
    profile = {"constant": None, "table": InterferenceProfile.default_table(),
               "parametric": InterferenceProfile.parametric()}[kind]
    rng = np.random.default_rng([31, len(kind)])
    for _ in range(40):
        k = int(rng.integers(1, 9))
        arrs = _GroupArrays(random_groups(rng, k, profile, min_rate_range=(0.0, 1.0)))
        p_k = 10.0 ** rng.uniform(-3.0, 3.0, k)
        rho1, rho2 = arrs.rho_and_slope(p_k[None])[0]
        yield arrs, p_k, np.zeros(k), p_k.copy()
        yield (arrs, p_k) + _min_rate_split_interval(arrs, p_k, rho1, rho2)
        ends = np.sort(rng.uniform(0.0, 1.0, (k, 2)), axis=1) * p_k[:, None]
        point = rng.uniform(size=k) < 0.2
        ends[point, 1] = ends[point, 0]
        yield arrs, p_k, ends[:, 0], ends[:, 1]


class TestPairSplitAgainstReference:
    def test_bench_drops(self, monkeypatch):
        check = SplitCheck()
        for kind in ("table", "parametric"):
            for m in (10, 30, 60):
                for drop in range(25):
                    users, cfg = bench_drop(2026, m, drop, kind)
                    with monkeypatch.context() as patch:
                        patch.setattr(sfma.power, "_intra_split_vec", check)
                        got = solve(users, cfg)
                    with monkeypatch.context() as patch:
                        patch.setattr(sfma.power, "_intra_split_vec", reference_split)
                        want = solve(users, cfg)
                    where = (kind, m, drop)
                    assert (got.feasible, got.stage) == (want.feasible, want.stage), where
                    if got.feasible:
                        assert got.sum_rate >= want.sum_rate * (1 - 1e-15), where
                        by_id = {u.id: u for u in users}
                        groups = [Group(users=(by_id[a], by_id[b]), profile=cfg.profile)
                                  for a, b in got.pairing.pairs]
                        assert np.max(split_residuals(groups, got.allocation)) <= 1e-9, where
        # 436 of the 2135 splits are not midpoint-concave
        assert check.groups > 2000 and check.non_concave > 0

    @pytest.mark.parametrize("kind", ["constant", "table", "parametric"])
    def test_random_groups(self, kind):
        check = SplitCheck()
        for arrs, p_k, lo, hi in split_cases(kind):
            rho1, rho2 = arrs.rho_and_slope(p_k[None])[0]
            check(arrs, p_k, lo, hi, rho1, rho2)
        assert check.non_concave > 0

    def test_bimodal_group(self):
        # full interference with symmetric strong links: the golden section
        # lands at one end, the closed form compares both
        check = SplitCheck()
        arrs = _GroupArrays([simple_group(rho_c=1.0, r1=0.0, r2=0.0, g1=50.0, g2=50.0)] * 3)
        p_k = np.array([2.0, 0.5, 7.0])
        rho1, rho2 = arrs.rho_and_slope(p_k[None])[0]
        check(arrs, p_k, np.zeros(3), p_k.copy(), rho1, rho2)
        check(arrs, p_k, 0.1 * p_k, 0.7 * p_k, rho1, rho2)
        assert check.non_concave >= 3


class TestPairSplitProperty:
    @settings(max_examples=200)
    @given(g1=st.floats(1e-12, 1.0), g2=st.floats(1e-12, 1.0),
           n1=st.floats(1e-12, 1.0), n2=st.floats(1e-12, 1.0),
           rho1=st.floats(0.0, 1.0), rho2=st.floats(0.0, 1.0),
           p_k=st.floats(1e-12, 1e4),
           ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    @example(g1=1.0, g2=0.3, n1=0.5, n2=1.0, rho1=0.0, rho2=0.0, p_k=2.0, ends=(0.0, 1.0))
    @example(g1=1.0, g2=0.3, n1=0.5, n2=1.0, rho1=0.0, rho2=1.0, p_k=2.0, ends=(0.0, 1.0))
    @example(g1=1.0, g2=0.3, n1=0.5, n2=1.0, rho1=1.0, rho2=0.0, p_k=2.0, ends=(0.0, 1.0))
    @example(g1=1.0, g2=1.0, n1=0.02, n2=0.02, rho1=1.0, rho2=1.0, p_k=2.0, ends=(0.0, 1.0))
    @example(g1=1.0, g2=0.3, n1=0.5, n2=1.0, rho1=0.4, rho2=0.7, p_k=2.0, ends=(0.3, 0.3))
    @example(g1=1.0, g2=1.0, n1=1e-12, n2=1e-12, rho1=0.5, rho2=0.5, p_k=1e4, ends=(0.0, 1.0))
    @example(g1=1.0, g2=1e-12, n1=1e-12, n2=1.0, rho1=0.9, rho2=0.1, p_k=1e-12, ends=(0.0, 1.0))
    # two roots within 1e-8 of q = 1, lost to cancellation in the coefficients in q
    @example(g1=1.0, g2=1.0, n1=1e-12, n2=1e-12, rho1=0.78125, rho2=0.0, p_k=9709.875, ends=(0.0, 1.0))
    @example(g1=1.0, g2=1.0, n1=1e-12, n2=1e-12, rho1=0.0, rho2=0.78125, p_k=9709.875, ends=(0.0, 1.0))
    def test_beats_a_dense_grid(self, g1, g2, n1, n2, rho1, rho2, p_k, ends):
        group = simple_group(g1=g1, g2=g2, n1=n1, n2=n2)
        arrs = _GroupArrays([group])
        p_k, rho1, rho2 = np.array([p_k]), np.array([rho1]), np.array([rho2])
        lo, hi = np.array([min(ends)]) * p_k, np.array([max(ends)]) * p_k
        p1 = _intra_split_vec(arrs, p_k, lo, hi, rho1, rho2)
        assert lo[0] <= p1[0] <= hi[0]
        got = _intra_objective(arrs, p_k, rho1, rho2, p1)[0]
        grid = np.linspace(lo[0], hi[0], 2001)[None, :]
        best = np.max(_intra_objective(arrs, p_k, rho1, rho2, grid))
        assert got >= best - 1e-12 * max(1.0, abs(got))


# inter_group_allocate before the Newton steps of phase 1, kept as the
# reference of TestWaterLevelAgainstBisection: phase 1 bisects on the
# interpolated curves, and phase 2 is the current water-level search on the
# exact totals, so that the comparison isolates phase 1. It runs on the
# current _WaterFiller, given back the per-group interp_totals (the one of
# ReferenceWaterFiller above), whose calls a class counter keeps.

class BisectionWaterFiller(_WaterFiller):
    evaluations = 0     # interp_totals calls, over all instances

    def interp_totals(self, mu):
        BisectionWaterFiller.evaluations += 1
        return ReferenceWaterFiller.interp_totals(self, mu)


def bisection_inter_group_allocate(groups, p_max: float, tol: float | None = None) -> PowerAllocation:
    """Split the budget across groups by bisection on the water level.

    Every group power is the largest of its two rate-binding fixed points
    and the stationary point at the current multiplier, all under an equal
    intra-pair split. Infeasibility (minimum rates unreachable, or their
    power demand exceeding the budget) is reported on the returned
    allocation rather than raised. When the totals jump across the budget,
    the allocation stops at the water level just below the jump, with the
    exit of its water-level search.
    """
    groups = list(groups)
    if not groups:
        raise ValueError("need at least one group")
    if p_max <= 0:
        raise ValueError(f"p_max must be positive, got {p_max}")
    tol = 1e-8 * p_max if tol is None else float(tol)
    arrs = _GroupArrays(groups)
    k = arrs.k

    def failure(exit: str, detail: str) -> PowerAllocation:
        return PowerAllocation(
            group_totals=np.zeros(k),
            splits=np.zeros((k, 2)),
            mu=float("nan"),
            lambdas=np.zeros((k, 2)),
            exit=exit,
            detail=detail,
        )

    try:
        binding = reference_min_rate_fixed_points(arrs)
    except MinRateInfeasible as exc:
        return failure("rate_unreachable", str(exc))
    p_req = binding.max(axis=1)
    if p_req.sum() > p_max * (1.0 + 1e-12):
        return failure("floors_over_budget", f"the rate floors need {p_req.sum():.6g} W")

    wf = BisectionWaterFiller(arrs, p_max, p_req)

    p_k0, status0 = wf.interp_totals(0.0)
    if p_k0.sum() <= p_max - tol:
        p_k0, status0, _ = wf.exact_totals(0.0)
        if p_k0.sum() <= p_max - tol:
            # even a zero water level cannot spend the budget: rates saturate
            lam = _recover_lambdas(arrs, p_k0, p_req, 0.0, binding)
            return PowerAllocation(
                group_totals=p_k0,
                splits=np.column_stack([p_k0 / 2.0, p_k0 / 2.0]),
                mu=0.0,
                lambdas=lam,
                exit="budget_slack",
                steps=wf.steps,
            )

    # upper bracket from the derivative at a vanishing power, doubled to hold
    d_small = _pair_rate_slope(arrs, np.full(k, p_max / k * 1e-3))
    mu_hi = max(float(np.max(d_small / _LN2)), 1e-12)
    for _ in range(200):
        if wf.interp_totals(mu_hi)[0].sum() <= p_max:
            break
        mu_hi *= 2.0
    else:
        raise ConvergenceError("could not bracket the water level")

    # phase 1: bisection on the interpolated curves
    mu_lo = 0.0
    mu = mu_hi
    for _ in range(80):
        mu = 0.5 * (mu_lo + mu_hi)
        total = wf.interp_totals(mu)[0].sum()
        if abs(total - p_max) < 0.5 * tol:
            break
        if total > p_max:
            mu_lo = mu
        else:
            mu_hi = mu
        if (mu_hi - mu_lo) <= 1e-16 * max(mu_hi, 1e-300):
            break

    # phase 2: the water-level search on the exactly refined totals
    def exact(mu):
        p_k, status, slope = wf.exact_totals(mu)
        return p_k.sum(), slope, (p_k, status)

    mu, (p_k, status), stopped = wf.search(exact, mu, tol, (p_req.copy(), np.full(k, _ZERO)))
    exhausted = abs(p_k.sum() - p_max) < max(tol, 1e-9 * p_max)
    # the stop test accepts totals up to tol above the budget; take that
    # excess from the power above the rate floors so "ok" never overspends
    above = p_k - p_req
    excess = p_k.sum() - p_max
    if exhausted and 0 < excess < above.sum():
        p_k = p_req + above * (1.0 - excess / above.sum())

    # groups capped at the bracket top pin the multiplier to their own
    # derivative (single-group full-budget case)
    stationary_active = p_k > p_req * (1.0 + 1e-12)
    capped = stationary_active & (status == _CAP)
    if np.any(capped) and not np.any(stationary_active & (status == _ROOT)):
        d_cap = _pair_rate_slope(arrs, p_k)
        mu = float(np.min((d_cap / _LN2)[capped]))

    lam = _recover_lambdas(arrs, p_k, p_req, mu, binding)
    return PowerAllocation(
        group_totals=p_k,
        splits=np.column_stack([p_k / 2.0, p_k / 2.0]),
        mu=float(mu),
        lambdas=lam,
        exit="ok" if exhausted else stopped,
        steps=wf.steps,
    )


def group_stage_rate(groups, alloc):
    """Equal-split sum rate of an allocation's groups with positive power."""
    return sum(float(equal_split_rate_curve(g, [p])[0])
               for g, p in zip(groups, alloc.group_totals) if p > 0)


def piece_of(wf, mu):
    """What fixes the linear piece of the interpolated totals at ``mu``: status, cells, floors."""
    status, first = wf._locate(mu)
    root = status == _ROOT
    rows = np.arange(first.size)
    f0, f1 = wf.f_grid[rows, first], wf.f_grid[rows, first + 1]
    g0, g1 = wf.grid[first], wf.grid[first + 1]
    p3 = g0 + (g1 - g0) * (f0 - mu) / np.where(root, f0 - f1, 1.0)
    return tuple(status), tuple(np.where(root, first, -1)), tuple(root & (p3 > wf.p_req))


class TestWaterLevelAgainstBisection:
    """Newton steps in phase 1 against the bisection they replaced."""

    @staticmethod
    def assert_same_exit(got, want, rate, want_rate, p_max, where):
        assert (got.feasible, got.exit) == (want.feasible, want.exit), where
        if got.exit == "ok":
            assert rate == pytest.approx(want_rate, rel=1e-10, abs=0), where
        elif got.exit == "jump":
            assert got.group_totals.sum() <= p_max * (1 + 1e-9), where
            assert rate == pytest.approx(want_rate, rel=1e-9, abs=0), where

    def test_bench_drops(self, monkeypatch):
        evaluations = {"got": 0, "want": 0}
        for kind in ("table", "parametric"):
            for m in (10, 30, 60):
                for drop in range(25):
                    users, cfg = bench_drop(2026, m, drop, kind)
                    got = solve(users, cfg)
                    before = BisectionWaterFiller.evaluations
                    with monkeypatch.context() as patch:
                        patch.setattr(sfma.power, "inter_group_allocate", bisection_inter_group_allocate)
                        want = solve(users, cfg)
                    where = (kind, m, drop)
                    assert (got.feasible, got.stage) == (want.feasible, want.stage), where
                    if got.allocation is None:
                        continue
                    self.assert_same_exit(got.allocation, want.allocation, got.sum_rate,
                                          want.sum_rate, cfg.p_max_w, where)
                    if got.allocation.exit == "ok":
                        evaluations["got"] += got.allocation.sampled_steps
                        evaluations["want"] += BisectionWaterFiller.evaluations - before
        # about 8 sampled evaluations per allocation where bisection takes 38
        assert 0 < 4 * evaluations["got"] <= evaluations["want"]

    @pytest.mark.parametrize("kind", ["constant", "table", "parametric"])
    def test_random_groups(self, kind):
        for i, (groups, p_max) in enumerate(random_group_cases(kind)):
            got = inter_group_allocate(groups, p_max)
            want = bisection_inter_group_allocate(groups, p_max)
            self.assert_same_exit(got, want, group_stage_rate(groups, got),
                                  group_stage_rate(groups, want), p_max, (kind, i))

    @pytest.mark.parametrize("kind", ["table", "parametric"])
    def test_slope_is_the_centred_difference_inside_a_piece(self, kind):
        sloped = {"interp": 0, "exact": 0}
        for m, drop in ((10, 0), (30, 1), (60, 2)):
            users, cfg = bench_drop(2026, m, drop, kind)
            result = solve(users, cfg)
            by_id = {u.id: u for u in users}
            arrs = _GroupArrays([Group(users=(by_id[a], by_id[b]), profile=cfg.profile)
                                 for a, b in result.pairing.pairs])
            wf = _WaterFiller(arrs, cfg.p_max_w, _rate_floors(arrs, cfg.p_max_w).max(axis=1))

            def interp(mu):
                return (*wf.interp_total(mu), piece_of(wf, mu))

            def exact(mu):
                # refined rows also keep their sub-cells and floors; the final
                # sub-cell is not tagged, but a change of it changes the slope
                p, _, slope = wf.exact_totals(mu)
                return p.sum(), slope, (piece_of(wf, mu), wf._sub_tag.tobytes(), (p > wf.p_req).tobytes(), slope)

            for mu in result.allocation.mu * np.array([0.5, 0.9, 1.0, 1.1, 2.0]):
                for name, evaluate in (("interp", interp), ("exact", exact)):
                    total, slope, piece = evaluate(mu)
                    assert slope <= 0
                    # halve the step until both ends lie in the piece of mu
                    h = 1e-3 * mu
                    while evaluate(mu - h)[2] != piece or evaluate(mu + h)[2] != piece:
                        h /= 2
                    diff = (evaluate(mu + h)[0] - evaluate(mu - h)[0]) / (2 * h)
                    # the totals are linear on the piece, so only their roundoff remains
                    assert diff == pytest.approx(slope, rel=1e-9, abs=1e-12 * total / h), (name, m, mu)
                    sloped[name] += slope < 0
        assert min(sloped.values()) >= 10


def brute_force_grid_best(groups, p_max, n):
    """Best masked equal-split sum rate over every grid allocation spending at most p_max."""
    grid = np.linspace(0.0, p_max, n + 1)
    curves = []
    for g in groups:
        rates = [np.log2(1.0 + sinr_semantic(grid / 2.0, grid / 2.0,
                                             rho_eval(g.profile, grid, u.link.gain, u.link.noise), u.link))
                 for u in g.users]
        met = (rates[0] >= g.users[0].min_rate) & (rates[1] >= g.users[1].min_rate)
        curves.append(np.where(met, rates[0] + rates[1], -np.inf))
    idx = np.indices((n + 1,) * len(groups)).reshape(len(groups), -1)
    idx = idx[:, idx.sum(axis=0) <= n]
    total = curves[0][idx[0]]
    for curve, at in zip(curves[1:], idx[1:]):
        total = total + curve[at]
    return float(np.max(total)), curves


@pytest.fixture(scope="module")
def oracle_bench_drops():
    """(where, exit, group-stage rate, oracle value at n = 1000) of bench drops 0-9."""
    out = []
    for kind in ("table", "parametric"):
        for m in (10, 30, 60):
            for drop in range(10):
                users, cfg = bench_drop(2026, m, drop, kind)
                result = solve(users, cfg)
                alloc = result.allocation
                if alloc is None or not alloc.feasible:
                    continue
                by_id = {u.id: u for u in users}
                groups = [Group(users=(by_id[a], by_id[b]), profile=cfg.profile)
                          for a, b in result.pairing.pairs]
                value, _ = inter_group_grid_oracle(groups, cfg.p_max_w, n=1000)
                out.append(((kind, m, drop), alloc.exit, group_stage_rate(groups, alloc), value))
    return out


class TestGridOracle:
    """verify.inter_group_grid_oracle against brute force, and the solver against it."""

    @pytest.mark.parametrize("kind", ["constant", "table", "parametric"])
    def test_matches_exhaustive_enumeration(self, kind):
        profile = {"constant": None, "table": InterferenceProfile.default_table(),
                   "parametric": InterferenceProfile.parametric()}[kind]
        n, infeasible = 24, 0
        for k, case in itertools.product(range(1, 5), range(4)):
            rng = np.random.default_rng([37, k, case, len(kind)])
            # the last case asks for floors no budget on the grid can meet
            rates = (0.3, 1.2) if case < 3 else (6.0, 8.0)
            groups = random_groups(rng, k, profile, min_rate_range=rates)
            p_max = float(rng.uniform(2.0, 8.0))
            value, alloc = inter_group_grid_oracle(groups, p_max, n=n)
            want, curves = brute_force_grid_best(groups, p_max, n)
            if want == -np.inf:
                infeasible += 1
                assert value == -np.inf and alloc is None, (kind, k, case)
                continue
            assert value == pytest.approx(want, rel=1e-12), (kind, k, case)
            # the allocation sits on the grid, within the budget, and scores the value
            at = np.rint(alloc / (p_max / n)).astype(int)
            np.testing.assert_array_equal(alloc, np.linspace(0.0, p_max, n + 1)[at])
            assert at.sum() <= n
            assert sum(curve[i] for curve, i in zip(curves, at)) == pytest.approx(value, rel=1e-12)
        assert infeasible >= 4

    def test_bench_drops_reach_the_oracle(self, oracle_bench_drops):
        # the group rate curves are not concave, so the solver may fall short
        # of the grid optimum by a duality gap: 8.8e-6 relative at worst here
        ok = [(where, rate, value) for where, exit, rate, value in oracle_bench_drops if exit == "ok"]
        assert len(ok) >= 40
        for where, rate, value in ok:
            assert rate >= value - 1e-4 * abs(value), where
        assert any(exit == "jump" for _, exit, _, _ in oracle_bench_drops)

    def test_zero_power_is_feasible_on_a_rising_profile(self):
        # rho rises with power here (snr_slope and power_coeff of opposite
        # signs); zero power stays on the grid only if its rate reads 0, not nan
        prof = InterferenceProfile.parametric(
            LogisticRhoParams(snr_slope=0.1, snr_mid_db=30.0, power_coeff=-0.9, power_ref_w=0.05))

        def group(i, gain):
            return Group(users=tuple(UserTerminal(id=2 * i + j, link=Link(gain=gain, noise=1e-3),
                                                  min_rate=0.0) for j in (0, 1)), profile=prof)

        strong, weak = group(0, 1.0), group(1, 1e-6)
        assert equal_split_rate_curve(weak, [0.0])[0] == 0.0
        value, alloc = inter_group_grid_oracle([strong, weak], 1.0, n=10)
        # a grid step moves the strong group's rate more than the weak one's
        np.testing.assert_array_equal(alloc, [1.0, 0.0])
        assert value == equal_split_rate_curve(strong, [1.0])[0]

    @pytest.mark.parametrize("min_rate, feasible", [(1.1, 32), (1.2, 32), (1.5, 32), (2.0, 28)])
    def test_min_rate_cells_decided_as_the_oracle(self, min_rate, feasible):
        # on the default logistic profile den <= 0 at p0 = 2c for every rate
        # above about 1.03, yet rho falls with power and the rate is met
        # higher up: each drop that pairs is feasible exactly where the
        # oracle finds an allocation, and a converged one reaches its value
        decided = []
        for drop in range(40):
            users, cfg = bench_drop(2026, 30, drop, "parametric", min_rate=min_rate)
            result = solve(users, cfg)
            if not result.pairing.feasible:
                continue
            by_id = {u.id: u for u in users}
            groups = [Group(users=(by_id[a], by_id[b]), profile=cfg.profile) for a, b in result.pairing.pairs]
            value, _ = inter_group_grid_oracle(groups, cfg.p_max_w, n=1000)
            assert result.feasible == (value > -np.inf), drop
            if result.feasible and result.allocation.exit == "ok":
                assert group_stage_rate(groups, result.allocation) >= value - 1e-4 * abs(value), drop
            decided.append(result.feasible)
        assert (len(decided), sum(decided)) == (32, feasible)

    def test_logistic_group_past_den_zero_at_p0(self):
        # the rate-2 user has den < 0 at p0; the group meets both rates at the
        # whole budget, the oracle's allocation
        users = tuple(UserTerminal(id=i, link=Link(gain=1e-9, noise=1e-12), min_rate=r)
                      for i, r in enumerate((2.0, 0.5)))
        group = Group(users=users, profile=InterferenceProfile.parametric())
        alloc = inter_group_allocate([group], 100.0)
        assert alloc.exit == "ok"
        value, want = inter_group_grid_oracle([group], 100.0, n=1000)
        np.testing.assert_array_equal(want, [100.0])
        assert group_stage_rate([group], alloc) == pytest.approx(value, abs=1e-6)

    @pytest.mark.xfail(strict=True, reason="FOUND: a budget-jump exit leaves budget unspent "
                                           "that the jumping group could use")
    def test_jump_exits_reach_the_oracle(self, oracle_bench_drops):
        jumps = [(rate, value) for _, exit, rate, value in oracle_bench_drops if exit == "jump"]
        assert all(rate >= value - 1e-4 * abs(value) for rate, value in jumps)
