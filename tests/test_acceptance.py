"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Tolerances are fixed
here and match the project's stated acceptance thresholds.
"""

import itertools
import time

import numpy as np
import pytest

from sfma.baselines import fnoma_sum_rate, ofdma_sum_rate, ojscc_sum_rate, pair_distinctive
from sfma.bench import ScenarioConfig, emit_csv, run_sweep, _build_users, drop_seed
from sfma.pairing import preference_matrix, pair_users
from sfma.power import SolverConfig, inter_group_allocate, intra_group_allocate, kkt_residuals, solve
from sfma.semantic_rate import (
    InterferenceProfile,
    Link,
    calibrate_rho,
    sinr_conventional,
    sinr_semantic,
)
from sfma.verify import (
    equal_split_rate_curve,
    find_blocking_pair,
    inter_group_grid_oracle,
    intra_grid_argmax,
    min_rate_floor_constant_rho,
    random_groups,
    random_users,
)

DEFAULT_PROFILE = InterferenceProfile.default_table()


def report(num, detail):
    print(f"PASS criterion {num}: {detail}")


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_reduction_identity():
    rng = np.random.default_rng(101)
    n = 10_000
    p1 = rng.uniform(0.0, 100.0, n)
    p2 = rng.uniform(0.0, 100.0, n)
    link = Link(gain=rng.uniform(1e-13, 1e-7, n), noise=rng.uniform(1e-12, 1e-9, n))
    with_rho = sinr_semantic(p1, p2, 1.0, link)
    conventional = sinr_conventional(p1, p2, link)
    rel = np.abs(with_rho - conventional) / np.maximum(np.abs(conventional), 1e-300)
    assert np.max(rel) < 1e-12
    interference_free = sinr_semantic(p1, p2, 0.0, link)
    assert np.array_equal(interference_free, p1 * link.gain / link.noise)
    report(1, f"max relative deviation {np.max(rel):.2e} over {n} inputs; rho=0 exact")


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_calibration_round_trip():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        noise = 10.0 ** (-10.4)
        # interference level within a physically sensible band of the noise floor
        p_other = float(rng.uniform(0.5, 50.0))
        gain = noise * 10.0 ** (rng.uniform(-5.0, 35.0) / 10.0)
        link = Link(gain=gain, noise=noise)
        for target in np.round(np.linspace(0.0, 1.0, 11), 1):
            mse = target * p_other * gain + noise
            got = calibrate_rho(1.0, p_other, link, mse).value
            worst = max(worst, abs(got - target))
    assert worst < 1e-12
    report(2, f"max recovery error {worst:.2e} across 11 rho levels x 1000 links")


# ---------------------------------------------------------------- criterion 3
def _feasible_perfect_matching_exists(ids, gaps, delta, index_of):
    if not ids:
        return True
    first, rest = ids[0], ids[1:]
    for j, partner in enumerate(rest):
        if gaps[index_of[first], index_of[partner]] <= delta:
            if _feasible_perfect_matching_exists(rest[:j] + rest[j + 1 :], gaps, delta, index_of):
                return True
    return False


def test_criterion_3_pairing_stability_oracle():
    rng = np.random.default_rng(103)
    profile = DEFAULT_PROFILE
    delta = 4
    checked = infeasible = 0
    for m in (4, 6, 8, 10, 12):
        for _ in range(40):
            users = random_users(rng, m, min_rate=1.0, frame_window=8)
            power = float(rng.uniform(0.5, 10.0))
            out = pair_users(users, power, profile, alpha=0.1, delta_max=delta)
            values = preference_matrix(users, power, profile, 0.1)
            frames = np.array([u.frame_time for u in users])
            gaps = np.abs(frames[:, None] - frames[None, :])
            ids = [u.id for u in users]
            index_of = {u: i for i, u in enumerate(ids)}
            assert find_blocking_pair(out.pairs, values, gaps, delta, ids) is None
            assert all(g <= delta for g in out.gaps)
            if out.feasible:
                assert sorted(u for p in out.pairs for u in p) == ids
            else:
                infeasible += 1
                # enumeration confirms the unmatched leftovers cannot pair up
                assert not _feasible_perfect_matching_exists(
                    list(out.unmatched), gaps, delta, index_of
                )
            checked += 1
    assert checked == 200
    report(3, f"200 instances stable under exhaustive scan ({infeasible} reported infeasible)")


# ------------------------------------------------------- criteria 4 and 6 rig
@pytest.fixture(scope="module")
def inter_group_instances():
    rng = np.random.default_rng(104)
    instances = []
    for i in range(100):
        k = int(rng.choice([1, 2, 3]))
        groups = random_groups(rng, k, min_rate_range=(0.3, 1.2))
        floors = sum(min_rate_floor_constant_rho(g) for g in groups)
        if i < 85 and np.isfinite(floors):
            p_max = floors * float(rng.uniform(1.3, 3.0)) + float(rng.uniform(0.5, 4.0))
        else:
            p_max = float(rng.uniform(1.0, 8.0))
        alloc = inter_group_allocate(groups, p_max)
        instances.append((groups, p_max, alloc))
    return instances


def test_criterion_4_inter_group_oracle(inter_group_instances):
    shortfalls, budget_gaps, feasible_count = [], [], 0
    for groups, p_max, alloc in inter_group_instances:
        oracle_val, _ = inter_group_grid_oracle(groups, p_max, n=2000)
        if oracle_val == float("-inf"):
            assert not alloc.feasible
            continue
        assert alloc.feasible
        feasible_count += 1
        achieved = sum(
            float(equal_split_rate_curve(g, np.array([p]))[0])
            for g, p in zip(groups, alloc.group_totals)
        )
        shortfalls.append(oracle_val - achieved)
        if alloc.mu > 0:
            budget_gaps.append(abs(alloc.group_totals.sum() - p_max) / p_max)
    assert max(shortfalls) <= 1e-3
    assert feasible_count >= 80
    assert max(budget_gaps) <= 1e-4
    report(
        4,
        f"{feasible_count} feasible instances; worst oracle shortfall {max(shortfalls):.2e}, "
        f"worst budget gap {max(budget_gaps):.2e} of P_max",
    )


# ---------------------------------------------------------------- criterion 5
def test_criterion_5_intra_group_oracle():
    rng = np.random.default_rng(105)
    profiles = [None, DEFAULT_PROFILE, InterferenceProfile.parametric()]
    worst_split, worst_obj = 0.0, 0.0
    for i in range(500):
        profile = profiles[i % 3]
        group = random_groups(rng, 1, profile=profile)[0]
        p_k = float(rng.uniform(0.2, 8.0))
        tol = 1e-5 * p_k                # the split bound's slack, as wide as before
        p1, _ = intra_group_allocate(group, p_k)
        grid_p1, grid_val, grid, vals = intra_grid_argmax(group, p_k, n=100_000)
        u1, u2 = group.users
        from sfma.semantic_rate import rho_eval

        rho1 = float(rho_eval(group.profile, p_k, u1.link.gain, u1.link.noise))
        rho2 = float(rho_eval(group.profile, p_k, u2.link.gain, u2.link.noise))
        s1 = p1 * u1.link.gain / (rho1 * (p_k - p1) * u1.link.gain + u1.link.noise)
        s2 = (p_k - p1) * u2.link.gain / (rho2 * p1 * u2.link.gain + u2.link.noise)
        mine = float(np.log2(1 + s1) + np.log2(1 + s2))
        near_optimal = grid[vals >= grid_val - 1e-9]
        worst_split = max(worst_split, float(np.min(np.abs(near_optimal - p1))) / (2 * tol + grid[1] - grid[0]))
        worst_obj = max(worst_obj, abs(grid_val - mine))
    assert worst_split <= 1.0
    assert worst_obj <= 1e-6
    report(5, f"500 groups; worst split gap {worst_split:.3f} of bound, worst objective gap {worst_obj:.2e}")


# ---------------------------------------------------------------- criterion 6
def test_criterion_6_kkt_residuals(inter_group_instances):
    worst = 0.0
    for groups, p_max, alloc in inter_group_instances:
        if not alloc.feasible:
            continue
        residuals = kkt_residuals(groups, alloc, p_max)
        worst = max(worst, residuals.max_normalized)
    assert worst < 1e-4
    report(6, f"max normalized first-order residual {worst:.2e}")


# ------------------------------------------------------ criteria 7 + ordering
@pytest.fixture(scope="module")
def thousand_drops():
    config = ScenarioConfig(user_counts=(10,), p_max_dbw=(30.0,), drops=1, root_seed=2024)
    profile = DEFAULT_PROFILE
    results = []
    for d in range(1000):
        seed = drop_seed(config.root_seed, 10, 0, d)
        users = _build_users(config, 10, seed)
        res = solve(users, SolverConfig(
            p_max_w=1000.0, alpha=config.alpha, delta_max=config.delta_max, profile=profile
        ))
        baselines = None
        if res.feasible:
            pairs = pair_distinctive(users)
            by_id = {u.id: u for u in users}
            terms = [(by_id[a], by_id[b]) for a, b in pairs.pairs]
            baselines = {
                "fnoma": fnoma_sum_rate(terms, 1000.0, config.fnoma_eta),
                "ojscc": ojscc_sum_rate(terms, 1000.0),
                "ofdma": ofdma_sum_rate(users, 1000.0),
            }
        results.append((res, baselines))
    return results


def test_criterion_7_min_rate_guarantee(thousand_drops):
    feasible = 0
    worst = np.inf
    for res, _ in thousand_drops:
        if not res.feasible:
            continue
        feasible += 1
        worst = min(worst, min(res.user_rates.values()))
        assert all(rate >= 1.0 - 1e-6 for rate in res.user_rates.values())
    assert feasible > 0
    report(7, f"{feasible}/1000 feasible drops; lowest delivered rate {worst:.9f}")


def test_fig6_per_drop_dominance(thousand_drops):
    # ordering invariant: the optimized system beats every baseline on at
    # least 95% of feasible drops
    wins = {"fnoma": 0, "ojscc": 0, "ofdma": 0}
    feasible = 0
    for res, baselines in thousand_drops:
        if not res.feasible:
            continue
        feasible += 1
        for k in wins:
            if res.sum_rate >= baselines[k]:
                wins[k] += 1
    for k, w in wins.items():
        assert w / feasible >= 0.95, f"dominated {k} on only {w}/{feasible}"
    report("7b", f"per-drop dominance over {feasible} drops: " + str({k: f'{v}/{feasible}' for k, v in wins.items()}))


# ---------------------------------------------------------------- criterion 8
@pytest.fixture(scope="module")
def headline_config():
    return ScenarioConfig(
        user_counts=(30,), p_max_dbw=(30.0,), alpha=0.1, delta_max=4.0,
        min_rate=1.0, drops=500, root_seed=2026, rho_kind="table", rho_table="default",
    )


@pytest.fixture(scope="module")
def headline_report(headline_config):
    return run_sweep(headline_config)


def test_criterion_8_scheme_ordering(headline_report):
    means = {
        scheme: headline_report.row(scheme, 30, 30.0).mean_sum_rate
        for scheme in ("sfma", "fnoma", "ojscc", "ofdma")
    }
    drops = headline_report.row("sfma", 30, 30.0).drops
    assert drops >= 300
    assert means["sfma"] > means["fnoma"] > means["ojscc"] > means["ofdma"]
    improvement_fnoma = means["sfma"] / means["fnoma"] - 1.0
    improvement_ofdma = means["sfma"] / means["ofdma"] - 1.0
    assert improvement_fnoma > 0.10
    assert improvement_ofdma > 0.30
    report(
        8,
        f"means over {drops} drops: sfma={means['sfma']:.1f} fnoma={means['fnoma']:.1f} "
        f"ojscc={means['ojscc']:.1f} ofdma={means['ofdma']:.1f}; "
        f"+{100 * improvement_fnoma:.1f}% vs fixed-split, +{100 * improvement_ofdma:.0f}% vs orthogonal",
    )


# ---------------------------------------------------------------- criterion 9
def test_criterion_9_monotonicity():
    user_sweep = run_sweep(ScenarioConfig(
        user_counts=(10, 20, 30, 40, 50, 60), p_max_dbw=(30.0,), drops=150, root_seed=77,
    ))
    user_means = [user_sweep.row("sfma", m, 30.0).mean_sum_rate for m in (10, 20, 30, 40, 50, 60)]
    for prev, nxt in itertools.pairwise(user_means):
        assert nxt >= prev * (1.0 - 0.01), f"user sweep dipped: {user_means}"

    power_sweep = run_sweep(ScenarioConfig(
        user_counts=(10,), p_max_dbw=(24.0, 28.0, 32.0, 36.0, 40.0), drops=150, root_seed=78,
    ))
    power_means = [power_sweep.row("sfma", 10, p).mean_sum_rate for p in (24.0, 28.0, 32.0, 36.0, 40.0)]
    for prev, nxt in itertools.pairwise(power_means):
        assert nxt >= prev * (1.0 - 0.01), f"power sweep dipped: {power_means}"
    report(
        9,
        "user sweep " + "->".join(f"{v:.0f}" for v in user_means)
        + "; power sweep " + "->".join(f"{v:.0f}" for v in power_means),
    )


# --------------------------------------------------------------- criterion 10
def test_criterion_10_complexity_budget():
    def median_solve_time(m, drops=3):
        config = ScenarioConfig(user_counts=(m,), p_max_dbw=(30.0,), drops=1, root_seed=55)
        times = []
        d = 0
        while len(times) < drops and d < 30:
            seed = drop_seed(55, m, 0, d)
            users = _build_users(config, m, seed)
            cfg = SolverConfig(p_max_w=1000.0, alpha=0.1, delta_max=4.0, profile=DEFAULT_PROFILE)
            start = time.perf_counter()
            res = solve(users, cfg)
            elapsed = time.perf_counter() - start
            if res.feasible:
                times.append(elapsed)
            d += 1
        return float(np.median(times))

    t10 = median_solve_time(10)
    t60 = median_solve_time(60)
    ratio = t60 / t10
    assert ratio < 25.0
    report(10, f"solve medians: M=10 {1e3 * t10:.1f} ms, M=60 {1e3 * t60:.1f} ms, ratio {ratio:.1f} (< 25)")


# --------------------------------------------------------------- criterion 11
def test_criterion_11_determinism(headline_config, headline_report, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit_csv(headline_report, first)
    emit_csv(run_sweep(headline_config), second)
    assert first.read_bytes() == second.read_bytes()
    report(11, f"byte-identical CSV across two runs ({first.stat().st_size} bytes)")
