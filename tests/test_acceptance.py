"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 1-6 are the
checks in ``sfma.verify``, which hold their instance sets and bounds;
criteria 7-11's tolerances are fixed here. All match the project's stated
acceptance thresholds.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from sfma.baselines import fnoma_sum_rate, ofdma_sum_rate, ojscc_sum_rate, pair_distinctive
from sfma.bench import ScenarioConfig, drop_inputs, emit_csv, run_sweep
from sfma.power import solve
from sfma.verify import (
    CHECKS,
    check_calibration,
    check_inter_group,
    check_intra_group,
    check_kkt,
    check_pairing,
    check_sinr_reduction,
)

HEADLINE_CSV = Path(__file__).parent / "data" / "headline.csv"


def report(num, detail):
    print(f"PASS criterion {num}: {detail}")


# ------------------------------------------------------------- criteria 1-6
# each check's instance set and bounds live in sfma.verify; here it runs on a fixed rng
CRITERIA = {
    1: (check_sinr_reduction, 101),
    2: (check_calibration, 102),
    3: (check_pairing, 103),
    4: (check_inter_group, 104),
    5: (check_intra_group, 105),
    6: (check_kkt, 104),                # criterion 4's instance set
}


def run_criterion(num):
    check, seed = CRITERIA[num]
    ok, detail = check(np.random.default_rng(seed))
    assert ok, detail
    report(num, detail)


def test_criterion_1_reduction_identity():
    run_criterion(1)


def test_criterion_2_calibration_round_trip():
    run_criterion(2)


def test_criterion_3_pairing_stability_oracle():
    run_criterion(3)


def test_criterion_4_inter_group_oracle():
    run_criterion(4)


def test_criterion_5_intra_group_oracle():
    run_criterion(5)


def test_criterion_6_kkt_residuals():
    run_criterion(6)


def test_verify_runs_criteria_1_to_6():
    # `sfma verify` runs these six checks, in criterion order, on seed-derived rngs
    assert list(CHECKS.values()) == [check for check, _ in CRITERIA.values()]


# ------------------------------------------------------ criteria 7 + ordering
@pytest.fixture(scope="module")
def thousand_drops():
    # 30 dBW is 1000 W, on the bundled table
    config = ScenarioConfig(user_counts=(10,), p_max_dbw=(30.0,), drops=1, root_seed=2024)
    results = []
    for d in range(1000):
        users, solver_cfg = drop_inputs(config, 10, 0, d)
        res = solve(users, solver_cfg)
        baselines = None
        if res.feasible:
            pairs = pair_distinctive(users)
            by_id = {u.id: u for u in users}
            terms = [(by_id[a], by_id[b]) for a, b in pairs.pairs]
            p_max = solver_cfg.p_max_w
            baselines = {
                "fnoma": fnoma_sum_rate(terms, p_max, config.fnoma_eta),
                "ojscc": ojscc_sum_rate(terms, p_max),
                "ofdma": ofdma_sum_rate(users, p_max),
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
            users, cfg = drop_inputs(config, m, 0, d)
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
def test_criterion_11_determinism(headline_report, tmp_path):
    # the pinned CSV is the product: a change that moves a headline number
    # rewrites it with scripts/write_drop_record.py and says why
    got = tmp_path / "headline.csv"
    emit_csv(headline_report, got)
    assert got.read_bytes() == HEADLINE_CSV.read_bytes()
    report(11, f"headline CSV byte-identical to {HEADLINE_CSV.name} ({got.stat().st_size} bytes)")
