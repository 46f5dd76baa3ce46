"""Independent oracles and acceptance criteria 1-6.

The helpers here deliberately avoid the solver's internal code paths: the
matching oracle enumerates every perfect matching, the power oracles search
dense grids of the rate formulas, and derivatives are checked by finite
differences. The inter-group oracle is a max-plus dynamic program over a
uniform power grid, so it takes any number of groups and any rho kind.

The ``check_*`` functions are acceptance criteria 1-6, and this module is
their one home: each draws its instance set from the rng it is given and
returns (passed, detail). The test suite runs them on fixed rngs and
``sfma verify`` on rngs derived from its seed. Their instance sets, sizes
and bounds are the contract, so changing one here changes the contract.
"""

from __future__ import annotations

import itertools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .pairing import UserTerminal, pair_users, preference_matrix
from .power import Group, inter_group_allocate, intra_group_allocate, kkt_residuals
from .semantic_rate import (
    InterferenceProfile,
    Link,
    calibrate_rho,
    rho_eval,
    sinr_conventional,
    sinr_semantic,
)

__all__ = [
    "perfect_matchings",
    "matching_total_value",
    "find_blocking_pair",
    "equal_split_rate_curve",
    "min_rate_floor_constant_rho",
    "inter_group_grid_oracle",
    "intra_grid_argmax",
    "random_users",
    "random_groups",
    "check_sinr_reduction",
    "check_calibration",
    "check_pairing",
    "check_inter_group",
    "check_intra_group",
    "check_kkt",
    "CHECKS",
    "run_all",
]


def perfect_matchings(ids):
    """Yield every perfect matching of an even-sized id list as pair tuples."""
    ids = list(ids)
    if not ids:
        yield ()
        return
    first = ids[0]
    for j in range(1, len(ids)):
        rest = ids[1:j] + ids[j + 1 :]
        for tail in perfect_matchings(rest):
            yield ((first, ids[j]),) + tail


def matching_total_value(matching, values, index_of) -> float:
    return float(sum(values[index_of[a], index_of[b]] for a, b in matching))


def find_blocking_pair(matching, values, gaps, delta_max, ids):
    """A pair that would mutually and strictly improve on the matching, or None.

    Blocking requires the pair to respect the gap cap and both members to
    strictly prefer each other over their current partner (an unmatched
    member always prefers any partner).
    """
    index_of = {u: i for i, u in enumerate(ids)}
    partner = {}
    for a, b in matching:
        partner[a] = b
        partner[b] = a

    def current_value(u):
        if u not in partner:
            return -np.inf
        return values[index_of[u], index_of[partner[u]]]

    for a, b in itertools.combinations(ids, 2):
        if partner.get(a) == b:
            continue
        if gaps[index_of[a], index_of[b]] > delta_max:
            continue
        v = values[index_of[a], index_of[b]]
        if v > current_value(a) and v > current_value(b):
            return (a, b)
    return None


def _equal_split_user_rates(group: Group, powers) -> np.ndarray:
    """(2, N) rates of the group's two users at an equal split of each group power."""
    powers = np.asarray(powers, dtype=float)
    half = powers / 2.0
    rates = []
    for u in group.users:
        rho_u = rho_eval(group.profile, powers, u.link.gain, u.link.noise)
        sinr = half * u.link.gain / (np.asarray(rho_u) * half * u.link.gain + u.link.noise)
        rates.append(np.log2(1.0 + sinr))
    return np.stack(rates)


def equal_split_rate_curve(group: Group, powers) -> np.ndarray:
    """Pair sum rate at an equal split for each group power in ``powers``."""
    r1, r2 = _equal_split_user_rates(group, powers)
    return r1 + r2


def min_rate_floor_constant_rho(group: Group) -> float:
    """Closed-form rate-binding group power at the equal split, for constant-rho groups."""
    if group.profile.kind != "constant":
        raise ValueError("closed form requires a constant profile")
    rho_c = group.profile.constant_value
    floor = 0.0
    for user in group.users:
        t = 2.0 ** user.min_rate - 1.0
        if t == 0:
            continue
        denom = 0.5 + 0.5 * rho_c * (1.0 - 2.0 ** user.min_rate)
        if denom <= 0:
            return float("inf")
        floor = max(floor, user.link.noise * t / (user.link.gain * denom))
    return floor


def inter_group_grid_oracle(groups, p_max: float, n: int = 2000):
    """Best equal-split allocation on the grid linspace(0, p_max, n + 1) with min-rate floors.

    Each group's equal-split rate curve is -inf wherever either user's rate
    falls below its minimum. A max-plus dynamic program folds the groups in
    one at a time, best[t] = max_s best[t - s] + r_k[s] over grid indices,
    and the last group takes the running maximum of its curve, so totals at
    or below p_max count. Works for any number of groups and any rho kind.
    Returns (best total sum rate, allocation array), or (-inf, None) when
    no grid allocation meets every minimum rate.
    """
    grid = np.linspace(0.0, p_max, n + 1)
    curves = []
    for g in groups:
        rates = _equal_split_user_rates(g, grid)
        floors = np.array([[u.min_rate] for u in g.users])
        curves.append(np.where(np.all(rates >= floors, axis=0), rates[0] + rates[1], -np.inf))
    best = np.full(n + 1, -np.inf)
    best[0] = 0.0                       # before the first group nothing is spent
    shares, pad, rows = [], np.full(n, -np.inf), np.arange(n + 1)
    for curve in curves[:-1]:
        if not shares:
            best, share = curve, rows
        else:
            # window t holds best[t - n .. t], against curve[n .. 0]
            totals = sliding_window_view(np.concatenate([pad, best]), n + 1) + curve[::-1]
            j = np.argmax(totals, axis=1)
            best, share = totals[rows, j], n - j
        shares.append(share)
    totals = best + np.maximum.accumulate(curves[-1])[::-1]
    t = int(np.argmax(totals))
    if totals[t] == -np.inf:
        return float("-inf"), None
    value = float(totals[t])
    alloc = [int(np.argmax(curves[-1][: n - t + 1]))]
    for share in reversed(shares):
        alloc.append(int(share[t]))
        t -= alloc[-1]
    return value, grid[alloc[::-1]]


def intra_grid_argmax(group: Group, p_k: float, n: int = 100_000):
    """Dense-grid argmax over [0, p_k] of the split objective with rho frozen at p_k."""
    grid = np.linspace(0.0, p_k, n)
    u1, u2 = group.users
    rho1 = float(rho_eval(group.profile, p_k, u1.link.gain, u1.link.noise))
    rho2 = float(rho_eval(group.profile, p_k, u2.link.gain, u2.link.noise))
    p2 = p_k - grid
    s1 = grid * u1.link.gain / (rho1 * p2 * u1.link.gain + u1.link.noise)
    s2 = p2 * u2.link.gain / (rho2 * grid * u2.link.gain + u2.link.noise)
    vals = np.log2(1.0 + s1) + np.log2(1.0 + s2)
    best = int(np.argmax(vals))
    return float(grid[best]), float(vals[best]), grid, vals


def random_users(rng, m, *, noise_w=10.0 ** (-10.4), snr_floor_db=-5.0, snr_ceil_db=30.0,
                 min_rate=1.0, frame_window=8):
    """Users with gains spanning a receive-SNR band at 1 W transmit power."""
    snr_db = rng.uniform(snr_floor_db, snr_ceil_db, size=m)
    gains = noise_w * 10.0 ** (snr_db / 10.0)
    frames = rng.integers(0, frame_window, size=m)
    return [
        UserTerminal(id=i, link=Link(gain=float(gains[i]), noise=noise_w),
                     min_rate=min_rate, frame_time=int(frames[i]))
        for i in range(m)
    ]


def random_groups(rng, k, profile=None, *, min_rate_range=(0.3, 1.2), **kwargs):
    """Random 2-user groups sharing ``profile``; without one, each group draws
    its own constant rho from [0, 0.9)."""
    users = random_users(rng, 2 * k, min_rate=0.0, **kwargs)
    groups = []
    for i in range(k):
        pair = []
        for u in (users[2 * i], users[2 * i + 1]):
            pair.append(
                UserTerminal(id=u.id, link=u.link,
                             min_rate=float(rng.uniform(*min_rate_range)),
                             frame_time=u.frame_time)
            )
        prof = profile if profile is not None else InterferenceProfile.constant(float(rng.uniform(0.0, 0.9)))
        groups.append(Group(users=tuple(pair), profile=prof))
    return groups


def check_sinr_reduction(rng) -> tuple[bool, str]:
    """Criterion 1: the weighted SINR at rho = 1 is the standard SINR within 1e-12
    relative, and at rho = 0 it is exactly the interference-free SINR, on 10,000 inputs."""
    n = 10_000
    p1 = rng.uniform(0.0, 100.0, n)
    p2 = rng.uniform(0.0, 100.0, n)
    link = Link(gain=rng.uniform(1e-13, 1e-7, n), noise=rng.uniform(1e-12, 1e-9, n))
    conventional = sinr_conventional(p1, p2, link)
    rel = np.abs(sinr_semantic(p1, p2, 1.0, link) - conventional) / np.maximum(np.abs(conventional), 1e-300)
    if not np.array_equal(sinr_semantic(p1, p2, 0.0, link), p1 * link.gain / link.noise):
        return False, "rho=0 differs from the interference-free SINR"
    worst = float(np.max(rel))
    return worst < 1e-12, f"max relative deviation {worst:.2e} over {n} inputs; rho=0 exact"


def check_calibration(rng) -> tuple[bool, str]:
    """Criterion 2: rho is recovered within 1e-12 from the distortion it causes, at 11
    levels on each of 1000 links with a receive SNR in [-5, 35] dB."""
    noise = 10.0 ** (-10.4)
    worst = 0.0
    for _ in range(1000):
        # interference level within a physically sensible band of the noise floor
        p_other = float(rng.uniform(0.5, 50.0))
        gain = noise * 10.0 ** (rng.uniform(-5.0, 35.0) / 10.0)
        link = Link(gain=gain, noise=noise)
        for target in np.round(np.linspace(0.0, 1.0, 11), 1):
            mse = target * p_other * gain + noise
            got = calibrate_rho(1.0, p_other, link, mse).value
            worst = max(worst, abs(got - target))
    return worst < 1e-12, f"max recovery error {worst:.2e} across 11 rho levels x 1000 links"


def check_pairing(rng) -> tuple[bool, str]:
    """Criterion 3: on 200 instances of 4-12 users on the bundled table, no pair blocks
    the matching or breaks the gap cap, a feasible matching covers every user, and the
    users an infeasible one leaves over have no gap-respecting perfect matching."""
    profile = InterferenceProfile.default_table()
    delta = 4
    infeasible = 0
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
            block = find_blocking_pair(out.pairs, values, gaps, delta, ids)
            if block is not None:
                return False, f"blocking pair {block} on a {m}-user instance"
            if any(g > delta for g in out.gaps):
                return False, f"gap cap {delta} broken on a {m}-user instance"
            if out.feasible:
                if sorted(u for p in out.pairs for u in p) != ids:
                    return False, f"feasible matching misses users on a {m}-user instance"
                continue
            infeasible += 1
            if any(all(gaps[index_of[a], index_of[b]] <= delta for a, b in matching)
                   for matching in perfect_matchings(out.unmatched)):
                return False, f"unmatched users {out.unmatched} can pair up on a {m}-user instance"
    return True, f"200 instances stable under exhaustive scan ({infeasible} reported infeasible)"


def _inter_group_instances(rng):
    """Criteria 4 and 6's 100 allocations of 1-3 groups, each group with its own constant
    rho. The first 85 get a budget above their rate floors where those are finite, the
    rest a budget from U(1, 8) W. Returns (groups, p_max, allocation) triples."""
    instances = []
    for i in range(100):
        k = int(rng.choice([1, 2, 3]))
        groups = random_groups(rng, k, min_rate_range=(0.3, 1.2))
        floors = sum(min_rate_floor_constant_rho(g) for g in groups)
        if i < 85 and np.isfinite(floors):
            p_max = floors * float(rng.uniform(1.3, 3.0)) + float(rng.uniform(0.5, 4.0))
        else:
            p_max = float(rng.uniform(1.0, 8.0))
        instances.append((groups, p_max, inter_group_allocate(groups, p_max)))
    return instances


def check_inter_group(rng) -> tuple[bool, str]:
    """Criterion 4: the water-filling is feasible exactly where the grid oracle (n = 2000)
    is, at least 80 of the 100 instances are feasible, it falls short of the oracle by at
    most 1e-3, and with a positive water level it spends the budget within 1e-4."""
    shortfalls, budget_gaps = [], []
    for groups, p_max, alloc in _inter_group_instances(rng):
        oracle_val, _ = inter_group_grid_oracle(groups, p_max, n=2000)
        if oracle_val == float("-inf"):
            if alloc.feasible:
                return False, "solver feasible where the grid oracle finds no allocation"
            continue
        if not alloc.feasible:
            return False, f"solver infeasible where the grid oracle reaches {oracle_val:.6g}"
        achieved = sum(
            float(equal_split_rate_curve(g, np.array([p]))[0])
            for g, p in zip(groups, alloc.group_totals)
        )
        shortfalls.append(oracle_val - achieved)
        if alloc.mu > 0:
            budget_gaps.append(abs(alloc.group_totals.sum() - p_max) / p_max)
    if len(shortfalls) < 80:
        return False, f"only {len(shortfalls)} of 100 instances feasible, 80 needed"
    worst, gap = max(shortfalls), max(budget_gaps, default=0.0)
    return worst <= 1e-3 and gap <= 1e-4, (
        f"{len(shortfalls)} feasible instances; worst oracle shortfall {worst:.2e}, "
        f"worst budget gap {gap:.2e} of P_max"
    )


def check_intra_group(rng) -> tuple[bool, str]:
    """Criterion 5: on 500 groups cycling through constant, bundled-table and parametric
    rho, the pair split lies within 1e-5·p_k plus one grid step of the dense-grid argmax
    (n = 100,000) and its objective within 1e-6 of the grid's best."""
    profiles = [None, InterferenceProfile.default_table(), InterferenceProfile.parametric()]
    worst_split, worst_obj = 0.0, 0.0
    for i in range(500):
        group = random_groups(rng, 1, profile=profiles[i % 3])[0]
        p_k = float(rng.uniform(0.2, 8.0))
        tol = 1e-5 * p_k
        p1, _ = intra_group_allocate(group, p_k)
        _, grid_val, grid, vals = intra_grid_argmax(group, p_k, n=100_000)
        u1, u2 = group.users
        rho1 = float(rho_eval(group.profile, p_k, u1.link.gain, u1.link.noise))
        rho2 = float(rho_eval(group.profile, p_k, u2.link.gain, u2.link.noise))
        s1 = p1 * u1.link.gain / (rho1 * (p_k - p1) * u1.link.gain + u1.link.noise)
        s2 = (p_k - p1) * u2.link.gain / (rho2 * p1 * u2.link.gain + u2.link.noise)
        mine = float(np.log2(1 + s1) + np.log2(1 + s2))
        near_optimal = grid[vals >= grid_val - 1e-9]
        worst_split = max(worst_split, float(np.min(np.abs(near_optimal - p1))) / (2 * tol + grid[1] - grid[0]))
        worst_obj = max(worst_obj, abs(grid_val - mine))
    return worst_split <= 1.0 and worst_obj <= 1e-6, (
        f"500 groups; worst split gap {worst_split:.3f} of bound, worst objective gap {worst_obj:.2e}"
    )


def check_kkt(rng) -> tuple[bool, str]:
    """Criterion 6: every feasible allocation of criterion 4's instance set meets the
    first-order optimality conditions within 1e-4 normalized."""
    worst = 0.0
    for groups, p_max, alloc in _inter_group_instances(rng):
        if alloc.feasible:
            worst = max(worst, kkt_residuals(groups, alloc, p_max).max_normalized)
    return worst < 1e-4, f"max normalized first-order residual {worst:.2e}"


# acceptance criteria 1-6 in order, under the names `sfma verify` prints
CHECKS = {
    "sinr-reduction-identity": check_sinr_reduction,
    "calibration-round-trip": check_calibration,
    "pairing-stability": check_pairing,
    "inter-group-grid-oracle": check_inter_group,
    "intra-group-grid-oracle": check_intra_group,
    "kkt-residuals": check_kkt,
}


def run_all(seed: int = 0):
    """Acceptance criteria 1-6 on rngs derived from ``seed``; returns (name, passed, detail) rows."""
    return [
        (name, *check(np.random.default_rng([seed, i])))
        for i, (name, check) in enumerate(CHECKS.items())
    ]
