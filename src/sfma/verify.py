"""Independent oracles and a quick self-check suite.

The helpers here deliberately avoid the solver's internal code paths: the
matching oracle enumerates every perfect matching, the power oracles search
dense grids of the rate formulas, and derivatives are checked by finite
differences. The inter-group oracle is a max-plus dynamic program over a
uniform power grid, so it takes any number of groups and any rho kind.
They back both the ``verify`` CLI subcommand and the test suite.
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


def find_blocking_pair(matching, values, gaps, delta_max, ids, unmatched=()):
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


def _check_sinr_reduction(rng) -> tuple[bool, str]:
    n = 2000
    p1 = rng.uniform(0.0, 10.0, n)
    p2 = rng.uniform(0.0, 10.0, n)
    links = [Link(gain=float(g), noise=float(s))
             for g, s in zip(rng.uniform(1e-12, 1e-7, n), rng.uniform(1e-12, 1e-9, n))]
    worst = 0.0
    for a, b, link in zip(p1, p2, links):
        full = sinr_semantic(a, b, 1.0, link)
        conv = sinr_conventional(a, b, link)
        if conv > 0:
            worst = max(worst, abs(full - conv) / conv)
        if sinr_semantic(a, b, 0.0, link) != a * link.gain / link.noise:
            return False, "zero-interference identity failed"
    return worst < 1e-12, f"max relative deviation {worst:.2e}"


def _check_calibration(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(200):
        link = Link(gain=float(rng.uniform(1e-12, 1e-8)), noise=10.0 ** (-10.4))
        p_other = float(rng.uniform(0.5, 50.0))
        for target in np.linspace(0.0, 1.0, 11):
            mse = target * p_other * link.gain + link.noise
            got = calibrate_rho(1.0, p_other, link, mse).value
            worst = max(worst, abs(got - target))
    return worst < 1e-12, f"max absolute error {worst:.2e}"


def _check_pairing(rng) -> tuple[bool, str]:
    profile = InterferenceProfile.constant(0.3)
    for _ in range(20):
        m = int(rng.choice([4, 6, 8]))
        users = random_users(rng, m, min_rate=0.0)
        values = preference_matrix(users, 0.5, profile, alpha=0.1)
        frames = np.array([u.frame_time for u in users])
        gaps = np.abs(frames[:, None] - frames[None, :])
        assignment = pair_users(users, 0.5, profile, alpha=0.1, delta_max=6)
        ids = [u.id for u in users]
        block = find_blocking_pair(assignment.pairs, values, gaps, 6, ids, assignment.unmatched)
        if block is not None:
            return False, f"blocking pair {block} on a {m}-user instance"
        if assignment.feasible and any(g > 6 for g in assignment.gaps):
            return False, "gap cap violated"
    return True, "no blocking pairs on 20 instances"


def _check_inter(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(8):
        k = int(rng.choice([1, 2, 3]))
        groups = random_groups(rng, k)
        p_max = float(rng.uniform(2.0, 8.0))
        oracle_val, _ = inter_group_grid_oracle(groups, p_max, n=2000)
        alloc = inter_group_allocate(groups, p_max)
        if oracle_val == float("-inf"):
            if alloc.feasible:
                return False, "solver feasible where oracle proves infeasible"
            continue
        if not alloc.feasible:
            return False, "solver infeasible on a feasible instance"
        got = float(np.sum([equal_split_rate_curve(g, [p])[0] for g, p in zip(groups, alloc.group_totals)]))
        worst = max(worst, oracle_val - got)
    return worst <= 1e-3, f"worst shortfall vs grid oracle {worst:.2e}"


def _check_intra(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(30):
        group = random_groups(rng, 1)[0]
        p_k = float(rng.uniform(0.5, 5.0))
        p1, _ = intra_group_allocate(group, p_k)
        _, grid_val, _, _ = intra_grid_argmax(group, p_k, n=20_001)
        u1, u2 = group.users
        rho1 = float(rho_eval(group.profile, p_k, u1.link.gain, u1.link.noise))
        rho2 = float(rho_eval(group.profile, p_k, u2.link.gain, u2.link.noise))
        s1 = p1 * u1.link.gain / (rho1 * (p_k - p1) * u1.link.gain + u1.link.noise)
        s2 = (p_k - p1) * u2.link.gain / (rho2 * p1 * u2.link.gain + u2.link.noise)
        got = float(np.log2(1.0 + s1) + np.log2(1.0 + s2))
        worst = max(worst, grid_val - got)
    return worst <= 1e-6, f"worst objective shortfall {worst:.2e}"


def _check_kkt(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(8):
        k = int(rng.choice([1, 2, 3]))
        groups = random_groups(rng, k)
        p_max = float(rng.uniform(2.0, 8.0))
        alloc = inter_group_allocate(groups, p_max)
        if not alloc.feasible:
            continue
        report = kkt_residuals(groups, alloc, p_max)
        worst = max(worst, report.max_normalized)
    return worst < 1e-4, f"max normalized residual {worst:.2e}"


def run_all(seed: int = 0):
    """Quick oracle suite on small instances; returns (name, passed, detail) rows."""
    checks = [
        ("sinr-reduction-identity", _check_sinr_reduction),
        ("calibration-round-trip", _check_calibration),
        ("pairing-stability", _check_pairing),
        ("inter-group-grid-oracle", _check_inter),
        ("intra-group-grid-oracle", _check_intra),
        ("kkt-residuals", _check_kkt),
    ]
    results = []
    for i, (name, fn) in enumerate(checks):
        rng = np.random.default_rng([seed, i])
        ok, detail = fn(rng)
        results.append((name, ok, detail))
    return results
