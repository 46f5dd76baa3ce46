"""Output checks for the drop-pipeline benchmark, written apart from sfma.

Every check recomputes what it needs from a drop's inputs (gains, noise
powers, requested frames, budget) with its own formulas: its own reading of
the rho table CSV with a bilinear lookup, or the logistic formula, its own
rate arithmetic and its own strongest-with-weakest pairing. None of it calls
into sfma, and none of it compares against a stored copy of earlier output.

A check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

# Criterion 4 of the acceptance suite lets the group totals exceed the budget
# by at most this share of P_max.
BUDGET_SLACK = 1e-4
MIN_RATE_SLACK = 1e-6   # bits/s/Hz, the slack sfma itself grants the minimum rate
REL_TOL = 1e-9          # recomputed rates and baseline sums against reported ones
PREF_TOL = 1e-9         # preference values are recomputed, so ties need a margin
CSV_REL_TOL = 1e-8      # the CSV prints 9 significant digits

CSV_COLUMNS = ("scheme", "users", "p_max_dbw", "mean_sum_rate", "std_sum_rate", "drops", "infeasible")

CHECKS = (
    "pairing.unique",
    "pairing.gap",
    "pairing.stable",
    "pairing.leftovers",
    "power.splits",
    "power.budget",
    "power.min_rate",
    "power.sum_rate",
    "power.equal_split",
    "baselines",
    "report.csv",
    "report.identical",
    "solve.repeat",
)


class RhoModel:
    """The interference factor rho(group power, own link), evaluated on arrays."""

    def __init__(self, kind: str, *, table_csv: str | None = None, logistic: dict | None = None):
        self.kind = kind
        if kind == "table":
            with open(table_csv, newline="") as handle:
                rows = [row for row in csv.reader(handle) if row]
            self.snr_axis = np.array([float(x) for x in rows[0][1:]])
            self.power_axis = np.array([float(r[0]) for r in rows[1:]])
            self.values = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        elif kind == "logistic":
            self.logistic = dict(logistic)
        else:
            raise ValueError(f"unknown rho model {kind!r}")

    def __call__(self, p_group, gain, noise):
        p_group, gain, noise = np.broadcast_arrays(
            np.asarray(p_group, float), np.asarray(gain, float), np.asarray(noise, float)
        )
        with np.errstate(divide="ignore", over="ignore"):
            snr_db = 10.0 * np.log10(0.5 * p_group * gain / noise)
            if self.kind == "logistic":
                c = self.logistic
                expo = (c["snr_slope"] * (snr_db - c["snr_mid_db"])
                        + c["power_coeff"] * 10.0 * np.log10(p_group / c["power_ref_w"]))
                return c["limit"] / (1.0 + np.exp(expo))
            return self._bilinear(10.0 * np.log10(p_group), snr_db)

    def _bilinear(self, p_dbw, snr_db):
        # fractional grid index per axis; np.interp clamps at the table edges
        fi = np.interp(p_dbw, self.power_axis, np.arange(self.power_axis.size, dtype=float))
        fj = np.interp(snr_db, self.snr_axis, np.arange(self.snr_axis.size, dtype=float))
        i = np.minimum(np.floor(fi).astype(int), self.power_axis.size - 2)
        j = np.minimum(np.floor(fj).astype(int), self.snr_axis.size - 2)
        u, w = fi - i, fj - j
        v = self.values
        return ((1 - u) * (1 - w) * v[i, j] + (1 - u) * w * v[i, j + 1]
                + u * (1 - w) * v[i + 1, j] + u * w * v[i + 1, j + 1])


def rate(p_self, p_other, rho_val, gain, noise):
    """log2(1 + semantic SINR)."""
    return np.log2(1.0 + p_self * gain / (rho_val * p_other * gain + noise))


@dataclass
class Drop:
    """One drop's inputs and everything sfma answered for it."""

    key: tuple                  # (users, p_max_dbw, drop index)
    ids: np.ndarray
    gains: np.ndarray
    noises: np.ndarray
    frames: np.ndarray
    min_rate: float
    p_max_w: float
    alpha: float
    delta_max: float
    feasible: bool
    stage: str | None
    pairs: list                 # [(id, id), ...]
    gaps: list
    unmatched: list
    sum_rate: float
    user_rates: dict
    baselines: dict             # scheme -> reported sum rate
    group_totals: np.ndarray | None = None
    splits: np.ndarray | None = None
    recomputed: dict = field(default_factory=dict)


def preference_values(drop: Drop, rho: RhoModel) -> np.ndarray:
    """Pair sum rate at an equal per-user share of the budget, minus alpha * gap."""
    p = drop.p_max_w / drop.ids.size
    own = rate(p, p, rho(2.0 * p, drop.gains, drop.noises), drop.gains, drop.noises)
    gaps = np.abs(drop.frames[:, None] - drop.frames[None, :])
    return own[:, None] + own[None, :] - drop.alpha * gaps


def check_pairing(drop: Drop, rho: RhoModel) -> dict:
    out = {name: [] for name in ("pairing.unique", "pairing.gap", "pairing.stable", "pairing.leftovers")}
    index = {int(u): i for i, u in enumerate(drop.ids)}
    listed = [u for pair in drop.pairs for u in pair] + list(drop.unmatched)
    if len(listed) != len(set(listed)) or set(listed) != set(index):
        out["pairing.unique"].append(f"pairs and leftovers do not list each user once: {listed}")
        return out
    for (a, b), gap in zip(drop.pairs, drop.gaps):
        true_gap = abs(int(drop.frames[index[a]]) - int(drop.frames[index[b]]))
        if gap != true_gap or true_gap > drop.delta_max:
            out["pairing.gap"].append(f"pair ({a},{b}) reports gap {gap}, frames differ by {true_gap}")
    if len(drop.gaps) != len(drop.pairs):
        out["pairing.gap"].append("gaps do not align with pairs")

    values = preference_values(drop, rho)
    m = drop.ids.size
    partner = np.full(m, -1)
    for a, b in drop.pairs:
        partner[index[a]], partner[index[b]] = index[b], index[a]
    current = np.where(partner >= 0, values[np.arange(m), np.maximum(partner, 0)], -np.inf)
    gaps = np.abs(drop.frames[:, None] - drop.frames[None, :])
    margin = PREF_TOL * np.maximum(1.0, np.abs(values))
    blocking = ((gaps <= drop.delta_max)
                & (values > current[:, None] + margin) & (values > current[None, :] + margin))
    np.fill_diagonal(blocking, False)
    hits = np.argwhere(np.triu(blocking))
    if hits.size:
        i, j = hits[0]
        out["pairing.stable"].append(f"users {drop.ids[i]} and {drop.ids[j]} form a blocking pair")

    left = [index[u] for u in drop.unmatched]
    if drop.stage == "pairing":
        if not left:
            out["pairing.leftovers"].append("reported infeasible at pairing with no unmatched user")
        for x in range(len(left)):
            for y in range(x + 1, len(left)):
                if gaps[left[x], left[y]] <= drop.delta_max:
                    out["pairing.leftovers"].append(
                        f"leftovers {drop.ids[left[x]]} and {drop.ids[left[y]]} could pair"
                    )
    elif left:
        out["pairing.leftovers"].append(f"users {list(drop.unmatched)} left unmatched, drop not reported infeasible")
    return out


def check_power(drop: Drop, rho: RhoModel) -> dict:
    """Checks on a drop that sfma reports feasible."""
    out = {name: [] for name in ("power.splits", "power.budget", "power.min_rate",
                                 "power.sum_rate", "power.equal_split")}
    index = {int(u): i for i, u in enumerate(drop.ids)}
    totals, splits = np.asarray(drop.group_totals, float), np.asarray(drop.splits, float)
    if np.any(splits < 0) or not np.allclose(splits.sum(axis=1), totals, rtol=REL_TOL, atol=0.0):
        out["power.splits"].append("splits are negative or do not add up to the group totals")
    total = float(totals.sum())
    if total > drop.p_max_w * (1.0 + BUDGET_SLACK):
        out["power.budget"].append(
            f"group totals {total:.6g} W exceed P_max {drop.p_max_w:.6g} W by {total / drop.p_max_w - 1:.3%}"
        )

    a = np.array([index[x] for x, _ in drop.pairs])
    b = np.array([index[y] for _, y in drop.pairs])
    g1, g2, n1, n2 = drop.gains[a], drop.gains[b], drop.noises[a], drop.noises[b]
    rho1, rho2 = rho(totals, g1, n1), rho(totals, g2, n2)
    r1 = rate(splits[:, 0], splits[:, 1], rho1, g1, n1)
    r2 = rate(splits[:, 1], splits[:, 0], rho2, g2, n2)
    if np.any(np.minimum(r1, r2) < drop.min_rate - MIN_RATE_SLACK):
        out["power.min_rate"].append(f"lowest recomputed user rate {np.min(np.minimum(r1, r2)):.9g}")
    recomputed = float(np.sum(r1 + r2))
    drop.recomputed["sfma"] = recomputed
    reported = np.array([[drop.user_rates.get(x, np.nan), drop.user_rates.get(y, np.nan)]
                         for x, y in drop.pairs])
    if (not math.isclose(drop.sum_rate, recomputed, rel_tol=REL_TOL)
            or not np.allclose(reported, np.column_stack([r1, r2]), rtol=REL_TOL, atol=0.0)):
        out["power.sum_rate"].append(f"reported sum rate {drop.sum_rate!r}, recomputed {recomputed!r}")

    half = totals / 2.0
    e1, e2 = rate(half, half, rho1, g1, n1), rate(half, half, rho2, g2, n2)
    fair = (e1 >= drop.min_rate) & (e2 >= drop.min_rate)
    worse = fair & (r1 + r2 < (e1 + e2) * (1.0 - REL_TOL))
    for k in np.flatnonzero(worse):
        out["power.equal_split"].append(
            f"group {drop.pairs[k]} rate {r1[k] + r2[k]:.9g} below its equal-split rate {e1[k] + e2[k]:.9g}"
        )
    return out


def baseline_rates(drop: Drop, fnoma_eta: float) -> dict:
    """F-NOMA, O-JSCC and OFDMA sums on a strongest-with-weakest pairing."""
    order = np.argsort(-drop.gains, kind="stable")
    k = drop.ids.size // 2
    strong, weak = order[:k], order[::-1][:k]
    p = drop.p_max_w
    p_k = p / k
    gs, ns, gw, nw = drop.gains[strong], drop.noises[strong], drop.gains[weak], drop.noises[weak]
    p_weak, p_strong = fnoma_eta * p_k, (1.0 - fnoma_eta) * p_k
    fnoma = np.log2(1.0 + p_strong * gs / ns) + np.log2(1.0 + p_weak * gw / (p_strong * gw + nw))
    ojscc = 0.5 * np.log2(1.0 + p_k * drop.gains / drop.noises)
    ofdma = np.log2(1.0 + p * drop.gains / drop.noises) / drop.ids.size
    return {"fnoma": float(fnoma.sum()), "ojscc": float(ojscc.sum()), "ofdma": float(ofdma.sum())}


def check_baselines(drop: Drop, fnoma_eta: float) -> dict:
    own = baseline_rates(drop, fnoma_eta)
    drop.recomputed.update(own)
    bad = [f"{s} reported {drop.baselines[s]!r}, closed form {v!r}"
           for s, v in own.items() if not math.isclose(drop.baselines[s], v, rel_tol=REL_TOL)]
    return {"baselines": bad}


def check_drop(drop: Drop, rho: RhoModel, fnoma_eta: float) -> dict:
    """Every per-drop check; maps check name to its failure messages."""
    out = check_pairing(drop, rho)
    if drop.feasible:
        out.update(check_power(drop, rho))
    out.update(check_baselines(drop, fnoma_eta))
    return out


def aggregate(drops) -> dict:
    """(scheme, users, p_max_dbw) -> (mean, std, drops, infeasible) from checked drops."""
    cells = {}
    for d in drops:
        cells.setdefault(d.key[:2], []).append(d)
    out = {}
    for (m, p_dbw), cell in cells.items():
        ok = [d for d in cell if d.feasible]
        for scheme in ("sfma", "fnoma", "ojscc", "ofdma"):
            values = [d.recomputed[scheme] for d in ok]
            if values:
                mean = math.fsum(values) / len(values)
                std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))
            else:
                mean = std = float("nan")
            out[(scheme, m, p_dbw)] = (mean, std, len(ok), len(cell) - len(ok))
    return out


def check_report(csv_text: str, expected: dict) -> dict:
    """The CSV's columns against the benchmark's own aggregates."""
    bad = []
    rows = list(csv.reader(csv_text.splitlines()))
    if not rows or rows[0] != list(CSV_COLUMNS):
        return {"report.csv": [f"CSV header {rows[:1]} is not {','.join(CSV_COLUMNS)}"]}
    seen = set()
    for row in rows[1:]:
        if len(row) != len(CSV_COLUMNS):
            bad.append(f"malformed row {row}")
            continue
        scheme, users, p_dbw, mean, std, n_ok, n_bad = row
        key = (scheme, int(users), float(p_dbw))
        seen.add(key)
        if key not in expected:
            bad.append(f"unexpected row {row}")
            continue
        e_mean, e_std, e_ok, e_bad = expected[key]
        floats_ok = all(
            (math.isnan(e) and math.isnan(float(got)))
            or math.isclose(float(got), e, rel_tol=CSV_REL_TOL, abs_tol=1e-12)
            for got, e in ((mean, e_mean), (std, e_std))
        )
        if not floats_ok or int(n_ok) != e_ok or int(n_bad) != e_bad:
            bad.append(f"row {row} disagrees with the checked drops {expected[key]}")
    if seen != set(expected):
        bad.append(f"CSV rows missing for {sorted(set(expected) - seen)}")
    return {"report.csv": bad}


def mean_sum_rate(csv_texts, scheme: str = "sfma") -> float:
    """Mean sum rate over all feasible drops of the CSVs' cells for one scheme."""
    total = count = 0.0
    for csv_text in csv_texts:
        for row in list(csv.reader(csv_text.splitlines()))[1:]:
            if row[0] == scheme and int(row[5]) > 0:
                total += float(row[3]) * int(row[5])
                count += int(row[5])
    return total / count if count else float("nan")
