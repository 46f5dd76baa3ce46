"""Self-test of the benchmark: each check fires on a corrupted result, and a smoke run.

    python3 perfbench/selftest.py

Part 1 runs seven headline drops of root seed 1 in one sweep, then corrupts
copies of its checked drops, CSV and solve() answers one way per check and
asserts that the intended check reports a failure. Each drop case starts
from a drop that passes every check. Part 2 runs every workload on a grid
of four units in both modes and checks the result line against
BENCHMARK.json. Exits 1 on failure.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

import oracles
import run as bench

ROOT = Path(__file__).resolve().parent.parent


def fired(drop, rho) -> set:
    return {name for name, msgs in oracles.check_drop(drop, rho, bench.FNOMA_ETA).items() if msgs}


def blocking_swap(drop, rho):
    """Re-pair two pairs within the gap cap; the stable matching is unique, so this breaks it."""
    index = {int(u): i for i, u in enumerate(drop.ids)}
    for x in range(len(drop.pairs)):
        for y in range(x + 1, len(drop.pairs)):
            (a, b), (c, d) = drop.pairs[x], drop.pairs[y]
            for p, q in (((a, c), (b, d)), ((a, d), (b, c))):
                gaps = [abs(int(drop.frames[index[u]] - drop.frames[index[v]])) for u, v in (p, q)]
                if max(gaps) > drop.delta_max:
                    continue
                bad = copy.deepcopy(drop)
                bad.pairs[x], bad.pairs[y] = p, q
                bad.gaps[x], bad.gaps[y] = gaps
                if "pairing.stable" in fired(bad, rho):
                    return bad
    return None


def worse_than_equal(drop, rho):
    """Move one group's split to a point that keeps both minimum rates but loses rate."""
    index = {int(u): i for i, u in enumerate(drop.ids)}
    for k, (a, b) in enumerate(drop.pairs):
        i, j = index[a], index[b]
        p_k = drop.group_totals[k]
        r1 = rho(p_k, drop.gains[i], drop.noises[i])
        r2 = rho(p_k, drop.gains[j], drop.noises[j])
        for t in np.linspace(0.02, 0.98, 49):
            s1, s2 = t * p_k, (1 - t) * p_k
            u1 = oracles.rate(s1, s2, r1, drop.gains[i], drop.noises[i])
            u2 = oracles.rate(s2, s1, r2, drop.gains[j], drop.noises[j])
            h = p_k / 2
            eq = (oracles.rate(h, h, r1, drop.gains[i], drop.noises[i])
                  + oracles.rate(h, h, r2, drop.gains[j], drop.noises[j]))
            if min(u1, u2) >= drop.min_rate + 1e-3 and u1 + u2 < eq - 1e-3:
                bad = copy.deepcopy(drop)
                bad.splits[k] = (s1, s2)
                bad.sum_rate += float(u1 + u2) - (bad.user_rates[a] + bad.user_rates[b])
                bad.user_rates[a], bad.user_rates[b] = float(u1), float(u2)
                return bad
    return None


def corruption_cases(drops, rho, csv_text):
    """(check name, description, failing checks of the corrupted result) per check."""
    feasible = [d for d in drops if d.feasible and "power.budget" not in fired(d, rho)]
    base = feasible[0]
    cases = []

    def drop_case(name, what, mutate):
        bad = copy.deepcopy(base)
        mutate(bad)
        cases.append((name, what, fired(bad, rho)))

    drop_case("pairing.unique", "a user listed in two pairs",
              lambda d: d.pairs.__setitem__(0, (d.pairs[0][0], d.pairs[1][0])))
    drop_case("pairing.gap", "a reported gap off by one",
              lambda d: d.gaps.__setitem__(0, d.gaps[0] + 1))
    swapped = blocking_swap(base, rho)
    cases.append(("pairing.stable", "two pairs swapped partners",
                  fired(swapped, rho) if swapped else set()))

    def strand(d):
        d.unmatched = list(d.pairs.pop())
        d.gaps.pop()
        d.feasible, d.stage = False, "pairing"
    drop_case("pairing.leftovers", "a pairable pair reported as unmatched", strand)

    def negative(d):
        d.splits[0] = (-1e-3, d.group_totals[0] + 1e-3)
    drop_case("power.splits", "a negative split", negative)

    def over(d):
        d.group_totals = d.group_totals * 1.01
        d.splits = d.splits * 1.01
    drop_case("power.budget", "splits pushed 1% over budget", over)

    def starve(d):
        d.splits[0] = (0.0, d.group_totals[0])
    drop_case("power.min_rate", "one user given no power", starve)
    drop_case("power.sum_rate", "reported sum rate off by 1e-3",
              lambda d: setattr(d, "sum_rate", d.sum_rate + 1e-3))
    moved = next((x for x in (worse_than_equal(d, rho) for d in feasible) if x), None)
    cases.append(("power.equal_split", "a split worse than the equal split",
                  fired(moved, rho) if moved else set()))
    drop_case("baselines", "F-NOMA sum perturbed by 0.1%",
              lambda d: d.baselines.__setitem__("fnoma", d.baselines["fnoma"] * 1.001))

    lines = csv_text.splitlines()
    row = lines[1].split(",")
    row[3] = repr(float(row[3]) * (1 + 1e-6))
    bad_csv = "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n"
    report = oracles.check_report(bad_csv, oracles.aggregate(drops))
    cases.append(("report.csv", "a CSV mean moved by 1e-6", {k for k, v in report.items() if v}))
    return cases


def check_cases() -> list:
    wl = bench.WORKLOADS["headline"]
    bench.OUT.mkdir(exist_ok=True)
    sfma, _, _ = bench.set_up(wl, bench.OUT / "selftest.csv")
    config = bench.scenario(sfma, wl, 1, bench.OUT / "selftest.csv", drops=7)
    rho = bench.rho_model(wl)
    checked = bench.check_pass(sfma, config, rho)
    errors = [f"clean run: {p}" for p in checked.problems]
    print(f"clean run: {len(checked.drops)} drops, over budget: {checked.over_budget}")

    results = corruption_cases(checked.drops, rho, checked.csv_bytes.decode())
    _, same = bench.sweep_round(sfma, config, checked.csv_bytes[:-2] + b"0\n")
    results.append(("report.identical", "a reference CSV with one byte changed",
                    set() if same else {"report.identical"}))
    users, solver_cfg, reference = checked.calls[0]
    wrong = dataclasses.replace(reference, sum_rate=reference.sum_rate + 1e-9)
    _, mismatches = bench.solve_pass(sfma, [(users, solver_cfg, wrong)], [0])
    results.append(("solve.repeat", "a solve() answer differing in the last digits",
                    {"solve.repeat"} if mismatches else set()))

    for name, what, got in results:
        status = "fires" if name in got else "SILENT"
        print(f"{status:6s} {name:18s} on {what}; failing checks: {sorted(got)}")
        if name not in got:
            errors.append(f"{name} did not fire on {what}")
    missing = set(oracles.CHECKS) - {name for name, _, _ in results}
    errors += [f"no corruption case for {name}" for name in sorted(missing)]
    return errors


def smoke() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    bench.MIN_CALLS = 4
    for name, wl in list(bench.WORKLOADS.items()):
        bench.WORKLOADS[name] = dataclasses.replace(wl, units=4)
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = bench.run(name, seed=1, seconds=0.2, trace=bool(trace))
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = (result["correct"] and got == want and result["attempted"] >= 1
                  and all(np.isfinite(v["value"]) for v in result["metrics"].values()))
            print(f"smoke {name} trace {trace}: {'ok' if ok else 'FAILED'} "
                  f"({result['attempted']} attempted, {result['failed']} failed)")
            if not ok:
                errors.append(f"smoke run of {name} trace {trace}: {result}")
        bench.WORKLOADS[name] = wl
    return errors


def main() -> int:
    if not (bench.SRC / "sfma" / "__init__.py").is_file():
        print(f"error: no sfma sources under {bench.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    errors = check_cases() + smoke()
    for line in errors:
        print(f"FAIL {line}", file=sys.stderr)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
