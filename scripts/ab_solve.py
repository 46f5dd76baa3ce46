#!/usr/bin/env python3
"""Time the working tree's solver against a parent revision's, side by side in one process.

    python scripts/ab_solve.py --parent HEAD~1 [--drops 40] [--rounds 7] [--seed 2026] [--max-move REL]

The parent's ``src/sfma`` is written from local git (``git show``) into a
temporary package, ``sfma_parent``, and imported beside the working tree's
``sfma``. Two workloads run at 30 dBW: headline-like drops (30 users, the
bundled rho table) and crowd-like drops (60 users, the default logistic
profile), drops 0 to ``--drops`` - 1 of root seed ``--seed``. Each round times,
drop by drop and alternating which side goes first, ``solve()`` on each
drop and one one-drop ``run_sweep`` + ``emit_csv`` unit per drop (root seed
1000 + drop). A drop's time is the median of its rounds. Per workload it
prints each side's drops/s over the units and median ``solve()`` time, the
median and quartiles over drops of the change/parent time ratio, each
side's total ``steps`` and ``sampled_steps``, every drop whose feasible
flag, failing stage or allocation status differ, the smallest and largest
signed relative move of the sum rate over the drops of each parent status,
the largest relative move of the water level mu and of the group totals,
and whether the units' CSVs are byte-identical. With ``--max-move REL``
it exits 1 if any drop's feasible flag, stage or status differs, or if
the sum rate, mu or a group total moves by more than REL relative;
``steps`` may differ.

A parent whose package reads its table as ``sfma.data`` by a fixed name
would read the working tree's table instead of its own; for such a parent
the script first checks that both ``data/`` trees are byte-identical.
"""

import argparse
import importlib
import math
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/sfma"
UNIT_SEED, P_MAX_DBW = 1000, 30.0
WORKLOADS = {"headline": (30, "table"), "crowd": (60, "parametric")}


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def write_parent(rev: str, dest: Path) -> Path:
    """The parent's package, written under ``dest`` as ``sfma_parent``; returns its directory."""
    out = dest / "sfma_parent"
    for name in git("ls-tree", "-r", "--name-only", rev, "--", PACKAGE).decode().splitlines():
        target = out / Path(name).relative_to(PACKAGE)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(git("show", f"{rev}:{name}"))
    if not (out / "__init__.py").is_file():
        raise SystemExit(f"error: {rev} has no {PACKAGE}/__init__.py")
    return out


def check_parent(parent: Path, own: Path) -> None:
    """Refuse a parent that would read the working tree's files instead of its own."""
    sources = {p: p.read_text() for p in parent.rglob("*.py")}
    absolute = [str(p.relative_to(parent)) for p, text in sources.items()
                if re.search(r"^\s*(from|import)\s+sfma\b", text, re.M)]
    if absolute:
        raise SystemExit(f"error: the parent imports sfma by name in {', '.join(absolute)}")
    if any('"sfma.data"' in text for text in sources.values()):
        def tree(root):
            return {str(p.relative_to(root)): p.read_bytes() for p in sorted((root / "data").rglob("*"))
                    if p.is_file() and "__pycache__" not in p.parts}
        if tree(parent) != tree(own):
            raise SystemExit("error: the parent reads its table as sfma.data, and its data/ differs "
                             "from the working tree's, so it would read the wrong table")
        print("parent reads sfma.data by name; both data/ trees are byte-identical")


def drop_inputs(sfma, m: int, kind: str, drop: int, seed: int):
    config = sfma.ScenarioConfig(user_counts=(m,), p_max_dbw=(P_MAX_DBW,), root_seed=seed, rho_kind=kind)
    users = sfma.bench._build_users(config, m, sfma.bench.drop_seed(seed, m, 0, drop))
    solver = sfma.SolverConfig(p_max_w=10.0 ** (P_MAX_DBW / 10.0), alpha=config.alpha,
                               delta_max=config.delta_max, profile=config.build_profile())
    return users, solver


def unit_config(sfma, m: int, kind: str, drop: int, output: Path):
    return sfma.ScenarioConfig(user_counts=(m,), p_max_dbw=(P_MAX_DBW,), drops=1, root_seed=UNIT_SEED + drop,
                               rho_kind=kind, workers=1, output=str(output))


def timed(fn):
    t0 = perf_counter()
    value = fn()
    return perf_counter() - t0, value


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.3f} [quartiles {q1:.3f}, {q3:.3f}]"


def largest_move(got, want) -> float:
    """Largest relative move between two float arrays; nan on both sides is no move."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    moved = ~((got == want) | (np.isnan(got) & np.isnan(want)))
    if not moved.any():
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(got[moved] - want[moved]) / np.abs(want[moved])
    return float(np.max(np.where(np.isnan(rel), math.inf, rel)))


def compare(name, sides, drops: int, rounds: int, seed: int, scratch: Path):
    """Time and compare one workload; returns the count of drops whose feasible
    flag, stage or status differ, and the largest relative move of any number."""
    m, kind = WORKLOADS[name]
    inputs = {side: [drop_inputs(pkg, m, kind, d, seed) for d in range(drops)] for side, pkg in sides.items()}
    configs = {side: [unit_config(pkg, m, kind, d, scratch / f"{side}-{name}-{d}.csv") for d in range(drops)]
               for side, pkg in sides.items()}
    solve_s = {side: [[] for _ in range(drops)] for side in sides}
    unit_s = {side: [[] for _ in range(drops)] for side in sides}
    results = {}
    for r in range(rounds):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for d in range(drops):
            for side in order:
                pkg = sides[side]
                elapsed, results[side, d] = timed(lambda: pkg.solve(*inputs[side][d]))
                solve_s[side][d].append(elapsed)
                cfg = configs[side][d]
                elapsed, _ = timed(lambda: pkg.emit_csv(pkg.run_sweep(cfg), cfg.output))
                unit_s[side][d].append(elapsed)

    def per_drop(times, side):
        return [statistics.median(t) for t in times[side]]

    print(f"{name}: {m} users, {kind}, {drops} drops, {rounds} rounds")
    for label, times in (("solve()", solve_s), ("run_sweep + emit_csv", unit_s)):
        parent, change = per_drop(times, "parent"), per_drop(times, "change")
        if times is unit_s:
            speed = f"parent {drops / math.fsum(parent):.1f} drops/s, change {drops / math.fsum(change):.1f} drops/s"
        else:
            speed = (f"parent {statistics.median(parent) * 1e3:.3f} ms, "
                     f"change {statistics.median(change) * 1e3:.3f} ms (median drop)")
        print(f"  {label}: {speed}; change/parent per drop {quartiles([c / p for c, p in zip(change, parent)])}")
    def key(res):
        alloc = res.allocation
        return res.feasible, res.stage, None if alloc is None else alloc.status

    def numbers(res):
        alloc = res.allocation
        return {"sum rate": [res.sum_rate], "mu": [] if alloc is None else [alloc.mu],
                "group totals": [] if alloc is None else alloc.group_totals}

    differ, steps, rate_moves = [], {side: [0, 0] for side in sides}, {}
    moves = {name: [0, 0.0] for name in ("sum rate", "mu", "group totals")}
    for d in range(drops):
        got, want = results["change", d], results["parent", d]
        for side, res in (("parent", want), ("change", got)):
            if res.allocation is not None:
                steps[side][0] += res.allocation.steps
                steps[side][1] += res.allocation.sampled_steps
        if key(got) != key(want):
            differ.append(f"    drop {d}: parent {key(want)}, change {key(got)}")
        if math.isfinite(got.sum_rate) and math.isfinite(want.sum_rate):
            rate_moves.setdefault(want.allocation.status, []).append((got.sum_rate - want.sum_rate) / want.sum_rate)
        want_numbers = numbers(want)
        for label, values in numbers(got).items():
            move = largest_move(values, want_numbers[label])
            if move > 0:
                moves[label][0] += 1
                moves[label][1] = max(moves[label][1], move)
    for side, (exact, sampled) in steps.items():
        print(f"  {side}: {exact} steps, {sampled} sampled_steps")
    print(f"  feasible, stage, status: {len(differ)} drops differ" + "".join("\n" + line for line in differ))
    for status, rel in sorted(rate_moves.items()):
        print(f"  sum rate, parent status {status!r}: {len(rel)} drops, signed relative move "
              f"{min(rel):.3g} to {max(rel):.3g}")
    for label, (moved, largest) in moves.items():
        print(f"  {label}: {moved} drops moved, largest relative move {largest:.3g}")
    same = all(Path(configs["parent"][d].output).read_bytes() == Path(configs["change"][d].output).read_bytes()
               for d in range(drops))
    print(f"  unit CSVs byte-identical: {'yes' if same else 'no'}")
    return len(differ), max(largest for _, largest in moves.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--drops", type=int, default=40)
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--seed", type=int, default=2026, help="root seed of the solve() drops")
    parser.add_argument("--max-move", type=float, metavar="REL",
                        help="exit 1 if a feasible flag, stage or status differs, or a number moves more than REL")
    args = parser.parse_args(argv)
    if args.drops < 4 or args.rounds < 1 or args.seed < 0:
        parser.error("--drops must be >= 4, --rounds >= 1 and --seed >= 0")
    if args.max_move is not None and not args.max_move >= 0:
        parser.error("--max-move must be >= 0")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        check_parent(write_parent(args.parent, tmp), ROOT / PACKAGE)
        sys.path[:0] = [str(ROOT / "src"), str(tmp)]
        sides = {"parent": importlib.import_module("sfma_parent"), "change": importlib.import_module("sfma")}
        print(f"parent {args.parent} = {git('rev-parse', '--short', args.parent).decode().strip()}, "
              f"change = working tree")
        outcomes = [compare(name, sides, args.drops, args.rounds, args.seed, tmp) for name in WORKLOADS]
    if args.max_move is None:
        return 0
    flagged, largest = sum(f for f, _ in outcomes), max(m for _, m in outcomes)
    ok = flagged == 0 and largest <= args.max_move
    print(f"max-move {args.max_move:g}: {'pass' if ok else 'FAIL'} ({flagged} drops differ in feasible, "
          f"stage or status; largest relative move {largest:.3g})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
