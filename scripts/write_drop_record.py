#!/usr/bin/env python3
"""Write the golden per-drop record of the solver, ``tests/data/drop_record.json``, and the headline CSV.

The record covers drops 0-9 of root seed 2026 at 30 dBW, for 10, 30 and 60
users, on the bundled rho table and on the default logistic profile, at a
minimum rate of 1 bit/s/Hz; and drops 0-9 of 30 users on the logistic
profile at a minimum rate of 1.5, where den = (1 - t rho)/2 <= 0 at the
rate floors' smallest power p0 and the rates are met at higher powers. Per
drop it holds the feasible flag, the failing stage, the allocation status,
its ``steps`` and ``sampled_steps``, and the ``repr`` of the sum rate, the
water level mu, the group totals, the splits and the min-rate multipliers.
``repr`` of a float round-trips, so the test that reads the record asserts
exact equality: any change that moves a number must write the record again
and say which drops moved. Writing the record prints, for each drop that
moved from the file it replaces, the fields that moved and the largest
relative change of the sum rate and of the group totals.

Beside the record it writes ``headline.csv``, the ``emit_csv`` bytes of the
headline cell (30 users, 30 dBW, 500 drops of root seed 2026, bundled
table), which acceptance criterion 11 asserts byte for byte, and prints the
cells that moved from the file it replaces.

    python scripts/write_drop_record.py [--output PATH]
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sfma.bench import ScenarioConfig, drop_inputs, emit_csv, run_sweep  # noqa: E402
from sfma.power import solve  # noqa: E402

ROOT_SEED = 2026
P_MAX_DBW = 30.0
USER_COUNTS = (10, 30, 60)
KINDS = ("table", "parametric")
DROPS = range(10)
MIN_RATE = 1.0
# (kind, users, minimum rate) of the cells beyond the grid above
EXTRA_CELLS = (("parametric", 30, 1.5),)
DEFAULT_OUTPUT = ROOT / "tests" / "data" / "drop_record.json"
HEADLINE = ScenarioConfig(user_counts=(30,), p_max_dbw=(P_MAX_DBW,), drops=500, root_seed=ROOT_SEED,
                          rho_kind="table", rho_table="default")


def _reprs(values) -> list:
    return [repr(float(v)) for v in values]


def drop_entry(kind: str, m: int, drop: int, min_rate: float = MIN_RATE) -> dict:
    """The record of one drop, solved by the code on the path."""
    config = ScenarioConfig(user_counts=(m,), p_max_dbw=(P_MAX_DBW,), root_seed=ROOT_SEED,
                            rho_kind=kind, min_rate=min_rate)
    result = solve(*drop_inputs(config, m, 0, drop))
    entry = {"kind": kind, "users": m, "min_rate": min_rate, "drop": drop, "feasible": result.feasible,
             "stage": result.stage, "sum_rate": repr(float(result.sum_rate))}
    alloc = result.allocation
    if alloc is not None:
        entry.update(
            status=alloc.status, steps=alloc.steps, sampled_steps=alloc.sampled_steps,
            mu=repr(float(alloc.mu)), totals=_reprs(alloc.group_totals),
            splits=_reprs(alloc.splits.ravel()), lambdas=_reprs(alloc.lambdas.ravel()),
        )
    return entry


def record() -> list:
    return ([drop_entry(kind, m, drop) for kind in KINDS for m in USER_COUNTS for drop in DROPS]
            + [drop_entry(kind, m, drop, r) for kind, m, r in EXTRA_CELLS for drop in DROPS])


def _largest_change(got, want) -> str:
    """Largest relative change between two lists of float reprs, as text."""
    if len(got) != len(want):
        return "n/a"
    pairs = [(float(g), float(w)) for g, w in zip(got, want) if g != w]
    return f"{max((abs(g - w) / abs(w) if w else abs(g) for g, w in pairs), default=0.0):.2g}"


def moved_drops(got: list, want: list) -> list:
    """One line per drop whose entry differs: the fields that moved, then the
    largest relative change of its sum rate and of its group totals."""
    lines = []
    for g, w in zip(got, want):
        if g == w:
            continue
        fields = sorted(k for k in g.keys() | w.keys() if g.get(k) != w.get(k))
        lines.append(f"{w['kind']} M={w['users']} min_rate={w['min_rate']} drop {w['drop']}: "
                     f"{', '.join(fields)}; "
                     f"sum_rate {_largest_change([g['sum_rate']], [w['sum_rate']])}, "
                     f"totals {_largest_change(g.get('totals', []), w.get('totals', []))}")
    return lines


def moved_cells(got: str, want: str) -> list:
    """One line per CSV row of ``want`` that ``got`` does not hold, beside its row in ``got``."""
    def cell(line):
        return line.rsplit(",", 4)[0]      # scheme, users, power

    now = {cell(line): line for line in got.splitlines()}
    return [f"{line} -> {now.get(cell(line), 'missing')}" for line in want.splitlines() if now.get(cell(line)) != line]


def write_headline(path: Path) -> None:
    """Write the headline CSV to ``path``, printing the cells that moved from the file it replaces."""
    old = path.read_text() if path.exists() else None
    emit_csv(run_sweep(HEADLINE), path)
    if old is not None:
        print("\n".join(moved_cells(path.read_text(), old)) or "no headline cell moved")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    entries = record()
    if args.output.exists():
        print("\n".join(moved_drops(entries, json.loads(args.output.read_text()))) or "no drop moved")
    # one drop a line, so that a diff of the record names the drops that moved
    args.output.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    write_headline(args.output.with_name("headline.csv"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
