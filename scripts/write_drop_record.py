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

With ``--sweeps`` it writes neither: it runs ``configs/sweep_users.cfg`` and
``configs/sweep_power.cfg`` into a temporary directory (about 13 s serial on
two cores) and compares each CSV with the digests in
``tests/data/sweep_digests.json``, the sha256 of the file and of each
cell's row. It prints, per CSV, "identical" or the cells that moved with
their new rows, and exits 1 if any moved. ``--rewrite`` stores this run's
digests instead.

    python scripts/write_drop_record.py [--output PATH]
    python scripts/write_drop_record.py --sweeps [--rewrite]
"""

import argparse
import hashlib
import json
import sys
import tempfile
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
SWEEPS = (ROOT / "configs" / "sweep_users.cfg", ROOT / "configs" / "sweep_power.cfg")
SWEEP_DIGESTS = ROOT / "tests" / "data" / "sweep_digests.json"
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


def _cell(line: str) -> str:
    return line.rsplit(",", 4)[0]      # scheme, users, power


def moved_cells(got: str, want: str) -> list:
    """One line per CSV row of ``want`` that ``got`` does not hold, beside its row in ``got``."""
    now = {_cell(line): line for line in got.splitlines()}
    return [f"{line} -> {now.get(_cell(line), 'missing')}" for line in want.splitlines() if now.get(_cell(line)) != line]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def csv_digest(text: str) -> dict:
    """The sha256 of a report CSV and of each cell's row, keyed by the cell."""
    return {"sha256": _sha256(text), "cells": {_cell(line): _sha256(line) for line in text.splitlines()[1:]}}


def moved_digest_cells(text: str, want: dict) -> list:
    """One line per cell of ``text`` or of the digest ``want`` whose row differs: the cell and its row now."""
    now = {_cell(line): line for line in text.splitlines()[1:]}
    cells = csv_digest(text)["cells"]
    return [f"{cell} -> {now.get(cell, 'missing')}" for cell in sorted(cells.keys() | want["cells"].keys())
            if cells.get(cell) != want["cells"].get(cell)]


def sweep_csvs() -> dict:
    """The CSV text of each ``configs/`` sweep, run into a temporary directory, keyed by its file name."""
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in SWEEPS:
            config = ScenarioConfig.from_file(cfg)
            path = Path(tmp) / Path(config.output).name
            emit_csv(run_sweep(config), path)
            texts[path.name] = path.read_text()
    return texts


def check_sweeps(rewrite: bool) -> int:
    """Compare the sweeps' CSVs with their stored digests, or store this run's with ``rewrite``."""
    texts = sweep_csvs()
    stored = json.loads(SWEEP_DIGESTS.read_text()) if SWEEP_DIGESTS.exists() else {}
    moved = False
    for name, text in texts.items():
        want = stored.get(name)
        if want is None:
            print(f"{name}: no stored digest")
            moved = True
        elif want["sha256"] == _sha256(text):
            print(f"{name}: identical (sha256 {want['sha256'][:16]})")
        else:
            print(f"{name}: moved\n  " + "\n  ".join(moved_digest_cells(text, want)))
            moved = True
    if rewrite:
        SWEEP_DIGESTS.write_text(json.dumps({name: csv_digest(text) for name, text in texts.items()}, indent=1) + "\n")
        print(f"wrote {SWEEP_DIGESTS.relative_to(ROOT)}")
        return 0
    return 1 if moved else 0


def write_headline(path: Path) -> None:
    """Write the headline CSV to ``path``, printing the cells that moved from the file it replaces."""
    old = path.read_text() if path.exists() else None
    emit_csv(run_sweep(HEADLINE), path)
    if old is not None:
        print("\n".join(moved_cells(path.read_text(), old)) or "no headline cell moved")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--sweeps", action="store_true",
                        help="check the configs/ sweep CSVs against their stored digests instead")
    parser.add_argument("--rewrite", action="store_true", help="with --sweeps, store this run's digests")
    args = parser.parse_args(argv)
    if args.rewrite and not args.sweeps:
        parser.error("--rewrite needs --sweeps")
    if args.sweeps:
        return check_sweeps(args.rewrite)
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
