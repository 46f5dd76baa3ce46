"""Command-line entry points.

Subcommands:
  sweep      run a configured Monte Carlo sweep and write the CSV report
  solve      solve one seeded instance and print pairing, powers, and residuals
  calibrate  turn distortion measurements into an interference-factor table
  verify     run acceptance criteria 1-6 on seed-derived instances

Exit codes: 0 success, 1 failed verification, a sweep with numerically
failed drops or a solve that failed numerically, 2 bad configuration or
input, 3 infeasible instance.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .bench import ConfigError, ScenarioConfig, drop_inputs, emit_csv, run_sweep
from .power import ConvergenceError, Group, kkt_residuals, solve, split_residuals
from .semantic_rate import InterferenceProfile, Link, calibrate_rho, save_rho_table
from .verify import run_all

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sfma", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a configured Monte Carlo sweep")
    p_sweep.add_argument("--config", required=True, help="scenario config file (key = value lines)")
    p_sweep.add_argument("--output", help="override the config's output path")

    p_solve = sub.add_parser("solve", help="solve one seeded instance")
    p_solve.add_argument("--users", type=int, required=True)
    p_solve.add_argument("--seed", type=int, required=True)
    p_solve.add_argument("--p-max-dbw", type=float, default=30.0)
    p_solve.add_argument("--alpha", type=float, default=0.1)
    p_solve.add_argument("--delta-max", type=float, default=4.0)
    p_solve.add_argument("--min-rate", type=float, default=1.0)
    p_solve.add_argument("--rho-kind", choices=("constant", "table", "parametric"), default="table")
    p_solve.add_argument("--rho-table", default="default")
    p_solve.add_argument("--rho-constant", type=float, default=1.0)

    p_cal = sub.add_parser("calibrate", help="build a rho table from distortion measurements")
    p_cal.add_argument("--mse-csv", required=True, help="measurement CSV (see README for columns)")
    p_cal.add_argument("--output", default="rho_table.csv")

    p_verify = sub.add_parser("verify", help="run acceptance criteria 1-6 on seed-derived instances")
    p_verify.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_sweep(args) -> int:
    try:
        config = ScenarioConfig.from_file(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    output = args.output or config.output
    # a sweep can take minutes: an output that cannot be written fails first
    target = Path(output)
    if target.is_dir() or not target.parent.is_dir() or not os.access(target.parent, os.W_OK):
        print(f"error: cannot write report to {output}: not a file in a writable directory",
              file=sys.stderr)
        return EXIT_CONFIG
    report = run_sweep(config)
    emit_csv(report, output)
    print(f"wrote {output} ({len(report.rows)} cells)")
    for m in config.user_counts:
        for p_dbw in config.p_max_dbw:
            sfma_row = report.row("sfma", m, p_dbw)
            fnoma_row = report.row("fnoma", m, p_dbw)
            # the cell's infeasible drops by exit, most frequent first
            causes = Counter(o.exit for o in report.infeasible if (o.users, o.p_max_dbw) == (m, p_dbw))
            counts = f"{sfma_row.drops} drops, {sfma_row.infeasible} infeasible" + "".join(
                f"{', ' if i else ': '}{kind} {n}" for i, (kind, n) in enumerate(causes.most_common()))
            if sfma_row.drops and fnoma_row.mean_sum_rate > 0:
                ratio = sfma_row.mean_sum_rate / fnoma_row.mean_sum_rate
                print(f"M={m} P={p_dbw:g} dBW: sfma/fnoma mean ratio {ratio:.3f} ({counts})")
            else:
                print(f"M={m} P={p_dbw:g} dBW: {counts}")
    numerics = [o for o in report.infeasible if o.exit == "numerics"]
    if numerics:
        where = ", ".join(f"M={o.users} P={o.p_max_dbw:g} dBW drop {o.drop_index}" for o in numerics)
        print(f"error: {len(numerics)} drop(s) failed numerically, counted as infeasible: {where}",
              file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _cmd_solve(args) -> int:
    try:
        config = ScenarioConfig(
            user_counts=(args.users,),
            p_max_dbw=(args.p_max_dbw,),
            alpha=args.alpha,
            delta_max=args.delta_max,
            min_rate=args.min_rate,
            drops=1,
            root_seed=args.seed,
            rho_kind=args.rho_kind,
            rho_table=args.rho_table,
            rho_constant=args.rho_constant,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    users, solver_cfg = drop_inputs(config, args.users, 0, 0)
    try:
        result = solve(users, solver_cfg)
    except ConvergenceError as exc:
        print(f"error: failed at stage numerics: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if not result.feasible:
        detail = {"pairing": f"unmatchable users {list(result.pairing.unmatched)}",
                  "rate_missed": "a user ends below its minimum rate after the pair split"}
        print(f"infeasible at stage {result.stage}, exit {result.exit}: "
              f"{detail.get(result.exit) or result.allocation.detail}", file=sys.stderr)
        return EXIT_INFEASIBLE

    print(f"pairs (gap): " + ", ".join(
        f"({a},{b}) gap={g}" for (a, b), g in zip(result.pairing.pairs, result.pairing.gaps)
    ))
    alloc = result.allocation
    print(f"water level mu = {alloc.mu:.6g} (sampled_steps {alloc.sampled_steps}, steps {alloc.steps})")
    for idx, ((a, b), total, split) in enumerate(
        zip(result.pairing.pairs, alloc.group_totals, alloc.splits)
    ):
        print(
            f"group {idx}: users ({a},{b}) p_k={total:.6g} W "
            f"split=({split[0]:.6g}, {split[1]:.6g}) W "
            f"rates=({result.user_rates[a]:.4f}, {result.user_rates[b]:.4f})"
        )
    by_id = {u.id: u for u in users}
    groups = [Group(users=(by_id[a], by_id[b]), profile=solver_cfg.profile) for a, b in result.pairing.pairs]
    # the dual variables certify the group-level (equal-split) stage; the
    # intra-pair resplit afterwards has its own residual, printed below
    report = kkt_residuals(groups, alloc, solver_cfg.p_max_w)
    print(f"total power {float(np.sum(alloc.group_totals)):.6g} of {solver_cfg.p_max_w:.6g} W")
    print(f"max normalized group-stage KKT residual {report.max_normalized:.3e}")
    split_res = float(np.max(split_residuals(groups, alloc), initial=0.0))
    print(f"max normalized pair-split residual {split_res:.3e}")
    print(f"sum rate {result.sum_rate:.6f} bits/s/Hz")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    columns = ("group_power_dbw", "snr_db", "p_self_w", "p_other_w", "gain", "noise_w", "mse")
    required = set(columns)
    try:
        with open(args.mse_csv, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                missing = sorted(required - set(reader.fieldnames or ()))
                print(f"error: measurement CSV missing columns {missing}", file=sys.stderr)
                return EXIT_CONFIG
            cells = {}
            for row in reader:
                # DictReader pads a short row with None and files a long row's extras under None
                if None in row.values() or None in row:
                    n_cells = sum(v is not None for k, v in row.items() if k is not None)
                    n_cells += len(row.get(None, ()))
                    print(f"error: {args.mse_csv} line {reader.line_num} has {n_cells} cells, "
                          f"the header {len(reader.fieldnames)}", file=sys.stderr)
                    return EXIT_CONFIG
                cell = {name: float(row[name]) for name in columns}
                # nan passes every range check below, and inf makes a grid node
                bad = [name for name in columns if not math.isfinite(cell[name])]
                if bad:
                    print(f"error: {args.mse_csv} line {reader.line_num}: {', '.join(bad)} "
                          f"must be finite", file=sys.stderr)
                    return EXIT_CONFIG
                link = Link(gain=cell["gain"], noise=cell["noise_w"])
                value = calibrate_rho(cell["p_self_w"], cell["p_other_w"], link, cell["mse"]).value
                key = (cell["group_power_dbw"], cell["snr_db"])
                if key in cells:
                    print(f"error: duplicate measurement cell {key}", file=sys.stderr)
                    return EXIT_CONFIG
                cells[key] = value
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    power_axis = sorted({k[0] for k in cells})
    snr_axis = sorted({k[1] for k in cells})
    values = np.empty((len(power_axis), len(snr_axis)))
    for i, p in enumerate(power_axis):
        for j, s in enumerate(snr_axis):
            if (p, s) not in cells:
                print(f"error: grid cell (power={p}, snr={s}) missing; table must be rectangular",
                      file=sys.stderr)
                return EXIT_CONFIG
            values[i, j] = cells[(p, s)]
    try:
        save_rho_table(InterferenceProfile.from_table(power_axis, snr_axis, values), args.output)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {args.output} ({len(power_axis)}x{len(snr_axis)} grid)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_all(seed=args.seed)
    failed = False
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    return EXIT_FAIL if failed else EXIT_OK


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_CONFIG
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    return _cmd_verify(args)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
