#!/usr/bin/env python3
"""Write the golden per-drop record of the solver, ``tests/data/drop_record.json``.

The record covers drops 0-9 of root seed 2026 at 30 dBW, for 10, 30 and 60
users, on the bundled rho table and on the default logistic profile. Per
drop it holds the feasible flag, the failing stage, the allocation status,
its ``steps`` and ``sampled_steps``, and the ``repr`` of the sum rate, the
water level mu, the group totals, the splits and the min-rate multipliers.
``repr`` of a float round-trips, so the test that reads the record asserts
exact equality: any change that moves a number must write the record again
and say which drops moved.

    python scripts/write_drop_record.py [--output PATH]
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sfma.bench import ScenarioConfig, _build_users, drop_seed  # noqa: E402
from sfma.power import SolverConfig, solve  # noqa: E402

ROOT_SEED = 2026
P_MAX_DBW = 30.0
USER_COUNTS = (10, 30, 60)
KINDS = ("table", "parametric")
DROPS = range(10)
DEFAULT_OUTPUT = ROOT / "tests" / "data" / "drop_record.json"


def drop_inputs(kind: str, m: int, drop: int):
    """Users and solver settings of one drop, as a one-cell sweep draws them."""
    config = ScenarioConfig(user_counts=(m,), p_max_dbw=(P_MAX_DBW,), root_seed=ROOT_SEED,
                            rho_kind=kind)
    users = _build_users(config, m, drop_seed(ROOT_SEED, m, 0, drop))
    solver_cfg = SolverConfig(p_max_w=10.0 ** (P_MAX_DBW / 10.0), alpha=config.alpha,
                              delta_max=config.delta_max, profile=config.build_profile())
    return users, solver_cfg


def _reprs(values) -> list:
    return [repr(float(v)) for v in values]


def drop_entry(kind: str, m: int, drop: int) -> dict:
    """The record of one drop, solved by the code on the path."""
    result = solve(*drop_inputs(kind, m, drop))
    entry = {"kind": kind, "users": m, "drop": drop, "feasible": result.feasible,
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
    return [drop_entry(kind, m, drop) for kind in KINDS for m in USER_COUNTS for drop in DROPS]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    # one drop a line, so that a diff of the record names the drops that moved
    args.output.write_text("[\n" + ",\n".join(json.dumps(e) for e in record()) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
