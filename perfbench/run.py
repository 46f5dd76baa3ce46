"""Drop-pipeline benchmark for sfma: sweep throughput, solve latency, per-stage time.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 50 --trace 0

Runs one workload through the public sfma API in this one process, with
``workers = 1`` and no pool or thread of its own. Every drop is checked by
``oracles.py``. The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones, from untraced runs; with ``--trace 1`` they are the
per-layer ones, from a run traced by ``spans.py``. See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 11
MIN_CALLS = 100
# solve() passes time the grid's first SOLVE_DROPS drops: a median over 30
# drops is already steady, and the time saved buys more sweep passes.
SOLVE_DROPS = 30

# Shared by every workload, as configs/ sets them; LOGISTIC is sfma's default profile.
ALPHA, DELTA_MAX, MIN_RATE, FRAME_WINDOW, FNOMA_ETA = 0.1, 4.0, 1.0, 8, 0.8
LOGISTIC = dict(limit=0.95, snr_slope=0.42, snr_mid_db=6.0, power_coeff=0.015, power_ref_w=1.0)


@dataclasses.dataclass(frozen=True)
class Workload:
    users: tuple
    p_max_dbw: tuple
    rho_kind: str
    units: int             # grid units; one unit is one drop at each budget
    statistic: str         # what stands for a unit's or a drop's timed repeats: a key of STATISTICS


# A grid unit is one ScenarioConfig with drops = 1, so one drop per budget.
# Candidate i of seed s has root seed s * GRID_STRIDE + i. The grid is the
# first `units` candidates with no drop over budget (see build_grid).
GRID_STRIDE = 1_000_000
MAX_CANDIDATES = 2          # per grid unit, before the grid is given up as broken

WORKLOADS = {
    "headline": Workload(users=(30,), p_max_dbw=(30.0,), rho_kind="table", units=160,
                         statistic="median"),
    "power-sweep": Workload(users=(10,), p_max_dbw=(24.0, 28.0, 32.0, 36.0, 40.0),
                            rho_kind="table", units=40, statistic="median"),
    "crowd": Workload(users=(60,), p_max_dbw=(30.0,), rho_kind="parametric", units=60,
                      statistic="fastest"),
}

# How the timed repeats of one unit or drop are summarised; see README.md for
# why `crowd` takes the fastest repeat and the other workloads the median.
STATISTICS = {"median": statistics.median, "fastest": min}

# The known fault, on inputs that do not depend on --seed: drop 6 of root
# seed 2026 at 30 users and 30 dBW on the table profile ends over budget.
PROBE = Workload(users=(30,), p_max_dbw=(30.0,), rho_kind="table", units=1, statistic="median")
PROBE_SEED, PROBE_DROP = 2026, 6
# The set-up's warm-up drop is drop 0 of this root seed, whatever --seed is,
# so that set-up time does not depend on how costly the seed's first drop is.
WARMUP_SEED = 0


def scenario(sfma, wl: Workload, root_seed: int, output: Path, drops: int = 1):
    return sfma.ScenarioConfig(
        user_counts=wl.users, p_max_dbw=wl.p_max_dbw, drops=drops, root_seed=root_seed,
        alpha=ALPHA, delta_max=DELTA_MAX, min_rate=MIN_RATE, frame_window=FRAME_WINDOW, workers=1,
        rho_kind=wl.rho_kind, rho_table="default", fnoma_eta=FNOMA_ETA,
        rho_limit=LOGISTIC["limit"], rho_snr_slope=LOGISTIC["snr_slope"],
        rho_snr_mid_db=LOGISTIC["snr_mid_db"], rho_power_coeff=LOGISTIC["power_coeff"],
        rho_power_ref_w=LOGISTIC["power_ref_w"], output=str(output),
    )


def rho_model(wl: Workload) -> oracles.RhoModel:
    if wl.rho_kind == "table":
        return oracles.RhoModel("table", table_csv=str(SRC / "sfma" / "data" / "rho_default.csv"))
    return oracles.RhoModel("logistic", logistic=LOGISTIC)


def root_seed(seed: int, candidate: int) -> int:
    return seed * GRID_STRIDE + candidate


def set_up(wl: Workload, csv_path: Path):
    """Import sfma, build a config and its profile, run one warm-up drop; timed each time."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "sfma" or n.startswith("sfma.")]:
            del sys.modules[name]
        start = perf_counter()
        sfma = importlib.import_module("sfma")
        config = scenario(sfma, wl, WARMUP_SEED, csv_path)
        profile = config.build_profile()
        sfma.bench.evaluate_drop(config, wl.users[0], 0, 0, profile=profile)
        times.append(perf_counter() - start)
    if not Path(sfma.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"sfma was imported from {sfma.__file__}, not from {SRC}")
    return sfma, profile, times


@dataclasses.dataclass
class Checked:
    drops: list            # oracles.Drop per drop
    calls: list            # (users, SolverConfig, SolveResult) per drop
    csv_bytes: bytes
    over_budget: list      # keys of the drops failing the budget check: the known fault
    problems: list         # any other failed check, as messages


def capturing(calls: list):
    """A wrapper maker that records every solve() call and its answer in ``calls``."""
    def capture(_label, original):
        def solve(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((list(args[0]), args[1], result))
            return result
        return solve
    return capture


def check_drops(records, calls, rho: oracles.RhoModel):
    """Per-drop checks; returns the drops, the over-budget keys and any other failure."""
    drops, over_budget, problems = [], [], []
    for record, (users, _, result) in zip(records, calls, strict=True):
        drop = to_drop(record, users, result)
        drops.append(drop)
        failed = {name: msgs for name, msgs in oracles.check_drop(drop, rho, FNOMA_ETA).items() if msgs}
        if "power.budget" in failed:
            over_budget.append(drop.key)
        problems += [f"drop {drop.key} {name}: {msgs[0]}"
                     for name, msgs in failed.items() if name != "power.budget"]
    return drops, over_budget, problems


def check_pass(sfma, config, rho: oracles.RhoModel) -> Checked:
    """One run_sweep + emit_csv of ``config`` with every drop's solve() captured and checked."""
    calls = []
    with spans.patched([(sfma.bench, "solve")], capturing(calls)):
        report = sfma.run_sweep(dataclasses.replace(config, keep_records=True))
    sfma.emit_csv(report, config.output)
    csv_bytes = Path(config.output).read_bytes()
    drops, over_budget, problems = check_drops(report.records, calls, rho)
    problems += oracles.check_report(csv_bytes.decode(), oracles.aggregate(drops))["report.csv"]
    return Checked(drops, calls, csv_bytes, over_budget, problems)


def check_probe(sfma) -> Checked:
    """The known-fault drop, answered by evaluate_drop and checked like a grid drop."""
    config = scenario(sfma, PROBE, PROBE_SEED, OUT / "probe.csv", drops=PROBE_DROP + 1)
    calls = []
    with spans.patched([(sfma.bench, "solve")], capturing(calls)):
        record = sfma.bench.evaluate_drop(config, PROBE.users[0], 0, PROBE_DROP)
    drops, over_budget, problems = check_drops([record], calls, rho_model(PROBE))
    return Checked(drops, calls, b"", over_budget, problems)


def to_drop(record, users, result) -> oracles.Drop:
    alloc = result.allocation if result.feasible else None
    return oracles.Drop(
        key=(record.users, record.p_max_dbw, record.drop_index),
        ids=np.array([u.id for u in users]),
        gains=np.array([u.link.gain for u in users]),
        noises=np.array([u.link.noise for u in users]),
        frames=np.array([u.frame_time for u in users]),
        min_rate=MIN_RATE, p_max_w=10.0 ** (record.p_max_dbw / 10.0), alpha=ALPHA, delta_max=DELTA_MAX,
        feasible=result.feasible, stage=result.stage,
        pairs=[tuple(p) for p in result.pairing.pairs], gaps=list(result.pairing.gaps),
        unmatched=list(result.pairing.unmatched), sum_rate=result.sum_rate,
        user_rates=dict(result.user_rates),
        baselines={s: record.rates[s] for s in ("fnoma", "ojscc", "ofdma")},
        group_totals=None if alloc is None else np.array(alloc.group_totals),
        splits=None if alloc is None else np.array(alloc.splits),
    )


@dataclasses.dataclass
class Grid:
    configs: list          # ScenarioConfig per unit
    units: list            # Checked per unit
    left_out: list         # (candidate, users, p_max_dbw) of over-budget drops whose unit was left out
    problems: list

    @property
    def drops(self) -> list:
        return [d for unit in self.units for d in unit.drops]

    @property
    def calls(self) -> list:
        return [c for unit in self.units for c in unit.calls]


def build_grid(sfma, wl: Workload, seed: int, rho: oracles.RhoModel, output: Path) -> Grid:
    """The seed's first ``wl.units`` candidate units with no drop over budget, each checked.

    Which drops the budget fault hits depends on the seed, so a unit with such
    a drop is left out of the grid rather than counted as failed; the fault is
    counted on the seed-independent probe instead (see check_probe).
    """
    grid = Grid([], [], [], [])
    for candidate in range(MAX_CANDIDATES * wl.units):
        if len(grid.units) == wl.units:
            break
        config = scenario(sfma, wl, root_seed(seed, candidate), output)
        checked = check_pass(sfma, config, rho)
        grid.problems += checked.problems
        if checked.over_budget:
            grid.left_out += [(candidate, *key[:2]) for key in checked.over_budget]
        else:
            grid.configs.append(config)
            grid.units.append(checked)
    if len(grid.units) < wl.units:
        grid.problems.append(f"grid: only {len(grid.units)} of {MAX_CANDIDATES * wl.units} candidate "
                             f"units stay within budget, {wl.units} needed")
    return grid


def sweep_round(sfma, config, reference: bytes, run=None, emit=None):
    """One timed run_sweep + emit_csv; returns its time and whether the CSV matches ``reference``."""
    run, emit = run or sfma.run_sweep, emit or sfma.emit_csv
    t0 = perf_counter()
    emit(run(config), config.output)
    elapsed = perf_counter() - t0
    return elapsed, Path(config.output).read_bytes() == reference


def same_answer(a, b) -> bool:
    return (a.feasible == b.feasible and a.pairing.pairs == b.pairing.pairs
            and (a.sum_rate == b.sum_rate or (math.isnan(a.sum_rate) and math.isnan(b.sum_rate))))


def solve_pass(sfma, calls, order):
    """solve() on the given drops, one call at a time; returns latencies and mismatches."""
    latencies, mismatches = [], 0
    for i in order:
        users, solver_cfg, reference = calls[i]
        t0 = perf_counter()
        result = sfma.solve(users, solver_cfg)
        latencies.append(perf_counter() - t0)
        mismatches += not same_answer(result, reference)
    return latencies, mismatches


def fits(start: float, seconds: float, done: int) -> bool:
    """Whether one more step, as long as the mean step so far, ends within the window."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / done <= seconds


def end_to_end(sfma, grid: Grid, seconds: float, rng, setup_times, statistic: str):
    """Sweep passes and solve() passes over the grid, alternated so both span the whole run.

    A sweep pass times run_sweep + emit_csv on each unit, a solve() pass times
    solve() on each of the first SOLVE_DROPS drops, both in a fresh random
    order. Each unit and each drop is then represented by the median or the
    fastest of its repeats, as ``statistic`` says; the metrics aggregate these.
    """
    n = len(grid.drops)
    calls = grid.calls[:SOLVE_DROPS]
    unit_s = [[] for _ in grid.units]
    call_ms = [[] for _ in calls]
    sweeps = passes = mismatches = 0
    identical = True
    start = perf_counter()
    while not sweeps or len(calls) * passes < MIN_CALLS or fits(start, seconds, sweeps + passes):
        if sweeps <= passes:
            for u in rng.permutation(len(grid.units)):
                elapsed, same = sweep_round(sfma, grid.configs[u], grid.units[u].csv_bytes)
                unit_s[u].append(elapsed)
                identical = identical and same
            sweeps += 1
        else:
            order = rng.permutation(len(calls))
            lat, bad = solve_pass(sfma, calls, order)
            for i, t in zip(order, lat):
                call_ms[i].append(t * 1e3)
            mismatches += bad
            passes += 1
    summary = STATISTICS[statistic]
    unit_t = [summary(t) for t in unit_s]
    call_t = [summary(t) for t in call_ms]
    pooled = np.array(call_ms).ravel()
    metrics = {
        "drops_per_s": (n / math.fsum(unit_t), "drops/s"),
        "solve_ms_p50": (statistics.median(call_t), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "sfma_mean_sum_rate": (oracles.mean_sum_rate([u.csv_bytes.decode() for u in grid.units]),
                               "bit/s/Hz"),
    }
    problems = []
    if not identical:
        problems.append("report.identical: a timed round wrote a CSV that differs from the checked one")
    if mismatches:
        problems.append(f"solve.repeat: {mismatches} solve() calls answered differently from the sweep")
    detail = {
        "note": (f"{sweeps} sweep passes over {len(grid.units)} units; {pooled.size} solve() calls "
                 f"({passes} passes over {len(calls)} drops), p50 {statistics.median(call_t):.1f} ms "
                 f"over the drops' {statistic} calls, p90 {np.percentile(pooled, 90):.1f} ms over all calls"),
        "statistic": statistic,
        "solve_ms_p90": float(np.percentile(pooled, 90)),
        **{f"drops_per_s_{name}": n / math.fsum(fn(t) for t in unit_s) for name, fn in STATISTICS.items()},
        **{f"solve_ms_p50_{name}": statistics.median(fn(t) for t in call_ms) for name, fn in STATISTICS.items()},
        "solve_ms_p50_pooled": float(np.percentile(pooled, 50)),
        "unit_s": unit_s, "solve_ms_by_drop": call_ms, "setup_s": setup_times,
    }
    return metrics, problems, detail


TRACED = (
    ("bench", "evaluate_drop"), ("bench", "place_users"), ("bench", "draw_channel"),
    ("bench", "solve"), ("bench", "pair_distinctive"), ("bench", "fnoma_sum_rate"),
    ("bench", "ojscc_sum_rate"), ("bench", "ofdma_sum_rate"),
    ("power", "pair_users"), ("power", "inter_group_allocate"),
)
BASELINE_SPANS = ("bench.pair_distinctive", "bench.fnoma_sum_rate", "bench.ojscc_sum_rate",
                  "bench.ofdma_sum_rate")


def per_layer(sfma, profile, grid: Grid, seconds: float, trace_path: Path, statistic: str):
    n = len(grid.drops)
    tracer = spans.Tracer()
    per_pass = []
    targets = [(getattr(sfma, mod), name) for mod, name in TRACED]
    with spans.patched(targets, tracer.wrapper):
        run = tracer.wrapper("bench.run_sweep", sfma.bench.run_sweep)
        emit = tracer.wrapper("bench.emit_csv", sfma.bench.emit_csv)
        marks, unit_s, identical = [], [[] for _ in grid.units], True
        start = perf_counter()
        while not marks or fits(start, seconds, len(marks)):
            marks.append(len(tracer.spans))
            for config, unit, times in zip(grid.configs, grid.units, unit_s):
                elapsed, same = sweep_round(sfma, config, unit.csv_bytes, run, emit)
                times.append(elapsed)
                identical = identical and same
    marks.append(len(tracer.spans))
    for first, last in zip(marks, marks[1:]):
        total, own = tracer.times(first, last)
        per_pass.append({
            "channel": total.get("bench.place_users", 0.0) + total.get("bench.draw_channel", 0.0),
            "pairing": total.get("power.pair_users", 0.0),
            "group": total.get("power.inter_group_allocate", 0.0),
            "pair": own.get("bench.solve", 0.0),
            "baselines": sum(total.get(name, 0.0) for name in BASELINE_SPANS),
            "bench": (own.get("bench.run_sweep", 0.0) + own.get("bench.evaluate_drop", 0.0)
                      + total.get("bench.emit_csv", 0.0)),
        })
    tracer.dump(trace_path)

    def ms_per_drop(layer):
        return statistics.median(p[layer] for p in per_pass) * 1e3 / n

    groups = sum(len(d.pairs) for d in grid.drops if d.stage != "pairing")
    counts = stage_counts(sfma, profile, grid.calls)
    rho_ns, drho_ns = rho_point_cost(sfma, profile, grid.drops[0])
    metrics = {
        "channel.ms_per_drop": (ms_per_drop("channel"), "ms/drop"),
        "pairing.ms_per_drop": (ms_per_drop("pairing"), "ms/drop"),
        "power.group_ms_per_drop": (ms_per_drop("group"), "ms/drop"),
        "power.group_us_per_group": (ms_per_drop("group") * n * 1e3 / max(groups, 1), "us/group"),
        "power.pair_ms_per_drop": (ms_per_drop("pair"), "ms/drop"),
        "baselines.ms_per_drop": (ms_per_drop("baselines"), "ms/drop"),
        "bench.self_ms_per_drop": (ms_per_drop("bench"), "ms/drop"),
        "semantic_rate.rho_ns_per_point": (rho_ns, "ns/point"),
        "semantic_rate.drho_ns_per_point": (drho_ns, "ns/point"),
        "pairing.infeasible_drops": (counts["pairing"], "count"),
        "power.infeasible_drops": (counts["power"], "count"),
        "power.groups_per_drop": (groups / n, "count"),
        "power.over_budget_drops": (len(grid.left_out), "count"),
        "power.unexhausted_drops": (counts["unexhausted"], "count"),
        "power.kkt_max": (counts["kkt_max"], "ratio"),
        "trace.drops_per_s": (n / math.fsum(STATISTICS[statistic](t) for t in unit_s), "drops/s"),
    }
    problems = [] if identical else ["report.identical: a traced round wrote a different CSV"]
    detail = {
        "note": f"{len(marks) - 1} traced sweep passes over {len(grid.units)} units, {len(tracer.spans)} spans",
        "unit_s": unit_s, "layer_s_per_pass": per_pass,
    }
    return metrics, problems, detail


def stage_counts(sfma, profile, calls) -> dict:
    """Infeasible drops by stage, unexhausted budgets, and the group-stage KKT maximum."""
    out = {"pairing": 0, "power": 0, "unexhausted": 0, "kkt_max": 0.0}
    for users, solver_cfg, result in calls:
        if result.stage in ("pairing", "power"):
            out[result.stage] += 1
        alloc = result.allocation
        if alloc is None or not alloc.feasible:
            continue
        out["unexhausted"] += not alloc.budget_exhausted
        by_id = {u.id: u for u in users}
        groups = [sfma.Group(users=(by_id[a], by_id[b]), profile=profile) for a, b in result.pairing.pairs]
        totals = np.asarray(alloc.group_totals)
        # the duals certify the equal-split group stage, as `sfma solve` reports it
        stage_alloc = sfma.PowerAllocation(
            group_totals=totals, splits=np.column_stack([totals / 2, totals / 2]),
            mu=alloc.mu, lambdas=alloc.lambdas,
        )
        report = sfma.kkt_residuals(groups, stage_alloc, solver_cfg.p_max_w)
        out["kkt_max"] = max(out["kkt_max"], report.max_normalized)
    return out


def rho_point_cost(sfma, profile, drop, reps: int = 25):
    """ns per point of rho_eval and rho_derivative_eval on an (M, 1024) group-stage grid."""
    grid = np.geomspace(1e-6 * drop.p_max_w, drop.p_max_w, 1024)[None, :]
    gain, noise = drop.gains[:, None], drop.noises[:, None]
    points = drop.gains.size * grid.size
    out = []
    for fn in (sfma.semantic_rate.rho_eval, sfma.semantic_rate.rho_derivative_eval):
        fn(profile, grid, gain, noise)
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            fn(profile, grid, gain, noise)
            times.append(perf_counter() - t0)
        out.append(statistics.median(times) * 1e9 / points)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    sfma, profile, setup_times = set_up(wl, OUT / f"{stem}.csv")
    grid = build_grid(sfma, wl, seed, rho_model(wl), OUT / f"{stem}.csv")
    probe = check_probe(sfma)
    if trace:
        metrics, problems, detail = per_layer(
            sfma, profile, grid, seconds, OUT / f"{stem}.spans.jsonl", wl.statistic)
    else:
        metrics, problems, detail = end_to_end(
            sfma, grid, seconds, np.random.default_rng(seed), setup_times, wl.statistic)
    problems = grid.problems + probe.problems + problems
    n = len(grid.drops)
    # An operation is one drop, checked once: every drop of the grid, then the
    # probe. The timed passes repeat the grid's drops and must match them.
    result = {
        "correct": not problems,
        "attempted": n + len(probe.drops),
        "failed": len(probe.over_budget),
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    record = dict(result, workload=workload, seed=seed, problems=problems,
                  left_out=grid.left_out, probe_over_budget=probe.over_budget, **detail)
    (OUT / f"{stem}.json").write_text(json.dumps(record) + "\n")
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{workload} seed {seed}: {detail['note']}; {len(grid.left_out)} over-budget candidate "
          f"drops left out of the grid; probe {'over budget' if probe.over_budget else 'within budget'}",
          file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0: it picks the root seeds of the drop grid")
    if not (SRC / "sfma" / "__init__.py").is_file():
        print(f"error: no sfma sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
