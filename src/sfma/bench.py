"""Monte Carlo benchmark driver, scenario configuration, and CSV reporting.

A sweep evaluates, for every (user count, BS power, drop) cell, the pairing
plus power-allocation pipeline and the three baselines on one shared channel
realization. Drops where the minimum rates are unattainable are counted and
excluded from every scheme's mean so all schemes aggregate over the same
support. A drop whose solver raises ``ConvergenceError`` is one of them,
with exit "numerics"; the report lists every infeasible drop. Per-drop seeds derive
from (root seed, user count, power index, drop index), so drops may run in
parallel without changing any number.
"""

from __future__ import annotations

import itertools
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .baselines import fnoma_sum_rate, ofdma_sum_rate, ojscc_sum_rate, pair_distinctive
from .channel import _stream, draw_channel, path_loss_db, place_users
from .pairing import UserTerminal
from .power import EXITS, ConvergenceError, SolverConfig, solve
from .semantic_rate import InterferenceProfile, Link, LogisticRhoParams, load_rho_table

__all__ = [
    "ScenarioConfig",
    "ConfigError",
    "RunReport",
    "ReportRow",
    "DropOutcome",
    "drop_inputs",
    "run_sweep",
    "emit_csv",
    "CSV_HEADER",
]

SCHEMES = ("sfma", "fnoma", "ojscc", "ofdma")
CSV_HEADER = "scheme,users,p_max_dbw,mean_sum_rate,std_sum_rate,drops,infeasible"
# the dB values x whose 10^(x/10) is a positive normal float, rounded inward to whole dB
_DB_RANGE = (math.ceil(10 * math.log10(np.finfo(float).tiny)), math.floor(10 * math.log10(np.finfo(float).max)))


class ConfigError(ValueError):
    """Malformed scenario configuration (bad value, unknown key, missing file)."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One benchmark scenario: sweep axes, channel model, and solver knobs."""

    user_counts: tuple = (10, 20, 30, 40, 50, 60)
    p_max_dbw: tuple = (30.0,)
    alpha: float = 0.1
    delta_max: float = 4.0
    min_rate: float = 1.0
    drops: int = 100
    root_seed: int = 1
    output: str = "sweep.csv"
    rho_kind: str = "table"          # constant | table | parametric
    rho_table: str = "default"       # path of a table CSV, or "default"
    rho_constant: float = 1.0
    rho_limit: float = 0.95
    rho_snr_slope: float = 0.42
    rho_snr_mid_db: float = 6.0
    rho_power_coeff: float = 0.015
    rho_power_ref_w: float = 1.0
    fnoma_eta: float = 0.8
    area_side_m: float = 500.0
    shadow_sigma_db: float = 4.0
    noise_dbw: float = -104.0
    frame_window: int = 8
    fading: bool = False
    workers: int = 1
    keep_records: bool = False

    def __post_init__(self):
        # an integer field takes integers only: a float would be truncated or
        # fail deep inside a sweep, and a bool is no count
        for name in ("user_counts", "drops", "root_seed", "frame_window", "workers"):
            many = name == "user_counts"
            for v in getattr(self, name) if many else (getattr(self, name),):
                if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                    raise ConfigError(f"{name} must {'list integers' if many else 'be an integer'}, got {v!r}")
        object.__setattr__(self, "user_counts", tuple(int(m) for m in self.user_counts))
        object.__setattr__(self, "p_max_dbw", tuple(float(p) for p in self.p_max_dbw))
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{f.name} must be finite, got {v}")
        if self.drops < 1:
            raise ConfigError(f"drops must be >= 1, got {self.drops}")
        if self.root_seed < 0:
            raise ConfigError(f"root_seed must be >= 0, got {self.root_seed}")
        if not self.user_counts or any(m < 2 or m % 2 for m in self.user_counts):
            raise ConfigError(f"user_counts must be even and >= 2, got {self.user_counts}")
        if not self.p_max_dbw:
            raise ConfigError("p_max_dbw must list at least one power")
        if self.delta_max < 0 or self.alpha < 0 or self.min_rate < 0:
            raise ConfigError("alpha, delta_max, and min_rate must be nonnegative")
        if not 1 <= self.frame_window <= 2 ** 63:     # frames are drawn as int64 from [0, frame_window)
            raise ConfigError(f"frame_window must lie in [1, 2**63], got {self.frame_window}")
        if self.rho_kind not in ("constant", "table", "parametric"):
            raise ConfigError(f"unknown rho_kind {self.rho_kind!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.area_side_m <= 0:
            raise ConfigError(f"area_side_m must be positive, got {self.area_side_m}")
        if self.shadow_sigma_db < 0:
            raise ConfigError(f"shadow_sigma_db must be nonnegative, got {self.shadow_sigma_db}")
        if not 0.0 < self.fnoma_eta < 1.0:
            raise ConfigError(f"fnoma_eta must lie in (0, 1), got {self.fnoma_eta}")
        # every watt value 10^(x/10) and channel gain 10^(-loss/10) is a positive normal float:
        # the gains span the nearest user's loss with a -10 sigma shadowing draw to the
        # farthest one's, at a corner, with a +10 sigma draw
        sigma10 = 10.0 * self.shadow_sigma_db
        gains = (sigma10 - path_loss_db(0.0), -path_loss_db(self.area_side_m / math.sqrt(2.0)) - sigma10)
        for name, values in (("p_max_dbw", self.p_max_dbw), ("noise_dbw", (self.noise_dbw,)),
                             ("the gain set by area_side_m and shadow_sigma_db", gains)):
            bad = [db for db in values if not _DB_RANGE[0] <= db <= _DB_RANGE[1]]
            if bad:
                raise ConfigError(f"{name} must lie in [{_DB_RANGE[0]}, {_DB_RANGE[1]}] dB, got {bad[0]:.6g}")
        # built here, once: a table file is read when the config is made, and a bad
        # path or table is a config error; an attribute, not a field or a key
        try:
            if self.rho_kind == "constant":
                profile = InterferenceProfile.constant(self.rho_constant)
            elif self.rho_kind == "parametric":
                profile = InterferenceProfile.parametric(LogisticRhoParams(
                    limit=self.rho_limit,
                    snr_slope=self.rho_snr_slope,
                    snr_mid_db=self.rho_snr_mid_db,
                    power_coeff=self.rho_power_coeff,
                    power_ref_w=self.rho_power_ref_w,
                ))
            elif self.rho_table == "default":
                profile = InterferenceProfile.default_table()
            else:
                profile = load_rho_table(self.rho_table)
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "_profile", profile)

    def build_profile(self) -> InterferenceProfile:
        """The rho profile built with the config: the same object on every call."""
        return self._profile

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text, source=str(path))

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "ScenarioConfig":
        parsers = _field_parsers(cls)
        overrides = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in parsers:
                raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
            if key in overrides:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            try:
                overrides[key] = parsers[key](value)
            except ValueError as exc:
                raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
        try:
            return cls(**overrides)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: {exc}") from exc


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _field_parsers(cls) -> dict:
    parsers = {}
    for f in fields(cls):
        if f.name in ("user_counts",):
            parsers[f.name] = lambda v: tuple(int(x) for x in v.split(","))
        elif f.name in ("p_max_dbw",):
            parsers[f.name] = lambda v: tuple(float(x) for x in v.split(","))
        elif f.type == "float" or isinstance(f.default, float):
            parsers[f.name] = float
        elif f.type == "bool" or isinstance(f.default, bool):
            parsers[f.name] = _parse_bool
        elif f.type == "int" or isinstance(f.default, int):
            parsers[f.name] = int
        else:
            parsers[f.name] = str
    return parsers


@dataclass(frozen=True)
class DropOutcome:
    users: int
    p_max_dbw: float
    drop_index: int
    rates: dict          # scheme -> sum rate (bits/s/Hz)
    exit: str            # the solve's exit, or "numerics" where it raised ConvergenceError

    @property
    def feasible(self) -> bool:
        return self.exit in EXITS[:4]


@dataclass(frozen=True)
class ReportRow:
    scheme: str
    users: int
    p_max_dbw: float
    mean_sum_rate: float
    std_sum_rate: float
    drops: int
    infeasible: int


@dataclass
class RunReport:
    rows: list
    records: list = field(default_factory=list)
    infeasible: list = field(default_factory=list)  # the DropOutcome of every infeasible drop

    def row(self, scheme: str, users: int, p_max_dbw: float) -> ReportRow:
        for r in self.rows:
            if r.scheme == scheme and r.users == users and r.p_max_dbw == p_max_dbw:
                return r
        raise KeyError((scheme, users, p_max_dbw))


def drop_seed(root_seed: int, users: int, p_idx: int, drop_index: int) -> int:
    """Stable per-drop seed derived from the sweep coordinates."""
    return int(np.random.SeedSequence([root_seed, users, p_idx, drop_index]).generate_state(1)[0])


def _build_users(config: ScenarioConfig, m: int, seed: int):
    topology = place_users(m, config.area_side_m, seed)
    channel = draw_channel(
        topology, config.shadow_sigma_db, config.noise_dbw, seed, fading=config.fading
    )
    frames = _stream(seed, "frames").integers(0, config.frame_window, size=m)
    return [
        UserTerminal(
            id=i,
            link=Link(gain=float(channel.gains[i]), noise=float(channel.noise_powers[i])),
            min_rate=config.min_rate,
            frame_time=int(frames[i]),
        )
        for i in range(m)
    ]


def drop_inputs(config: ScenarioConfig, m: int, p_idx: int, drop_index: int):
    """Users and solver settings of one drop: ``drop_index`` of cell (m, ``p_max_dbw[p_idx]``)."""
    users = _build_users(config, m, drop_seed(config.root_seed, m, p_idx, drop_index))
    solver_cfg = SolverConfig(p_max_w=10.0 ** (config.p_max_dbw[p_idx] / 10.0), alpha=config.alpha,
                              delta_max=config.delta_max, profile=config.build_profile())
    return users, solver_cfg


def evaluate_drop(config: ScenarioConfig, m: int, p_idx: int, drop_index: int,
                  profile: InterferenceProfile | None = None) -> DropOutcome:
    """All four schemes on one shared channel realization; ``profile`` replaces the config's."""
    users, solver_cfg = drop_inputs(config, m, p_idx, drop_index)
    if profile is not None:
        solver_cfg = replace(solver_cfg, profile=profile)
    p_max_w = solver_cfg.p_max_w
    try:
        result = solve(users, solver_cfg)
        sfma_rate, ended = result.sum_rate, result.exit
    except ConvergenceError:
        sfma_rate, ended = float("nan"), "numerics"
    baseline_pairs = pair_distinctive(users)
    by_id = {u.id: u for u in users}
    pair_terms = [(by_id[a], by_id[b]) for a, b in baseline_pairs.pairs]
    rates = {
        "sfma": sfma_rate,
        "fnoma": fnoma_sum_rate(pair_terms, p_max_w, config.fnoma_eta),
        "ojscc": ojscc_sum_rate(pair_terms, p_max_w),
        "ofdma": ofdma_sum_rate(users, p_max_w),
    }
    return DropOutcome(users=m, p_max_dbw=config.p_max_dbw[p_idx], drop_index=drop_index, rates=rates, exit=ended)


def _drop_task(args):
    return evaluate_drop(*args)


def run_sweep(config: ScenarioConfig) -> RunReport:
    """Evaluate the full (users x power x drops) grid and aggregate per cell.

    Every drop, in this process or in a worker, runs on the profile built
    with ``config``.
    """
    keys = list(itertools.product(config.user_counts, range(len(config.p_max_dbw)), range(config.drops)))
    tasks = [(config,) + key for key in keys]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = dict(zip(keys, pool.map(_drop_task, tasks, chunksize=8)))
    else:
        outcomes = dict(zip(keys, map(_drop_task, tasks)))

    rows = []
    records = []
    infeasible = []
    for m in config.user_counts:
        for p_idx, p_dbw in enumerate(config.p_max_dbw):
            cell = [outcomes[(m, p_idx, d)] for d in range(config.drops)]
            if config.keep_records:
                records.extend(cell)
            feasible = [o for o in cell if o.feasible]
            infeasible.extend(o for o in cell if not o.feasible)
            n_bad = len(cell) - len(feasible)
            for scheme in SCHEMES:
                values = np.array([o.rates[scheme] for o in feasible])
                mean, std = (float(np.mean(values)), float(np.std(values))) if values.size else (math.nan, math.nan)
                rows.append(ReportRow(scheme=scheme, users=m, p_max_dbw=p_dbw, mean_sum_rate=mean,
                                      std_sum_rate=std, drops=len(feasible), infeasible=n_bad))
    rows.sort(key=lambda r: (r.scheme, r.users, r.p_max_dbw))
    return RunReport(rows=rows, records=records, infeasible=infeasible)


def emit_csv(report: RunReport, path) -> None:
    """Write the report: one row per (scheme, users, power) cell, 9 significant digits."""
    lines = [CSV_HEADER]
    for r in sorted(report.rows, key=lambda r: (r.scheme, r.users, r.p_max_dbw)):
        lines.append(
            f"{r.scheme},{r.users},{r.p_max_dbw:.9g},{r.mean_sum_rate:.9g},"
            f"{r.std_sum_rate:.9g},{r.drops},{r.infeasible}"
        )
    try:
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc

