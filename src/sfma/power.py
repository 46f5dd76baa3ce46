"""Group power allocation: budget split across pairs, then within each pair.

The group-level stage water-fills the budget multiplier mu. For each mu and
each group it evaluates three candidate group powers under an equal
intra-pair split: two fixed points where a user's minimum-rate constraint
binds, and the root of the rate-derivative stationarity condition; the
group keeps the largest feasible candidate and mu is driven until the
totals meet the budget. The pair-level stage then reoptimizes each group's
internal split with the interference factors frozen at the group total,
where the rate's stationarity condition is a quadratic in the split, so the
best of its roots and the interval ends is exact. A residual report checks
the first-order optimality system of the allocation.

Internals are vectorized across groups. The stationarity curve of every
group is sampled once on a dense log grid. The summed group power with
roots interpolated on those samples is piecewise linear in mu, and each
root's cell gives its slope exactly, so the mu search first takes
bracketed Newton steps on it, in 1/mu where the sum is nearly linear. It
then polishes with a few exactly-evaluated secant steps, so the
per-instance cost stays flat in the drop count. The first secant step
takes its slope from the interpolated curves. An exact evaluation refines
each root inside its grid cell by two levels of 64 uniform samples, each
taken in one call, and keeps the sub-cell that a bisection on the samples
would pick; a secant step on the last sub-cell ends it. The curve does not
depend on mu, so each group keeps the samples of its last bracket at each
level, in a (level, group, sample) array tagged by the bracket's cell and
sub-cell, and later water levels refine again only the groups whose tag
changed. Each allocation owns one scratch block sized for the grid: every
evaluation of the curves, on the grid and inside its cells, keeps its
temporaries there, so they are neither allocated nor faulted in per call.
Where the summed group power jumps across the budget at one water level,
the search stops once its bracket is 1e-9 wide (relative) and returns the
end below the budget; a step cap does the same.
A feasible allocation therefore never sums above the budget, and one that
cannot spend it to within the tolerance says so in its status.

Along one group's power axis a receiver's equal-split SNR in dB is
x = 10*log10(p) plus a constant, and the stationarity curves use that axis
form when all groups share one table or logistic profile. On a logistic
profile the exponent is affine in x, so one log10 per power and one exp per
receiver and power give rho and its analytic slope together. On a table
profile, rho and its slope come from quadratic pieces: both table
coordinates move with x, so bilinear rho is a quadratic in x between the
receiver's cuts, where x crosses a power node or the equal-split SNR
crosses an SNR node. The pieces are built once per set of groups, on first
use. The table slope stays the central difference over max(1e-9, 1e-4 p).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .pairing import PairingAssignment, pair_users
from .semantic_rate import (
    _LOGISTIC_WORK,
    _PIECE_WORK,
    InterferenceProfile,
    _logistic_axis,
    _piece_rho,
    _rho_derivative_kernel,
    _rho_kernel,
    _table_pieces,
)

__all__ = [
    "Group",
    "PowerAllocation",
    "SolverConfig",
    "SolveResult",
    "KKTReport",
    "MinRateInfeasible",
    "ConvergenceError",
    "inter_group_allocate",
    "intra_group_allocate",
    "kkt_residuals",
    "solve",
    "split_residuals",
]

logger = logging.getLogger(__name__)

_LN2 = float(np.log(2.0))
_GRID_N = 1024                     # stationarity-curve samples per group
# a refined root samples _SUB_N sub-cells at each of _SUB_LEVELS levels:
# 64**2 = 2**12, the width twelve bisections of a grid cell reach
_SUB_N = 64
_SUB_LEVELS = 2
_SUB_FRACS = np.arange(1, _SUB_N) / _SUB_N

# stationary-point resolution markers
_ROOT, _ZERO, _CAP = 0, 1, 2


class MinRateInfeasible(RuntimeError):
    """A minimum-rate constraint cannot be met at any power under this profile."""


class ConvergenceError(RuntimeError):
    """An iterative stage failed to converge; indicates a pathological input."""


@dataclass(frozen=True)
class Group:
    """Two paired users sharing one resource block.

    The group-level stage works at the equal intra-pair split; the
    pair-level stage then chooses each group's split.
    """

    users: tuple  # (UserTerminal, UserTerminal)
    profile: InterferenceProfile

    def __post_init__(self):
        if len(self.users) != 2:
            raise ValueError("a group holds exactly two users")


@dataclass
class PowerAllocation:
    """Group totals, per-user splits, and dual variables of one allocation."""

    group_totals: np.ndarray          # (K,) watts
    splits: np.ndarray                # (K, 2) watts
    mu: float                         # budget multiplier
    lambdas: np.ndarray               # (K, 2) min-rate multipliers
    feasible: bool = True
    budget_exhausted: bool = True
    status: str = "ok"
    steps: int = 0                    # exactly refined water levels evaluated
    sampled_steps: int = 0            # water levels evaluated on the sampled curves


@dataclass
class KKTReport:
    """Raw and normalized residuals of the first-order optimality system."""

    stationarity: np.ndarray          # (K,) raw
    stationarity_norm: np.ndarray     # (K,)
    rate_comp: np.ndarray             # (K, 2) raw |lambda * slack|
    rate_comp_norm: np.ndarray        # (K, 2)
    budget_comp: float                # raw mu * (p_max - total)
    budget_comp_norm: float
    power_excess: float               # raw watts above the budget
    rate_violation: np.ndarray        # (K, 2) raw rate shortfalls
    rate_violation_norm: np.ndarray
    negative_power: float             # raw watts below zero
    dual_negative: float              # most negative multiplier, as a positive number

    @property
    def max_normalized(self) -> float:
        return max(
            float(np.max(self.stationarity_norm, initial=0.0)),
            float(np.max(self.rate_comp_norm, initial=0.0)),
            self.budget_comp_norm,
            float(np.max(self.rate_violation_norm, initial=0.0)),
            self.dual_negative,
        )


@dataclass(frozen=True)
class SolverConfig:
    """Inputs of the pairing + allocation pipeline for one scenario."""

    p_max_w: float
    alpha: float = 0.1
    delta_max: float = 4.0
    profile: InterferenceProfile = field(default_factory=lambda: InterferenceProfile.constant(1.0))
    inter_tol_w: float | None = None     # default 1e-8 * p_max

    def __post_init__(self):
        # nan fails no comparison, so it must be caught before the range checks
        for name in ("p_max_w", "alpha", "delta_max", "inter_tol_w"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.p_max_w <= 0:
            raise ValueError(f"p_max_w must be positive, got {self.p_max_w}")
        if self.inter_tol_w is not None and self.inter_tol_w <= 0:
            raise ValueError(f"inter_tol_w must be positive, got {self.inter_tol_w}")
        if self.alpha < 0 or self.delta_max < 0:
            raise ValueError("alpha and delta_max must be nonnegative")


@dataclass
class SolveResult:
    pairing: PairingAssignment
    allocation: PowerAllocation | None
    sum_rate: float
    user_rates: dict
    feasible: bool
    stage: str | None = None  # failing stage when infeasible


class _GroupArrays:
    """Column-wise numpy views of a list of groups with fused rho dispatch.

    It iterates over its groups, so it can stand wherever a list of groups
    is taken.
    """

    def __init__(self, groups):
        self.groups = list(groups)
        if not self.groups:
            raise ValueError("need at least one group")
        self.k = len(self.groups)
        self.gain = np.array([[u.link.gain for u in g.users] for g in self.groups])
        self.noise = np.array([[u.link.noise for u in g.users] for g in self.groups])
        self.min_rate = np.array([[u.min_rate for u in g.users] for g in self.groups])
        self.pow2r = 2.0 ** self.min_rate
        # equal-split SNR in dB is 10*log10(p) plus this per-user offset
        self.snr_offset_db = 10.0 * np.log10(self.gain / (2.0 * self.noise))
        self.profiles = [g.profile for g in self.groups]
        uniq = {id(p) for p in self.profiles}
        self._fused = self.profiles[0] if len(uniq) == 1 else None
        self._pieces = None     # table pieces of these rows, built on first use
        self._piece_base = None

    def __iter__(self):
        return iter(self.groups)

    def _dispatch(self, kernel, p):
        """Kernel values on rows stacked as all first users, then all second users."""
        gain = np.concatenate([self.gain[:, 0], self.gain[:, 1]])
        noise = np.concatenate([self.noise[:, 0], self.noise[:, 1]])
        if p.ndim == 2:
            gain, noise = gain[:, None], noise[:, None]
        if self._fused is not None:
            return kernel(self._fused, p, gain, noise)
        plan = {}
        for idx, prof in enumerate(self.profiles * 2):
            plan.setdefault(id(prof), (prof, []))[1].append(idx)
        out = np.empty(p.shape)
        for prof, rows in plan.values():
            rows = np.asarray(rows)
            out[rows] = kernel(prof, p[rows], gain[rows], noise[rows])
        return out

    def _pair_eval(self, kernel, p):
        """Evaluate a rho kernel for both receivers; returns (val1, val2)."""
        p = np.asarray(p, dtype=float)
        if p.ndim == 2:
            p = np.broadcast_to(p, (self.k, p.shape[-1]))
        out = self._dispatch(kernel, np.concatenate([p, p], axis=0))
        return out[: self.k], out[self.k :]

    def rho_pair(self, p):
        return self._pair_eval(_rho_kernel, p)

    def _table_rows(self):
        """Quadratic pieces of a fused table, and each (user, group) row's lookup base."""
        if self._pieces is None:
            self._pieces = _table_pieces(self._fused, self.snr_offset_db.T)
            span = self._pieces.edges.size + 1
            self._piece_base = span * np.arange(2 * self.k).reshape(2, self.k)
        return self._pieces, self._piece_base

    def work_size(self, points: int) -> int:
        """Floats of scratch that ``_pair_rate_slope`` takes at ``points`` group powers."""
        kind = None if self._fused is None else self._fused.kind
        # two receivers; the table kind evaluates three samples per point
        lookup = {"parametric": 2 * _LOGISTIC_WORK, "table": 2 * 3 * _PIECE_WORK}.get(kind, 0)
        return (2 + lookup) * points

    def rho_and_prime_pair(self, p, work=None):
        """(rho1, rho2, rho1', rho2'), with the slopes zero at p <= 0.

        Both axis forms below take x = 10*log10(p) once per power and give
        the values at p <= 0 from ``rho_pair``. Along a group's power axis
        the logistic exponent is a + b*x, with a per receiver from its SNR
        offset, so one exp per receiver and point gives the value and the
        analytic slope (see ``_logistic_axis``). The table kind takes the
        central difference with step h = max(1e-9, 1e-4 p), its lower sample
        kept positive. Bilinear rho is a quadratic in x between the row's
        cuts (see ``_TablePieces``), so the value and both samples come from
        one search of their dBW powers in the cuts and a quadratic per point.
        Mixed-profile and constant groups use the single-link kernels.

        Given ``work``, a flat float array (``_pair_rate_slope`` sizes it by
        ``work_size``), the axis forms evaluate into it, and otherwise into
        fresh arrays. Either way the caller may overwrite the four results.
        """
        p = np.asarray(p, dtype=float)
        tiny = np.finfo(float).tiny
        safe = np.maximum(p, tiny)
        kind = None if self._fused is None else self._fused.kind
        if kind == "parametric":
            # (user, group[, 1]) offsets against the powers' own shape
            offset = self.snr_offset_db.T.reshape((2, self.k) + (1,) * (p.ndim - 1))
            out = None
            if work is not None:
                shape = (_LOGISTIC_WORK, 2, self.k) + p.shape[1:]
                out = work[: math.prod(shape)].reshape(shape)
            (r1, r2), (d1, d2) = _logistic_axis(self._fused.params, offset, safe, out)
        elif kind != "table":
            r1, r2 = self.rho_pair(p)
            d1, d2 = self._pair_eval(_rho_derivative_kernel, safe)
        else:
            h = np.maximum(1e-9, 1e-4 * safe)
            up, lo = safe + h, np.maximum(safe - h, tiny)
            x = 10.0 * np.log10(np.stack([safe, up, lo]))
            pieces, base = self._table_rows()
            # (user, 1, group[, 1]) against (sample, group or 1[, point])
            rho = _piece_rho(pieces, base.reshape((2, 1, self.k) + (1,) * (p.ndim - 1)), x, work)
            r1, r2 = rho[:, 0]
            d1, d2 = np.divide(np.subtract(rho[:, 1], rho[:, 2], out=rho[:, 1]), up - lo, out=rho[:, 1])
        if np.any(p <= 0):
            zero = p <= 0
            if kind in ("table", "parametric"):
                # the axis forms start at a positive power: the kernel gives
                # the values at and below zero, nan or not as its profile dictates
                with np.errstate(invalid="ignore"):
                    z1, z2 = self.rho_pair(p)
                r1, r2 = np.where(zero, z1, r1), np.where(zero, z2, r2)
            d1 = np.where(zero, 0.0, d1)
            d2 = np.where(zero, 0.0, d2)
        return r1, r2, d1, d2

    def rho_cols(self, p_cols):
        """rho for each user column at column-specific powers; p_cols is (K, 2)."""
        p_cols = np.asarray(p_cols, dtype=float)
        if self._fused is not None:
            return _rho_kernel(self._fused, p_cols, self.gain, self.noise)
        out = self._dispatch(_rho_kernel, np.concatenate([p_cols[:, 0], p_cols[:, 1]]))
        return np.column_stack([out[: self.k], out[self.k :]])

    def take(self, rows) -> "_GroupArrays":
        sub = object.__new__(_GroupArrays)
        sub.groups = [self.groups[i] for i in rows]
        sub.k = len(rows)
        sub.gain = self.gain[rows]
        sub.noise = self.noise[rows]
        sub.min_rate = self.min_rate[rows]
        sub.pow2r = self.pow2r[rows]
        sub.snr_offset_db = self.snr_offset_db[rows]
        sub.profiles = [self.profiles[i] for i in rows]
        sub._fused = self._fused
        sub._pieces = self._pieces
        sub._piece_base = None if self._piece_base is None else self._piece_base[:, rows]
        return sub


def _pair_rate_slope(arrs: _GroupArrays, p, eta=None, work=None):
    """Per-group d(r1 + r2)/dp in bits/s/Hz per watt, at fixed fractions.

    ``p`` may be (K,), (K, G) or (1, G); eta, the (K, 2) fractions, defaults
    to the equal split. With ``work``, a flat float array of at least
    ``arrs.work_size`` floats for the result's size, every temporary is a
    view of it, and so is the result, which the next call overwrites.
    """
    p = np.asarray(p, dtype=float)
    col = (slice(None), None) if p.ndim == 2 else slice(None)
    if eta is None:
        e1 = e2 = 0.5
    else:
        eta = np.asarray(eta, dtype=float)
        e1, e2 = eta[:, 0][col], eta[:, 1][col]
    g1, g2 = arrs.gain[:, 0][col], arrs.gain[:, 1][col]
    n1, n2 = arrs.noise[:, 0][col], arrs.noise[:, 1][col]
    shape = (2, arrs.k) + p.shape[1:]
    if work is None:
        s1, s2 = np.empty(shape)
    else:
        s1, s2 = work[: math.prod(shape)].reshape(shape)
        work = work[s1.size + s2.size :]
    rho1, rho2, rp1, rp2 = arrs.rho_and_prime_pair(p, work)
    # in place, as on the stationarity grid temporaries cost more than the
    # arithmetic, and in the operand order of d_i = rho_i e_j p g_i + n_i,
    # s_i = e_i p g_i / d_i, ds_i = e_i g_i (n_i - rp_i e_j g_i p p) / (d_i d_i)
    # and (ds1 / (1 + s1) + ds2 / (1 + s2)) / ln2, so that results round alike
    for rho, rp, s, e_i, e_j, g, n in ((rho1, rp1, s1, e1, e2, g1, n1),
                                        (rho2, rp2, s2, e2, e1, g2, n2)):
        d = np.multiply(rho, e_j, out=rho)
        d *= p
        d *= g
        d += n
        np.multiply(e_i * p, g, out=s)
        s /= d
        ds = np.multiply(rp, e_j, out=rp)
        ds *= g
        ds *= p
        ds *= p
        np.subtract(n, ds, out=ds)
        np.multiply(e_i * g, ds, out=ds)
        ds /= np.multiply(d, d, out=d)
        s += 1.0
        ds /= s
    rp1 += rp2
    rp1 /= _LN2
    return rp1


def _min_rate_fixed_points(arrs: _GroupArrays):
    """Solve both users' rate-binding group powers at the equal split by damped fixed point.

    Each step moves halfway to the target until the relative step falls
    below 1e-8; one undamped step then polishes. Returns a (K, 2) array;
    raises MinRateInfeasible when a denominator turns nonpositive and
    ConvergenceError when 200 steps do not converge.
    """
    t = arrs.pow2r - 1.0                     # (K, 2): 2^R - 1
    one_minus = 1.0 - arrs.pow2r
    active = t > 0

    def target(p, rows):
        """The rate-binding power at rho(p), checked on ``rows``."""
        denom = 0.5 + 0.5 * arrs.rho_cols(p) * one_minus
        bad = rows & (denom <= 0)
        if np.any(bad):
            k_bad, col_bad = np.argwhere(bad)[0]
            raise MinRateInfeasible(
                f"group {k_bad}, user {col_bad + 1}: minimum rate unreachable "
                f"(rate-binding denominator {denom[k_bad, col_bad]:.3e} <= 0)"
            )
        return arrs.noise * t / (arrs.gain * np.where(denom > 0, denom, 1.0))

    p = np.where(active, arrs.noise * t / (arrs.gain * 0.5), 0.0)
    live = active.copy()
    for _ in range(200):
        if not np.any(live):
            break
        new_p = np.where(live, 0.5 * p + 0.5 * target(p, live), p)
        step = np.abs(new_p - p) / np.maximum(np.abs(new_p), np.finfo(float).tiny)
        p = new_p
        live = live & (step >= 1e-8)
    else:
        bad_rows = sorted({int(r) for r, _ in np.argwhere(live)})
        raise ConvergenceError(f"rate-binding fixed point stalled in groups {bad_rows}")
    if np.any(active):
        # one undamped polish step: exact for power-independent factors and
        # contraction-accurate otherwise
        p = np.where(active, target(p, active), p)
    return p


class _WaterFiller:
    """Shared state of one group-level allocation: dense stationarity curves.

    Every evaluation of the curves, on the grid and inside its cells, works
    in one scratch block that the filler owns, sized for the grid.
    """

    def __init__(self, arrs: _GroupArrays, p_max: float, p_req: np.ndarray):
        self.arrs = arrs
        self.p_max = p_max
        self.p_req = p_req
        self.steps = 0                      # exact_totals calls
        self.sampled_steps = 0              # interp_total calls
        self.grid = np.geomspace(1e-6 * p_max, p_max, _GRID_N)
        self.work = np.empty(arrs.work_size(arrs.k * _GRID_N))
        deriv = _pair_rate_slope(arrs, self.grid[None, :], work=self.work)
        self.f_grid = deriv / _LN2          # (K, N) stationarity curve samples
        self._rows = np.arange(arrs.k)
        # the interior samples of each row's last refined bracket at each
        # level, and that bracket's tag: its cell, then cell * _SUB_N + sub-cell
        self._sub_tag = np.full((_SUB_LEVELS, arrs.k), -1)
        self._sub_f = np.empty((_SUB_LEVELS, arrs.k, _SUB_N - 1))

    def _locate(self, mu):
        """First high-to-low crossing cell of each group's sampled curve."""
        pos = self.f_grid >= mu
        trans = pos[:, :-1] > pos[:, 1:]
        first = np.argmax(trans, axis=1)
        status = np.where(trans[self._rows, first], _ROOT, np.where(pos[:, -1], _CAP, _ZERO))
        return status, first

    def floor_level(self):
        """Water level at which the first group leaves its rate floor on the sampled curves.

        The largest of the curves linearly interpolated at each group's p_req
        (the end samples where p_req lies off the grid). Above it, every group
        whose sampled curve falls monotonically sits on its floor, so the
        interpolated totals are flat there.
        """
        cells = np.clip(np.searchsorted(self.grid, self.p_req) - 1, 0, _GRID_N - 2)
        g0, g1 = self.grid[cells], self.grid[cells + 1]
        f0, f1 = self.f_grid[self._rows, cells], self.f_grid[self._rows, cells + 1]
        t = np.clip((self.p_req - g0) / (g1 - g0), 0.0, 1.0)
        return float(np.max(f0 + (f1 - f0) * t))

    def interp_total(self, mu):
        """Summed group power with roots interpolated on the sampled curves, and its mu slope.

        A root row above its rate floor moves along its crossing cell's chord,
        at (g[i+1] - g[i]) / (f[i+1] - f[i]) watts per unit of mu; rows at the
        floor, capped rows and rows without a root do not move. So the total
        is piecewise linear in mu and the slope is exact on each piece.
        """
        self.sampled_steps += 1
        status, first = self._locate(mu)
        p3 = np.where(status == _CAP, self.grid[-1], 0.0)
        rows = np.flatnonzero(status == _ROOT)
        slope = 0.0
        if rows.size:
            cells = first[rows]
            g0, g1 = self.grid[cells], self.grid[cells + 1]
            f0, f1 = self.f_grid[rows, cells], self.f_grid[rows, cells + 1]
            t = (f0 - mu) / np.maximum(f0 - f1, np.finfo(float).tiny)
            p3[rows] = g0 * (1.0 - t) + g1 * t
            moving = p3[rows] > self.p_req[rows]
            slope = float(np.sum(((g1 - g0) / (f1 - f0))[moving]))
        return float(np.maximum(self.p_req, p3).sum()), slope

    def exact_totals(self, mu):
        """Group powers with roots refined inside their sampled cells.

        Each of _SUB_LEVELS levels samples the current bracket at _SUB_N
        uniform sub-cells in one call and keeps the sub-cell that a bisection
        on those samples would pick, going left where f(mid) < mu; together
        they reach the width of twelve bisections of the grid cell. One
        secant step on the final sub-cell's end values then pins the root far
        below that width (the curve is smooth inside a cell). The curve does
        not depend on mu, so each row keeps the samples of its last bracket
        at each level, and later water levels evaluate only rows whose
        bracket changed. A root in a cell wholly at or below the group's rate
        floor is clamped to that floor anyway, so such rows are not refined.
        """
        self.steps += 1
        status, first = self._locate(mu)
        p3 = np.where(status == _CAP, self.grid[-1], 0.0)
        rows = np.flatnonzero((status == _ROOT) & (self.grid[first + 1] > self.p_req))
        if rows.size:
            tag = first[rows]
            at = np.arange(rows.size)
            # bracket points and curve values, the ends in the first and last column
            pts, f = np.empty((2, rows.size, _SUB_N + 1))
            pts[:, 0], pts[:, -1] = self.grid[tag], self.grid[tag + 1]
            f[:, 0], f[:, -1] = self.f_grid[rows, tag], self.f_grid[rows, tag + 1]
            for level in range(_SUB_LEVELS):
                a, b = pts[:, 0], pts[:, -1]
                pts[:, 1:-1] = a[:, None] + (b - a)[:, None] * _SUB_FRACS
                f[:, 1:-1] = self._samples(level, rows, tag, pts[:, 1:-1])
                # replay the bisection: the midpoint of [lo, lo + 2 step] decides,
                # going right unless f(mid) < mu
                right = ~(f < mu)
                lo = np.zeros(rows.size, dtype=int)
                step = _SUB_N // 2
                while step:
                    lo += step * right[at, lo + step]
                    step //= 2
                tag = tag * _SUB_N + lo
                pts[:, 0], pts[:, -1] = pts[at, lo], pts[at, lo + 1]
                f[:, 0], f[:, -1] = f[at, lo], f[at, lo + 1]
            a, b = pts[:, 0], pts[:, -1]
            fa, fb = f[:, 0] - mu, f[:, -1] - mu
            spread = fa - fb
            t = np.where(spread > 0, fa / np.maximum(spread, np.finfo(float).tiny), 0.5)
            p3[rows] = a + (b - a) * np.minimum(np.maximum(t, 0.0), 1.0)
        return np.maximum(self.p_req, p3), status

    def _samples(self, level, rows, tag, pts):
        """Stationarity curve at the interior points ``pts`` of each row's tagged bracket."""
        miss = np.flatnonzero(self._sub_tag[level, rows] != tag)
        if miss.size:
            stale = rows[miss]
            deriv = _pair_rate_slope(self.arrs.take(stale), pts[miss], work=self.work)
            self._sub_f[level, stale] = deriv / _LN2
            self._sub_tag[level, stale] = tag[miss]
        return self._sub_f[level, rows]


def inter_group_allocate(groups, p_max: float, tol: float | None = None) -> PowerAllocation:
    """Split the budget across groups by a search on the water level.

    Every group power is the largest of its two rate-binding fixed points
    and the stationary point at the current multiplier, all under an equal
    intra-pair split. Infeasibility (minimum rates unreachable, or their
    power demand exceeding the budget) is reported on the returned
    allocation rather than raised. When the totals jump across the budget,
    the allocation stops at the water level just below the jump, with
    status "budget not exhausted within tolerance". ``tol`` (default
    1e-8 p_max) is how far from the budget the totals may stop, and must be
    positive. ``sampled_steps`` on the result counts the evaluations on the
    sampled curves, ``steps`` the exactly refined ones. ``groups`` may also
    be the groups' ``_GroupArrays``, which ``solve`` reuses for the pair stage.
    """
    arrs = groups if isinstance(groups, _GroupArrays) else _GroupArrays(groups)
    if p_max <= 0:
        raise ValueError(f"p_max must be positive, got {p_max}")
    tol = 1e-8 * p_max if tol is None else float(tol)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    k = arrs.k

    def failure(status: str, wf: _WaterFiller | None = None) -> PowerAllocation:
        return PowerAllocation(
            group_totals=np.zeros(k),
            splits=np.zeros((k, 2)),
            mu=float("nan"),
            lambdas=np.zeros((k, 2)),
            feasible=False,
            budget_exhausted=False,
            status=status,
            steps=0 if wf is None else wf.steps,
            sampled_steps=0 if wf is None else wf.sampled_steps,
        )

    try:
        binding = _min_rate_fixed_points(arrs)
    except MinRateInfeasible as exc:
        return failure(f"min-rate infeasible: {exc}")
    p_req = binding.max(axis=1)
    if p_req.sum() > p_max * (1.0 + 1e-12):
        return failure(
            f"min-rate power demand {p_req.sum():.6g} W exceeds budget {p_max:.6g} W"
        )

    wf = _WaterFiller(arrs, p_max, p_req)

    if wf.interp_total(0.0)[0] <= p_max - tol:
        p_k0, status0 = wf.exact_totals(0.0)
        if p_k0.sum() <= p_max - tol:
            # even a zero water level cannot spend the budget: rates saturate
            lam = _recover_lambdas(arrs, p_k0, p_req, 0.0, binding)
            return PowerAllocation(
                group_totals=p_k0,
                splits=np.column_stack([p_k0 / 2.0, p_k0 / 2.0]),
                mu=0.0,
                lambdas=lam,
                feasible=True,
                budget_exhausted=False,
                status="budget slack at zero water level",
                steps=wf.steps,
                sampled_steps=wf.sampled_steps,
            )

    # upper bracket from the derivative at a vanishing power, doubled to hold
    d_small = _pair_rate_slope(arrs, np.full(k, p_max / k * 1e-3))
    mu_hi = max(float(np.max(d_small / _LN2)), 1e-12)
    for _ in range(200):
        if wf.interp_total(mu_hi)[0] <= p_max:
            break
        mu_hi *= 2.0
    else:
        return failure("could not bracket the water level", wf)

    # phase 1: bracketed Newton steps on the interpolated curves. The totals
    # are linear in mu on each piece and behave like a / mu - b across
    # pieces, so a step is taken in w = 1 / mu, where they are nearly
    # linear, or in mu once it is shorter than 1e-3 mu. A step that leaves
    # the bracket, or a flat total, bisects instead: in log mu while the
    # bracket spans more than a factor of two, in mu after that, so that a
    # jump of the totals across the budget ends between the same two
    # neighbouring floats as plain bisection would, and stops there. The
    # search starts where the first group leaves its rate floor; above that
    # level the totals are flat.
    mu_lo = 0.0
    mu = min(mu_hi, wf.floor_level())
    if not mu > 0:      # curves at or below zero at every floor: keep inside the bracket
        mu = 0.5 * mu_hi
    for _ in range(80):
        total, slope = wf.interp_total(mu)
        if abs(total - p_max) < 0.5 * tol:
            break
        if total > p_max:
            mu_lo = mu
        else:
            mu_hi = mu
        if math.nextafter(mu_lo, math.inf) >= mu_hi:
            # neighbouring floats: later steps would only park on the midpoint
            mu = 0.5 * (mu_lo + mu_hi)
            break
        step = (p_max - total) / slope if slope < 0 else np.inf
        if abs(step) < 1e-3 * mu:
            mu_next = mu + step
        else:
            mu_next = mu * mu / (mu - step) if step < mu else -1.0   # 1 / (1/mu - step/mu**2)
        if mu_lo < mu_next < mu_hi:
            mu = mu_next
        else:
            mu = math.sqrt(mu_lo * mu_hi) if 0 < 2.0 * mu_lo < mu_hi else 0.5 * (mu_lo + mu_hi)

    # phase 2: secant polish with exactly-refined roots, bisection-guarded.
    # The first step takes its slope from the interpolated curves: a virtual
    # previous point on that tangent turns the secant into a Newton step.
    b_lo, b_hi = 0.0, None  # totals(b_lo) > p_max >= totals(b_hi)
    h = 1e-6 * mu
    slope = (wf.interp_total(mu + h)[0] - wf.interp_total(mu - h)[0]) / (2.0 * h)
    p_k, status = wf.exact_totals(mu)
    prev = (mu + h, p_k.sum() + slope * h) if slope < 0 else None
    best = None  # the under-budget evaluation with the largest total
    for _ in range(40):
        total = p_k.sum()
        if abs(total - p_max) < tol:
            break
        if total > p_max:
            b_lo = mu
        else:
            b_hi = mu
            if best is None or total > best[1].sum():
                best = (mu, p_k, status)
        # a continuous crossing comes within tol long before the bracket is
        # this narrow, so the totals jump across the budget inside it
        if b_hi is not None and b_hi - b_lo <= 1e-9 * b_hi:
            break
        if prev is not None and abs(total - prev[1]) > 0:
            mu_next = mu - (total - p_max) * (mu - prev[0]) / (total - prev[1])
        else:
            mu_next = None
        in_bracket = (
            mu_next is not None
            and mu_next > b_lo
            and (b_hi is None or mu_next < b_hi)
        )
        prev = (mu, total)
        if in_bracket:
            mu = mu_next
        elif b_hi is None:
            mu = max(2.0 * mu, 1e-12)
        else:
            mu = 0.5 * (b_lo + b_hi)
        p_k, status = wf.exact_totals(mu)
    exhausted = abs(p_k.sum() - p_max) < max(tol, 1e-9 * p_max)
    if not exhausted:
        # a budget jump or the step cap: fall back to the best point that
        # stays within the budget, never to one above it
        if best is None:
            return failure("could not bracket the water level", wf)
        mu, p_k, status = best
    # the stop test accepts totals up to tol above the budget; take that
    # excess from the power above the rate floors so "ok" never overspends
    above = p_k - p_req
    excess = p_k.sum() - p_max
    if exhausted and 0 < excess < above.sum():
        p_k = p_req + above * (1.0 - excess / above.sum())

    # groups capped at the bracket top pin the multiplier to their own
    # derivative (single-group full-budget case)
    stationary_active = p_k > p_req * (1.0 + 1e-12)
    capped = stationary_active & (status == _CAP)
    if np.any(capped) and not np.any(stationary_active & (status == _ROOT)):
        d_cap = _pair_rate_slope(arrs, p_k)
        mu = float(np.min((d_cap / _LN2)[capped]))

    lam = _recover_lambdas(arrs, p_k, p_req, mu, binding)
    return PowerAllocation(
        group_totals=p_k,
        splits=np.column_stack([p_k / 2.0, p_k / 2.0]),
        mu=float(mu),
        lambdas=lam,
        feasible=True,
        budget_exhausted=bool(exhausted),
        status="ok" if exhausted else "budget not exhausted within tolerance",
        steps=wf.steps,
        sampled_steps=wf.sampled_steps,
    )


def _rate_coeff(arrs: _GroupArrays, p_k, eta, p_other):
    """Per-user multiplier coefficients of the stationarity row, and rho per user column."""
    r1, r2, rp1, rp2 = arrs.rho_and_prime_pair(p_k)
    rho_cols = np.column_stack([r1, r2])
    rhop_cols = np.column_stack([rp1, rp2])
    coeff = arrs.gain * ((1.0 - arrs.pow2r) * (eta[:, ::-1] * rho_cols + rhop_cols * p_other) + eta)
    return coeff, rho_cols


def _recover_lambdas(arrs: _GroupArrays, p_k, p_req, mu: float, binding) -> np.ndarray:
    """Min-rate multipliers from active-constraint detection.

    Where the group sits on its rate-binding floor, the binding user's
    multiplier is solved from the stationarity row (the other is zero);
    elsewhere both are zero.
    """
    lam = np.zeros((arrs.k, 2))
    at_floor = (p_k <= p_req * (1.0 + 1e-9)) & (p_req > 0)
    if not np.any(at_floor):
        return lam
    which = np.argmax(binding, axis=1)
    eq21 = _pair_rate_slope(arrs, p_k) / _LN2
    half = np.full((arrs.k, 2), 0.5)
    coeff, _ = _rate_coeff(arrs, p_k, half, half * p_k[:, None])
    for row in np.flatnonzero(at_floor):
        col = which[row]
        a = coeff[row, col]
        if a > 0:
            lam[row, col] = max(0.0, (mu - eq21[row]) / a)
    return lam


def intra_group_allocate(group: Group, p_k: float, tol: float, interval=None):
    """Best intra-pair split of a fixed group power.

    Maximizes the pair sum rate over the first user's share with the
    interference factors frozen at the group total. The split is exact: the
    best of the interval's ends and the stationary points inside it, which
    solve a quadratic (see ``_intra_split_vec``). ``tol`` must be positive
    but no longer sets a width. The default interval is the full [0, p_k];
    callers may restrict it.
    """
    if p_k <= 0:
        raise ValueError(f"p_k must be positive, got {p_k}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = (0.0, p_k) if interval is None else (float(interval[0]), float(interval[1]))
    if not (0.0 <= lo <= hi <= p_k * (1 + 1e-12)):
        raise ValueError(f"invalid split interval {interval} for p_k={p_k}")
    arrs = _GroupArrays([group])
    p_k = np.array([p_k])
    rho1, rho2 = arrs.rho_pair(p_k)
    p1 = _intra_split_vec(arrs, p_k, np.array([lo]), np.array([hi]), rho1, rho2)[0]
    return float(p1), float(p_k[0] - p1)


def _intra_objective(arrs: _GroupArrays, p_k, rho1, rho2, p1):
    """Pair sum rate at first-user powers ``p1`` of shape (K,) or (K, S)."""
    col = (slice(None),) + (None,) * (np.ndim(p1) - 1)
    p_k, rho1, rho2 = p_k[col], rho1[col], rho2[col]
    p2 = p_k - p1
    g1, g2 = arrs.gain[:, 0][col], arrs.gain[:, 1][col]
    n1, n2 = arrs.noise[:, 0][col], arrs.noise[:, 1][col]
    s1 = p1 * g1 / (rho1 * p2 * g1 + n1)
    s2 = p2 * g2 / (rho2 * p1 * g2 + n2)
    return np.log2(1.0 + s1) + np.log2(1.0 + s2)


def _split_terms(arrs: _GroupArrays, p_k, rho1, rho2):
    """Terms of the frozen-rho pair rate J in the share q = p1/p_k, per unit noise.

    With s_i = g_i p_k / n_i, u_i = (1 - rho_i) s_i, v_i = rho_i s_i and
    d_i = 1 + v_i, J = log2(A1/B1) + log2(A2/B2) with A1 = d1 + u1 q,
    B1 = d1 - v1 q, A2 = 1 + s2 - u2 q and B2 = 1 + v2 q, so that
    ln2 dJ/dq = s1 d1/(A1 B1) - s2 d2/(A2 B2). Returns (s1, s2, u1, v1, u2, v2).
    """
    s1 = arrs.gain[:, 0] * p_k / arrs.noise[:, 0]
    s2 = arrs.gain[:, 1] * p_k / arrs.noise[:, 1]
    return s1, s2, (1.0 - rho1) * s1, rho1 * s1, (1.0 - rho2) * s2, rho2 * s2


def _intra_split_vec(arrs: _GroupArrays, p_k, lo, hi, rho1, rho2):
    """Exact maximizer of the frozen-rho pair rate over p1 in [lo, hi], per group.

    A_i B_i > 0 on [0, 1], so dJ/dq has the sign of s1 d1 A2 B2 - s2 d2 A1 B1
    (see ``_split_terms``), a quadratic in q. The best of lo, hi and its real
    roots inside [lo, hi] is the global maximum, concave objective or not.
    Ties keep a root, then hi, then lo.
    """
    s1, s2, u1, v1, u2, v2 = _split_terms(arrs, p_k, rho1, rho2)
    d1 = 1.0 + v1
    w1, w2 = s1 * d1, s2 * (1.0 + v2)
    a = w2 * u1 * v1 - w1 * u2 * v2
    b = w1 * ((1.0 + s2) * v2 - u2) - w2 * d1 * (u1 - v1)
    c = w1 * (1.0 + s2) - w2 * d1 * d1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the stable pair of roots; a == 0 leaves the linear root in c / t
        t = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        roots = np.stack([t / a, c / t], axis=1) * p_k[:, None]
    # fmax/fmin send the nan of a negative discriminant or of 0/0 to lo
    cand = np.column_stack([np.fmin(np.fmax(roots, lo[:, None]), hi[:, None]), hi, lo])
    j = _intra_objective(arrs, p_k, rho1, rho2, cand)
    if logger.isEnabledFor(logging.DEBUG):
        # the pair objective can lose concavity in interference-limited regimes
        j_mid = _intra_objective(arrs, p_k, rho1, rho2, 0.5 * (lo + hi))
        non_concave = j_mid < 0.5 * (j[:, 3] + j[:, 2]) - 1e-12 * np.maximum(1.0, np.abs(j_mid))
        if np.any(non_concave):
            logger.debug("intra-group objective not midpoint-concave for %d group(s)",
                         int(np.sum(non_concave)))
    return cand[np.arange(cand.shape[0]), np.argmax(j, axis=1)]


def split_residuals(groups, alloc: PowerAllocation) -> np.ndarray:
    """Normalized first-order residual of each group's returned intra-pair split.

    The residual is |dJ/dp1| * p_k / max(J, 1), with rho frozen at the group
    total and J the pair sum rate; at the lower end of the min-rate split
    interval only a positive slope counts, at its upper end only a negative
    one. Groups at zero power have residual zero.
    """
    arrs = _GroupArrays(groups)
    p_k, p1 = np.asarray(alloc.group_totals, dtype=float), np.asarray(alloc.splits, dtype=float)[:, 0]
    out = np.zeros(arrs.k)
    rows = np.flatnonzero(p_k > 0)
    if rows.size:
        sub, p_k, p1 = arrs.take(rows), p_k[rows], p1[rows]
        rho1, rho2 = sub.rho_pair(p_k)
        lo, hi = _min_rate_split_interval(sub, p_k, rho1, rho2)
        s1, s2, u1, v1, u2, v2 = _split_terms(sub, p_k, rho1, rho2)
        d1, d2, q = 1.0 + v1, 1.0 + v2, p1 / p_k
        slope = (s1 * d1 / ((d1 + u1 * q) * (d1 - v1 * q))
                 - s2 * d2 / ((1.0 + s2 - u2 * q) * (1.0 + v2 * q))) / _LN2
        res = np.where(p1 < hi, np.maximum(slope, 0.0), 0.0) + np.where(p1 > lo, np.maximum(-slope, 0.0), 0.0)
        out[rows] = res / np.maximum(_intra_objective(sub, p_k, rho1, rho2, p1), 1.0)
    return out


def kkt_residuals(groups, alloc: PowerAllocation, p_max: float) -> KKTReport:
    """First-order optimality residuals of an allocation with its duals.

    Raw residuals keep physical units (watts, rate); normalized ones are
    scaled by the natural magnitude of each condition. Groups at exactly
    zero power bind the nonnegativity constraint, whose multiplier is not
    modeled; their stationarity residual reflects that boundary honestly.
    """
    arrs = _GroupArrays(groups)
    p_k = np.asarray(alloc.group_totals, dtype=float)
    splits = np.asarray(alloc.splits, dtype=float)
    lam = np.asarray(alloc.lambdas, dtype=float)
    mu = float(alloc.mu)
    eta = np.where(p_k[:, None] > 0, splits / np.maximum(p_k, np.finfo(float).tiny)[:, None], 0.5)

    eq21 = _pair_rate_slope(arrs, p_k, eta=eta) / _LN2
    p_other = splits[:, ::-1]
    coeff, rho_cols = _rate_coeff(arrs, p_k, eta, p_other)
    stationarity = np.abs(eq21 + (lam * coeff).sum(axis=1) - mu)
    stat_norm = stationarity / np.maximum(
        np.maximum(np.abs(eq21), abs(mu)), 1e-12
    )

    # rate-constraint slack in the linearized form used by the multiplier system
    interference = rho_cols * p_other * arrs.gain
    slack = (splits * arrs.gain + interference + arrs.noise) - arrs.pow2r * (interference + arrs.noise)
    rate_comp = np.abs(lam * slack)
    scale = arrs.pow2r * (interference + arrs.noise)
    rate_comp_norm = np.where(lam > 0, np.abs(slack) / scale, 0.0)

    total = float(p_k.sum())
    budget_comp = abs(mu * (p_max - total))
    budget_comp_norm = abs(p_max - total) / p_max if mu > 0 else 0.0
    power_excess = max(0.0, total - p_max)

    sinr = splits * arrs.gain / (interference + arrs.noise)
    rates = np.log2(1.0 + sinr)
    rate_violation = np.maximum(0.0, arrs.min_rate - rates)
    rate_violation_norm = rate_violation / np.maximum(arrs.min_rate, 1.0)

    negative_power = max(0.0, float(-np.min(splits, initial=0.0)))
    dual_negative = max(0.0, -mu, float(-np.min(lam, initial=0.0)))

    return KKTReport(
        stationarity=stationarity,
        stationarity_norm=stat_norm,
        rate_comp=rate_comp,
        rate_comp_norm=rate_comp_norm,
        budget_comp=budget_comp,
        budget_comp_norm=budget_comp_norm,
        power_excess=power_excess,
        rate_violation=rate_violation,
        rate_violation_norm=rate_violation_norm,
        negative_power=negative_power,
        dual_negative=dual_negative,
    )


def _min_rate_split_interval(arrs: _GroupArrays, p_k, rho1, rho2):
    """Feasible range of the first user's share keeping both min rates."""
    t = arrs.pow2r - 1.0
    g1, g2 = arrs.gain[:, 0], arrs.gain[:, 1]
    n1, n2 = arrs.noise[:, 0], arrs.noise[:, 1]
    lo = t[:, 0] * (rho1 * p_k * g1 + n1) / (g1 * (1.0 + t[:, 0] * rho1))
    p2_min = t[:, 1] * (rho2 * p_k * g2 + n2) / (g2 * (1.0 + t[:, 1] * rho2))
    hi = p_k - p2_min
    lo = np.minimum(np.maximum(lo, 0.0), p_k)
    hi = np.minimum(np.maximum(hi, 0.0), p_k)
    bad = lo > hi
    if np.any(bad):
        # numerically empty interval: fall back to the equal split
        lo = np.where(bad, p_k / 2.0, lo)
        hi = np.where(bad, p_k / 2.0, hi)
    return lo, hi


def solve(users, config: SolverConfig) -> SolveResult:
    """Pairing followed by group-level and pair-level power allocation.

    Users are matched under fixed equal-split powers, the budget is spread
    across the resulting groups, and each group's split is then reoptimized
    within its min-rate-feasible range. Returns
    the realized system sum rate; infeasibility carries the failing stage.
    """
    users = list(users)
    if len(users) < 2 or len(users) % 2 != 0:
        raise ValueError(f"user count must be even and >= 2, got {len(users)}")
    per_user_power = config.p_max_w / len(users)
    assignment = pair_users(users, per_user_power, config.profile, config.alpha, config.delta_max)

    def result(stage, alloc=None, user_rates=None, sum_rate=float("nan")):
        return SolveResult(pairing=assignment, allocation=alloc, sum_rate=sum_rate,
                           user_rates=user_rates or {}, feasible=stage is None, stage=stage)

    if not assignment.feasible:
        return result("pairing")
    by_id = {u.id: u for u in users}
    arrs = _GroupArrays(Group(users=(by_id[a], by_id[b]), profile=config.profile)
                        for a, b in assignment.pairs)
    alloc = inter_group_allocate(arrs, config.p_max_w, tol=config.inter_tol_w)
    if not alloc.feasible:
        return result("power", alloc)

    p_k = alloc.group_totals
    # one lookup serves the split interval, the split and the rates
    rho1, rho2 = arrs.rho_pair(p_k)
    p1 = np.zeros_like(p_k)
    rows = np.flatnonzero(p_k > 0)
    if rows.size:
        sub, r1, r2 = arrs.take(rows), rho1[rows], rho2[rows]
        lo, hi = _min_rate_split_interval(sub, p_k[rows], r1, r2)
        p1[rows] = _intra_split_vec(sub, p_k[rows], lo, hi, r1, r2)
    splits = np.column_stack([p1, p_k - p1])
    alloc.splits = splits

    g, n = arrs.gain, arrs.noise
    rates = np.column_stack([
        np.log2(1.0 + splits[:, 0] * g[:, 0] / (rho1 * splits[:, 1] * g[:, 0] + n[:, 0])),
        np.log2(1.0 + splits[:, 1] * g[:, 1] / (rho2 * splits[:, 0] * g[:, 1] + n[:, 1])),
    ])
    user_rates = {}
    for (a, b), r in zip(assignment.pairs, rates):
        user_rates[a] = float(r[0])
        user_rates[b] = float(r[1])
    if np.any(arrs.min_rate - rates > 1e-6):
        return result("power", alloc, user_rates)
    return result(None, alloc, user_rates, float(rates.sum()))
