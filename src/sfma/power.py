"""Group power allocation: budget split across pairs, then within each pair.

The group-level stage water-fills the budget multiplier mu. For each mu and
each group it evaluates three candidate group powers under an equal
intra-pair split: the two users' rate floors, the least powers within the
budget that meet their minimum rates, and the root of the rate-derivative
stationarity condition; the group keeps the largest and mu is driven until
the totals meet the budget. The pair-level stage then reoptimizes each group's
internal split with the interference factors frozen at the group total,
where the rate's stationarity condition is a quadratic in the split, so the
best of its roots and the interval ends is exact. One residual report
checks the group stage's first-order optimality system at the equal split,
another each group's split.

Internals are vectorized across groups. The stationarity curve of every
group is sampled once on a dense log grid, and a group's root at mu lies
where its running minimum first falls below mu. One bracketed Newton search
on mu (``_WaterFiller.search``) runs twice: first on the summed group power
with roots interpolated on those samples, then on the sum with roots
refined exactly inside their cells, from where the first stopped. Both sums
are piecewise linear in mu, with a slope each evaluation gives exactly: a
root moves along the chord of its sampled cell, or of its final refined
sub-cell. The steps are taken in 1/mu, where the sum is nearly linear. The
first search starts where every group, at an equal share p_max/K, sits on
its sampled curve (the median over groups), and the bracket's top lies
just above every sample, where each group sits at its rate floor. The sums
jump only at levels where a curve's running minimum is flat, between such a
level and its next float; once the bracket is narrower than 1e-3 relative,
a step that leaves it probes such a level on both floats instead of halving
down to them. An exact evaluation refines each root inside its grid cell by
two levels of 64 uniform sub-cells, whose 63 interior points are sampled in
one call, and keeps the sub-cell that a bisection on the samples would
pick; a secant step on the last sub-cell ends it. A bracket is four vectors
over the refined groups: its two ends and their curve values. The curve
does not depend on mu, so each group keeps the interior samples of its last
bracket at each level, in a (level, group, sample) array tagged by the
bracket's cell and sub-cell, and later water levels refine again only the
groups whose tag changed; only those groups' points are computed, and they
are evaluated by index. The bisection replays on flat indices into the
interior samples, as no midpoint it reads is an end of the bracket. The
grid depends on the budget alone, so it is built once per budget and shared
read-only. Each allocation owns one scratch block sized for the grid: every
evaluation of the curves, on the grid and inside its cells, keeps its
temporaries there, so they are neither allocated nor faulted in per call.
A drop's arrays hold 15 to 60 rows, so the per-call cost of numpy sets the
time: the solve path calls ufuncs and ndarray methods, not numpy's
Python-level wrappers of them (np.any, np.sum, np.clip, np.searchsorted,
np.stack). Where the exact sum jumps across the budget at one water level,
the search narrows its bracket to two neighbouring floats and returns the
upper one, the float just above the jump, below the budget; a step cap
returns the bracket's top too. A feasible allocation therefore never sums
above the budget, and one that cannot spend it to within the tolerance
says so in its status.

The groups of one allocation share one rho profile; constant profiles may
differ, one value per group. Along one group's power axis a receiver's
equal-split SNR in dB is x = 10*log10(p) plus a constant, so each
receiver's rho is a function of x, and one power-axis lookup of the
profile (``semantic_rate._RhoAxis``), built once per set of groups on
first use, gives rho and its analytic slope together to every stage: the
stationarity curves, the rate floors' Newton steps, the multipliers and the
pair split. The slope is taken in ln p, s = p d(rho)/dp, which both kinds
give without a division and which the rate slope and the floors' Newton
steps use as it is; the multipliers divide it by p. On a logistic profile
the exponent is affine in x, so one log10 per power and one exp per
receiver and power give both. On a table profile, both table coordinates
move with x, so bilinear rho is a quadratic in x between the receiver's
cuts, where x crosses a power node or the equal-split SNR crosses an SNR
node; the slope is the piece's own, from the right at a cut. The rate
slope of a group is one formula in rho and s per receiver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .pairing import PairingAssignment, pair_users
from .semantic_rate import _TINY, InterferenceProfile, _one_profile, _RhoAxis

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

_LN2 = float(np.log(2.0))
_GRID_N = 1024                     # stationarity-curve samples per group
_GRID_LOW = 1e-6                   # the grid runs geometrically from _GRID_LOW * p_max to p_max
# a refined root samples _SUB_N sub-cells at each of _SUB_LEVELS levels:
# 64**2 = 2**12, the width twelve bisections of a grid cell reach
_SUB_N = 64
_SUB_LEVELS = 2
_SUB_FRACS = np.arange(_SUB_N) / _SUB_N        # the sub-cells' lower ends in a bracket
# two final sub-cells, relative to the power: how far a refined root may sit
# from where its curve crosses the water level
_KKT_DELTA = 2.0 * (_GRID_LOW ** (-1.0 / (_GRID_N - 1)) - 1.0) / _SUB_N ** _SUB_LEVELS
# the rate floors bracket their roots on this many powers, geometric from p0 to p_max
_FLOOR_AXIS_N = 64
_FLOOR_FRACS = np.linspace(0.0, 1.0, _FLOOR_AXIS_N)


@functools.lru_cache(maxsize=8)
def _grid(p_max: float) -> np.ndarray:
    """The stationarity grid of a budget, geometric from _GRID_LOW * p_max to p_max; read-only.

    Every drop of a sweep cell has the same budget, so it is built once.
    """
    grid = np.geomspace(_GRID_LOW * p_max, p_max, _GRID_N)
    grid.flags.writeable = False
    return grid


# stationary-point resolution markers
_ROOT, _ZERO, _CAP = 0, 1, 2


class MinRateInfeasible(RuntimeError):
    """A minimum-rate constraint cannot be met at any power within the budget."""


class ConvergenceError(RuntimeError):
    """An iterative stage failed to converge; indicates a pathological input."""


@dataclass(frozen=True)
class Group:
    """Two paired users sharing one resource block.

    The group-level stage works at the equal intra-pair split; the
    pair-level stage then chooses each group's split. The groups of one
    allocation share one profile, or hold constant profiles; any other mix
    is a ValueError.
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
    """Residuals of the group stage's first-order optimality system, normalized but for the excess."""

    stationarity_norm: np.ndarray     # (K,)
    rate_comp_norm: np.ndarray        # (K, 2)
    budget_comp_norm: float
    power_excess: float               # watts above the budget
    rate_violation_norm: np.ndarray   # (K, 2)
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

    def __post_init__(self):
        # nan fails no comparison, so it must be caught before the range checks
        for name in ("p_max_w", "alpha", "delta_max"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.p_max_w <= 0:
            raise ValueError(f"p_max_w must be positive, got {self.p_max_w}")
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
    """Column-wise numpy views of a list of groups, and their rho lookup.

    The groups of one allocation share one rho profile: profiles equal in
    kind and values are one, and constant profiles may differ, each group
    keeping its own value. Any other mix raises ValueError here, before any
    work. It iterates over its groups, so it can stand wherever a list of
    groups is taken.
    """

    def __init__(self, groups):
        self.groups = list(groups)
        if not self.groups:
            raise ValueError("need at least one group")
        self.k = len(self.groups)
        self.gain = np.array([[u.link.gain for u in g.users] for g in self.groups])
        self.noise = np.array([[u.link.noise for u in g.users] for g in self.groups])
        self.gain_u, self.noise_u = self.gain.T, self.noise.T     # (2, K), users first
        self.min_rate = np.array([[u.min_rate for u in g.users] for g in self.groups])
        self.pow2r = 2.0 ** self.min_rate
        self._profile, self._rho_value = _one_profile(g.profile for g in self.groups)
        self._axis = None       # the rho lookup of these rows, built on first use

    def __iter__(self):
        return iter(self.groups)

    def rho_axis(self):
        """The power-axis rho lookup of every (user, group) row, rows (2, K, 1)."""
        if self._axis is None:
            rows = (2, self.k, 1)
            value = None if self._rho_value is None else self._rho_value[:, None]
            self._axis = _RhoAxis(self._profile, self.gain_u.reshape(rows), self.noise_u.reshape(rows), value)
        return self._axis

    def work_size(self, points: int) -> int:
        """Floats of scratch that ``_pair_rate_slope`` takes at ``points`` group powers."""
        # the rate terms of both receivers, and each receiver's lookup scratch
        return (2 + 2 * self.rho_axis().work) * points

    def rho_and_slope(self, p, work=None, rows=None):
        """rho and its slope in ln p, p d(rho)/dp, of every (user, group) row from the rho lookup.

        ``p`` broadcasts against (2, K[, G]), users first: ``p[None]`` puts
        both receivers of a group at its power, ``p_cols.T`` each user at
        its own. ``rows``, group indices, looks up only those groups, and
        ``p`` then broadcasts against (2, rows.size[, G]). Given ``work``
        (``_pair_rate_slope`` sizes it by ``work_size``), the lookup
        evaluates into it. Either way the caller may overwrite both results.
        """
        p = np.asarray(p, dtype=float)
        if p.ndim == 3:
            return self.rho_axis()(p, work, rows)
        rho, slope = self.rho_axis()(p[..., None], work, rows)
        return rho[..., 0], slope[..., 0]


def _pair_rate_slope(arrs: _GroupArrays, p, work=None, rows=None):
    """Per-group d(r1 + r2)/dp in bits/s/Hz per watt, at the equal split.

    ``p`` may be (K,), (K, G) or (1, G). ``rows``, group indices, evaluates
    only those groups, with ``p`` then (R,), (R, G) or (1, G) for R rows;
    each result row is bit for bit the full evaluation's. With ``work``, a
    flat float array of at least ``arrs.work_size`` floats for the result's
    size, every temporary is a view of it, and so is the result, which the
    next call overwrites.

    Per receiver i, with s_i = p d(rho_i)/dp, a_i = g_i p / 2 and
    d_i = rho_i a_i + n_i, the rate's slope times ln2 is
    g_i (n_i - a_i s_i) / (2 d_i (d_i + a_i)).
    """
    p = np.asarray(p, dtype=float)
    # both receivers in one pass: every operand is (2, K[, 1]), users first
    col = (Ellipsis, None) if p.ndim == 2 else Ellipsis
    g, n = arrs.gain_u, arrs.noise_u
    if rows is not None:
        g, n = g[:, rows], n[:, rows]
    half_g, n = 0.5 * g[col], n[col]
    shape = (2, g.shape[1]) + p.shape[1:]
    if work is None:
        a = np.empty(shape)
    else:
        a = work[: math.prod(shape)].reshape(shape)
        work = work[a.size :]
    rho, num = arrs.rho_and_slope(p[None], work, rows)
    # in place, as on the stationarity grid temporaries cost more than the arithmetic
    np.multiply(half_g, p, out=a)
    d = np.multiply(rho, a, out=rho)
    d += n
    num *= a
    np.subtract(n, num, out=num)
    num *= half_g
    a += d
    a *= d
    num /= a
    out = np.add(num[0], num[1], out=num[0])
    out /= _LN2
    return out


def _rate_floors(arrs: _GroupArrays, p_max: float):
    """Both users' rate floors at the equal split, the least group powers up to ``p_max``.

    A user's rate meets its minimum R where h(p) = p den(p) - c >= 0, with
    c = n t / g, t = 2^R - 1 and den = (1 - t rho(p)) / 2; no floor lies
    below p0 = 2 c, where h = -c t rho <= 0. One lookup on a geometric axis
    from p0 to p_max brackets each row's first crossing (a first sample at
    p0, where rho = 0, is its own floor even past p_max, for the demand
    check to report). Newton steps on h, with h' = den + p den' = den - t s / 2
    for the lookup's slope s = p rho' in ln p, start at the bracket's secant
    point and bisect where they leave the closed bracket; each evaluated
    power becomes a bracket end, so a step away from the crossing leaves it.
    Once no step moves 1e-14 relative, c / den there is the floor. Returns a (K, 2) array. Raises MinRateInfeasible when no
    sample up to p_max meets a rate, and ConvergenceError after 100 steps.

    Where rho rises with power the rate may be met only below some power;
    the water-filling still takes [floor, inf), and ``solve``'s final rate
    check reports a group pushed past it at stage "power".
    """
    # the lookup's (user, group) layout
    t = arrs.pow2r.T - 1.0
    active = t > 0
    c = arrs.noise_u * t / arrs.gain_u
    k = -0.5 * t

    def at(p):
        """h, h' and den at the powers p, (2, K[, G])."""
        col = (Ellipsis,) + (None,) * (p.ndim - 2)
        den, h_slope = arrs.rho_and_slope(p)
        den *= k[col]
        den += 0.5
        h_slope *= k[col]
        h_slope += den
        return p * den - c[col], h_slope, den

    # a row without a minimum rate has den = 1/2 and its floor at zero; any
    # positive power keeps it off the lookup's zero-power path
    p0 = np.where(active, 2.0 * c, 1.0)
    axis = p0[..., None] * np.exp(np.log(p_max / p0)[..., None] * _FLOOR_FRACS)
    axis[..., -1] = p_max
    h_axis, _, _ = at(axis)
    met = h_axis >= 0
    missed = active & ~met.any(axis=-1)
    if missed.any():
        user, row = np.argwhere(missed)[0]
        raise MinRateInfeasible(
            f"group {row}, user {user + 1}: minimum rate not met by any power "
            f"within the budget {p_max:.6g} W"
        )
    first = met.argmax(axis=-1)
    at_hi = first + _FLOOR_AXIS_N * np.arange(first.size).reshape(first.shape)
    at_lo = at_hi - (first > 0)
    lo, hi, h_lo, h_hi = axis.take(at_lo), axis.take(at_hi), h_axis.take(at_lo), h_axis.take(at_hi)
    # where the first sample meets the rate, lo = hi and the secant point is hi
    p = hi - h_hi * (hi - lo) / np.maximum(h_hi - h_lo, _TINY)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            h, h_slope, den = at(p)
            met = h >= 0
            hi, lo = np.where(met, p, hi), np.where(met, lo, p)
            # a flat or falling h gives a step outside the bracket, or nan
            q = p - h / h_slope
            q = np.where((lo <= q) & (q <= hi), q, 0.5 * (lo + hi))
            moving = np.abs(q - p) >= 1e-14 * q
            if not moving.any():
                return np.where(active, c / den, 0.0).T
            p = q
    bad_rows = sorted({int(r) for r in np.flatnonzero(moving.any(axis=0))})
    raise ConvergenceError(f"rate floor stalled in groups {bad_rows}")


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
        self.grid = _grid(p_max)
        self.work = np.empty(arrs.work_size(arrs.k * _GRID_N))
        deriv = _pair_rate_slope(arrs, self.grid[None, :], work=self.work)
        self.f_grid = deriv / _LN2          # (K, N) stationarity curve samples
        # the water level just above every sample, where each row is ZERO at its floor
        self.top = max(math.nextafter(float(np.fmax.reduce(self.f_grid, axis=None)), math.inf), 1e-12)
        self._jumps = None
        # the interior samples of each row's last refined bracket at each
        # level, and that bracket's tag: its cell, then cell * _SUB_N + sub-cell
        self._sub_tag = np.full((_SUB_LEVELS, arrs.k), -1)
        self._sub_f = np.empty((_SUB_LEVELS, arrs.k, _SUB_N - 1))

    def _locate(self, mu):
        """Status and root cell of each group's sampled curve at water level ``mu``.

        A root lies where the running minimum first falls below mu, in the
        cell ending the leading run of samples at or above mu. A run over
        every sample is CAP, an empty one ZERO; both get cell -1.
        """
        pos = self.f_grid >= mu
        lead = pos.argmin(axis=1)
        status = np.where(lead > 0, _ROOT, np.where(pos[:, 0], _CAP, _ZERO))
        return status, lead - 1

    def jump_level(self, lo, hi):
        """The middle level strictly inside (lo, hi) at which the sampled totals may jump, or None.

        A row that starts above mu first falls below it where its running
        minimum does. Where that minimum is flat, the curve rose above it, so
        as mu falls through the flat value L the row's crossing jumps to the
        run's end, and the totals with it, between L and nextafter(L, inf).
        The levels of every row are found on first use, sorted, repeats kept
        (np.unique would import numpy.ma, about 1 MB, on first use).
        """
        if self._jumps is None:
            env = np.minimum.accumulate(self.f_grid, axis=1)
            self._jumps = env[:, 1:][env[:, 1:] == env[:, :-1]]
            self._jumps.sort()
        i, j = self._jumps.searchsorted(lo, side="right"), self._jumps.searchsorted(hi)
        return float(self._jumps[(i + j) // 2]) if i < j else None

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
        rows = (status == _ROOT).nonzero()[0]
        slope = 0.0
        if rows.size:
            cells = first[rows]
            g0, g1 = self.grid[cells], self.grid[cells + 1]
            f0, f1 = self.f_grid[rows, cells], self.f_grid[rows, cells + 1]
            t = (f0 - mu) / np.maximum(f0 - f1, _TINY)
            p3[rows] = g0 * (1.0 - t) + g1 * t
            moving = p3[rows] > self.p_req[rows]
            slope = float(((g1 - g0) / (f1 - f0))[moving].sum())
        return float(np.maximum(self.p_req, p3).sum()), slope

    def exact_totals(self, mu):
        """Group powers with roots refined inside their sampled cells, their status, and the total's mu slope.

        Each of _SUB_LEVELS levels samples the current bracket at the
        _SUB_N - 1 interior points of _SUB_N uniform sub-cells in one call
        and keeps the sub-cell that a bisection on those samples would pick,
        going left where f(mid) < mu; together they reach the width of twelve
        bisections of the grid cell. A row's bracket is four (R,) vectors,
        its two ends and their curve values, so no (R, _SUB_N + 1) block is
        assembled. One secant step on the final sub-cell's end values then
        pins the root far below that width (the curve is smooth inside a
        cell). The curve does not depend on mu, so each row keeps the
        interior samples of its last bracket at each level, and later water
        levels evaluate only rows whose bracket changed. A root in a cell
        wholly at or below the group's rate floor is clamped to that floor
        anyway, so such rows are not refined. A refined row strictly inside
        its final sub-cell and above its floor moves along that sub-cell's
        chord, as ``interp_total``'s rows move along their cell's, so the
        slope is exact until some row changes sub-cell.
        """
        self.steps += 1
        status, first = self._locate(mu)
        p3 = np.where(status == _CAP, self.grid[-1], 0.0)
        rows = ((status == _ROOT) & (self.grid[first + 1] > self.p_req)).nonzero()[0]
        slope = 0.0
        if rows.size:
            tag = first[rows]
            a, b = self.grid[tag], self.grid[tag + 1]
            fa, fb = self.f_grid[rows, tag], self.f_grid[rows, tag + 1]
            for level in range(_SUB_LEVELS):
                f = self._samples(level, rows, tag, a, b)
                k, a, b, fa, fb = _sub_bracket(f, mu, a, b, fa, fb)
                tag = tag * _SUB_N + k
            fa, fb = fa - mu, fb - mu
            spread = fa - fb
            t = np.where(spread > 0, fa / np.maximum(spread, _TINY), 0.5)
            p3[rows] = a + (b - a) * np.minimum(np.maximum(t, 0.0), 1.0)
            moving = (spread > 0) & (0.0 < t) & (t < 1.0) & (p3[rows] > self.p_req[rows])
            slope = float(((a - b) / np.maximum(spread, _TINY))[moving].sum())
        return np.maximum(self.p_req, p3), status, slope

    def search(self, evaluate, mu, stop, state):
        """Water level where the totals of ``evaluate`` meet the budget, from ``mu``, and its state.

        ``evaluate(mu)`` gives the total, its slope in mu and a state to
        return. The bracket is (0, top], whose state is ``state``. The
        totals are linear in mu on each piece and behave like a / mu - b
        across pieces, so a step is Newton's in w = 1 / mu, where they are
        nearly linear, or in mu once it is shorter than 1e-3 mu. A step that
        leaves the bracket, or a flat total, bisects instead: in log mu
        while the bracket spans more than a factor of two, in mu after that.
        Once the bracket is narrower than 1e-3 relative, such a step probes
        a level inside it where the totals may jump (``jump_level``), on
        both of its neighbouring floats, so that a jump across the budget
        ends between the same two floats as bisection would. The search
        stops when the total is within ``stop`` of the budget, when the
        bracket's ends are neighbouring floats, or after 80 steps, and
        returns the last level within the budget: the one that met it, or
        else the bracket's top.
        """
        lo, hi = 0.0, self.top
        probe = None        # the lower side of a jump level, once its upper side is probed
        for _ in range(80):
            total, slope, at = evaluate(mu)
            if abs(total - self.p_max) < stop:
                return mu, at
            if total > self.p_max:
                lo = mu
            else:
                hi, state = mu, at
            if math.nextafter(lo, math.inf) >= hi:
                break
            if probe is not None and lo < probe < hi:
                mu, probe = probe, None
                continue
            step = (self.p_max - total) / slope if slope < 0 else math.inf
            if abs(step) < 1e-3 * mu:
                mu_next = mu + step
            else:
                mu_next = mu * mu / (mu - step) if step < mu else -1.0   # 1 / (1/mu - step/mu**2)
            if lo < mu_next < hi:
                mu = mu_next
            elif hi - lo < 1e-3 * hi and (level := self.jump_level(lo, hi)) is not None:
                upper = math.nextafter(level, math.inf)
                mu, probe = (upper, level) if upper < hi else (level, None)
            else:
                mu = math.sqrt(lo * hi) if 0 < 2.0 * lo < hi else 0.5 * (lo + hi)
        return hi, state

    def _samples(self, level, rows, tag, a, b):
        """Stationarity curve at the interior points of each row's tagged bracket [a, b], (R, _SUB_N - 1).

        Only rows whose cached tag at ``level`` differs are evaluated; the
        points a + (b - a) * _SUB_FRACS[1:] are computed for those rows alone.
        """
        miss = (self._sub_tag[level, rows] != tag).nonzero()[0]
        if miss.size:
            stale = rows[miss]
            a = a[miss]
            pts = a[:, None] + (b[miss] - a)[:, None] * _SUB_FRACS[1:]
            deriv = _pair_rate_slope(self.arrs, pts, work=self.work, rows=stale)
            self._sub_f[level, stale] = deriv / _LN2
            self._sub_tag[level, stale] = tag[miss]
        return self._sub_f[level, rows]


def _sub_bracket(f, mu, a, b, fa, fb):
    """The sub-cell of each row's bracket that a bisection on its samples picks: (k, a, b, fa, fb).

    ``f`` is (R, _SUB_N - 1), the curve at the interior points
    a + (b - a) * _SUB_FRACS[j], j = 1 .. _SUB_N - 1, of each row's bracket
    [a, b], whose end values are ``fa`` and ``fb``. The bisection of
    [0, _SUB_N] replays on the interior samples: the midpoint of
    [k, k + 2 step] decides, going right where it is not below ``mu``, and
    no midpoint is an end. Sub-cell k spans points k and k + 1; the new
    ends are computed as the interior points were, and an end of the old
    bracket is kept as it is.
    """
    right = ~(f < mu)
    flat = right.ravel()
    base = (_SUB_N - 1) * np.arange(f.shape[0])
    at = base.copy()
    step = _SUB_N // 2
    while step:
        # the midpoint k + step is interior sample k + step - 1
        np.add(at, step, out=at, where=flat[step - 1 :].take(at))
        step //= 2
    k = at - base
    inner = k < _SUB_N - 1
    span = b - a
    f = f.ravel()
    # at k = 0, a + span * 0.0 is a itself
    a_new = a + span * _SUB_FRACS.take(k)
    b_new = np.where(inner, a + span * _SUB_FRACS.take(k + 1, mode="clip"), b)
    fa_new = np.where(k > 0, f.take(at - 1, mode="clip"), fa)
    return k, a_new, b_new, fa_new, np.where(inner, f.take(at, mode="clip"), fb)


def inter_group_allocate(groups, p_max: float) -> PowerAllocation:
    """Split the budget across groups by a search on the water level.

    Every group power is the largest of its two users' rate floors and the
    stationary point at the current multiplier, all under an equal
    intra-pair split. A floor is the least power up to ``p_max`` that meets
    the user's minimum rate (see ``_rate_floors``). Infeasibility (a minimum
    rate that no power within the budget meets, or floors that sum above
    the budget) is reported on the returned allocation rather than raised.
    One water-level search (``_WaterFiller.search``) runs on the sampled
    totals to within 0.5e-8 p_max of the budget, then on the exactly
    refined totals, from there, to within 1e-8 p_max. Its bracket's upper
    end starts at the top, just above every sample, where each group sits
    at its floor and the totals are within the budget. Where the exact
    totals jump across the budget instead, the allocation is the bracket's
    upper end, the float just above the jump, with status "budget not
    exhausted within tolerance". ``sampled_steps`` on the result counts the
    evaluations on the sampled curves, ``steps`` the exactly refined ones.
    ``groups`` may also be the groups' ``_GroupArrays``, which ``solve``
    reuses for the pair stage.
    """
    arrs = groups if isinstance(groups, _GroupArrays) else _GroupArrays(groups)
    if p_max <= 0:
        raise ValueError(f"p_max must be positive, got {p_max}")
    tol = 1e-8 * p_max
    k = arrs.k

    def failure(status: str) -> PowerAllocation:
        return PowerAllocation(
            group_totals=np.zeros(k),
            splits=np.zeros((k, 2)),
            mu=float("nan"),
            lambdas=np.zeros((k, 2)),
            feasible=False,
            budget_exhausted=False,
            status=status,
        )

    try:
        binding = _rate_floors(arrs, p_max)
    except MinRateInfeasible as exc:
        return failure(f"min-rate infeasible: {exc}")
    p_req = binding.max(axis=1)
    if p_req.sum() > p_max:
        return failure(
            f"min-rate power demand {p_req.sum():.6g} W exceeds budget {p_max:.6g} W"
        )

    wf = _WaterFiller(arrs, p_max, p_req)

    if wf.interp_total(0.0)[0] <= p_max - tol:
        p_k0, _, _ = wf.exact_totals(0.0)
        if p_k0.sum() <= p_max - tol:
            # even a zero water level cannot spend the budget: rates saturate
            lam = _recover_lambdas(arrs, p_k0, p_req, 0.0, binding)
            return PowerAllocation(
                group_totals=p_k0,
                splits=(p_k0 / 2.0)[:, None].repeat(2, axis=1),
                mu=0.0,
                lambdas=lam,
                feasible=True,
                budget_exhausted=False,
                status="budget slack at zero water level",
                steps=wf.steps,
                sampled_steps=wf.sampled_steps,
            )

    # the search first takes the totals with roots interpolated on the
    # sampled curves, from where every group, at an equal share of the
    # budget, sits on its sampled curve; then the exactly refined totals,
    # from where it stopped, with the top's totals the floors, all ZERO
    share = max(0, round((_GRID_N - 1) * (1.0 + math.log(k) / math.log(_GRID_LOW))))   # column of p_max / k
    # the median by hand: np.median imports numpy.ma, about 1 MB, on first use
    at_share = wf.f_grid[:, share].copy()
    at_share.sort()
    mu = min(wf.top, 0.5 * float(at_share[(k - 1) // 2] + at_share[k // 2]))
    if not mu > 0:      # curves at or below zero there: keep inside the bracket
        mu = 0.5 * wf.top
    mu, _ = wf.search(lambda mu: (*wf.interp_total(mu), None), mu, 0.5 * tol, None)

    def exact(mu):
        p_k, status, slope = wf.exact_totals(mu)
        return p_k.sum(), slope, (p_k, status)

    mu, (p_k, status) = wf.search(exact, mu, tol, (p_req.copy(), np.full(k, _ZERO)))
    exhausted = abs(p_k.sum() - p_max) < tol
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
    if capped.any() and not (stationary_active & (status == _ROOT)).any():
        d_cap = _pair_rate_slope(arrs, p_k)
        mu = float((d_cap / _LN2)[capped].min())

    lam = _recover_lambdas(arrs, p_k, p_req, mu, binding)
    return PowerAllocation(
        group_totals=p_k,
        splits=(p_k / 2.0)[:, None].repeat(2, axis=1),
        mu=float(mu),
        lambdas=lam,
        feasible=True,
        budget_exhausted=bool(exhausted),
        status="ok" if exhausted else "budget not exhausted within tolerance",
        steps=wf.steps,
        sampled_steps=wf.sampled_steps,
    )


def _rate_coeff(arrs: _GroupArrays, p_k):
    """Per-user multiplier coefficients of the equal-split stationarity row, and rho per user column."""
    rho, slope = arrs.rho_and_slope(p_k[None])
    # d(rho)/dp from the slope in ln p, zero at p = 0 as the slope is
    rho_cols, rhop_cols = rho.T, (slope / np.maximum(p_k, _TINY)).T
    coeff = arrs.gain * ((1.0 - arrs.pow2r) * (0.5 * rho_cols + rhop_cols * (0.5 * p_k)[:, None]) + 0.5)
    return coeff, rho_cols


def _recover_lambdas(arrs: _GroupArrays, p_k, p_req, mu: float, binding) -> np.ndarray:
    """Min-rate multipliers from active-constraint detection.

    Where the group sits on its rate-binding floor, the binding user's
    multiplier is solved from the stationarity row (the other is zero);
    elsewhere both are zero.
    """
    lam = np.zeros((arrs.k, 2))
    at_floor = (p_k <= p_req * (1.0 + 1e-9)) & (p_req > 0)
    if not at_floor.any():
        return lam
    which = binding.argmax(axis=1)
    eq21 = _pair_rate_slope(arrs, p_k) / _LN2
    coeff, _ = _rate_coeff(arrs, p_k)
    for row in at_floor.nonzero()[0]:
        col = which[row]
        a = coeff[row, col]
        if a > 0:
            lam[row, col] = max(0.0, (mu - eq21[row]) / a)
    return lam


def intra_group_allocate(group: Group, p_k: float):
    """Best intra-pair split of a fixed group power.

    Maximizes the pair sum rate over the first user's share in [0, p_k]
    with the interference factors frozen at the group total. The split is
    exact: the best of the ends and the stationary points between them,
    which solve a quadratic (see ``_intra_split_vec``).
    """
    if p_k <= 0:
        raise ValueError(f"p_k must be positive, got {p_k}")
    arrs = _GroupArrays([group])
    p_k = np.array([p_k])
    rho1, rho2 = arrs.rho_and_slope(p_k[None])[0]
    p1 = _intra_split_vec(arrs, p_k, np.zeros(1), p_k, rho1, rho2)[0]
    return float(p1), float(p_k[0] - p1)


def _intra_objective(arrs: _GroupArrays, p_k, rho1, rho2, p1):
    """Pair sum rate at first-user powers ``p1`` of shape (K,) or (K, S)."""
    col = (slice(None),) + (None,) * (p1.ndim - 1)
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


def _split_roots(s1, s2, u1, v1, u2, v2, out):
    """Real roots in q of s1 d1 A2 B2 - s2 d2 A1 B1, into ``out``, (K, 2); nan where none."""
    d1 = 1.0 + v1
    w1, w2 = s1 * d1, s2 * (1.0 + v2)
    a = w2 * u1 * v1 - w1 * u2 * v2
    b = w1 * ((1.0 + s2) * v2 - u2) - w2 * d1 * (u1 - v1)
    c = w1 * (1.0 + s2) - w2 * d1 * d1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the stable pair of roots; a == 0 leaves the linear root in c / t
        t = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        np.divide(t, a, out=out[:, 0])
        np.divide(c, t, out=out[:, 1])
    return out


def _intra_split_vec(arrs: _GroupArrays, p_k, lo, hi, rho1, rho2):
    """Exact maximizer of the frozen-rho pair rate over p1 in [lo, hi], per group.

    A_i B_i > 0 on [0, 1], so dJ/dq has the sign of s1 d1 A2 B2 - s2 d2 A1 B1
    (see ``_split_terms``), a quadratic in q. The best of lo, hi and its real
    roots inside [lo, hi] is the global maximum, concave objective or not.
    At very high SNR the quadratic can have two roots within about 1/sqrt(s)
    of q = 1 (or q = 0), which its coefficients in q lose to cancellation; the
    same quadratic in r = 1 - q (the users swapped) keeps roots near q = 1,
    so both sets of roots are candidates. Ties keep a root, then hi, then lo.
    """
    s1, s2, u1, v1, u2, v2 = _split_terms(arrs, p_k, rho1, rho2)
    # candidates: the roots in q, then in r = 1 - q, as powers, then hi and lo
    cand = np.empty((p_k.size, 6))
    roots = cand[:, :4]
    with np.errstate(invalid="ignore", over="ignore"):
        _split_roots(s1, s2, u1, v1, u2, v2, roots[:, :2])
        _split_roots(s2, s1, u2, v2, u1, v1, roots[:, 2:])
        np.subtract(1.0, roots[:, 2:], out=roots[:, 2:])
        roots *= p_k[:, None]
    # fmax/fmin send the nan of a negative discriminant or of 0/0 to lo
    np.fmax(roots, lo[:, None], out=roots)
    np.fmin(roots, hi[:, None], out=roots)
    cand[:, 4], cand[:, 5] = hi, lo
    j = _intra_objective(arrs, p_k, rho1, rho2, cand)
    return cand[np.arange(cand.shape[0]), j.argmax(axis=1)]


def split_residuals(groups, alloc: PowerAllocation) -> np.ndarray:
    """Normalized first-order residual of each group's returned intra-pair split.

    The residual is |dJ/dp1| * p_k / max(J, 1), with rho frozen at the group
    total and J the pair sum rate; at the lower end of the min-rate split
    interval only a positive slope counts, at its upper end only a negative
    one. A group at zero power has lo = hi = p1 = 0, so its residual is zero.
    """
    arrs = _GroupArrays(groups)
    p_k, p1 = np.asarray(alloc.group_totals, dtype=float), np.asarray(alloc.splits, dtype=float)[:, 0]
    rho1, rho2 = arrs.rho_and_slope(p_k[None])[0]
    lo, hi = _min_rate_split_interval(arrs, p_k, rho1, rho2)
    s1, s2, u1, v1, u2, v2 = _split_terms(arrs, p_k, rho1, rho2)
    with np.errstate(invalid="ignore"):
        # the share of a zero-power group is 0/0; neither end test keeps its slope
        d1, d2, q = 1.0 + v1, 1.0 + v2, p1 / p_k
    slope = (s1 * d1 / ((d1 + u1 * q) * (d1 - v1 * q))
             - s2 * d2 / ((1.0 + s2 - u2 * q) * (1.0 + v2 * q))) / _LN2
    res = np.where(p1 < hi, np.maximum(slope, 0.0), 0.0) + np.where(p1 > lo, np.maximum(-slope, 0.0), 0.0)
    return res / np.maximum(_intra_objective(arrs, p_k, rho1, rho2, p1), 1.0)


def kkt_residuals(groups, alloc: PowerAllocation, p_max: float) -> KKTReport:
    """First-order optimality residuals of the group stage at the equal split.

    The report certifies the group-level stage: it reads the allocation's
    group totals, mu and lambdas, and puts each user at half its group's
    power, whatever the splits; ``split_residuals`` checks the pair split.
    Residuals are scaled by the natural magnitude of each condition, but
    for the budget excess, in watts. A table's rho slope
    jumps at its cuts, so stationarity is the distance of mu - sum(lambda *
    coeff) from the values the curve takes within two final refinement
    sub-cells of the group power. Groups at exactly zero power bind the
    nonnegativity constraint, whose multiplier is not modeled; their
    stationarity residual reflects that boundary honestly.
    """
    arrs = _GroupArrays(groups)
    p_k = np.asarray(alloc.group_totals, dtype=float)
    half = 0.5 * p_k[:, None]           # each user's power, and its partner's
    lam = np.asarray(alloc.lambdas, dtype=float)
    mu = float(alloc.mu)

    # the stationarity curve at p (1 - delta), p and p (1 + delta)
    curve = _pair_rate_slope(arrs, p_k[:, None] * [1.0 - _KKT_DELTA, 1.0, 1.0 + _KKT_DELTA]) / _LN2
    eq21 = curve[:, 1]
    coeff, rho_cols = _rate_coeff(arrs, p_k)
    target = mu - (lam * coeff).sum(axis=1)
    stationarity = np.maximum(curve.min(axis=1) - target, 0.0) + np.maximum(target - curve.max(axis=1), 0.0)
    stat_norm = stationarity / np.maximum(
        np.maximum(np.abs(eq21), abs(mu)), 1e-12
    )

    # rate-constraint slack in the linearized form used by the multiplier system
    interference = rho_cols * half * arrs.gain
    slack = (half * arrs.gain + interference + arrs.noise) - arrs.pow2r * (interference + arrs.noise)
    scale = arrs.pow2r * (interference + arrs.noise)
    rate_comp_norm = np.where(lam > 0, np.abs(slack) / scale, 0.0)

    total = float(p_k.sum())
    budget_comp_norm = abs(p_max - total) / p_max if mu > 0 else 0.0
    power_excess = max(0.0, total - p_max)

    rates = np.log2(1.0 + half * arrs.gain / (interference + arrs.noise))
    rate_violation_norm = np.maximum(0.0, arrs.min_rate - rates) / np.maximum(arrs.min_rate, 1.0)
    dual_negative = max(0.0, -mu, float(-np.min(lam, initial=0.0)))

    return KKTReport(
        stationarity_norm=stat_norm,
        rate_comp_norm=rate_comp_norm,
        budget_comp_norm=budget_comp_norm,
        power_excess=power_excess,
        rate_violation_norm=rate_violation_norm,
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
    if bad.any():
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
    alloc = inter_group_allocate(arrs, config.p_max_w)
    if not alloc.feasible:
        return result("power", alloc)

    p_k = alloc.group_totals
    # one lookup serves the split interval, the split and the rates; a
    # group at zero power has lo = hi = 0, so its split is (0, 0)
    rho1, rho2 = arrs.rho_and_slope(p_k[None])[0]
    lo, hi = _min_rate_split_interval(arrs, p_k, rho1, rho2)
    splits = np.empty((p_k.size, 2))
    splits[:, 0] = p1 = _intra_split_vec(arrs, p_k, lo, hi, rho1, rho2)
    np.subtract(p_k, p1, out=splits[:, 1])
    alloc.splits = splits

    g, n = arrs.gain, arrs.noise
    rates = np.empty_like(splits)
    rates[:, 0] = np.log2(1.0 + splits[:, 0] * g[:, 0] / (rho1 * splits[:, 1] * g[:, 0] + n[:, 0]))
    rates[:, 1] = np.log2(1.0 + splits[:, 1] * g[:, 1] / (rho2 * splits[:, 0] * g[:, 1] + n[:, 1]))
    user_rates = {}
    for (a, b), r in zip(assignment.pairs, rates):
        user_rates[a] = float(r[0])
        user_rates[b] = float(r[1])
    if (arrs.min_rate - rates > 1e-6).any():
        return result("power", alloc, user_rates)
    return result(None, alloc, user_rates, float(rates.sum()))
