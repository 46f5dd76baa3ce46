"""Semantic interference factor and SINR/rate arithmetic.

The interference factor rho in [0, 1] scales the partner's power inside the
SINR denominator: rho = 1 recovers the conventional SINR, rho = 0 removes
cross-user interference entirely. rho is modeled over (group power, link
SNR) because the semantic decoders' separation ability was measured on that
grid; three interchangeable profile kinds are provided so the optimizer does
not depend on any particular measurement campaign:

* ``constant`` -- one fixed value,
* ``table``    -- bilinear interpolation over a measured (power dBW, SNR dB)
                  grid, clamped at the grid edges,
* ``parametric`` -- logistic decay
  limit / (1 + exp(snr_slope*(snr_db - snr_mid_db)
                   + power_coeff*10*log10(p / power_ref_w))).

The SNR coordinate is always the receiver's own-link SNR when the group
power is split equally between the two users, matching the regime in which
the group-level allocation stage evaluates rho.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

__all__ = [
    "Link",
    "LogisticRhoParams",
    "InterferenceProfile",
    "CalibratedRho",
    "sinr_conventional",
    "sinr_semantic",
    "calibrate_rho",
    "pair_sum_rate",
    "load_rho_table",
    "save_rho_table",
]

_LN10 = float(np.log(10.0))
_TINY = float(np.finfo(float).tiny)
_DEFAULT_TABLE_RESOURCE = "rho_default.csv"


@dataclass(frozen=True)
class Link:
    """One downlink: linear power gain |h|^2 and receiver noise power in watts."""

    gain: float
    noise: float

    def __post_init__(self):
        for name in ("gain", "noise"):
            value = getattr(self, name)
            if isinstance(value, (int, float)):  # numpy float64 included
                valid = math.isfinite(value) and value > 0
            else:
                value = np.asarray(value)
                valid = np.all(np.isfinite(value) & (value > 0))
            if not valid:
                raise ValueError(f"link {name} must be finite and strictly positive, got {value}")


@dataclass(frozen=True)
class LogisticRhoParams:
    """Coefficients of the logistic-decay interference model."""

    limit: float = 0.95        # high-interference plateau, in [0, 1]
    snr_slope: float = 0.42    # decay rate per dB of link SNR
    snr_mid_db: float = 6.0    # SNR at which rho crosses half the plateau
    power_coeff: float = 0.015 # sensitivity to group power in dB
    power_ref_w: float = 1.0   # reference power for the dB conversion

    def __post_init__(self):
        if not 0.0 <= self.limit <= 1.0:
            raise ValueError(f"limit must lie in [0, 1], got {self.limit}")
        if self.power_ref_w <= 0:
            raise ValueError("power_ref_w must be positive")


class CalibratedRho(NamedTuple):
    value: float
    clamped: bool


@dataclass(frozen=True)
class InterferenceProfile:
    """Interference factor model; use the classmethod constructors."""

    kind: str
    constant_value: float = 1.0
    power_axis_dbw: np.ndarray | None = None
    snr_axis_db: np.ndarray | None = None
    values: np.ndarray | None = None
    params: LogisticRhoParams | None = None

    def __post_init__(self):
        if self.kind == "constant":
            if not 0.0 <= self.constant_value <= 1.0:
                raise ValueError(f"constant rho must lie in [0, 1], got {self.constant_value}")
        elif self.kind == "table":
            p_ax = np.asarray(self.power_axis_dbw, dtype=float)
            s_ax = np.asarray(self.snr_axis_db, dtype=float)
            vals = np.asarray(self.values, dtype=float)
            object.__setattr__(self, "power_axis_dbw", p_ax)
            object.__setattr__(self, "snr_axis_db", s_ax)
            object.__setattr__(self, "values", vals)
            if p_ax.ndim != 1 or s_ax.ndim != 1 or p_ax.size == 0 or s_ax.size == 0:
                raise ValueError("table axes must be non-empty 1-D arrays")
            # nan fails every comparison below, so it is caught first
            for name, arr in (("power axis", p_ax), ("SNR axis", s_ax), ("rho values", vals)):
                if not np.isfinite(arr).all():
                    raise ValueError(f"table {name} must be finite")
            if np.any(np.diff(p_ax) <= 0) or np.any(np.diff(s_ax) <= 0):
                raise ValueError("table axes must be strictly increasing")
            if vals.shape != (p_ax.size, s_ax.size):
                raise ValueError(
                    f"table must be rectangular with shape {(p_ax.size, s_ax.size)}, got {vals.shape}"
                )
            if np.any(vals < 0) or np.any(vals > 1):
                raise ValueError("table rho values must lie in [0, 1]")
        elif self.kind == "parametric":
            if self.params is None:
                raise ValueError("parametric profile requires params")
        else:
            raise ValueError(f"unknown profile kind {self.kind!r}")

    @classmethod
    def constant(cls, value: float) -> "InterferenceProfile":
        return cls(kind="constant", constant_value=float(value))

    @classmethod
    def from_table(cls, power_axis_dbw, snr_axis_db, values) -> "InterferenceProfile":
        return cls(
            kind="table",
            power_axis_dbw=np.asarray(power_axis_dbw, dtype=float),
            snr_axis_db=np.asarray(snr_axis_db, dtype=float),
            values=np.asarray(values, dtype=float),
        )

    @classmethod
    def parametric(cls, params: LogisticRhoParams | None = None) -> "InterferenceProfile":
        return cls(kind="parametric", params=params or LogisticRhoParams())

    @classmethod
    def default_table(cls) -> "InterferenceProfile":
        """The bundled calibration table (qualitative measured shape).

        Parsed once per process: every call returns the same profile, whose
        arrays are read-only.
        """
        return _bundled_table()


@functools.cache
def _bundled_table() -> InterferenceProfile:
    # the package's own data, so that a renamed copy of the package reads its own table
    text = resources.files(__package__ + ".data").joinpath(_DEFAULT_TABLE_RESOURCE).read_text()
    profile = _parse_rho_table(io.StringIO(text), source=_DEFAULT_TABLE_RESOURCE)
    for arr in (profile.power_axis_dbw, profile.snr_axis_db, profile.values):
        arr.flags.writeable = False
    return profile


def _equal_split_snr_db(group_power, gain, noise):
    """Receiver SNR in dB with the group power split equally, -inf at p = 0."""
    p_half = np.asarray(group_power, dtype=float) / 2.0
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(p_half * np.asarray(gain) / np.asarray(noise))


def _axis_locate(axis: np.ndarray, x):
    """Clamped cell index and fractional offset along one grid axis."""
    if axis.size == 1:
        idx = np.zeros(np.shape(x), dtype=np.intp)
        return idx, np.zeros(np.shape(x))
    x = np.minimum(np.maximum(x, axis[0]), axis[-1])
    idx = axis.searchsorted(x, side="right") - 1
    idx = np.minimum(np.maximum(idx, 0), axis.size - 2)
    t = (x - axis[idx]) / (axis[idx + 1] - axis[idx])
    return idx, t


def _bilinear(profile: InterferenceProfile, p_dbw, snr_db_val):
    """Table lookup gathered from the flattened values; ``p_dbw`` broadcasts
    against ``snr_db_val``, so one power coordinate can serve many links."""
    p_ax, s_ax = profile.power_axis_dbw, profile.snr_axis_db
    p_dbw, snr_db_val = np.asarray(p_dbw, dtype=float), np.asarray(snr_db_val, dtype=float)
    ip, tp = _axis_locate(p_ax, p_dbw)
    js, ts = _axis_locate(s_ax, snr_db_val)
    # a one-point axis has no upper neighbour: step 0 keeps the gather in its row
    step_s = 1 if s_ax.size > 1 else 0
    step_p = s_ax.size if p_ax.size > 1 else 0
    flat = profile.values.ravel()
    base = ip * s_ax.size + js
    v00, v01 = flat[base], flat[base + step_s]
    v10, v11 = flat[base + step_p], flat[base + step_p + step_s]
    return (1 - tp) * ((1 - ts) * v00 + ts * v01) + tp * ((1 - ts) * v10 + ts * v11)


class _TablePieces(NamedTuple):
    """Bilinear table rho along the power axis of receivers at fixed SNR offsets.

    Row r is a receiver whose equal-split SNR in dB is x + offset[r], with
    x = 10*log10(p). Both table coordinates then move with x, so between the
    row's cuts (x on a power node, x + offset[r] on an SNR node) the lookup
    is the quadratic a + b*u + c*u^2 in u = x - center. The pieces are fitted
    from ``_bilinear`` at their ends and middle; below the first cut and from
    the last one on, rho is the constant corner value of the table.
    """

    edges: np.ndarray    # (E,) every row's cuts, sorted and unique
    lookup: np.ndarray   # (R * (E + 1),) piece of row r holding x, at r * (E + 1) + #(edges <= x)
    coef: np.ndarray     # (4, R * (C + 1)) center, a, b, c of each piece, for C cuts a row


def _table_pieces(profile: InterferenceProfile, snr_offset_db) -> _TablePieces:
    """Quadratic pieces of ``_bilinear`` for each row of ``snr_offset_db``."""
    off = np.asarray(snr_offset_db, dtype=float).reshape(-1, 1)
    rows = off.shape[0]
    n_p = profile.power_axis_dbw.size
    cuts = np.empty((rows, n_p + profile.snr_axis_db.size))
    cuts[:, :n_p] = profile.power_axis_dbw
    np.subtract(profile.snr_axis_db, off, out=cuts[:, n_p:])
    cuts.sort(axis=1)
    lo = np.concatenate([cuts[:, :1], cuts], axis=1)
    hi = np.concatenate([cuts, cuts[:, -1:]], axis=1)
    coef = np.empty((4,) + lo.shape)     # center, a, b, c of each piece
    center = np.multiply(0.5, lo + hi, out=coef[0])
    half = 0.5 * (hi - lo)
    # the outer pieces are sampled at -inf and +inf, where both coordinates clamp
    x = np.empty((3,) + lo.shape)
    x[0], x[1], x[2] = lo, center, hi
    x[1, :, 0], x[1, :, -1] = -np.inf, np.inf
    f_lo, coef[1], f_hi = _bilinear(profile, x, x + off)
    # a zero-width piece (a cut on both axes) is never selected; keep it finite
    wide = half > 0
    width = np.where(wide, half, 1.0)
    coef[2] = np.where(wide, (f_hi - f_lo) / (2.0 * width), 0.0)
    coef[3] = np.where(wide, (f_hi - 2.0 * coef[1] + f_lo) / (2.0 * width * width), 0.0)
    # one search of x in the sorted, unique union of the cuts gives every
    # row's piece: a row's piece index counts its own cuts at or below x,
    # duplicates together (np.unique would import numpy.ma, about 1 MB)
    edges = cuts.flatten()
    edges.sort()
    edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
    span = edges.size + 1
    slot = edges.searchsorted(cuts) + 1 + span * np.arange(rows)[:, None]
    counts = np.bincount(slot.ravel(), minlength=rows * span).reshape(rows, span)
    lookup = counts.cumsum(axis=1) + (cuts.shape[1] + 1) * np.arange(rows)[:, None]
    return _TablePieces(edges, lookup.ravel(), coef.reshape(4, -1))


def _same_profile(a: InterferenceProfile, b: InterferenceProfile) -> bool:
    """Equal in kind and values."""
    return a is b or ((a.kind, a.constant_value, a.params) == (b.kind, b.constant_value, b.params) and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in ("power_axis_dbw", "snr_axis_db", "values")))


def _one_profile(profiles):
    """The one rho profile of a set of groups, and each group's constant rho.

    Profiles equal in kind and values are one profile. Constant profiles
    may differ: the second result is then the groups' constants, and None
    for any other kind. Any other mix raises ValueError.
    """
    profiles = list(profiles)
    first = profiles[0]
    if all(q.kind == "constant" for q in profiles):
        return first, np.array([q.constant_value for q in profiles])
    if not all(_same_profile(q, first) for q in profiles):
        raise ValueError("the groups of one allocation must share one rho profile; "
                         "only constant profiles may differ by group")
    return first, None


class _RhoAxis:
    """rho and its slope in ln p of fixed receivers along the group-power axis, for every kind.

    The receivers are the rows: ``gain`` and ``noise`` broadcast to the row
    shape, and the powers of a lookup broadcast against it. A receiver's
    equal-split SNR in dB is x + offset, with x = 10*log10(p), so each kind
    is a function of x per row, set by ``row``. The slope is
    s = p d(rho)/dp = d(rho)/dx * 10 / ln10, which every kind has without a
    division by p:

    * constant -- the row's value (``value``, else the profile's), zero slope;
    * table -- the start, row * (E + 1), of the row's lookup in
      ``_table_pieces``. In a piece rho is a + b*u + c*u^2 in u = x - center,
      so s = (b + 2*c*u) * 10 / ln10, from the right at a cut;
    * parametric -- the intercept a of the logistic exponent a + b*x, with
      b = snr_slope + power_coeff: rho = limit * sig with sig = 1 / (1 + e^(a + b*x)),
      one exp per row and power, and s = -limit * sig * (1 - sig) * 10 b / ln10.

    ``work`` is the scratch floats a lookup takes per output point. Given a
    flat float array of that many per point, it keeps its results and
    temporaries there; either way the caller may overwrite both results.
    ``rows``, an index array, evaluates only those rows along axis 1 of the
    row shape (the groups of ``power._GroupArrays``). At p <= 0 the value is
    the single-link kernel's, nan or not as the profile dictates, and the
    slope is zero.
    """

    def __init__(self, profile: InterferenceProfile, gain, noise, value=None):
        self.profile = profile
        self.gain, self.noise = np.broadcast_arrays(np.asarray(gain, dtype=float), np.asarray(noise, dtype=float))
        self.offset = 10.0 * np.log10(self.gain / (2.0 * self.noise))
        self.work = {"constant": 2, "table": 5, "parametric": 3}[profile.kind]
        if profile.kind == "table":
            self.pieces = _table_pieces(profile, self.offset)
            self.row = (self.pieces.edges.size + 1) * np.arange(self.offset.size).reshape(self.offset.shape)
        elif profile.kind == "parametric":
            prm = profile.params
            self.row = prm.snr_slope * (self.offset - prm.snr_mid_db) \
                - prm.power_coeff * 10.0 * np.log10(prm.power_ref_w)
        else:
            value = profile.constant_value if value is None else value
            self.row = np.broadcast_to(value, np.broadcast_shapes(np.shape(value), self.offset.shape))

    def __call__(self, p, work=None, rows=None):
        row = self.row if rows is None else self.row.take(rows, axis=1)
        p = np.asarray(p, dtype=float)
        shape = np.broadcast(row, p).shape
        size = math.prod(shape)
        if work is None:
            work = np.empty(self.work * size)
        blocks = work[: self.work * size].reshape((self.work,) + shape)
        # indexed with an ellipsis, a block of a scalar lookup stays an array
        blocks = [blocks[i, ...] for i in range(self.work)]
        safe = np.maximum(p, _TINY)
        kind = self.profile.kind
        if kind == "table":
            rho, slope = self._table(row, safe, *blocks)
        elif kind == "parametric":
            rho, slope = self._logistic(row, safe, *blocks)
        else:
            rho, slope = self._constant(row, *blocks)
        zero = p <= 0
        if zero.any():
            if kind != "constant":
                gain, noise = self.gain, self.noise
                if rows is not None:
                    gain, noise = gain.take(rows, axis=1), noise.take(rows, axis=1)
                with np.errstate(invalid="ignore"):
                    rho = np.where(zero, _rho_kernel(self.profile, p, gain, noise), rho)
            slope = np.where(zero, 0.0, slope)
        return rho, slope

    @staticmethod
    def _constant(row, rho, slope):
        rho[...] = row
        slope[...] = 0.0
        return rho, slope

    def _table(self, row, p, rho, slope, u, col, at):
        pieces = self.pieces
        x = 10.0 * np.log10(p)
        slot = pieces.edges.searchsorted(x, side="right")
        # the lookup index and the piece index are integers in float-sized blocks
        idx, at = col.view(np.int64), at.view(np.int64)
        np.add(row, slot, out=idx)
        pieces.lookup.take(idx, out=at, mode="clip")
        # one coefficient column at a time: u = x - center, then (q3 u + q2) u + q1
        # and the slope in x, 2 q3 u + q2, times 10 / ln10
        center, q1, q2, q3 = pieces.coef
        center.take(at, out=u, mode="clip")
        np.subtract(x, u, out=u)
        q3.take(at, out=rho, mode="clip")
        rho *= u
        q2.take(at, out=col, mode="clip")
        np.multiply(rho, 2.0, out=slope)
        slope += col
        slope *= 10.0 / _LN10
        rho += col
        rho *= u
        rho += q1.take(at, out=col, mode="clip")
        return rho.clip(0.0, 1.0, out=rho), slope

    def _logistic(self, row, p, rho, slope, den):
        params = self.profile.params
        b = params.snr_slope + params.power_coeff
        np.add(b * (10.0 * np.log10(p)), row, out=den)
        den.clip(-60.0, 60.0, out=den)
        np.exp(den, out=den)
        den += 1.0
        np.divide(params.limit, den, out=rho)
        sig = np.reciprocal(den, out=den)
        # d(expo)/d(ln p) = 10 b / ln10
        np.multiply(-params.limit * (10.0 * b / _LN10), sig, out=slope)
        slope *= np.subtract(1.0, sig, out=den)
        return rho, slope


def _parametric_rho(params: LogisticRhoParams, group_power, gain, noise):
    def exponent(p):
        snr = _equal_split_snr_db(p, gain, noise)
        with np.errstate(divide="ignore", invalid="ignore"):
            power_db = 10.0 * np.log10(p / params.power_ref_w)
            return params.snr_slope * (snr - params.snr_mid_db) + params.power_coeff * power_db

    p = np.asarray(group_power, dtype=float)
    expo = exponent(p)
    zero = p == 0
    if zero.any():
        # both dB terms are -inf at p = 0, so the sum can be inf - inf; take the
        # limit of the exponent, affine in x = 10*log10(p) with slope b, as x -> -inf
        b = params.snr_slope + params.power_coeff
        expo = np.where(zero, exponent(1.0) if b == 0 else -b * np.inf, expo)
    expo = expo.clip(-60.0, 60.0)
    return params.limit / (1.0 + np.exp(expo))


def _rho_kernel(profile: InterferenceProfile, p, gain, noise):
    """Unvalidated rho evaluation on arrays (hot path)."""
    if profile.kind == "constant":
        return np.full(np.shape(p), profile.constant_value)
    if profile.kind == "table":
        with np.errstate(divide="ignore"):
            p_dbw = 10.0 * np.log10(p)
        out = _bilinear(profile, p_dbw, _equal_split_snr_db(p, gain, noise))
    else:
        out = _parametric_rho(profile.params, p, gain, noise)
    return np.minimum(np.maximum(out, 0.0), 1.0)


def rho_eval(profile: InterferenceProfile, group_power, gain, noise):
    """Vector-friendly rho evaluation; scalar inputs give a float."""
    p = np.asarray(group_power, dtype=float)
    if (p < 0).any():
        raise ValueError("group power must be nonnegative")
    out = _rho_kernel(profile, p, gain, noise)
    return float(out) if out.ndim == 0 else out


def rho_derivative_eval(profile: InterferenceProfile, group_power, gain, noise):
    """d(rho)/d(group power), vector-friendly; scalar inputs give a float.

    The power and the link arrays broadcast together. The slope is the
    power-axis lookup's, the one the solver reads: analytic for every kind,
    and for a table the derivative of its quadratic piece, from the right at
    a cut.
    """
    p = np.asarray(group_power, dtype=float)
    if np.any(p <= 0):
        raise ValueError("group power must be positive for the derivative")
    out = _RhoAxis(profile, gain, noise)(p)[1] / p
    return float(out) if np.ndim(out) == 0 else out


def sinr_conventional(p_self: float, p_other: float, link: Link):
    """Standard SINR with the partner's full power as interference."""
    return p_self * link.gain / (p_other * link.gain + link.noise)


def sinr_semantic(p_self: float, p_other: float, rho_val: float, link: Link):
    """SINR with the partner's power scaled by the interference factor."""
    return p_self * link.gain / (rho_val * p_other * link.gain + link.noise)


def calibrate_rho(p_self: float, p_other: float, link: Link, mse: float) -> CalibratedRho:
    """Invert an empirical distortion measurement into an interference factor.

    Solves ``p_self*gain / mse == p_self*gain / (rho*p_other*gain + noise)``
    for rho; the self power cancels. The result is clamped to [0, 1] and the
    flag records whether clamping occurred.
    """
    if mse <= 0:
        raise ValueError(f"mse must be positive, got {mse}")
    denom = p_other * link.gain
    if denom == 0:
        raise ValueError("p_other * gain must be nonzero to calibrate rho")
    raw = (mse - link.noise) / denom
    clamped = raw < 0.0 or raw > 1.0
    return CalibratedRho(value=float(min(max(raw, 0.0), 1.0)), clamped=clamped)


def pair_sum_rate(p1: float, p2: float, profile: InterferenceProfile, link1: Link, link2: Link) -> float:
    """Group sum rate: both users' log2(1 + semantic SINR), rho at the group power.

    The one profile is evaluated on each receiver's own link.
    """
    p_group = p1 + p2
    rho_21 = rho_eval(profile, p_group, link1.gain, link1.noise)
    rho_12 = rho_eval(profile, p_group, link2.gain, link2.noise)
    return float(np.log2(1.0 + sinr_semantic(p1, p2, rho_21, link1))
                 + np.log2(1.0 + sinr_semantic(p2, p1, rho_12, link2)))


def _parse_rho_table(handle, source: str) -> InterferenceProfile:
    rows = [row for row in csv.reader(handle) if row and any(cell.strip() for cell in row)]
    if len(rows) < 2:
        raise ValueError(f"{source}: rho table needs a header row and at least one data row")
    try:
        snr_axis = [float(cell) for cell in rows[0][1:]]
    except ValueError as exc:
        raise ValueError(f"{source}: header row must be ',snr1,snr2,...' with numeric SNRs") from exc
    if not snr_axis:
        raise ValueError(f"{source}: header row lists no SNR values")
    power_axis, values = [], []
    for idx, row in enumerate(rows[1:], start=2):
        if len(row) != len(snr_axis) + 1:
            raise ValueError(f"{source}: row {idx} has {len(row)} cells, expected {len(snr_axis) + 1}")
        try:
            power_axis.append(float(row[0]))
            values.append([float(cell) for cell in row[1:]])
        except ValueError as exc:
            raise ValueError(f"{source}: row {idx} contains a non-numeric cell") from exc
    try:
        return InterferenceProfile.from_table(power_axis, snr_axis, values)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc


def load_rho_table(path) -> InterferenceProfile:
    """Load a rho table: first row SNR axis (dB), first column power axis (dBW)."""
    with open(path, newline="") as handle:
        return _parse_rho_table(handle, source=str(path))


def save_rho_table(profile: InterferenceProfile, path) -> None:
    """Write a table profile as ``load_rho_table`` reads it, every number at ``repr``
    precision so that it reloads bit for bit."""
    if profile.kind != "table":
        raise ValueError("only table profiles can be saved")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([""] + [repr(float(v)) for v in profile.snr_axis_db])
        for p_dbw, row in zip(profile.power_axis_dbw, profile.values):
            writer.writerow([repr(float(p_dbw))] + [repr(float(v)) for v in row])
