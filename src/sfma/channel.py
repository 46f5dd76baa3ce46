"""User topology and large-scale channel generation.

The propagation model is log-distance path loss L(d) = 37 + 30*log10(d) dB
plus log-normal shadowing, with a fixed AWGN noise power per user. All
distances are in meters, powers in watts, gains are linear |h|^2 values.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Topology",
    "ChannelRealization",
    "place_users",
    "path_loss_db",
    "draw_channel",
    "D_MIN_M",
]

# Near-field guard: below 1 m the log-distance model would produce a gain
# above 0 dB, so distances are clamped.
D_MIN_M = 1.0


def _stream(seed: int, name: str) -> np.random.Generator:
    """Independent named RNG stream derived from a single root seed."""
    return np.random.default_rng([int(seed), zlib.crc32(name.encode("ascii"))])


@dataclass(frozen=True)
class Topology:
    """Base station plus user drop inside a square service area."""

    bs_position: np.ndarray  # (2,) meters
    users: np.ndarray        # (n, 2) meters
    area_side: float         # meters

    def __post_init__(self):
        bs = np.asarray(self.bs_position, dtype=float).reshape(2)
        users = np.atleast_2d(np.asarray(self.users, dtype=float))
        object.__setattr__(self, "bs_position", bs)
        object.__setattr__(self, "users", users)
        if users.shape[0] % 2 != 0 or users.shape[0] == 0:
            raise ValueError(f"user count must be even and positive, got {users.shape[0]}")
        if users.shape[1] != 2:
            raise ValueError("user positions must be 2-D coordinates")
        if self.area_side <= 0:
            raise ValueError(f"area_side must be positive, got {self.area_side}")
        half = self.area_side / 2.0
        if np.any(np.abs(users - bs[None, :]) > half + 1e-9):
            raise ValueError("user positions fall outside the service area")

    @property
    def n_users(self) -> int:
        return self.users.shape[0]

    def distances(self) -> np.ndarray:
        """Euclidean BS-to-user distances in meters, shape (n,)."""
        return np.hypot(*(self.users - self.bs_position[None, :]).T)


@dataclass(frozen=True)
class ChannelRealization:
    """Per-user linear power gains and noise powers for one drop."""

    gains: np.ndarray         # (n,) linear |h|^2
    noise_powers: np.ndarray  # (n,) watts

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        noise = np.asarray(self.noise_powers, dtype=float)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "noise_powers", noise)
        if gains.shape != noise.shape:
            raise ValueError("gains and noise_powers must have matching shapes")
        if np.any(gains <= 0):
            raise ValueError("all channel gains must be strictly positive")
        if np.any(noise <= 0):
            raise ValueError("all noise powers must be strictly positive")


def place_users(n: int, area_side: float, seed: int) -> Topology:
    """Drop n users i.i.d. uniformly in a square of side area_side centered on the BS.

    Deterministic for a fixed seed. n must be even (pairs are formed downstream).
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"user count must be even and >= 2, got {n}")
    if area_side <= 0:
        raise ValueError(f"area_side must be positive, got {area_side}")
    rng = _stream(seed, "placement")
    half = area_side / 2.0
    positions = rng.uniform(-half, half, size=(n, 2))
    return Topology(bs_position=np.zeros(2), users=positions, area_side=float(area_side))


def path_loss_db(d):
    """Log-distance path loss 37 + 30*log10(d) in dB, clamped at D_MIN_M."""
    d = np.asarray(d, dtype=float)
    clamped = np.maximum(d, D_MIN_M)
    out = 37.0 + 30.0 * np.log10(clamped)
    return float(out) if out.ndim == 0 else out


def draw_channel(
    topology: Topology,
    shadow_sigma_db: float,
    noise_dbw: float,
    seed: int,
    fading: bool = False,
) -> ChannelRealization:
    """Draw one channel realization for a topology.

    Gains are 10^(-(L(d)+S)/10) with S ~ Normal(0, shadow_sigma_db^2). The
    optional ``fading`` flag multiplies each gain by a unit-mean exponential
    small-scale term; it is off by default so runs stay reproducible under
    the plain path-loss-plus-shadowing model.
    """
    if shadow_sigma_db < 0:
        raise ValueError(f"shadow_sigma_db must be >= 0, got {shadow_sigma_db}")
    loss_db = path_loss_db(topology.distances())
    if shadow_sigma_db > 0:
        shadow = _stream(seed, "shadowing").normal(0.0, shadow_sigma_db, size=topology.n_users)
    else:
        shadow = np.zeros(topology.n_users)
    gains = 10.0 ** (-(loss_db + shadow) / 10.0)
    if fading:
        gains = gains * _stream(seed, "fading").exponential(1.0, size=topology.n_users)
    noise = np.full(topology.n_users, 10.0 ** (noise_dbw / 10.0))
    return ChannelRealization(gains=gains, noise_powers=noise)
