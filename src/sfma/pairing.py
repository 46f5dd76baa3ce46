"""User pairing by greedy matching under a temporal-gap cap.

The preference value between two users is their pair sum rate (at fixed
equal-split powers) minus a weighted temporal gap. Because that value is
symmetric in the pair, every pair carries one value that both members
rank it by: a stable roommates instance with globally ranked pairs. Taking
the best gap-feasible pair, removing both users and repeating yields a
stable matching, and the only one when the values are strict (Abraham,
Levavi, Manlove and O'Malley, "The stable roommates problem with
globally-ranked pairs", WINE 2007). Users left without a gap-feasible
partner are reported as unmatchable rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .semantic_rate import InterferenceProfile, Link, rho_eval

__all__ = [
    "UserTerminal",
    "PairingAssignment",
    "temporal_gap",
    "preference_matrix",
    "pair_users",
]


@dataclass(frozen=True)
class UserTerminal:
    """One downlink user with its channel, rate demand, and requested frame index."""

    id: int
    link: Link
    min_rate: float = 0.0
    frame_time: int = 0

    def __post_init__(self):
        if self.min_rate < 0:
            raise ValueError(f"min_rate must be >= 0, got {self.min_rate}")


@dataclass(frozen=True)
class PairingAssignment:
    """A matching of users into 2-user groups plus per-pair temporal gaps."""

    pairs: tuple        # ((id, id), ...) with the lower id first
    gaps: tuple         # per-pair temporal gap, aligned with pairs
    unmatched: tuple = ()
    feasible: bool = True

    def __post_init__(self):
        seen = [u for pair in self.pairs for u in pair] + list(self.unmatched)
        if len(seen) != len(set(seen)):
            raise ValueError("users may appear in at most one pair")
        if len(self.pairs) != len(self.gaps):
            raise ValueError("gaps must align with pairs")


def temporal_gap(u: UserTerminal, v: UserTerminal) -> int:
    """Absolute difference of the two users' requested frame indices."""
    return abs(u.frame_time - v.frame_time)


def preference_matrix(users, power_per_user: float, profile: InterferenceProfile, alpha: float) -> np.ndarray:
    """All pairwise preference values; the diagonal is -inf.

    Under equal splits the group power is identical for every candidate
    pair, so each user's own rate term can be computed once and the pair
    value assembled additively.
    """
    gains = np.array([u.link.gain for u in users])
    noises = np.array([u.link.noise for u in users])
    frames = np.array([u.frame_time for u in users])
    group_power = 2.0 * power_per_user
    rho_own = rho_eval(profile, np.full(len(users), group_power), gains, noises)
    rates = np.log2(1.0 + power_per_user * gains / (rho_own * power_per_user * gains + noises))
    gaps = np.abs(frames[:, None] - frames[None, :])
    values = rates[:, None] + rates[None, :] - alpha * gaps
    np.fill_diagonal(values, -np.inf)
    return values


def _ranked_pairs(values: np.ndarray, gaps: np.ndarray, delta_max: float):
    """The pairs (i, j), i < j, with gap at most ``delta_max``, as two lists.

    Highest value first, ties broken by the lower and then the higher index:
    the pairs come in (i, j) order, which a stable sort on the values keeps
    among equals.
    """
    lower, higher = np.nonzero(np.triu(gaps <= delta_max, 1))
    ranked = np.argsort(-values[lower, higher], kind="stable")
    return lower[ranked].tolist(), higher[ranked].tolist()


def pair_users(
    users,
    powers: float,
    profile: InterferenceProfile,
    alpha: float,
    delta_max: float,
) -> PairingAssignment:
    """Match users into pairs by greedy matching over globally ranked pairs.

    Every pair whose temporal gap is at most ``delta_max`` is ranked by
    preference value, highest first, with ties broken by the lower and then
    the higher user index in id order. One walk down that ranking takes each
    pair whose two users are both still free. A pair left out has a member
    taken earlier by a pair ranked no lower, so it cannot block the result,
    and two users left over cannot be paired within the cap. With strict
    values this is the unique stable matching.
    """
    m = len(users)
    if m < 2 or m % 2 != 0:
        raise ValueError(f"user count must be even and >= 2, got {m}")
    if len({u.id for u in users}) != m:
        raise ValueError("user ids must be unique")
    users = sorted(users, key=lambda u: u.id)
    values = preference_matrix(users, powers, profile, alpha)
    frames = np.array([u.frame_time for u in users])
    gaps = np.abs(frames[:, None] - frames[None, :])

    partner = [None] * m
    for i, j in zip(*_ranked_pairs(values, gaps, delta_max)):
        if partner[i] is None and partner[j] is None:
            partner[i], partner[j] = j, i

    # users are in id order, so i < j lists each pair once, lower id first, in order
    matched = [(i, j) for i, j in enumerate(partner) if j is not None and i < j]
    unmatched = tuple(users[i].id for i in range(m) if partner[i] is None)
    return PairingAssignment(
        pairs=tuple((users[i].id, users[j].id) for i, j in matched),
        gaps=tuple(int(gaps[i, j]) for i, j in matched),
        unmatched=unmatched,
        feasible=not unmatched,
    )
