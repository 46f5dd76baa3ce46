"""Comparison schemes: fixed-power NOMA, orthogonal JSCC, and OFDMA.

All baselines use the channel-distinctive pairing rule (strongest with
weakest) and spend the whole budget by construction. Bandwidth-sharing
schemes scale the noise power with the bandwidth fraction so that the
single-user full-band limits of every scheme coincide.
"""

from __future__ import annotations

import numpy as np

from .pairing import PairingAssignment, UserTerminal, temporal_gap

__all__ = [
    "pair_distinctive",
    "fnoma_sum_rate",
    "ojscc_sum_rate",
    "ofdma_sum_rate",
]


def pair_distinctive(users) -> PairingAssignment:
    """Pair the strongest user with the weakest, second strongest with second weakest, etc."""
    users = list(users)
    if len(users) < 2 or len(users) % 2 != 0:
        raise ValueError(f"user count must be even and >= 2, got {len(users)}")
    # stable sort keeps id order among equal gains
    by_gain = sorted(users, key=lambda u: -u.link.gain)
    k = len(users) // 2
    pairs, gaps = [], []
    for i in range(k):
        strong, weak = by_gain[i], by_gain[-(i + 1)]
        pairs.append((strong.id, weak.id))
        gaps.append(temporal_gap(strong, weak))
    return PairingAssignment(pairs=tuple(pairs), gaps=tuple(gaps), feasible=True)


def _resolve_pairs(pairs):
    """Order each pair of UserTerminals as (strong, weak); any other pair is a TypeError."""
    out = []
    for pair in pairs:
        u, v = pair
        if not isinstance(u, UserTerminal) or not isinstance(v, UserTerminal):
            raise TypeError("pairs must contain UserTerminal objects")
        strong, weak = (u, v) if u.link.gain >= v.link.gain else (v, u)
        out.append((strong, weak))
    return out


def fnoma_sum_rate(pairs, p_max: float, fnoma_eta: float = 0.8) -> float:
    """Fixed-split NOMA sum rate with successive interference cancellation.

    Each group gets an equal share of the budget; within a group the weak
    user takes ``fnoma_eta`` of it. The strong user decodes after removing
    the weak user's signal, the weak user sees the strong user's power as
    interference. The degenerate top end eta = 1 (strong user silent) is
    admitted for boundary checks; configured schemes keep eta inside (0, 1).
    """
    if not 0.0 < fnoma_eta <= 1.0:
        raise ValueError(f"fnoma_eta must lie in (0, 1], got {fnoma_eta}")
    resolved = _resolve_pairs(pairs)
    p_k = p_max / len(resolved)
    total = 0.0
    for strong, weak in resolved:
        p_weak = fnoma_eta * p_k
        p_strong = (1.0 - fnoma_eta) * p_k
        sinr_strong = p_strong * strong.link.gain / strong.link.noise
        sinr_weak = p_weak * weak.link.gain / (p_strong * weak.link.gain + weak.link.noise)
        total += np.log2(1.0 + sinr_strong) + np.log2(1.0 + sinr_weak)
    return float(total)


def ojscc_sum_rate(pairs, p_max: float) -> float:
    """Orthogonal JSCC sum rate: pair members split bandwidth and power evenly.

    Each user transmits on half the group's band at half the group's power;
    the noise is halved with the bandwidth.
    """
    resolved = _resolve_pairs(pairs)
    p_k = p_max / len(resolved)
    total = 0.0
    for pair in resolved:
        for user in pair:
            sinr = (p_k / 2.0) * user.link.gain / (user.link.noise / 2.0)
            total += 0.5 * np.log2(1.0 + sinr)
    return float(total)


def ofdma_sum_rate(users, p_max: float) -> float:
    """Fully orthogonal sum rate: every user gets 1/M of bandwidth and power."""
    users = list(users)
    m = len(users)
    if m < 1:
        raise ValueError("need at least one user")
    total = 0.0
    for user in users:
        sinr = (p_max / m) * user.link.gain / (user.link.noise / m)
        total += (1.0 / m) * np.log2(1.0 + sinr)
    return float(total)
