"""Support-plane height clustering with time-decayed confidence.

Touchdown heights tend to repeat (floor, stair treads); snapping new
footfalls to previously seen planes removes the slow elevation random walk
that raw anchors would otherwise accumulate.
"""

from dataclasses import dataclass

import numpy as np

MAX_PLANES = 64


@dataclass
class SupportPlane:
    """One clustered ground level: height, confidence weight, last update time."""

    height: float
    weight: float
    last_update: float


def prune_stale(planes, now, fade_time):
    """Drop planes not refreshed within fade_time seconds."""
    return [p for p in planes if now - p.last_update <= fade_time]


def correct_height(z_raw, planes, now, match_window, fade_time):
    """Snap a raw touchdown height to the support-plane store.

    Stale planes are pruned first. A plane within match_window of z_raw is a
    match; among several matches the closest wins (ties: heavier weight, then
    lower height). Inside the inner dead band (match_window / 10) the height
    passes through unchanged; otherwise it snaps exactly to the stored plane.
    A matched plane's weight decays by exp(-age / fade_time), age being the
    time since its last refresh, and gains one count; unmatched heights open
    a new plane of weight 1, evicting the lightest plane when the store holds
    MAX_PLANES.

    Returns (z_corrected, planes).
    """
    planes = prune_stale(planes, now, fade_time)

    best = None
    best_d = None
    for p in planes:
        d = abs(z_raw - p.height)
        if d > match_window:
            continue
        if best is None or d < best_d or (
                d == best_d and (p.weight > best.weight or
                                 (p.weight == best.weight and p.height < best.height))):
            best = p
            best_d = d

    if best is not None:
        dz = 0.0 if best_d <= match_window / 10.0 else z_raw - best.height
        z = z_raw - dz
        decay = float(np.exp(-(now - best.last_update) / fade_time))
        best.weight = best.weight * decay + 1.0
        best.last_update = now
        return z, planes

    if len(planes) >= MAX_PLANES:
        evict = min(planes, key=lambda p: (p.weight, p.last_update))
        planes.remove(evict)
    planes.append(SupportPlane(z_raw, 1.0, now))
    return z_raw, planes


def planes_to_json(planes):
    """Serializable view for the diagnostics stream."""
    return [{"h": p.height, "w": p.weight, "t": p.last_update} for p in planes]


__all__ = ["SupportPlane", "prune_stale", "correct_height", "planes_to_json",
           "MAX_PLANES"]
